"""Tests for SLP construction / compression (experiment C10's correctness)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SLPError
from repro.slp import (
    SLP,
    balanced_node,
    fibonacci_node,
    lz78_node,
    power_node,
    repair_node,
    repeat_node,
)
from repro.util import log_document
from tests.slp_oracles import quadratic_repair_node


BUILDERS = [balanced_node, repair_node, lz78_node]


class TestRoundTrips:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_catalogue(self, builder):
        for text in [
            "a",
            "ab",
            "aaaa",
            "abcabcabc",
            "mississippi",
            "ab" * 100,
            "abc" * 33 + "x",
        ]:
            slp = SLP()
            assert slp.derive(builder(slp, text)) == text

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_empty_rejected(self, builder):
        with pytest.raises(SLPError):
            builder(SLP(), "")

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="abc", min_size=1, max_size=80))
    def test_property_round_trip(self, text):
        for builder in BUILDERS:
            slp = SLP()
            assert slp.derive(builder(slp, text)) == text


class TestCompression:
    def test_repair_compresses_repetitive_text(self):
        text = "abcabc" * 64
        slp = SLP()
        node = repair_node(slp, text)
        assert slp.size(node) < len(text) // 4

    def test_lz78_compresses_repetitive_text(self):
        text = "ab" * 256
        slp = SLP()
        node = lz78_node(slp, text)
        assert slp.size(node) < len(text) // 4

    def test_power_node_is_logarithmic(self):
        slp = SLP()
        node = power_node(slp, "ab", 20)
        assert slp.length(node) == 2 * 2 ** 20
        assert slp.size(node) <= 3 + 20  # O(|w| + exponent)

    def test_balanced_node_is_linear_not_compressed(self):
        slp = SLP()
        text = "abcdefgh" * 4
        node = balanced_node(slp, text)
        assert slp.size(node) >= len(text) // 2


def _assert_same_build(texts):
    """Feed *texts* into one shared arena through both Re-Pair builders;
    every root id and the whole arena must agree, node for node."""
    fast, oracle = SLP(), SLP()
    for text in texts:
        root = repair_node(fast, text)
        assert root == quadratic_repair_node(oracle, text)
        assert fast.columns() == oracle.columns()
        assert fast.derive(root) == text


class TestRepairMatchesQuadraticOracle:
    """The incremental Re-Pair reproduces the quadratic one exactly: same
    tie-break on the leftmost occurrence, same ⌊k/2⌋ left-aligned pairs
    on runs, same allocation order."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["a", "ab", "abc", "aab", "ab "]).flatmap(
            lambda alphabet: st.text(alphabet=alphabet, min_size=1, max_size=120)
        )
    )
    def test_small_alphabets(self, text):
        _assert_same_build([text])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(1, 40)),
            min_size=1,
            max_size=8,
        )
    )
    def test_long_single_letter_runs(self, runs):
        _assert_same_build(["".join(ch * k for ch, k in runs)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ab ", min_size=1, max_size=60),
            min_size=2,
            max_size=6,
        )
    )
    def test_into_an_arena_holding_other_documents(self, texts):
        _assert_same_build(texts)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 10_000))
    def test_log_documents(self, lines, seed):
        _assert_same_build(
            [log_document(lines, seed=seed), log_document(lines, seed=seed + 1)]
        )

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 64, 65, 1000])
    def test_single_letter_documents(self, length):
        _assert_same_build(["a" * length])


class TestRepeat:
    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=6), st.integers(1, 40))
    def test_repeat_round_trip(self, word, times):
        slp = SLP()
        base = balanced_node(slp, word)
        node = repeat_node(slp, base, times)
        assert slp.derive(node) == word * times
        assert slp.is_strongly_balanced(node)

    def test_repeat_zero_rejected(self):
        slp = SLP()
        with pytest.raises(SLPError):
            repeat_node(slp, slp.terminal("a"), 0)

    def test_repeat_is_logarithmic_in_count(self):
        slp = SLP()
        base = balanced_node(slp, "xyz")
        before = slp.num_nodes()
        repeat_node(slp, base, 10**6)
        created = slp.num_nodes() - before
        assert created <= 40 * math.ceil(math.log2(10**6))


class TestFibonacci:
    def test_first_words(self):
        slp = SLP()
        expected = ["b", "a", "ab", "aba", "abaab", "abaababa"]
        for index, word in enumerate(expected, start=1):
            assert slp.derive(fibonacci_node(slp, index)) == word

    def test_recurrence(self):
        slp = SLP()
        f9 = slp.derive(fibonacci_node(slp, 9))
        f8 = slp.derive(fibonacci_node(slp, 8))
        f7 = slp.derive(fibonacci_node(slp, 7))
        assert f9 == f8 + f7

    def test_strongly_balanced_by_construction(self):
        slp = SLP()
        node = fibonacci_node(slp, 25)
        assert slp.is_strongly_balanced(node)
        assert slp.size(node) <= 2 * 25

    def test_bad_index(self):
        with pytest.raises(SLPError):
            fibonacci_node(SLP(), 0)
