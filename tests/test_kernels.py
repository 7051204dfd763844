"""Differential tests for the packed-bitset kernels and the plan cache.

Every packed primitive is checked against the seed float32 implementation
(``reference_mm`` / ``reference_compose_pure`` in ``tests/kernel_oracles.py``)
on random inputs, including sizes on both sides of the batched-matmul
crossover; the shared ``(σ, T, T_em)`` combine is checked against a
per-pair bool reference built from them, and against the three callers
that must agree on it bit for bit (SLP preprocessing, the text fold, the
stream guard).
The golden anchors at the bottom pin the packed evaluation pipeline to
the paper's own examples: the spanner of Example 1.1 and the SLP of
Figure 1 produce exactly the results they did before the kernel layer
existed.
"""

import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    BitMatrix,
    PackedVec,
    PlanCache,
    bool_mm,
    bool_mm_many,
    combine_rows,
    function_bits,
    function_bits_many,
    intern_many,
    intern_matrix,
    matvec,
    mm_rows,
    pack_rows,
    pack_vec,
    unpack_rows,
    unpack_vec,
    words_for,
)
from repro.parallel import fold, text_entry
from repro.regex import spanner_from_regex
from repro.slp import SLP, SLPSpannerEvaluator
from repro.slp.balance import rebalance
from repro.slp.build import repair_node
from repro.stream import WindowedSpannerStream
from tests.kernel_oracles import (
    reference_combine,
    reference_compose_pure,
    reference_mm,
)

_DEAD = -1


def _random_bool(rng, *shape, density=0.3):
    return rng.random(shape) < density


def _random_sigma(rng, q, dead_fraction=0.3):
    sigma = rng.integers(0, q, size=q, dtype=np.int64)
    sigma[rng.random(q) < dead_fraction] = _DEAD
    return sigma


# ----------------------------------------------------------------------
# packing round-trips
# ----------------------------------------------------------------------
class TestPacking:
    @pytest.mark.parametrize("q", [1, 3, 63, 64, 65, 128, 130, 200])
    def test_rows_round_trip(self, q):
        rng = np.random.default_rng(q)
        bools = _random_bool(rng, 5, q)
        packed = pack_rows(bools)
        assert packed.shape == (5, words_for(q))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_rows(packed, q), bools)

    @pytest.mark.parametrize("q", [1, 64, 65, 130])
    def test_vec_round_trip(self, q):
        rng = np.random.default_rng(q)
        bools = _random_bool(rng, q)
        assert np.array_equal(unpack_vec(pack_vec(bools), q), bools)

    def test_words_for_minimum_one(self):
        assert words_for(0) == 1
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2

    def test_padding_bits_are_zero(self):
        # q=65 leaves 63 pad bits in the second word; they must stay zero
        # or fingerprints and row_and_any would see ghost states
        bools = np.ones((2, 65), dtype=bool)
        packed = pack_rows(bools)
        assert packed[0, 1] == np.uint64(1)

    def test_bitmatrix_holds_packed_rows_only(self):
        rng = np.random.default_rng(0)
        bools = _random_bool(rng, 70, 70)
        m = BitMatrix.from_bool(bools)
        assert BitMatrix.__slots__ == ("q", "rows")
        assert m.nbytes == m.rows.nbytes
        dense = m.to_bool()
        assert np.array_equal(dense, bools)
        # to_bool is a fresh unpack: writing to it leaves the rows alone
        dense[:] = False
        assert np.array_equal(m.to_bool(), bools)


# ----------------------------------------------------------------------
# products: packed vs the seed reference
# ----------------------------------------------------------------------
class TestProducts:
    @pytest.mark.parametrize("q", [4, 64, 69, 129, 200])
    def test_bool_mm_matches_reference(self, q):
        rng = np.random.default_rng(q)
        a, b = _random_bool(rng, q, q), _random_bool(rng, q, q)
        got = bool_mm(BitMatrix.from_bool(a), BitMatrix.from_bool(b))
        assert np.array_equal(got.to_bool(), reference_mm(a, b))

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_bool_mm_property(self, q, seed):
        rng = np.random.default_rng(seed)
        a = _random_bool(rng, q, q, density=0.4)
        b = _random_bool(rng, q, q, density=0.4)
        got = bool_mm(BitMatrix.from_bool(a), BitMatrix.from_bool(b))
        assert np.array_equal(got.to_bool(), reference_mm(a, b))

    # both sides of the _BATCH_MM_MAX_Q crossover take different code paths
    @pytest.mark.parametrize("q", [30, 70, 140])
    def test_bool_mm_many_matches_per_pair_reference(self, q):
        rng = np.random.default_rng(q)
        mats = [BitMatrix.from_bool(_random_bool(rng, q, q)) for _ in range(6)]
        pairs = [(mats[i], mats[(i * 3 + 1) % 6]) for i in range(6)]
        got = bool_mm_many(pairs)
        for result, (a, b) in zip(got, pairs):
            assert np.array_equal(
                result.to_bool(), reference_mm(a.to_bool(), b.to_bool())
            )

    def test_bool_mm_many_empty(self):
        assert bool_mm_many([]) == []

    def test_duplicate_pairs_share_one_result(self):
        rng = np.random.default_rng(1)
        a = BitMatrix.from_bool(_random_bool(rng, 20, 20))
        b = BitMatrix.from_bool(_random_bool(rng, 20, 20))
        got = bool_mm_many([(a, b), (a, b), (a, b)])
        assert got[0] is got[1] is got[2]

    def test_intern_pool_canonicalises_equal_content(self):
        # equal products from *different* operand objects: identity
        # grouping misses them, the intern pool must catch them
        rng = np.random.default_rng(2)
        bools_a = _random_bool(rng, 20, 20)
        bools_b = _random_bool(rng, 20, 20)
        a1, a2 = BitMatrix.from_bool(bools_a), BitMatrix.from_bool(bools_a)
        b1, b2 = BitMatrix.from_bool(bools_b), BitMatrix.from_bool(bools_b)
        pool: dict = {}
        got = bool_mm_many([(a1, b1), (a2, b2)], intern=pool)
        assert got[0] is got[1]
        # without the pool they stay distinct objects (equal content)
        bare = bool_mm_many([(a1, b1), (a2, b2)])
        assert bare[0] is not bare[1]
        assert np.array_equal(bare[0].to_bool(), bare[1].to_bool())

    def test_intern_matrix_is_exact_content(self):
        m1 = BitMatrix.from_bool(np.eye(10, dtype=bool))
        m2 = BitMatrix.from_bool(~np.eye(10, dtype=bool))
        pool: dict = {}
        assert intern_matrix(pool, m1) is m1
        # unequal content stays apart
        assert intern_matrix(pool, m2) is m2
        # equal content interns to the first object
        m3 = BitMatrix.from_bool(np.eye(10, dtype=bool))
        assert intern_matrix(pool, m3) is m1
        # the same words under another shape stay apart
        reshaped = BitMatrix(m1.rows.reshape(5, 2), 70)
        assert reshaped.rows.tobytes() == m1.rows.tobytes()
        assert intern_matrix(pool, reshaped) is reshaped
        assert len(pool) == 3

    def test_intern_many_matches_one_at_a_time(self):
        rng = np.random.default_rng(3)
        bools = _random_bool(rng, 15, 15)
        batch = [
            BitMatrix.from_bool(bools),
            BitMatrix.from_bool(~bools),
            BitMatrix.from_bool(bools),
        ]
        pool: dict = {}
        out = intern_many(pool, batch)
        assert out[0] is batch[0]
        assert out[1] is batch[1]
        assert out[2] is batch[0]
        assert intern_many(pool, []) == []


# ----------------------------------------------------------------------
# mat-vec, σ-composition, σ-scatter
# ----------------------------------------------------------------------
class TestRowKernels:
    @pytest.mark.parametrize("q", [5, 64, 100])
    def test_matvec_matches_dense(self, q):
        rng = np.random.default_rng(q)
        a = _random_bool(rng, q, q)
        v = _random_bool(rng, q)
        got = matvec(BitMatrix.from_bool(a), PackedVec(v))
        assert np.array_equal(got.bools, (a & v).any(axis=1))
        assert got.any() == bool((a @ v).any())

    @pytest.mark.parametrize("q", [5, 64, 100])
    def test_combine_sigma_pull_matches_reference(self, q):
        # with T_em_L · T_R empty, T_em of the pair is exactly the σ_L-pull
        # of T_em_R (dead rows zeroed)
        rng = np.random.default_rng(q + 1)
        sigma_l, sigma_r = _random_sigma(rng, q), _random_sigma(rng, q)
        matrix = _random_bool(rng, q, q)
        empty = np.zeros((1, q, words_for(q)), dtype=np.uint64)
        _, _, t_em = combine_rows(
            sigma_l[None], sigma_r[None], pack_rows(matrix)[None], empty, q
        )
        assert np.array_equal(
            unpack_rows(t_em[0], q), reference_compose_pure(sigma_l, matrix)
        )

    @pytest.mark.parametrize("q", [5, 64, 100])
    def test_function_bits_matches_dense_scatter(self, q):
        rng = np.random.default_rng(q + 2)
        sigma = _random_sigma(rng, q)
        dense = np.zeros((q, q), dtype=bool)
        valid = np.nonzero(sigma != _DEAD)[0]
        dense[valid, sigma[valid]] = True
        assert np.array_equal(function_bits(sigma, q).to_bool(), dense)

    def test_function_bits_many_matches_single(self):
        rng = np.random.default_rng(9)
        q = 70
        sigmas = np.stack([_random_sigma(rng, q) for _ in range(4)])
        batched = function_bits_many(sigmas, q)
        for k in range(4):
            assert np.array_equal(batched[k], function_bits(sigmas[k], q).rows)

    def test_row_and_any(self):
        a = np.zeros((2, 70), dtype=bool)
        a[0, 69] = True
        m = BitMatrix.from_bool(a)
        v = np.zeros(70, dtype=bool)
        v[69] = True
        words = pack_vec(v)
        assert m.row_and_any(0, words)
        assert not m.row_and_any(1, words)


# ----------------------------------------------------------------------
# the shared (σ, T, T_em) combine
# ----------------------------------------------------------------------
def _random_entry(rng, q, density):
    return (
        _random_sigma(rng, q),
        _random_bool(rng, q, q, density=density),
        _random_bool(rng, q, q, density=density),
    )


def _stack(entries, i):
    return np.stack([entry[i] for entry in entries])


def _assert_entries_equal(left, right):
    assert np.array_equal(left[0], right[0])
    assert np.array_equal(left[1].rows, right[1].rows)
    assert np.array_equal(left[2].rows, right[2].rows)


class TestCombine:
    @settings(max_examples=60, deadline=None)
    @given(
        # one packed word per row, and two
        q=st.one_of(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=65, max_value=128),
        ),
        pairs=st.integers(min_value=1, max_value=4),
        density=st.sampled_from([0.02, 0.2, 0.6]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_combine_matches_per_pair_reference(self, q, pairs, density, seed):
        rng = np.random.default_rng(seed)
        lefts = [_random_entry(rng, q, density) for _ in range(pairs)]
        rights = [_random_entry(rng, q, density) for _ in range(pairs)]
        product = mm_rows(
            pack_rows(_stack(lefts, 2)), pack_rows(_stack(rights, 1)), q
        )
        sigma, t_rows, t_em_rows = combine_rows(
            _stack(lefts, 0),
            _stack(rights, 0),
            pack_rows(_stack(rights, 2)),
            product,
            q,
        )
        for k in range(pairs):
            want_sigma, want_t, want_em = reference_combine(lefts[k], rights[k], q)
            assert np.array_equal(sigma[k], want_sigma)
            assert np.array_equal(unpack_rows(t_rows[k], q), want_t)
            assert np.array_equal(unpack_rows(t_em_rows[k], q), want_em)

    @settings(max_examples=25, deadline=None)
    @given(
        text=st.text(alphabet="abc", min_size=1, max_size=60),
        chunk_size=st.integers(min_value=2, max_value=9),
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=4),
    )
    def test_preprocess_text_fold_and_stream_guard_agree(
        self, text, chunk_size, cuts
    ):
        pattern = "(a|b|c)*!x{ab(c|a)*}(a|b|c)*"
        evaluator = SLPSpannerEvaluator(spanner_from_regex(pattern))
        q = evaluator.det.num_states
        slp = SLP()
        node = rebalance(slp, repair_node(slp, text))
        evaluator.preprocess(slp, node)
        root = evaluator.node_entry(slp, node)
        # patched inside the body (not by a fixture) so every hypothesis
        # example runs under its own chunk size
        with patch.object(fold, "DEFAULT_CHUNK", chunk_size):
            folded = text_entry(evaluator.char_entries(text), text, q)
            _assert_entries_equal(root, folded)
            # the stream guard folds the raw feed window by window and
            # checks it against its own SLP root after every window
            stream = WindowedSpannerStream(pattern)
            bounds = sorted({0, len(text), *(c for c in cuts if c < len(text))})
            for start, end in zip(bounds, bounds[1:]):
                stream.ingest(text[start:end])
        assert stream.stats()["guard_trips"] == 0
        _assert_entries_equal(stream._prefix_entry, root)


# ----------------------------------------------------------------------
# the plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    SOURCES = ["!x{a}", "!x{b}", "!x{ab}", "!x{a*}"]

    def test_hit_returns_same_plan(self):
        cache = PlanCache()
        first = cache.get_or_compile("!x{a*b}")
        second = cache.get_or_compile("!x{a*b}")
        assert first is second
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1
        assert "!x{a*b}" in cache and len(cache) == 1

    def test_lru_entry_eviction(self):
        cache = PlanCache(max_entries=2)
        a = cache.get_or_compile(self.SOURCES[0])
        cache.get_or_compile(self.SOURCES[1])
        cache.get_or_compile(self.SOURCES[0])  # refresh a: b is now LRU
        cache.get_or_compile(self.SOURCES[2])  # evicts b
        assert self.SOURCES[1] not in cache
        assert cache.get_or_compile(self.SOURCES[0]) is a
        assert cache.stats()["evictions"] == 1

    def test_byte_budget_eviction(self):
        # a 1-byte budget can never hold *any* warm plan (cold plans own
        # zero matrix bytes); once evaluators warm up, the byte check on
        # the next access must evict every over-budget entry — including
        # the last one (an over-budget plan is never silently retained)
        from repro.slp import SLP, balanced_node

        cache = PlanCache(max_entries=8, max_bytes=1)
        slp = SLP()
        node = balanced_node(slp, "abab")
        for source in self.SOURCES:
            plan = cache.get_or_compile(source)
            assert plan.source == source
            plan.evaluator.preprocess(slp, node)  # warm: cache_bytes > 0
        cache.get_or_compile(self.SOURCES[-1])  # byte check runs on access
        assert len(cache) == 0
        assert cache.stats()["evictions"] >= len(self.SOURCES)

    def test_zero_entries_disables_retention(self):
        cache = PlanCache(max_entries=0)
        first = cache.get_or_compile("!x{a}")
        second = cache.get_or_compile("!x{a}")
        assert first is not second
        assert len(cache) == 0

    def test_clear(self):
        cache = PlanCache()
        cache.get_or_compile("!x{a}")
        cache.clear()
        assert len(cache) == 0

    def test_plan_evaluates(self):
        plan = PlanCache().get_or_compile("!x{(a|b)*}!y{b}!z{(a|b)*}")
        from repro.slp import SLP, balanced_node

        slp = SLP()
        node = balanced_node(slp, "ababbab")
        relation = plan.evaluator.evaluate(slp, node)
        assert len(relation) == 4  # one tuple per 'b' in the document

    def test_thread_hammer(self):
        cache = PlanCache(max_entries=3)
        errors = []

        def worker(offset):
            try:
                for i in range(20):
                    source = self.SOURCES[(i + offset) % len(self.SOURCES)]
                    plan = cache.get_or_compile(source)
                    assert plan.source == source
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 120

    def test_single_over_budget_plan_is_evicted(self):
        # regression: _shrink used to stop at one entry, silently retaining
        # a lone warm plan larger than max_bytes forever
        from repro.slp import SLP, balanced_node

        cache = PlanCache(max_entries=8, max_bytes=1)
        plan = cache.get_or_compile(self.SOURCES[0])
        slp = SLP()
        plan.evaluator.preprocess(slp, balanced_node(slp, "abab"))
        assert plan.cache_bytes() > 1
        cache.get_or_compile(self.SOURCES[0])  # access refreshes accounting
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["evictions"] >= 1
        assert stats["over_budget"] >= 1
        assert stats["bytes"] == 0

    def test_stats_shrink_plans_that_grew_since_their_last_access(self):
        # regression: stats() re-accounted grown plans but never shrank,
        # reporting bytes above max_bytes
        from repro.slp import SLP, balanced_node

        cache = PlanCache(max_entries=8, max_bytes=20_000)
        big = cache.get_or_compile("!x{(a|b)*}!y{b}!z{(a|b)*}")
        slp = SLP()
        rng = np.random.default_rng(7)
        text = "".join(rng.choice(["a", "b"], size=2048))
        big.evaluator.preprocess(slp, balanced_node(slp, text))
        assert big.cache_bytes() > cache.max_bytes
        stats = cache.stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["over_budget"] == 1
        assert stats["entries"] == len(cache) == 0

    def test_distinct_sources_compile_concurrently(self, monkeypatch):
        # regression: get_or_compile used to hold the cache lock across
        # _compile, so a slow compile of one source stalled every other
        # miss.  Source A's compile blocks until source B's finishes; if
        # compilation were serialised under the lock this would deadlock.
        import repro.kernels.plan as plan_module

        real_compile = plan_module._compile
        b_compiled = threading.Event()

        def fake_compile(source):
            if source == self.SOURCES[0]:
                assert b_compiled.wait(timeout=10), "compiles are serialised"
            result = real_compile(source)
            if source == self.SOURCES[1]:
                b_compiled.set()
            return result

        monkeypatch.setattr(plan_module, "_compile", fake_compile)
        cache = PlanCache()
        threads = [
            threading.Thread(target=cache.get_or_compile, args=(source,))
            for source in self.SOURCES[:2]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
            assert not t.is_alive(), "distinct-source compiles deadlocked"
        assert self.SOURCES[0] in cache and self.SOURCES[1] in cache

    def test_same_source_compiles_once_under_concurrency(self, monkeypatch):
        import repro.kernels.plan as plan_module

        real_compile = plan_module._compile
        calls = []
        gate = threading.Barrier(5, timeout=10)

        def fake_compile(source):
            calls.append(source)
            return real_compile(source)

        monkeypatch.setattr(plan_module, "_compile", fake_compile)
        cache = PlanCache()
        results = []

        def worker():
            gate.wait()
            results.append(cache.get_or_compile(self.SOURCES[0]))

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert len(calls) == 1, "in-flight dedup failed: compiled repeatedly"
        assert len(results) == 5 and all(r is results[0] for r in results)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 5

    def test_failed_compile_releases_inflight_slot(self):
        cache = PlanCache()
        from repro.errors import RegexSyntaxError

        with pytest.raises(RegexSyntaxError):
            cache.get_or_compile("0{²")
        # the in-flight slot must be released so a corrected retry works
        with pytest.raises(RegexSyntaxError):
            cache.get_or_compile("0{²")
        assert cache.get_or_compile(self.SOURCES[0]).source == self.SOURCES[0]


# ----------------------------------------------------------------------
# golden anchors: the paper's own examples through the packed path
# ----------------------------------------------------------------------
class TestGoldenExamples:
    def test_example_1_1_packed_equals_uncompressed(self):
        """The spanner of Example 1.1 on 'ababbab': the packed compressed
        pipeline returns exactly the uncompressed enumerator's relation."""
        from repro.enumeration import Enumerator
        from repro.regex import spanner_from_regex
        from repro.slp import SLP, SLPSpannerEvaluator, balanced_node

        spanner = spanner_from_regex("!x{(a|b)*}!y{b}!z{(a|b)*}")
        slp = SLP()
        node = balanced_node(slp, "ababbab")
        packed = SLPSpannerEvaluator(spanner).evaluate(slp, node)
        assert packed == Enumerator(spanner).evaluate("ababbab")
        assert len(packed) == 4  # one tuple per 'b' in the document

    def test_figure_1_slp_membership_unchanged(self):
        """NFA membership on the Figure 1 SLP agrees with direct
        simulation of the derived documents."""
        from repro.regex import compile_nfa
        from repro.slp import CompressedMembership, figure_1_slp, simulate_uncompressed

        slp, nodes = figure_1_slp()
        documents = {
            "A1": "ababbcabca",
            "A2": "bcabcaabbca",
            "A3": "ababbca",
            "B": "abbca",
            "D": "bcaabbca",
        }
        for pattern in ["(a|b|c)*bca", "(a|b)*c(a|b|c)*", "ab(a|b|c)*", "(ab)*"]:
            nfa = compile_nfa(pattern)
            oracle = CompressedMembership(nfa)
            for name, text in documents.items():
                assert slp.derive(nodes[name]) == text
                assert oracle.accepts(slp, nodes[name]) == simulate_uncompressed(
                    nfa, text
                ), (pattern, name)

    def test_figure_1_spanner_extraction(self):
        """Spanner evaluation over the Figure 1 documents matches the
        uncompressed enumerator for every designated node."""
        from repro.enumeration import Enumerator
        from repro.regex import spanner_from_regex
        from repro.slp import SLPSpannerEvaluator, figure_1_slp

        slp, nodes = figure_1_slp()
        spanner = spanner_from_regex("(a|b|c)*!x{bca}(a|b|c)*")
        evaluator = SLPSpannerEvaluator(spanner)
        enumerator = Enumerator(spanner)
        for name in ["A1", "A2", "A3"]:
            text = slp.derive(nodes[name])
            assert evaluator.evaluate(slp, nodes[name]) == enumerator.evaluate(text)
