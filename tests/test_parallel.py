"""Tests for :mod:`repro.parallel` — the fold of one plain-text
document — and for the bulk query API, which needs no parallelism.

The load-bearing property is *bit-for-bit determinism*: the ``(σ, T,
T_em)`` combine is associative and exact, so every chunk size must
produce *identical packed words* — not merely equal relations.  These
tests assert that differentially against the SLP ``preprocess`` path,
then check the bulk API layers (``SpannerDB.query_bulk``,
``SpannerService.submit_bulk``) give exactly the per-document answers."""

import random
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from repro.db import SpannerDB
from repro.errors import DeadlineExceededError, MemoryLimitError
from repro.parallel import combine, fold, identity_entry, text_entry
from repro.parallel.fold import _combine_level, level_bytes
from repro.regex import spanner_from_regex
from repro.serve import BulkQueryResult, ServeConfig, SpannerService
from repro.slp import SLP, SLPSpannerEvaluator, balanced_node
from repro.util import Budget, Deadline

PATTERNS = [
    "!x{(a|b)*}!y{b}!z{(a|b)*}",
    "(a|b)*!x{ab}(a|b)*",
    "(a|b)*!x{a+}!y{b+}(a|b)*",
    "(!x{a})?(a|b)*",
]


def _entries_equal(left, right) -> bool:
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


def _slp_entry(evaluator, text):
    """The entry ``preprocess`` computes for *text* (the serial anchor)."""
    slp = SLP()
    node = balanced_node(slp, text)
    evaluator.preprocess(slp, node)
    return evaluator.node_entry(slp, node)


def _fold(evaluator, text, budget=None):
    """The entry of *text* folded by :func:`repro.parallel.text_entry`."""
    return text_entry(
        evaluator.char_entries(text), text, evaluator.det.num_states, budget=budget
    )


class TestFold:
    def test_identity_is_neutral(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        q = evaluator.det.num_states
        entry = _fold(evaluator, "abba")
        ident = identity_entry(q)
        assert _entries_equal(combine(ident, entry, q), entry)
        assert _entries_equal(combine(entry, ident, q), entry)

    def test_combine_is_associative(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        q = evaluator.det.num_states
        rng = random.Random(7)
        for _ in range(10):
            a, b, c = (
                _fold(
                    evaluator,
                    "".join(rng.choice("ab") for _ in range(rng.randint(1, 9))),
                )
                for _ in range(3)
            )
            left = combine(combine(a, b, q), c, q)
            right = combine(a, combine(b, c, q), q)
            assert _entries_equal(left, right)

    def test_fold_matches_slp_preprocess_bit_for_bit(self):
        rng = random.Random(11)
        for pattern in PATTERNS:
            evaluator = SLPSpannerEvaluator(spanner_from_regex(pattern))
            for _ in range(5):
                text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 60)))
                got = _fold(evaluator, text)
                assert _entries_equal(got, _slp_entry(evaluator, text)), (
                    pattern,
                    text,
                )

    def test_fold_of_several_default_chunks_matches_slp_preprocess(self):
        """A text longer than one ``DEFAULT_CHUNK`` folds chunk by chunk,
        then folds the chunk entries, at the real constant."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[2]))
        rng = random.Random(19)
        text = "".join(rng.choice("ab") for _ in range(2 * fold.DEFAULT_CHUNK + 77))
        assert _entries_equal(_fold(evaluator, text), _slp_entry(evaluator, text))

    def test_entry_independent_of_chunk_size(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[2]))
        rng = random.Random(13)
        text = "".join(rng.choice("ab") for _ in range(257))
        anchor = _fold(evaluator, text)
        for chunk_size in (2, 16, 64, 4096):
            with patch.object(fold, "DEFAULT_CHUNK", chunk_size):
                got = _fold(evaluator, text)
            assert _entries_equal(got, anchor), chunk_size

    def test_lone_surrogate_text_matches_slp_preprocess(self):
        """A lone surrogate is a legal ``str`` character but not valid
        UTF-32; the fold must read its code like ``ord()`` does."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        text = "ab\ud800b" * 3
        assert _entries_equal(_fold(evaluator, text), _slp_entry(evaluator, text))

    def test_wide_unicode_matches_slp_preprocess(self):
        """Astral-plane characters fold by their code point, exactly as
        the SLP path reads them."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex("(a|\U0001F600)*!x{a}"))
        text = "a\U0001F600" * 40 + "a"
        assert _entries_equal(_fold(evaluator, text), _slp_entry(evaluator, text))

    def test_steps_are_charged_to_the_budget(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        budget = Budget(max_steps=10_000_000)
        _fold(evaluator, "ab" * 200, budget)
        assert budget.steps > 0

    def test_expired_deadline_raises(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        budget = Budget(deadline=Deadline(at=0.0))
        with pytest.raises(DeadlineExceededError):
            _fold(evaluator, "ab" * 3000, budget)

    def test_empty_document(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex("!x{a*}"))
        q = evaluator.det.num_states
        entry = _fold(evaluator, "")
        assert _entries_equal(entry, identity_entry(q))
        assert evaluator.entry_is_nonempty(entry)  # ε matches a*

    def test_entry_nonemptiness_agrees_with_slp(self):
        rng = random.Random(17)
        evaluator = SLPSpannerEvaluator(spanner_from_regex("(a|b)*!x{ab}(a|b)*"))
        for _ in range(20):
            text = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            slp = SLP()
            node = balanced_node(slp, text) if text else None
            if text:
                want = evaluator.is_nonempty(slp, node)
            else:
                want = "ab" in text
            assert evaluator.entry_is_nonempty(_fold(evaluator, text)) == want, text


#: |Q| = 69, so a chunk's first level multiplies 512 pairs of 69×69 stacks
WIDE_PATTERN = "(a|b)*a(a|b){5}!x{(a|b)*}"


class TestLevelBytes:
    """The fold's memory charge is what a reduction level builds."""

    @staticmethod
    def _evaluator_and_text():
        evaluator = SLPSpannerEvaluator(spanner_from_regex(WIDE_PATTERN))
        rng = random.Random(29)
        return evaluator, "".join(rng.choice("ab") for _ in range(8 * 1024))

    def test_charge_tracks_the_measured_level_peak(self):
        evaluator, text = self._evaluator_and_text()
        q = evaluator.det.num_states
        table = evaluator.char_entries("ab")
        entries = [table[ch] for ch in text[:1024]]
        sigmas = np.stack([entry[0] for entry in entries])
        t_rows = np.stack([entry[1].rows for entry in entries])
        t_em_rows = np.stack([entry[2].rows for entry in entries])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _combine_level(sigmas, t_rows, t_em_rows, q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        charge = level_bytes(512, q)
        assert 0.9 <= charge / peak <= 1.15, (charge, peak)

    def test_budget_just_above_and_just_below_the_level_bytes(self):
        """The largest level of a default-chunk fold is a chunk's first,
        512 pairs: a budget of exactly its bytes folds to the unbudgeted
        entry, one byte less raises before the level is built."""
        evaluator, text = self._evaluator_and_text()
        q = evaluator.det.num_states
        need = level_bytes(512, q)
        want = _fold(evaluator, text)
        got = _fold(evaluator, text, Budget(max_bytes=need))
        assert _entries_equal(got, want)
        with pytest.raises(MemoryLimitError):
            _fold(evaluator, text, Budget(max_bytes=need - 1))


class TestQueryBulk:
    @staticmethod
    def _store(rng, docs=6):
        db = SpannerDB()
        names = []
        for index in range(docs):
            name = f"doc{index}"
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
            db.add_document(name, text)
            names.append(name)
        return db, names

    def test_bulk_equals_sequential_query_fuzzed(self):
        """``query_bulk`` must give exactly the per-document ``query``
        answers, for fuzzed documents."""
        rng = random.Random(23)
        for trial in range(4):
            db, names = self._store(rng)
            pattern = PATTERNS[trial % len(PATTERNS)]
            db.register_spanner("s", pattern)
            want = {name: set(db.query("s", name)) for name in names}
            bulk = db.query_bulk("s", names)
            assert list(bulk) == names  # input order
            assert {n: set(r) for n, r in bulk.items()} == want, pattern

    def test_bulk_on_edited_documents(self):
        """Documents produced by CDE edits share subtrees; the bulk loop
        must read them from one consistent cache."""
        from repro.slp import parse_cde

        db = SpannerDB()
        db.add_document("base", "abab" * 16)
        db.edit("head", parse_cde("extract(doc(base),1,33)"))
        db.edit("twice", parse_cde("concat(doc(head),doc(base))"))
        db.register_spanner("s", "(a|b)*!x{ab}(a|b)*")
        names = ["base", "head", "twice"]
        want = {name: set(db.query("s", name)) for name in names}
        bulk = db.query_bulk("s", names)
        assert {n: set(r) for n, r in bulk.items()} == want

    def test_bulk_unknown_document_raises(self):
        from repro.errors import SLPError

        db = SpannerDB()
        db.add_document("a", "ab")
        db.register_spanner("s", "!x{a*b*}")
        with pytest.raises(SLPError):
            db.query_bulk("s", ["a", "missing"])


class TestServeBulk:
    def test_submit_bulk_round_trip(self):
        db = SpannerDB()
        for name, text in (("one", "abba"), ("two", "bb"), ("three", "a" * 30)):
            db.add_document(name, text)
        db.register_spanner("s", "(a|b)*!x{ab}(a|b)*")
        want = {n: set(db.query("s", n)) for n in ("one", "two", "three")}
        with SpannerService(db, ServeConfig(workers=2)) as service:
            result = service.query_bulk(
                "s", ["one", "two", "three"], deadline=30.0
            )
            assert isinstance(result, BulkQueryResult)
            assert not result.degraded
            assert result.attempts == 1
            assert {n: set(t) for n, t in result.results.items()} == want
            stats = service.stats()
        assert stats["completed"] == 1  # one admission slot for the batch

    def test_bulk_degrades_when_breaker_open(self):
        db = SpannerDB()
        db.add_document("doc", "abab")
        db.register_spanner("s", "(a|b)*!x{ab}(a|b)*")
        config = ServeConfig(workers=1, breaker_failure_threshold=1)
        with SpannerService(db, config) as service:
            for _ in range(3):  # trip the breaker
                service.breaker.record_failure()
            result = service.query_bulk("s", ["doc"], deadline=30.0)
            assert result.degraded
            assert set(result.results["doc"]) == set(db.query("s", "doc"))

    def test_submit_bulk_on_stopped_service(self):
        from repro.errors import ServiceStoppedError

        db = SpannerDB()
        db.add_document("doc", "ab")
        db.register_spanner("s", "!x{a*b*}")
        service = SpannerService(db)
        with pytest.raises(ServiceStoppedError):
            service.submit_bulk("s", ["doc"])
