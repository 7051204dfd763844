"""Tests for :mod:`repro.parallel` — the shard-parallel evaluation
backend — and for the bulk query API, which needs no parallelism.

The load-bearing property is *bit-for-bit determinism*: the ``(σ, T,
T_em)`` combine is associative and exact, so every choice of backend,
worker count, shard split, and chunk size must produce *identical packed
words* — not merely equal relations.  These tests assert that
differentially against the serial backend and against the SLP
``preprocess`` path, then check the bulk API layers
(``SpannerDB.query_bulk``, ``SpannerService.submit_bulk``) give exactly
the per-document answers."""

import random

import numpy as np
import pytest

from repro import parallel
from repro.db import SpannerDB
from repro.errors import ParallelError
from repro.parallel import (
    ProcCall,
    ProcPool,
    combine,
    default_workers,
    document_matrices,
    fold_entries,
    get_pool,
    identity_entry,
    is_nonempty_text,
    shard_spans,
)
from repro.regex import spanner_from_regex
from repro.serve import BulkQueryResult, ServeConfig, SpannerService
from repro.slp import SLP, SLPSpannerEvaluator, balanced_node

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


class TestFold:
    def test_identity_is_neutral(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        q = evaluator.det.num_states
        table = evaluator.char_entries("ab")
        entry = parallel.text_entry(table, "abba", q)
        ident = identity_entry(q)
        assert _entries_equal(combine(ident, entry, q), entry)
        assert _entries_equal(combine(entry, ident, q), entry)

    def test_combine_is_associative(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        q = evaluator.det.num_states
        table = evaluator.char_entries("ab")
        rng = random.Random(7)
        for _ in range(10):
            a, b, c = (
                parallel.text_entry(
                    table,
                    "".join(rng.choice("ab") for _ in range(rng.randint(1, 9))),
                    q,
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
            q = evaluator.det.num_states
            for _ in range(5):
                text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 60)))
                got = document_matrices(evaluator, text, backend="serial")
                assert _entries_equal(got, _slp_entry(evaluator, text)), (
                    pattern,
                    text,
                )

    def test_entry_independent_of_shards_chunks_backend(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[2]))
        rng = random.Random(13)
        text = "".join(rng.choice("ab") for _ in range(257))
        anchor = document_matrices(evaluator, text, backend="serial", shards=1)
        for backend in ("serial", "process"):
            for shards in (1, 2, 3, 7):
                for chunk_size in (2, 16, 64, 4096):
                    got = document_matrices(
                        evaluator,
                        text,
                        backend=backend,
                        workers=4,
                        shards=shards,
                        chunk_size=chunk_size,
                    )
                    assert _entries_equal(got, anchor), (backend, shards, chunk_size)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_lone_surrogate_text_matches_slp_preprocess(self, backend):
        """A lone surrogate is a legal ``str`` character but not valid
        UTF-32; the fold must read its code like ``ord()`` does."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        text = "ab\ud800b" * 3
        got = document_matrices(evaluator, text, backend=backend, shards=2)
        assert _entries_equal(got, _slp_entry(evaluator, text))

    def test_empty_document(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex("!x{a*}"))
        q = evaluator.det.num_states
        entry = document_matrices(evaluator, "")
        assert _entries_equal(entry, identity_entry(q))
        assert is_nonempty_text(evaluator, "")  # ε matches a*

    def test_is_nonempty_text_agrees_with_slp(self):
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
            assert is_nonempty_text(evaluator, text) == want, text

    def test_shard_spans_are_balanced_and_cover(self):
        for n in (0, 1, 2, 5, 100, 257):
            for shards in (1, 2, 3, 8, 300):
                spans = shard_spans(n, shards)
                assert all(end > start for start, end in spans)
                covered = [i for start, end in spans for i in range(start, end)]
                assert covered == list(range(n))
                if spans:
                    sizes = [end - start for start, end in spans]
                    assert max(sizes) - min(sizes) <= 1


ECHO = "repro.parallel.procpool:_task_echo"


class TestPool:
    """Backend names and the shared process pool behind ``"process"``."""

    def test_unknown_backend_raises(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        with pytest.raises(ParallelError):
            document_matrices(evaluator, "ab", backend="fork")
        with pytest.raises(ParallelError):
            document_matrices(evaluator, "ab", backend="bogus")

    def test_thread_backend_is_gone(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        with pytest.raises(ParallelError):
            document_matrices(evaluator, "ab", backend="thread")
        with pytest.raises(ParallelError):
            is_nonempty_text(evaluator, "ab", backend="thread")

    def test_invalid_workers_raises(self):
        with pytest.raises(ParallelError):
            ProcPool(workers=0)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        with pytest.raises(ParallelError):
            document_matrices(evaluator, "ab", workers=0)

    def test_results_in_submission_order(self):
        calls = [ProcCall(ECHO, (i * i,)) for i in range(20)]
        assert get_pool().run(calls) == [i * i for i in range(20)]

    def test_worker_exception_propagates(self):
        calls = [
            ProcCall(ECHO, (1,)),
            ProcCall("repro.parallel.procpool:_task_raise", ("shard failed",)),
            ProcCall(ECHO, (2,)),
        ]
        with pytest.raises(ParallelError, match="shard failed"):
            get_pool().run(calls)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


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
