"""Transactional semantics of SpannerDB mutations.

The invariant under test: after any failed mutation or rolled-back
transaction, the store is *exactly* what it was before — same documents,
same query answers, same arena size, no stale evaluator caches.
"""

import pytest

from repro import SpannerDB
from repro.errors import SLPError, TransactionError
from repro.regex import spanner_from_regex
from repro.slp import Concat, Delete, Doc, SLPSpannerEvaluator


PATTERN = "(a|b)*!x{b}(a|b)*"


def store():
    db = SpannerDB()
    db.add_document("d1", "ababbab")
    db.add_document("d2", "bbaa")
    db.register_spanner("m", PATTERN)
    return db


def snapshot(db):
    return {
        "docs": db.documents(),
        "answers": {name: sorted(map(str, db.query("m", name))) for name in db.documents()},
        "arena": db.slp.mark(),
    }


class TestExplicitTransaction:
    def test_commit_applies_all(self):
        db = store()
        with db.transaction():
            db.add_document("d3", "abba")
            db.edit("d4", Delete(Doc("d3"), 1, 3))
        assert db.documents() == ["d1", "d2", "d3", "d4"]
        assert db.document_text("d4") == "a"  # delete positions 1..3 of "abba"

    def test_rollback_restores_everything(self):
        db = store()
        before = snapshot(db)
        with pytest.raises(RuntimeError, match="boom"):
            with db.transaction():
                db.add_document("d3", "abba")
                db.edit("d4", Concat(Doc("d3"), Doc("d1")))
                db.register_spanner("m2", "!y{a}(a|b)*")
                raise RuntimeError("boom")
        assert snapshot(db) == before
        assert db.spanners() == ["m"]

    def test_rollback_truncates_arena(self):
        db = store()
        mark = db.slp.mark()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.add_document("big", "xyzw" * 50)
                raise RuntimeError
        assert db.slp.mark() == mark

    def test_nested_inner_rollback_keeps_outer(self):
        db = store()
        with db.transaction():
            db.add_document("outer", "aaa")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.add_document("inner", "bbb")
                    raise RuntimeError
            assert "inner" not in db.documents()
            assert "outer" in db.documents()
        assert db.documents() == ["d1", "d2", "outer"]

    def test_nested_outer_rollback_discards_inner_commit(self):
        db = store()
        before = snapshot(db)
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.add_document("inner", "bbb")
                raise RuntimeError
        assert snapshot(db) == before

    def test_unbalanced_commit_is_an_error(self):
        db = store()
        with pytest.raises(TransactionError):
            db._commit()
        with pytest.raises(TransactionError):
            db._rollback()


class TestAutoTransactions:
    """Every single mutation is atomic on its own."""

    def test_failed_edit_rolls_back(self):
        db = store()
        before = snapshot(db)
        with pytest.raises(SLPError):
            db.edit("bad", Doc("no-such-document"))
        assert snapshot(db) == before

    def test_duplicate_name_rolls_back_arena(self):
        db = store()
        mark = db.slp.mark()
        with pytest.raises(SLPError):
            db.add_document("d1", "a completely fresh text")
        assert db.slp.mark() == mark
        assert db.document_text("d1") == "ababbab"

    def test_empty_document_rejected_cleanly(self):
        db = store()
        before = snapshot(db)
        with pytest.raises(SLPError):
            db.add_document("d3", "")
        assert snapshot(db) == before


class TestCacheConsistencyAfterRollback:
    """Node ids are reused after truncation; stale matrices would silently
    answer for the *rolled-back* document.  This is the regression test."""

    def test_reused_node_ids_answer_for_the_new_document(self):
        db = store()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.add_document("ghost", "bbbbbbbb")  # many b-matches
                raise RuntimeError
        # reuse the freed ids for a document with *different* answers
        db.add_document("real", "aaaa")
        assert list(db.query("m", "real")) == []  # no b in "aaaa"

    # An evaluator first used inside a rolled-back transaction is not among
    # the store's registered spanners at rollback time, but the process-wide
    # plan cache hands it out again afterwards: truncation must reach it.
    BB = "(a|b)*!x{bb}(a|b)*"
    GHOST = "a" * 16  # no bb
    REAL = "ababababababaabb"  # same length, ids reused; bb at [15,17)

    def _cold(self, db):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(self.BB))
        return sorted(map(str, evaluator.evaluate(db.slp, db.document_node("doc"))))

    def test_spanner_registered_inside_rolled_back_transaction(self):
        db = SpannerDB()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.add_document("doc", self.GHOST)
                db.register_spanner("bb", self.BB)
                assert list(db.query("bb", "doc")) == []
                raise RuntimeError
        db.add_document("doc", self.REAL)
        db.register_spanner("bb", self.BB)
        got = sorted(map(str, db.query("bb", "doc")))
        assert got == self._cold(db) == ["(x=[15,17⟩)"]

    def test_query_expr_inside_rolled_back_transaction(self):
        db = SpannerDB()
        expression = f"'{self.BB}'"
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.add_document("doc", self.GHOST)
                assert list(db.query_expr(expression, "doc")) == []
                raise RuntimeError
        db.add_document("doc", self.REAL)
        got = sorted(map(str, db.query_expr(expression, "doc")))
        assert got == self._cold(db) == ["(x=[15,17⟩)"]

    def test_committed_documents_unaffected_by_rollback(self):
        db = store()
        before = snapshot(db)["answers"]
        for attempt in range(5):
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.add_document(f"t{attempt}", "ab" * (attempt + 2))
                    raise RuntimeError
        after = {name: sorted(map(str, db.query("m", name))) for name in db.documents()}
        assert after == before
