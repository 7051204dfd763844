"""Tests for the integrated SpannerDB system (the Section 4 narrative)."""

import os
import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import Span, SpanTuple
from repro.db import SpannerDB
from repro.errors import SchemaError, SLPError
from repro.regex import spanner_from_regex
from repro.slp import Concat, Delete, Doc, Extract, Insert


@pytest.fixture
def db():
    store = SpannerDB()
    store.add_document("d1", "ababbab")
    store.add_document("d2", "bbaabb")
    store.register_spanner("pairs", "(a|b)*!x{ab}(a|b)*")
    return store


class TestDocuments:
    def test_ingest_and_read_back(self, db):
        assert db.documents() == ["d1", "d2"]
        assert db.document_text("d1") == "ababbab"
        assert db.document_length("d2") == 6

    def test_empty_document_rejected(self, db):
        with pytest.raises(SLPError):
            db.add_document("bad", "")

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(SLPError):
            db.add_document("d1", "zz")

    def test_documents_are_strongly_balanced(self, db):
        for name in db.documents():
            node = db._db.node(name)
            assert db.slp.is_strongly_balanced(node)


class TestQueries:
    def test_evaluate_matches_uncompressed(self, db):
        spanner = spanner_from_regex("(a|b)*!x{ab}(a|b)*")
        for name in db.documents():
            assert db.evaluate("pairs", name) == spanner.evaluate(
                db.document_text(name)
            )

    def test_streaming_query(self, db):
        first = next(db.query("pairs", "d1"))
        assert first == SpanTuple.of(x=Span(1, 3))

    def test_is_nonempty(self, db):
        assert db.is_nonempty("pairs", "d1")
        db.add_document("no_ab", "bbb")
        assert not db.is_nonempty("pairs", "no_ab")

    def test_unknown_names(self, db):
        with pytest.raises(SchemaError):
            db.evaluate("nope", "d1")
        with pytest.raises(SLPError):
            db.evaluate("pairs", "nope")

    def test_register_after_ingest_preprocesses(self, db):
        db.register_spanner("runs", "(a|b)*!x{a+}(a|b)*")
        assert len(db.evaluate("runs", "d2")) > 0

    def test_duplicate_spanner_rejected(self, db):
        with pytest.raises(SchemaError):
            db.register_spanner("pairs", "!x{a}")


class TestEditing:
    def test_edit_and_requery(self, db):
        db.edit("d3", Concat(Doc("d1"), Doc("d2")))
        expected_doc = "ababbab" + "bbaabb"
        assert db.document_text("d3") == expected_doc
        spanner = spanner_from_regex("(a|b)*!x{ab}(a|b)*")
        assert db.evaluate("pairs", "d3") == spanner.evaluate(expected_doc)

    def test_compound_edit_script(self, db):
        db.edit("cut", Extract(Doc("d1"), 2, 5))          # "babb"
        db.edit("spliced", Insert(Doc("d2"), Doc("cut"), 3))
        db.edit("final", Delete(Doc("spliced"), 1, 2))
        text = db.document_text("final")
        assert text == ("bb" + "babb" + "aabb")[2:]
        spanner = spanner_from_regex("(a|b)*!x{ab}(a|b)*")
        assert db.evaluate("pairs", "final") == spanner.evaluate(text)

    def test_edit_updates_are_incremental(self):
        db = SpannerDB()
        db.add_document("big", "abcd" * 4096)
        db.register_spanner("cd", "(a|b|c|d)*!x{cd}(a|b|c|d)*")
        fresh = db.edit("edited", Delete(Doc("big"), 100, 200))
        # one spanner, O(log d) fresh nodes
        assert 0 < fresh <= 80 * 15
        assert db.is_nonempty("cd", "edited")

    def test_stats(self, db):
        stats = db.stats()
        assert stats["documents"] == 2
        assert stats["spanners"] == 1
        assert stats["total_characters"] == 13
        assert stats["slp_nodes"] >= 1
        assert "pairs" in stats["cached_matrices"]


# ----------------------------------------------------------------------
# the sealed-root invariant behind query_bulk
# ----------------------------------------------------------------------
SEALED_PATTERNS = (
    "(a|b)*!x{ab}(a|b)*",
    "!x{(a|b)*}!y{b}!z{(a|b)*}",
    "(a|b)*!x{a+}!y{b+}(a|b)*",
)


class _RollBack(Exception):
    pass


class SealedStoreMachine(RuleBasedStateMachine):
    """Every stored root is sealed in every registered spanner's evaluator
    after every mutation — ``add_document``, ``register_spanner``,
    ``edit``, a rolled-back ``transaction()``, ``save`` + ``open`` +
    re-registration — so ``query_bulk`` has nothing left to preprocess,
    and it answers exactly like the per-document ``query`` loop."""

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="sealed-store-")
        self.db = SpannerDB()
        #: spanner name -> regex source, re-registered after a reopen
        self.sources: dict[str, str] = {}
        self.fresh = 0

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _name(self) -> str:
        self.fresh += 1
        return f"d{self.fresh}"

    @rule(text=st.text(alphabet="ab", min_size=1, max_size=24))
    def add_document(self, text):
        self.db.add_document(self._name(), text)

    @precondition(lambda self: len(self.sources) < len(SEALED_PATTERNS))
    @rule(data=st.data())
    def register_spanner(self, data):
        unregistered = [p for p in SEALED_PATTERNS if p not in self.sources.values()]
        pattern = data.draw(st.sampled_from(unregistered))
        name = f"s{SEALED_PATTERNS.index(pattern)}"
        self.db.register_spanner(name, pattern)
        self.sources[name] = pattern

    @precondition(lambda self: self.db.documents())
    @rule(data=st.data())
    def edit(self, data):
        names = self.db.documents()
        left = data.draw(st.sampled_from(names))
        if data.draw(st.booleans()):
            expression = Concat(Doc(left), Doc(data.draw(st.sampled_from(names))))
        else:
            length = self.db.document_length(left)
            i = data.draw(st.integers(1, length))
            j = data.draw(st.integers(i, length))
            expression = Extract(Doc(left), i, j)
        self.db.edit(self._name(), expression)

    @rule(text=st.text(alphabet="ab", min_size=1, max_size=24), register=st.booleans())
    def rolled_back_transaction(self, text, register):
        with pytest.raises(_RollBack):
            with self.db.transaction():
                self.db.add_document(self._name(), text + "ba")
                if self.db.documents():
                    first = self.db.documents()[0]
                    self.db.edit(self._name(), Concat(Doc(first), Doc(first)))
                if register:
                    self.db.register_spanner("scratch", "(a|b)*!x{b}(a|b)*")
                raise _RollBack

    @rule()
    def save_open_reregister(self):
        path = os.path.join(self.tmp, "store.slpdb")
        self.db.save(path)
        self.db = SpannerDB.open(path)
        for name, pattern in self.sources.items():
            self.db.register_spanner(name, pattern)

    @invariant()
    def every_root_sealed_and_bulk_equals_the_loop(self):
        names = self.db.documents()
        assert self.db.spanners() == sorted(self.sources)
        for spanner in self.db.spanners():
            evaluator = self.db._evaluator(spanner)
            for name in names:
                assert evaluator.is_sealed(self.db.slp, self.db.document_node(name)), (
                    spanner,
                    name,
                )
            bulk = self.db.query_bulk(spanner, names)
            assert list(bulk) == names
            assert {n: set(r) for n, r in bulk.items()} == {
                n: set(self.db.query(spanner, n)) for n in names
            }


TestSealedStoreMachine = SealedStoreMachine.TestCase
TestSealedStoreMachine.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
