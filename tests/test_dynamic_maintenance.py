"""Sublinear incremental maintenance (ISSUE 9): sealed-root discovery,
per-arena cache indexes, and the rollback aliasing hazard.

The paper's dynamic setting (Section 4.2, [40]) promises that after a CDE
edit only the O(|φ|·log d) fresh nodes cost anything.  These tests pin the
engine to that promise: a repeat query on a sealed root performs *zero*
topological visits, a post-append walk visits O(fresh + log n) nodes, and
``SLP.truncate`` unseals exactly what rollback's id reuse could alias, in
every live cache of the arena.

The 200-seed differential lane (``slow_fuzz``, excluded by default) asserts
``edit + incremental preprocess == rebuild-from-scratch`` bit-for-bit on
the (σ, T, T_em) entries, including rollback-then-reuse of node ids and
astral-plane unicode documents.
"""

import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import SpannerDB, obs
from repro.kernels.plan import configure_plan_cache, plan_cache
from repro.regex import compile_nfa, spanner_from_regex
from repro.slp import (
    ArenaIndex,
    CompressedMembership,
    CompressedPatternMatcher,
    Delete,
    Doc,
    DocumentDatabase,
    Editor,
    Extract,
    SLP,
    SLPSpannerEvaluator,
    apply_cde,
    balanced_node,
    eval_cde,
    power_node,
    simulate_uncompressed,
)
from repro.stream import WindowedSpannerStream


PATTERN = "(a|b)*!x{ab}(a|b)*"

FUZZ_PATTERNS = [
    "!x{(a|b)*}!y{b}!z{(a|b)*}",
    "(a|b)*!x{ab}(a|b)*",
    "(!x{a})?(a|b)*",
]


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=False, reset=True)


def _counter(name):
    return obs.metrics().counter(name).value


def _entries_equal(left, right):
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


def _assert_bit_for_bit(evaluator, cold, slp, node):
    """Every entry reachable from *node* matches a cold rebuild exactly."""
    cold.preprocess(slp, node)
    for current in slp.topological(node):
        warm = evaluator.node_entry(slp, current)
        fresh = cold.node_entry(slp, current)
        assert warm is not None and fresh is not None
        assert _entries_equal(warm, fresh), f"entry drift at node {current}"


# ---------------------------------------------------------------------------
# sealed fast path
# ---------------------------------------------------------------------------
class TestSealedFastPath:
    def test_repeat_preprocess_on_sealed_root_walks_nothing(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = power_node(slp, "ab", 10)
        evaluator.preprocess(slp, node)
        assert evaluator.is_sealed(slp, node)
        obs.configure(enabled=True)
        assert evaluator.preprocess(slp, node) == 0
        assert _counter("slp.eval.walk_visited") == 0
        assert _counter("slp.eval.sealed_hits") == 1
        # warm-store counter semantics are preserved (test_obs relies on it)
        assert _counter("slp.eval.cache_hits") == 1
        assert _counter("slp.eval.cache_misses") == 0

    def test_append_walk_is_frontier_sized_not_document_sized(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = power_node(slp, "ab", 14)  # 2^14 repetitions, ~30 nodes
        evaluator.preprocess(slp, node)
        total = len(slp.topological(node))
        obs.configure(enabled=True)
        bigger = slp.append_text(node, "abba")
        evaluator.preprocess(slp, bigger)
        visited = _counter("slp.eval.walk_visited")
        assert 0 < visited < total, "append walk re-visited the old document"
        assert _counter("slp.eval.walk_skipped") >= 1
        assert evaluator.is_sealed(slp, bigger)

    def test_cde_edit_discovery_prunes_at_sealed_children(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex("(a|b|c|d)*!x{ab}(a|b|c|d)*"))
        slp = SLP()
        node = power_node(slp, "abcd", 12)
        db = DocumentDatabase(slp)
        db.add_node("big", node)
        editor = Editor(db)
        evaluator.preprocess(slp, node)
        total = len(slp.topological(node))
        obs.configure(enabled=True)
        edited = editor.apply("edited", Delete(Doc("big"), 100, 2000))
        evaluator.preprocess(slp, edited)
        assert 0 < _counter("slp.eval.walk_visited") < total
        assert _counter("slp.eval.walk_skipped") >= 1

    def test_enumerate_and_nonempty_reuse_sealed_root(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = balanced_node(slp, "abab")
        want = evaluator.evaluate(slp, node)
        obs.configure(enabled=True)
        assert evaluator.is_nonempty(slp, node)
        assert evaluator.evaluate(slp, node) == want
        assert _counter("slp.eval.walk_visited") == 0


# ---------------------------------------------------------------------------
# unsealing: rollback aliasing and arena collection
# ---------------------------------------------------------------------------
class TestUnsealing:
    def test_invalidate_from_unseals_reused_ids(self):
        """Rollback truncates the arena and later allocations *reuse* the
        freed ids; a stale sealed bit would answer for the wrong document."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        base = balanced_node(slp, "aa")
        evaluator.preprocess(slp, base)
        mark = slp.num_nodes()
        first = slp.append_text(base, "ba")
        evaluator.preprocess(slp, first)
        assert evaluator.is_sealed(slp, first)
        stale_sigma = evaluator.node_entry(slp, first)[0].copy()
        # transaction rollback: truncation invalidates every live cache
        # above the mark before discarding the nodes
        slp.truncate(mark)
        assert not evaluator.is_sealed(slp, first)
        assert evaluator.is_sealed(slp, base), "rollback unsealed survivors"
        # reuse the freed ids for *different* content ("aabb" vs "aaba")
        second = slp.append_text(base, "bb")
        assert second == first, "precondition: node id reused"
        fresh = evaluator.preprocess(slp, second)
        assert fresh > 0, "stale sealed root answered after rollback"
        assert not np.array_equal(
            evaluator.node_entry(slp, second)[0], stale_sigma
        ), "reused id kept the old document's matrices"
        cold = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        assert evaluator.evaluate(slp, second) == cold.evaluate(slp, second)

    def test_purge_arena_drops_sealed_roots(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = balanced_node(slp, "abba")
        evaluator.preprocess(slp, node)
        serial = slp.serial
        assert evaluator.sealed_nodes(serial) > 0
        assert evaluator.arena_cache_stats(serial)["bytes"] > 0
        del slp, node
        gc.collect()
        assert evaluator.sealed_nodes(serial) == 0
        assert evaluator.arena_cache_stats(serial) == {
            "entries": 0,
            "bytes": 0,
            "sealed": 0,
        }


# ---------------------------------------------------------------------------
# collection: a cache never pins its consumer, a dead arena never pins data
# ---------------------------------------------------------------------------
class TestCollection:
    def test_evicted_plan_evaluators_are_collectable(self):
        """The arena finalizer must not keep evaluators the plan cache has
        evicted alive for as long as the store lives."""
        configure_plan_cache(max_entries=2)
        try:
            db = SpannerDB()
            db.add_document("d", "abba" * 8)
            node = db.document_node("d")
            refs = []
            for word in ["a", "b", "ab", "ba", "aa", "bb"]:
                evaluator = plan_cache().get_or_compile(
                    f"(a|b)*!x{{{word}}}(a|b)*"
                ).evaluator
                evaluator.preprocess(db.slp, node)
                refs.append(weakref.ref(evaluator))
                del evaluator
            gc.collect()
            assert sum(ref() is not None for ref in refs) <= 2
            assert db.slp.num_nodes() > 0  # the store is still alive
        finally:
            configure_plan_cache()

    def test_dropped_membership_is_collectable(self):
        slp = SLP()
        node = balanced_node(slp, "abab")
        oracle = CompressedMembership(compile_nfa("(ab)*"))
        assert oracle.accepts(slp, node)
        ref = weakref.ref(oracle)
        del oracle
        gc.collect()
        assert ref() is None
        assert slp.num_nodes() > 0

    def test_pattern_matcher_purges_collected_arenas(self):
        matcher = CompressedPatternMatcher("ab")
        for k in range(5):
            slp = SLP()
            assert matcher.count(slp, balanced_node(slp, "ab" * (k + 2))) == k + 2
        assert matcher.cached_nodes() > 0
        del slp
        gc.collect()
        assert matcher.cached_nodes() == 0


class TestConcurrentAttach:
    def test_readers_attaching_one_arena_lose_nothing(self):
        """Concurrent readers may be the first to cache an arena together:
        every index must end up registered for truncation, and every
        reader's entries must survive in a shared index."""
        workers = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                slp = SLP()
                nodes = [slp.terminal(ch) for ch in "abcdefgh"[:workers]]
                shared = ArenaIndex()
                private = [ArenaIndex() for _ in range(workers)]
                barrier = threading.Barrier(workers)

                def attach(k):
                    barrier.wait(timeout=10)
                    shared.merge(slp, {nodes[k]: k})
                    private[k].merge(slp, {nodes[k]: k})

                threads = [
                    threading.Thread(target=attach, args=(k,))
                    for k in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert shared.cached_nodes(slp.serial) == workers
                slp.truncate(0)
                for index in [shared, *private]:
                    assert index.cached_nodes(slp.serial) == 0
        finally:
            sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# membership + pattern sealed paths (differential vs cold)
# ---------------------------------------------------------------------------
class TestMembershipSealed:
    def test_incremental_matches_cold_path_and_simulation(self):
        nfa = compile_nfa("(ab)*")
        oracle = CompressedMembership(nfa)
        slp = SLP()
        node = power_node(slp, "ab", 8)
        text = "ab" * (2**8)
        assert oracle.accepts(slp, node)
        assert oracle.is_sealed(slp, node)
        for chunk in ["ab", "ba", "abab"]:
            node = slp.append_text(node, chunk)
            text += chunk
            cold = CompressedMembership(nfa)
            assert oracle.accepts(slp, node) == cold.accepts(slp, node)
            assert oracle.accepts(slp, node) == simulate_uncompressed(nfa, text)
            assert oracle.is_sealed(slp, node)

    def test_sealed_repeat_and_append_counters(self):
        oracle = CompressedMembership(compile_nfa("(ab)*"))
        slp = SLP()
        node = power_node(slp, "ab", 10)
        oracle.accepts(slp, node)
        total = oracle.cached_nodes(slp.serial)
        obs.configure(enabled=True)
        oracle.accepts(slp, node)
        assert _counter("slp.membership.sealed_hits") == 1
        assert _counter("slp.membership.cache_misses") == 0
        bigger = slp.append_text(node, "ab")
        oracle.accepts(slp, bigger)
        fresh = _counter("slp.membership.cache_misses")
        assert 0 < fresh < total, "append re-walked the sealed document"

    def test_invalidate_from_unseals_membership(self):
        nfa = compile_nfa("(ab)*")
        oracle = CompressedMembership(nfa)
        slp = SLP()
        base = power_node(slp, "ab", 4)
        oracle.accepts(slp, base)
        mark = slp.num_nodes()
        first = slp.append_text(base, "ba")
        assert not oracle.accepts(slp, first)
        slp.truncate(mark)
        assert not oracle.is_sealed(slp, first)
        # the freed id range is reallocated for different content; a stale
        # matrix on any reused id would poison the fresh root's product
        second = slp.append_text(base, "bb")
        assert slp.num_nodes() > mark
        cold = CompressedMembership(nfa)
        assert np.array_equal(
            oracle.node_bitmatrix(slp, second).rows,
            cold.node_bitmatrix(slp, second).rows,
        )
        assert oracle.accepts(slp, second) == simulate_uncompressed(
            nfa, "ab" * 16 + "bb"
        )

    def test_purged_arena_drops_membership_matrices(self):
        oracle = CompressedMembership(compile_nfa("(ab)*"))
        slp = SLP()
        node = balanced_node(slp, "abab")
        oracle.accepts(slp, node)
        serial = slp.serial
        assert oracle.cached_nodes(serial) > 0
        del slp, node
        gc.collect()
        assert oracle.cached_nodes(serial) == 0


class TestPatternSealed:
    def test_incremental_counts_match_cold_matcher(self):
        matcher = CompressedPatternMatcher("aba")
        slp = SLP()
        node = balanced_node(slp, "ababab")
        text = "ababab"
        assert matcher.count(slp, node) == 2
        assert matcher.is_sealed(slp, node)
        for chunk in ["ab", "a", "bab"]:
            node = slp.append_text(node, chunk)
            text += chunk
            cold = CompressedPatternMatcher("aba")
            assert matcher.count(slp, node) == cold.count(slp, node)
            assert list(matcher.occurrences(slp, node)) == list(
                cold.occurrences(slp, node)
            )
        assert matcher.cached_nodes(slp.serial) == matcher.cached_nodes()

    def test_invalidate_from_unseals_pattern(self):
        matcher = CompressedPatternMatcher("ab")
        slp = SLP()
        base = balanced_node(slp, "abab")
        matcher.count(slp, base)
        mark = slp.num_nodes()
        first = slp.append_text(base, "ab")
        assert matcher.count(slp, first) == 3
        slp.truncate(mark)
        assert not matcher.is_sealed(slp, first)
        # freed ids come back with different content; stale counts on any
        # reused id would corrupt the fresh root's sum ("ababba" has 2)
        second = slp.append_text(base, "ba")
        assert slp.num_nodes() > mark
        assert matcher.count(slp, second) == 2
        cold = CompressedPatternMatcher("ab")
        assert matcher.count(slp, second) == cold.count(slp, second)


# ---------------------------------------------------------------------------
# stack integration: db.stats() and stream stats
# ---------------------------------------------------------------------------
class TestStackIntegration:
    def test_db_stats_report_per_spanner_bytes_and_sealed(self):
        db = SpannerDB()
        db.add_document("logs", "abab" * 32)
        db.register_spanner("m", PATTERN)
        list(db.query("m", "logs"))
        stats = db.stats()
        cache = stats["spanner_caches"]["m"]
        assert cache["entries"] > 0
        assert cache["bytes"] > 0
        assert cache["sealed"] > 0
        assert stats["evaluator_cache_entries"] == cache["entries"]
        assert stats["evaluator_cache_bytes"] == cache["bytes"]
        assert stats["cached_matrices"]["m"] == cache["entries"]

    def test_db_edit_then_query_discovers_only_fresh_frontier(self):
        db = SpannerDB()
        db.add_document("logs", "ab" * 512)
        db.register_spanner("m", PATTERN)
        list(db.query("m", "logs"))
        obs.configure(enabled=True)
        db.edit("edited", Delete(Doc("logs"), 4, 40))
        list(db.query("m", "edited"))
        visited = _counter("slp.eval.walk_visited")
        assert 0 < visited < db.stats()["slp_nodes"]

    def test_stream_stats_expose_sealed_nodes(self):
        stream = WindowedSpannerStream(PATTERN)
        stream.append("abab")
        stream.append("ba" * 8)
        stats = stream.stats()
        assert stats["sealed_nodes"] > 0
        assert stats["cached_nodes"] >= stats["sealed_nodes"]


# ---------------------------------------------------------------------------
# model-based: three consumers of one arena under edits, rollback, collection
# ---------------------------------------------------------------------------
MACHINE_SPANNER = "!x{(a|b)*}!y{b}!z{(a|b)*}"
MACHINE_NFA = compile_nfa("(a|b)*abb?(a|b)*")
MACHINE_TEXTS = st.text(alphabet="ab", min_size=1, max_size=12)
POSITIONS = st.integers(min_value=0, max_value=2**16)


def _spanner_nbytes(entry):
    sigma, t, t_em = entry
    return sigma.nbytes + t.rows.nbytes + t_em.rows.nbytes


def _overlapping(text, pattern):
    return [i for i in range(len(text)) if text.startswith(pattern, i)]


class SharedArenaMachine(RuleBasedStateMachine):
    """A plan-cache evaluator, a membership oracle and a pattern matcher
    share one document store.  Appends, CDE edits, rolled-back staging with
    id reuse, and dropping the whole arena must leave every answer and
    every cached node entry equal to a rebuild from scratch, bit for bit,
    with each arena's byte count equal to the sum over its live entries."""

    def __init__(self):
        super().__init__()
        self.evaluator = plan_cache().get_or_compile(MACHINE_SPANNER).evaluator
        self.membership = CompressedMembership(MACHINE_NFA)
        self.matcher = CompressedPatternMatcher("ab")
        self.texts = {}
        self.db = DocumentDatabase()

    def _use(self, node):
        slp = self.db.slp
        list(self.evaluator.enumerate(slp, node))
        self.membership.accepts(slp, node)
        self.matcher.count(slp, node)

    def _add(self, node, text):
        name = f"d{len(self.texts)}"
        self.db.add_node(name, node)
        self.texts[name] = text
        self._use(node)

    def _pick(self, pick):
        names = sorted(self.texts)
        return names[pick % len(names)]

    def _factor(self, name, i, j):
        """A 1-based inclusive factor range of *name* that is not the
        whole document (deleting everything is not an edit)."""
        length = len(self.texts[name])
        i = 1 + i % length
        j = i + j % (length - i + 1)
        if (i, j) == (1, length):
            return None
        return i, j

    @initialize(text=MACHINE_TEXTS)
    def first_document(self, text):
        self._add(self.db.add_text("seed", text), text)

    @rule(pick=POSITIONS, text=MACHINE_TEXTS)
    def append(self, pick, text):
        name = self._pick(pick)
        node = self.db.slp.append_text(self.db.node(name), text)
        self._add(node, self.texts[name] + text)

    @rule(pick=POSITIONS, i=POSITIONS, j=POSITIONS, extract=st.booleans())
    def edit(self, pick, i, j, extract):
        name = self._pick(pick)
        factor = self._factor(name, i, j)
        if factor is None:
            return
        expr = (Extract if extract else Delete)(Doc(name), *factor)
        self._add(apply_cde(expr, self.db), eval_cde(expr, self.texts))

    @rule(pick=POSITIONS, text=MACHINE_TEXTS, i=POSITIONS, j=POSITIONS)
    def rolled_back_staging(self, pick, text, i, j):
        """Stage fresh nodes, warm every consumer on them, roll back; the
        next rule reallocates the freed ids for different content."""
        slp = self.db.slp
        name = self._pick(pick)
        mark = slp.mark()
        self._use(slp.append_text(self.db.node(name), text))
        factor = self._factor(name, i, j)
        if factor is not None:
            self._use(apply_cde(Delete(Doc(name), *factor), self.db))
        slp.truncate(mark)
        for consumer in (self.evaluator, self.membership, self.matcher):
            assert all(n < mark for n in consumer.index.cached_node_ids(slp))

    @rule()
    def drop_arena(self):
        """Rebuild the store on a fresh arena and collect the old one."""
        serial = self.db.slp.serial
        self.db = DocumentDatabase()
        for name, text in sorted(self.texts.items()):
            self._use(self.db.add_text(name, text))
        gc.collect()
        for consumer in (self.evaluator, self.membership, self.matcher):
            assert consumer.index.arena_cache_stats(serial) == {
                "entries": 0,
                "bytes": 0,
                "sealed": 0,
            }

    @invariant()
    def answers_match_the_text(self):
        slp = self.db.slp
        nfa = MACHINE_NFA
        for name, text in self.texts.items():
            node = self.db.node(name)
            assert self.evaluator.evaluate(slp, node) == (
                self.evaluator.evaluate_text(text)
            )
            assert self.membership.accepts(slp, node) == simulate_uncompressed(
                nfa, text
            )
            assert self.matcher.count(slp, node) == len(_overlapping(text, "ab"))
            assert list(self.matcher.occurrences(slp, node)) == _overlapping(
                text, "ab"
            )

    @invariant()
    def entries_match_a_rebuild(self):
        slp = self.db.slp
        cold_eval = SLPSpannerEvaluator(self.evaluator.det)
        cold_membership = CompressedMembership(MACHINE_NFA)
        cold_matcher = CompressedPatternMatcher("ab")
        for node in self.evaluator.index.cached_node_ids(slp):
            cold_eval.preprocess(slp, node)
            assert _entries_equal(
                self.evaluator.node_entry(slp, node),
                cold_eval.node_entry(slp, node),
            ), f"spanner entry drift at node {node}"
        for node in self.membership.index.cached_node_ids(slp):
            assert np.array_equal(
                self.membership.index.node_entry(slp, node).rows,
                cold_membership.node_bitmatrix(slp, node).rows,
            ), f"membership entry drift at node {node}"
        for node in self.matcher.index.cached_node_ids(slp):
            cold_matcher.count(slp, node)
            assert self.matcher.index.node_entry(
                slp, node
            ) == cold_matcher.index.node_entry(slp, node)

    @invariant()
    def bytes_match_live_entries(self):
        slp = self.db.slp
        for consumer, nbytes in (
            (self.evaluator, _spanner_nbytes),
            (self.membership, lambda matrix: matrix.rows.nbytes),
            (self.matcher, lambda _: 0),
        ):
            index = consumer.index
            live = sum(map(nbytes, index.entries(slp).values()))
            assert index.arena_cache_stats(slp.serial)["bytes"] == live
        # the private consumers hold no other arena once collected
        for consumer in (self.membership, self.matcher):
            assert consumer.index.total_bytes == consumer.index.arena_cache_stats(
                slp.serial
            )["bytes"]


TestSharedArenaMachine = SharedArenaMachine.TestCase
TestSharedArenaMachine.settings = settings(
    max_examples=20, stateful_step_count=8, deadline=None
)


# ---------------------------------------------------------------------------
# 200-seed differential lane (slow_fuzz, excluded by default)
# ---------------------------------------------------------------------------
_ASTRAL = "\U0001f600\U0001f680\U00010348"


def _random_text(rng, length):
    return "".join(rng.choice("ab" + _ASTRAL) for _ in range(length))


@pytest.mark.slow_fuzz
@pytest.mark.parametrize("seed", range(200))
def test_incremental_equals_rebuild_bit_for_bit(seed):
    """edit + incremental preprocess == rebuild-from-scratch, bit for bit,
    across appends, CDE deletes, rollback-then-reuse of node ids, and
    astral-plane unicode documents."""
    rng = random.Random(seed)
    pattern = rng.choice(FUZZ_PATTERNS)
    spanner = spanner_from_regex(pattern)
    evaluator = SLPSpannerEvaluator(spanner)
    slp = SLP()
    node = balanced_node(slp, _random_text(rng, rng.randint(8, 40)))
    evaluator.preprocess(slp, node)
    for _ in range(rng.randint(2, 5)):
        op = rng.choice(["append", "delete", "rollback"])
        if op == "append":
            node = slp.append_text(node, _random_text(rng, rng.randint(1, 12)))
        elif op == "delete":
            length = slp.length(node)
            if length < 2:
                continue
            # CDE factor ranges are 1-based inclusive; keep >= 1 char
            i = rng.randint(1, length)
            j = rng.randint(i, length)
            if i == 1 and j == length:
                continue
            db = DocumentDatabase(slp)
            db.add_node("d", node)
            node = Editor(db).apply("e", Delete(Doc("d"), i, j))
        else:
            mark = slp.num_nodes()
            scratch = slp.append_text(node, _random_text(rng, rng.randint(1, 8)))
            evaluator.preprocess(slp, scratch)
            slp.truncate(mark)
            assert not evaluator.is_sealed(slp, scratch)
            # reuse the freed ids for different content (the aliasing hazard)
            node = slp.append_text(node, _random_text(rng, rng.randint(1, 8)))
        evaluator.preprocess(slp, node)
        assert evaluator.is_sealed(slp, node)
        cold = SLPSpannerEvaluator(spanner)
        _assert_bit_for_bit(evaluator, cold, slp, node)
        assert evaluator.evaluate(slp, node) == cold.evaluate(slp, node)
