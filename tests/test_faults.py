"""The fault-injection suite (docs/RELIABILITY.md's acceptance tests).

Three properties are asserted after every injected failure:

(a) the failure surfaces as a :class:`~repro.errors.SpanlibError`
    subclass — never a bare internal exception;
(b) invariants hold — every registered spanner still answers correctly
    on every committed document;
(c) after a simulated crash, :meth:`SpannerDB.open` recovers exactly the
    committed state.
"""

import pytest

from repro import SpannerDB
from repro.errors import FaultInjectedError, PersistenceError, SpanlibError
from repro.slp import Concat, Delete, Doc
from repro.util import (
    fail_at_allocation,
    fail_at_call,
    fail_in_preprocess,
    truncate_file,
    truncate_journal_write,
)

PATTERN = "(a|b)*!x{b}(a|b)*"


def store():
    db = SpannerDB()
    db.add_document("d1", "ababbab")
    db.register_spanner("m", PATTERN)
    return db


def assert_invariants(db, expected_docs):
    """Property (b): committed documents answer exactly as an uncompressed
    reference evaluation says they should."""
    from repro import RegularSpanner

    assert db.documents() == sorted(expected_docs)
    reference = RegularSpanner.from_regex(PATTERN)
    for name in expected_docs:
        text = db.document_text(name)
        got = sorted(map(str, db.query("m", name)))
        want = sorted(map(str, reference.enumerate(text)))
        assert got == want, f"spanner answers drifted on {name!r}"


class TestAllocationFaults:
    def test_fault_surfaces_as_spanlib_error(self):
        db = store()
        with fail_at_allocation(at=3):
            with pytest.raises(SpanlibError):
                db.add_document("d2", "a fresh document with many new nodes")

    @pytest.mark.parametrize("at", [1, 2, 5, 9])
    def test_add_document_rolls_back_at_every_depth(self, at):
        db = store()
        mark = db.slp.mark()
        with fail_at_allocation(at=at):
            with pytest.raises(FaultInjectedError):
                db.add_document("d2", "xyzxyzxyzw")
        assert db.slp.mark() == mark
        assert_invariants(db, ["d1"])

    @pytest.mark.parametrize("at", [1, 2, 4])
    def test_edit_rolls_back_at_every_depth(self, at):
        db = store()
        mark = db.slp.mark()
        with fail_at_allocation(at=at):
            with pytest.raises(FaultInjectedError):
                db.edit("d2", Concat(Doc("d1"), Delete(Doc("d1"), 2, 5)))
        assert db.slp.mark() == mark
        assert_invariants(db, ["d1"])

    def test_store_usable_after_fault(self):
        db = store()
        with fail_at_allocation(at=2):
            with pytest.raises(FaultInjectedError):
                db.add_document("d2", "xyzw")
        db.add_document("d2", "xyzw")  # same mutation, no fault: succeeds
        assert_invariants(db, ["d1", "d2"])


class TestPreprocessFaults:
    def test_add_document_with_failing_spanner_update(self):
        """ISSUE satellite (a): the partial-failure window where the document
        is in the catalog but a spanner's matrices are missing."""
        db = store()
        db.register_spanner("m2", "!y{a}(a|b)*")
        with fail_in_preprocess(at=2):  # first spanner updates, second dies
            with pytest.raises(FaultInjectedError):
                db.add_document("d2", "abab")
        assert_invariants(db, ["d1"])
        # both spanners still answer on committed docs
        assert list(db.query("m2", "d1"))

    def test_register_spanner_rollback_mid_corpus(self):
        """ISSUE satellite (b): preprocess fails on the 3rd of 5 documents."""
        db = SpannerDB()
        for index in range(5):
            db.add_document(f"doc{index}", "ab" * (index + 1))
        with fail_in_preprocess(at=3):
            with pytest.raises(FaultInjectedError):
                db.register_spanner("m", PATTERN)
        assert db.spanners() == []
        # registration is retryable and then fully functional
        db.register_spanner("m", PATTERN)
        assert_invariants(db, [f"doc{index}" for index in range(5)])

    def test_no_orphan_matrices_after_failed_registration(self):
        db = SpannerDB()
        for index in range(3):
            db.add_document(f"doc{index}", "abba" * (index + 1))
        with fail_in_preprocess(at=2):
            with pytest.raises(FaultInjectedError):
                db.register_spanner("m", PATTERN)
        assert db.stats()["cached_matrices"] == {}


class TestCrashRecovery:
    """Property (c): open() after a crash recovers committed state."""

    def make_store(self, tmp_path):
        path = str(tmp_path / "store.slpdb")
        db = SpannerDB()
        db.add_document("base", "ababbab")
        db.save(path)
        return db, path

    def reopen(self, path):
        db = SpannerDB.open(path)
        db.register_spanner("m", PATTERN)
        return db

    def test_torn_journal_write_loses_only_that_record(self, tmp_path):
        db, path = self.make_store(tmp_path)
        db.add_document("committed", "aabb")  # durable
        with truncate_journal_write(keep_bytes=5):
            with pytest.raises(FaultInjectedError):
                db.add_document("torn", "bbbb")  # "crash" mid-append
        recovered = self.reopen(path)
        assert_invariants(recovered, ["base", "committed"])

    def test_fully_torn_record_recovers_earlier_commits(self, tmp_path):
        db, path = self.make_store(tmp_path)
        db.add_document("first", "aa")
        db.add_document("second", "bb")
        with truncate_journal_write(keep_bytes=0):
            with pytest.raises(FaultInjectedError):
                db.edit("third", Doc("first"))
        recovered = self.reopen(path)
        assert_invariants(recovered, ["base", "first", "second"])

    def test_torn_transaction_batch_is_all_or_nothing(self, tmp_path):
        """A multi-mutation transaction whose journal append tears *between*
        records must recover neither mutation, not a surviving prefix."""
        from repro.slp.serialize import encode_journal_record

        db, path = self.make_store(tmp_path)
        # tear after the first record line: "a" is on disk whole, "b" and
        # the commit marker never make it
        keep = len(encode_journal_record(["A", "a", "xxxx"])) + 1
        with truncate_journal_write(keep_bytes=keep):
            with pytest.raises(FaultInjectedError):
                with db.transaction():
                    db.add_document("a", "xxxx")
                    db.add_document("b", "yyyy")
        assert db.documents() == ["base"]  # in-memory batch rolled back
        recovered = self.reopen(path)
        assert_invariants(recovered, ["base"])  # "a" not resurrected alone

    def test_failed_append_rolls_back_and_poisons_the_journal(self, tmp_path):
        """A commit whose journal append fails must not stay committed in
        memory, and its torn tail must not silently swallow later commits
        at the next open()."""
        db, path = self.make_store(tmp_path)
        with truncate_journal_write(keep_bytes=5):
            with pytest.raises(FaultInjectedError):
                db.add_document("lost", "aaaa")
        assert db.documents() == ["base"]  # rolled back, not half-committed
        # further commits are refused until a checkpoint rewrites the
        # journal — otherwise recovery would stop at the tear and drop them
        with pytest.raises(PersistenceError):
            db.add_document("after", "bbbb")
        assert db.documents() == ["base"]
        db.save(path)  # checkpoint re-arms durability
        db.add_document("after", "bbbb")
        recovered = self.reopen(path)
        assert_invariants(recovered, ["base", "after"])

    def test_torn_snapshot_falls_back_to_previous(self, tmp_path):
        db, path = self.make_store(tmp_path)
        db.add_document("extra", "abab")
        db.save(path)  # good snapshot rotated to .bak on the next save
        db.add_document("newer", "bb")
        db.save(path)
        truncate_file(path, keep_bytes=30)  # crash tore the latest snapshot
        recovered = self.reopen(path)
        # the .bak snapshot has base+extra; "newer" was only in the torn one
        assert_invariants(recovered, ["base", "extra"])

    def test_recovery_replays_edits_not_just_adds(self, tmp_path):
        db, path = self.make_store(tmp_path)
        db.edit("head", Delete(Doc("base"), 4, 7))
        db.add_document("tail", "zz")
        recovered = self.reopen(path)
        assert recovered.document_text("head") == db.document_text("head")
        assert_invariants(recovered, ["base", "head", "tail"])

    def test_crash_between_snapshot_and_journal_reset(self, tmp_path):
        """save() replaces the snapshot, then truncates the journal; a crash
        between the two leaves already-applied records behind.  Replay must
        be idempotent."""
        db, path = self.make_store(tmp_path)
        db.add_document("doc", "abab")
        with fail_at_call(SpannerDB, "_reset_journal"):
            with pytest.raises(FaultInjectedError):
                db.save(path)  # snapshot written; journal NOT truncated
        recovered = self.reopen(path)
        assert_invariants(recovered, ["base", "doc"])

    def test_open_on_missing_path_is_a_fresh_attached_store(self, tmp_path):
        path = str(tmp_path / "new.slpdb")
        db = SpannerDB.open(path)
        assert db.documents() == []
        db.add_document("d", "abc")  # journaled even before the first save
        recovered = SpannerDB.open(path)
        assert recovered.documents() == ["d"]

    def test_recovery_checkpoint_truncates_the_journal(self, tmp_path):
        db, path = self.make_store(tmp_path)
        db.add_document("x", "aa")
        SpannerDB.open(path)  # recovery replays "x" and checkpoints
        with open(path + ".journal", encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 1  # header only
        assert SpannerDB.open(path).documents() == ["base", "x"]


class TestChaosInjectorDeterminism:
    """Satellite property: every injection decision is a pure function of
    (seed, site, call index) — no module-level RNG, no thread sensitivity."""

    def drive(self, injector, sites, calls_per_site, threads=1):
        """Hammer maybe_fail from N threads; return the decision multiset."""
        import threading

        from repro.util import ChaosInjector  # noqa: F401 - imported for docs

        lock = threading.Lock()
        outcomes = []

        def worker():
            while True:
                with lock:
                    if not schedule:
                        return
                    site = schedule.pop()
                try:
                    injector.maybe_fail(site, rate=0.3)
                    with lock:
                        outcomes.append((site, False))
                except SpanlibError:
                    with lock:
                        outcomes.append((site, True))

        schedule = [site for site in sites for _ in range(calls_per_site)]
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        return sorted(outcomes)

    def test_same_seed_same_fault_multiset_across_thread_counts(self):
        from repro.util import ChaosInjector

        single = self.drive(ChaosInjector(5), ["a", "b"], 40, threads=1)
        fleet = self.drive(ChaosInjector(5), ["a", "b"], 40, threads=4)
        assert single == fleet

    def test_different_seeds_draw_different_schedules(self):
        from repro.util import ChaosInjector

        runs = {
            tuple(self.drive(ChaosInjector(seed), ["s"], 60)) for seed in range(5)
        }
        assert len(runs) > 1

    def test_fired_and_calls_account_exactly(self):
        from repro.util import ChaosInjector

        injector = ChaosInjector(9)
        fired = 0
        for _ in range(50):
            try:
                injector.maybe_fail("site", rate=0.5)
            except SpanlibError:
                fired += 1
        assert injector.calls() == {"site": 50}
        assert injector.fired().get("site", 0) == fired
        assert 0 < fired < 50  # the schedule actually mixes outcomes

    def test_zero_rate_never_fires_and_consumes_no_schedule(self):
        from repro.util import ChaosInjector

        injector = ChaosInjector(9)
        for _ in range(10):
            injector.maybe_fail("site", rate=0.0)
        assert injector.calls() == {}
        assert injector.fired() == {}

    def test_delays_share_the_deterministic_schedule(self):
        from repro.util import ChaosInjector

        first = ChaosInjector(3)
        second = ChaosInjector(3)
        slept_first = [first.maybe_delay("d", 0.5, 0.0) for _ in range(30)]
        slept_second = [second.maybe_delay("d", 0.5, 0.0) for _ in range(30)]
        assert slept_first == slept_second

    def test_chaos_contextmanager_restores_the_patched_attribute(self):
        from repro.slp.spanner_eval import SLPSpannerEvaluator
        from repro.util import ChaosInjector

        original = SLPSpannerEvaluator.enumerate
        with ChaosInjector(1).chaos(
            SLPSpannerEvaluator, "enumerate", error_rate=1.0
        ):
            assert SLPSpannerEvaluator.enumerate is not original
        assert SLPSpannerEvaluator.enumerate is original

    def test_no_module_level_rng_state(self):
        """Two interleaved injectors never perturb each other's schedules."""
        from repro.util import ChaosInjector

        alone = ChaosInjector(7)
        alone_draws = [alone._draw("s") for _ in range(20)]
        a, b = ChaosInjector(7), ChaosInjector(99)
        interleaved = []
        for _ in range(20):
            interleaved.append(a._draw("s"))
            b._draw("s")
        assert alone_draws == interleaved


class TestOneSeededDraw:
    """Every seeded schedule — :class:`ChaosInjector`, :class:`WorkerChaos`,
    :class:`FeedChaos` — draws ``random.Random(f"{seed}:{site}:{k}")``, so
    a schedule is a pure function of its seed and replays bit-for-bit."""

    def test_every_schedule_draws_the_documented_formula(self):
        import random

        from repro.util import ChaosInjector, FeedChaos, WorkerChaos

        def draw(site, k):
            return random.Random(f"5:{site}:{k}").random()

        injector = ChaosInjector(5)
        assert [injector.maybe_delay("enum", 0.5, 0.0) for _ in range(32)] == [
            draw("enum", k) < 0.5 for k in range(32)
        ]
        worker = WorkerChaos(seed=5, kill_rate=0.2, stall_rate=0.3)
        feed = FeedChaos(seed=5, fault_rate=0.2, stall_rate=0.3)
        for k in range(64):
            w, f = draw("proc-worker", k), draw("feed-window", k)
            assert worker.decide(k) == ("kill" if w < 0.2 else "stall" if w < 0.5 else None)
            assert feed.decide(k) == ("fault" if f < 0.2 else "stall" if f < 0.5 else None)

    def test_operation_site_replays_whatever_interleaves(self):
        """A multi-step operation gets a fixed schedule from a site of its
        own, ``f"{site}:{op_id}"``: other operations and raw site traffic
        interleaving with its steps cannot move its verdicts."""
        import random

        from repro.util import ChaosInjector

        alone = ChaosInjector(11)
        solo = [alone.maybe_delay("s:g", 0.5, 0.0) for _ in range(16)]
        busy = ChaosInjector(11)
        interleaved = []
        for _ in range(16):
            busy.maybe_delay("s:other", 0.5, 0.0)
            busy.maybe_delay("s", 0.5, 0.0)
            interleaved.append(busy.maybe_delay("s:g", 0.5, 0.0))
        assert interleaved == solo
        assert solo == [random.Random(f"11:s:g:{k}").random() < 0.5 for k in range(16)]
