"""Tests for the supervised process-pool backend.

The contract under test, end to end:

* **supervision** — worker deaths (SIGKILL, hard exits, stalls) are
  detected, workers respawn, and only the lost shards re-dispatch; a
  batch resolves to either the exact results or one typed error, never a
  hang and never a torn answer;
* **bit-for-bit parity** — ``backend="process"`` produces *identical
  packed words* to the serial anchor for every shard/chunk split of
  :func:`~repro.parallel.document_matrices`;
* **leak-proof flight rings** — after every test in this file, crash
  tests included, :func:`~repro.parallel.live_segments` is empty
  (asserted by an autouse fixture);
* **graceful degradation** — crashes degrade to serial (feeding the
  breaker under ``"auto"``), and pool exhaustion surfaces typed with a
  ``retry_after`` hint;
* **fork safety** — a worker forked while another thread holds the
  resource tracker's lock still attaches its flight ring
  (``shm._reset_after_fork``).
"""

import os
import random
import threading
import time

import numpy as np
import pytest

import repro.parallel.api as parallel_api
import repro.parallel.procpool as parallel_procpool
from repro import obs
from repro.parallel.procpool import _default_start_method
from repro.errors import (
    DeadlineExceededError,
    ParallelError,
    PoolExhaustedError,
    WorkerCrashError,
)
from repro.parallel import (
    ProcCall,
    ProcPool,
    configure_pool,
    default_workers,
    document_matrices,
    get_pool,
    live_segments,
    pool_stats,
    process_breaker,
    resolve_backend,
    shutdown_pool,
    usable_cores,
)
from repro.parallel.shm import SegmentRegistry
from repro.regex import spanner_from_regex
from repro.slp import SLPSpannerEvaluator
from repro.util import Budget, Deadline, WorkerChaos

PATTERNS = [
    "!x{(a|b)*}!y{b}!z{(a|b)*}",
    "(a|b)*!x{ab}(a|b)*",
    "(a|b)*!x{a+}!y{b+}(a|b)*",
]

ECHO = "repro.parallel.procpool:_task_echo"
PID = "repro.parallel.procpool:_task_pid"
SLEEP = "repro.parallel.procpool:_task_sleep_ms"
RAISE = "repro.parallel.procpool:_task_raise"


def _slow_fail(message):
    """Raise *message* after a sibling task has had time to fail first."""
    time.sleep(0.3)
    raise ParallelError(message)


def _leading_kills(chaos, *, run: int, index: int) -> int:
    """How many dispatches of call *index* in pool run *run* the schedule
    kills before one is let through (capped at 64)."""
    attempt = 0
    while attempt < 64 and chaos.decide((run, index, attempt)) == "kill":
        attempt += 1
    return attempt


def _pool_cleared_in_child():
    """Worker-side probe: the parent's module-level pool handle must not
    survive into a fork-started worker (its atexit would otherwise run the
    parent's shutdown against processes that are not its children)."""
    import repro.parallel.procpool as procpool

    return procpool._pool is None


@pytest.fixture(autouse=True)
def shm_leak_oracle():
    """Every test in this file must leave zero shared-memory segments
    behind — the acceptance bar for the leak-proofing contract — and a
    fresh breaker, so degradation state never crosses tests."""
    with parallel_api._breaker_lock:
        parallel_api._breaker = None
    yield
    shutdown_pool()
    assert live_segments() == []
    with parallel_api._breaker_lock:
        parallel_api._breaker = None


def _entries_equal(left, right) -> bool:
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


# ----------------------------------------------------------------------
# the pool itself
# ----------------------------------------------------------------------
class TestProcPoolSupervision:
    def test_results_arrive_in_submission_order(self):
        pool = ProcPool(workers=2)
        try:
            got = pool.run([ProcCall(ECHO, (i,)) for i in range(7)])
            assert got == list(range(7))
        finally:
            pool.shutdown()

    def test_tasks_run_in_separate_processes(self):
        pool = ProcPool(workers=2)
        try:
            pids = set(pool.run([ProcCall(PID) for _ in range(4)]))
            assert os.getpid() not in pids
            assert len(pids) == 2
        finally:
            pool.shutdown()

    def test_first_error_by_submission_index_wins(self):
        pool = ProcPool(workers=2)
        try:
            calls = [
                ProcCall(ECHO, (0,)),
                ProcCall(RAISE, ("boom-1",)),
                ProcCall(ECHO, (2,)),
                ProcCall(RAISE, ("boom-3",)),
            ]
            with pytest.raises(ParallelError, match="boom-1"):
                pool.run(calls)
        finally:
            pool.shutdown()

    def test_sigkill_storm_still_answers_exactly(self):
        """30% of dispatches are SIGKILLed; retries (fresh draws) land,
        and the batch answers as the seeded schedule says it must: the
        exact result when no task draws more than ``task_retries`` kills
        in a row, one typed :class:`WorkerCrashError` otherwise."""
        chaos = WorkerChaos(seed=7, kill_rate=0.3)
        kills = [_leading_kills(chaos, run=0, index=i) for i in range(20)]
        assert sum(kills) >= 1, "the schedule must actually storm"
        pool = ProcPool(workers=2, chaos=chaos, task_retries=3,
                        crash_tolerance=100)
        try:
            calls = [ProcCall(ECHO, (i,)) for i in range(20)]
            if max(kills) > pool.task_retries:
                with pytest.raises(WorkerCrashError, match="retry budget"):
                    pool.run(calls)
                return
            assert pool.run(calls) == list(range(20))
            stats = pool.stats()
            assert stats["crashes"] == stats["retries"] == sum(kills)
            assert stats["respawned"] == sum(kills)
        finally:
            pool.shutdown()

    def test_seeded_storm_replays_on_a_fresh_pool(self):
        """Verdicts are keyed on (run, call index, attempt), not on
        dispatch timing: the same seeded storm on two fresh pools kills
        the same tasks, so crash and retry counts match exactly."""
        chaos = WorkerChaos(seed=7, kill_rate=0.3)
        seen = []
        for _ in range(2):
            pool = ProcPool(workers=2, chaos=chaos, task_retries=8,
                            crash_tolerance=100)
            try:
                for _ in range(2):  # a second run draws a fresh schedule
                    got = pool.run([ProcCall(ECHO, (i,)) for i in range(12)])
                    assert got == list(range(12))
                stats = pool.stats()
            finally:
                pool.shutdown()
            seen.append((stats["crashes"], stats["retries"]))
        assert seen[0] == seen[1]
        assert seen[0][0] >= 1

    def test_retry_budget_exhaustion_is_one_typed_error(self):
        chaos = WorkerChaos(seed=3, kill_rate=1.0)  # every dispatch dies
        pool = ProcPool(workers=2, chaos=chaos, task_retries=2,
                        crash_tolerance=50)
        try:
            with pytest.raises(WorkerCrashError, match="retry budget"):
                pool.run([ProcCall(ECHO, (1,))])
        finally:
            pool.shutdown()

    def test_pool_reusable_after_crash_batch(self):
        chaos = WorkerChaos(seed=3, kill_rate=1.0)
        pool = ProcPool(workers=1, chaos=chaos, task_retries=0,
                        crash_tolerance=50)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run([ProcCall(ECHO, (1,))])
        finally:
            pool.shutdown()
        healthy = ProcPool(workers=1)
        try:
            assert healthy.run([ProcCall(ECHO, ("ok",))]) == ["ok"]
        finally:
            healthy.shutdown()

    def test_stalled_worker_is_killed_and_shard_retried(self):
        chaos = WorkerChaos(seed=11, stall_rate=0.3, stall_seconds=5.0)
        pool = ProcPool(workers=2, chaos=chaos, stall_timeout=0.4,
                        task_retries=4, crash_tolerance=100)
        try:
            got = pool.run([ProcCall(ECHO, (i,)) for i in range(10)])
            assert got == list(range(10))
            assert pool.stats()["stalls"] >= 1
        finally:
            pool.shutdown()

    def test_deadline_kills_stragglers(self):
        pool = ProcPool(workers=1)
        try:
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                pool.run(
                    [ProcCall(SLEEP, (5000,))],
                    deadline=Deadline.after(0.3),
                )
            assert time.monotonic() - t0 < 3.0
        finally:
            pool.shutdown()

    def test_checked_out_pool_raises_typed_exhaustion(self):
        pool = ProcPool(workers=1)
        errors: list = []

        def holder():
            try:
                pool.run([ProcCall(SLEEP, (900, "held"))])
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        thread = threading.Thread(target=holder)
        try:
            thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    pool.run([ProcCall(ECHO, (1,))])
                except PoolExhaustedError as exc:
                    assert exc.retry_after > 0
                    break
                time.sleep(0.01)  # holder not yet checked out; try again
            else:
                pytest.fail("pool never reported exhaustion")
        finally:
            thread.join(timeout=10)
            pool.shutdown()
        assert not errors

    def test_spawn_failure_releases_the_claim(self, monkeypatch):
        """A failed fork/spawn surfaces typed and leaves no capacity
        stranded: the reservation is released and the pool serves the
        next request at full size."""
        pool = ProcPool(workers=2)
        try:
            def no_spawn(self):
                raise OSError("fork failed")

            monkeypatch.setattr(ProcPool, "_spawn", no_spawn)
            with pytest.raises(ParallelError, match="spawn"):
                pool.run([ProcCall(ECHO, (i,)) for i in range(2)])
            assert pool._busy == 0
            monkeypatch.undo()
            assert pool.run([ProcCall(ECHO, (i,)) for i in range(4)]) == [
                0, 1, 2, 3,
            ]
            assert pool.stats()["idle"] == 2
        finally:
            pool.shutdown()

    def test_partial_spawn_failure_keeps_spawned_workers(self, monkeypatch):
        """When the second of two spawns fails, the first spawned worker
        is checked back in rather than abandoned."""
        pool = ProcPool(workers=2)
        real_spawn = ProcPool._spawn
        spawns = {"n": 0}

        def flaky(self):
            spawns["n"] += 1
            if spawns["n"] == 2:
                raise OSError("fork failed")
            return real_spawn(self)

        try:
            monkeypatch.setattr(ProcPool, "_spawn", flaky)
            with pytest.raises(ParallelError, match="spawn"):
                pool.run([ProcCall(ECHO, (i,)) for i in range(2)])
            assert pool._busy == 0
            assert pool.stats()["idle"] == 1
            monkeypatch.undo()
            assert pool.run([ProcCall(ECHO, ("ok",))]) == ["ok"]
        finally:
            pool.shutdown()

    def test_dispatch_to_a_dead_worker_retries_on_a_replacement(self):
        """A worker that dies while idle mid-batch is only noticed when
        the next dispatch hits its broken pipe; the send failure must be
        contained like any other crash — respawn, retry, exact result —
        not escape as an untyped OSError."""
        pool = ProcPool(workers=1)
        try:
            assert pool.run([ProcCall(ECHO, (0,))]) == [0]
            team = pool._checkout(1)
            try:
                [worker] = team
                worker.conn.close()  # deterministic OSError at dispatch
                results = pool._supervise(team, [ProcCall(ECHO, (7,))], None)
            finally:
                pool._checkin(team)
            assert results == [7]
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["respawned"] >= 1
        finally:
            pool.shutdown()

    def test_non_proccall_work_is_rejected(self):
        pool = ProcPool(workers=1)
        try:
            with pytest.raises(ParallelError, match="ProcCall"):
                pool.run([lambda: 1])
        finally:
            pool.shutdown()

    def test_exhaustion_hint_is_the_observed_run_time(self):
        """``retry_after`` comes from the shared
        :class:`~repro.util.RetryAfterHint` fed by finished runs."""
        pool = ProcPool(workers=1)
        try:
            pool.run([ProcCall(ECHO, (1,))])
            expected = pool._run_time.hint(1)
            assert expected > 0.001
            held = pool._checkout(1)  # hold the only worker
            with pytest.raises(PoolExhaustedError) as info:
                pool.run([ProcCall(ECHO, (2,))])
            assert info.value.retry_after == expected
            pool._checkin(held)
        finally:
            pool.shutdown()

    def test_forked_workers_do_not_inherit_the_shared_pool(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        configure_pool(workers=1, start_method="fork")
        probe = ProcCall("tests.test_procpool:_pool_cleared_in_child")
        assert get_pool().run([probe]) == [True]


class TestWorkerChaosSchedule:
    def test_verdict_is_pure_function_of_seed_and_seq(self):
        chaos = WorkerChaos(seed=42, kill_rate=0.3, stall_rate=0.2)
        first = [chaos.decide(seq) for seq in range(64)]
        again = [chaos.decide(seq) for seq in range(64)]
        assert first == again
        assert set(first) <= {"kill", "stall", None}
        assert "kill" in first and None in first

    def test_retry_gets_a_fresh_draw(self):
        chaos = WorkerChaos(seed=5, kill_rate=0.5)
        verdicts = {chaos.decide(seq) for seq in range(32)}
        assert verdicts == {"kill", None}  # not all-kill: retries can land

    def test_schedule_ships_by_pickle(self):
        import pickle

        chaos = WorkerChaos(seed=9, kill_rate=0.1, stall_rate=0.1)
        clone = pickle.loads(pickle.dumps(chaos))
        assert clone == chaos
        assert clone.decide(17) == chaos.decide(17)


# ----------------------------------------------------------------------
# shared-memory segment hygiene
# ----------------------------------------------------------------------
class TestShmHygiene:
    def test_registry_unlinks_on_exception(self):
        with pytest.raises(RuntimeError, match="deliberate"):
            with SegmentRegistry() as registry:
                registry.create(32)
                assert live_segments()  # owned while the registry is open
                raise RuntimeError("deliberate")
        assert live_segments() == []

    def test_close_is_idempotent(self):
        registry = SegmentRegistry()
        registry.create(24)
        registry.close()
        registry.close()
        assert live_segments() == []

    def test_segment_names_are_host_unique(self):
        """Names must embed the pid (plus a random token), so concurrent
        repro processes — or a restart after a SIGKILLed predecessor
        leaked segments — can never collide on a bare counter."""
        with SegmentRegistry() as registry:
            first = registry.create(64)
            second = registry.create(64)
            assert first.name != second.name
            for segment in (first, second):
                assert f"-{os.getpid()}-" in segment.name

    def test_name_collision_retries_under_a_fresh_name(self, monkeypatch):
        import repro.parallel.shm as shm

        shared_memory = shm._shared_memory()
        taken = shared_memory.SharedMemory(
            create=True, name=f"{shm.SEGMENT_PREFIX}-collision-test", size=1
        )
        real_name = shm._segment_name
        clashes = iter([taken.name])
        monkeypatch.setattr(
            shm, "_segment_name", lambda: next(clashes, None) or real_name()
        )
        try:
            with SegmentRegistry() as registry:
                segment = registry.create(8)
                assert segment.name != taken.name
        finally:
            taken.close()
            taken.unlink()

    def test_unresolvable_collision_is_a_typed_error(self, monkeypatch):
        import repro.parallel.shm as shm

        shared_memory = shm._shared_memory()
        taken = shared_memory.SharedMemory(
            create=True, name=f"{shm.SEGMENT_PREFIX}-collision-held", size=1
        )
        monkeypatch.setattr(shm, "_segment_name", lambda: taken.name)
        try:
            with SegmentRegistry() as registry:
                with pytest.raises(ParallelError, match="segment name"):
                    registry.create(8)
        finally:
            taken.close()
            taken.unlink()
        assert live_segments() == []


# ----------------------------------------------------------------------
# differential: process == serial, bit for bit
# ----------------------------------------------------------------------
class TestProcessDifferential:
    def test_document_matrices_process_matches_serial(self):
        rng = random.Random(23)
        configure_pool(workers=2)
        for pattern in PATTERNS:
            evaluator = SLPSpannerEvaluator(spanner_from_regex(pattern))
            text = "".join(rng.choice("ab") for _ in range(317))
            anchor = document_matrices(evaluator, text, backend="serial")
            for shards, chunk_size in ((2, 64), (3, 1024), (5, 17)):
                got = document_matrices(
                    evaluator,
                    text,
                    backend="process",
                    workers=2,
                    shards=shards,
                    chunk_size=chunk_size,
                )
                assert _entries_equal(got, anchor), (pattern, shards, chunk_size)

    def test_process_handles_empty_and_tiny_documents(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex("!x{a*}"))
        for text in ("", "a", "ba"):
            anchor = document_matrices(evaluator, text, backend="serial")
            got = document_matrices(evaluator, text, backend="process")
            assert _entries_equal(got, anchor), repr(text)

    def test_process_handles_wide_unicode(self):
        """Character codes ship as raw UTF-32 words; astral-plane text
        must survive the round trip."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex("(a|\U0001F600)*!x{a}"))
        text = "a\U0001F600" * 40 + "a"
        anchor = document_matrices(evaluator, text, backend="serial")
        got = document_matrices(evaluator, text, backend="process", shards=3)
        assert _entries_equal(got, anchor)

    def test_deadline_propagates_into_workers(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        text = "ab" * 3000
        budget = Budget(deadline=Deadline(at=0.0))  # expired before dispatch
        with pytest.raises(DeadlineExceededError):
            document_matrices(
                evaluator, text, backend="process", shards=2, budget=budget
            )

    def test_worker_steps_are_charged_to_the_callers_budget(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        budget = Budget(max_steps=10_000_000)
        document_matrices(
            evaluator, "ab" * 200, backend="process", shards=2, budget=budget
        )
        assert budget.steps > 0

    def test_process_crash_degrades_to_serial_with_exact_answer(self):
        """A kill-everything chaos schedule cannot corrupt results: the
        crash surfaces, the fold reruns serially, and the entry is
        bit-for-bit the serial one."""
        configure_pool(workers=2, chaos=WorkerChaos(seed=1, kill_rate=1.0),
                       task_retries=0, crash_tolerance=100)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        text = "ab" * 150
        anchor = document_matrices(evaluator, text, backend="serial")
        got = document_matrices(evaluator, text, backend="process", shards=2)
        assert _entries_equal(got, anchor)


# ----------------------------------------------------------------------
# backend resolution and degradation
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_explicit_backends_pass_through(self):
        for backend in ("process", "serial"):
            assert resolve_backend(backend) == backend

    def test_auto_needs_cores(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 1)
        assert resolve_backend("auto", size_hint_chars=1 << 20) == "serial"

    def test_auto_needs_size(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        assert resolve_backend("auto", size_hint_chars=64) == "serial"
        assert resolve_backend("auto", size_hint_chars=1 << 20) == "process"

    def test_auto_bulk_is_serial(self, monkeypatch):
        """A bulk query passes no size hint and has no backend; it runs
        serially over sealed roots and never contacts the process pool,
        even where ``"auto"`` would pick the pool for a large fold."""
        from repro.db import SpannerDB

        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        assert resolve_backend("auto") == "serial"
        db = SpannerDB()
        names = ["one", "two"]
        db.add_document("one", "ab" * 3000)
        db.add_document("two", "ba" * 3000)
        db.register_spanner("s", PATTERNS[0])
        want = {name: set(db.query("s", name)) for name in names}

        def no_pool(*args, **kwargs):
            raise AssertionError("bulk query contacted the process pool")

        monkeypatch.setattr(parallel_api, "get_pool", no_pool)
        bulk = db.query_bulk("s", names)
        assert {n: set(r) for n, r in bulk.items()} == want

    def test_auto_respects_open_breaker(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        breaker = process_breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert resolve_backend("auto", size_hint_chars=1 << 20) == "serial"

    def test_auto_crashes_feed_the_breaker(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        configure_pool(workers=2, chaos=WorkerChaos(seed=1, kill_rate=1.0),
                       task_retries=0, crash_tolerance=100)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        text = "ab" * 4096
        anchor = document_matrices(evaluator, text, backend="serial")
        for _ in range(3):
            got = document_matrices(evaluator, text, backend="auto", shards=2)
            assert _entries_equal(got, anchor)
        assert process_breaker().state == "open"
        # breaker open: auto now resolves to serial, no pool contact
        assert resolve_backend("auto", size_hint_chars=len(text)) == "serial"

    def test_exhaustion_degrades_auto_but_raises_explicit(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)

        def exhausted(*args, **kwargs):
            raise PoolExhaustedError("all checked out", retry_after=0.25)

        monkeypatch.setattr(parallel_api, "_fold_shards_process", exhausted)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        text = "ab" * 4096
        anchor = document_matrices(evaluator, text, backend="serial")
        got = document_matrices(evaluator, text, backend="auto")
        assert _entries_equal(got, anchor)  # degraded to serial, same bits
        assert process_breaker().state == "closed"  # backpressure ≠ illness
        with pytest.raises(PoolExhaustedError) as info:
            document_matrices(evaluator, text, backend="process")
        assert info.value.retry_after == 0.25


# ----------------------------------------------------------------------
# affinity-aware defaults
# ----------------------------------------------------------------------
class TestAffinityDefaults:
    def test_usable_cores_positive(self):
        assert usable_cores() >= 1
        assert 1 <= default_workers() <= 8

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            parallel_procpool.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert usable_cores() == 3
        assert default_workers() == 3

    def test_affinity_failure_falls_back_to_cpu_count(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(parallel_procpool.os, "sched_getaffinity", broken)
        assert usable_cores() == max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# fail-fast and error order in the pool
# ----------------------------------------------------------------------
class TestFailFast:
    def test_pending_tasks_are_cancelled_after_first_failure(self):
        """One worker, one instant failure, then a queued tail: the
        failure must stop dispatch rather than drain the tail."""
        pool = ProcPool(workers=1)
        try:
            calls = [ProcCall(RAISE, ("fail fast",))] + [
                ProcCall(ECHO, (index,)) for index in range(12)
            ]
            with pytest.raises(ParallelError, match="fail fast"):
                pool.run(calls)
            # a pool without fail-fast would have settled all thirteen
            assert pool.stats()["tasks"] == 1
        finally:
            pool.shutdown()

    def test_earliest_submitted_failure_wins(self):
        """Both failures execute; the error surfaced must be the earliest
        *submitted*, not the earliest to raise."""
        pool = ProcPool(workers=2)
        try:
            calls = [
                ProcCall("tests.test_procpool:_slow_fail", ("slow loser",)),
                ProcCall(RAISE, ("fast winner",)),
            ]
            with pytest.raises(ParallelError, match="slow loser"):
                pool.run(calls)
            assert pool.stats()["tasks"] == 2
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# fork safety
# ----------------------------------------------------------------------
class TestForkSafety:
    def test_worker_forked_while_the_tracker_lock_is_held_still_attaches(
        self, monkeypatch
    ):
        """A thread creating or unlinking a segment holds the resource
        tracker's lock; a worker forked at that moment inherits it held,
        and attaching its flight ring (obs on) registers with the tracker.
        ``shm._reset_after_fork`` must release it in the child, or the
        worker hangs until the stall timeout kills it."""
        if _default_start_method() != "fork":
            pytest.skip("the inherited-lock hang needs fork-started workers")
        from multiprocessing import resource_tracker

        tracker_lock = resource_tracker._resource_tracker._lock
        spawn = ProcPool._spawn

        def spawn_while_another_thread_holds_the_lock(pool):
            held, release = threading.Event(), threading.Event()

            def holder():
                with tracker_lock:
                    held.set()
                    release.wait()

            thread = threading.Thread(target=holder)
            thread.start()
            held.wait()
            try:
                return spawn(pool)
            finally:
                release.set()
                thread.join()

        monkeypatch.setattr(
            ProcPool, "_spawn", spawn_while_another_thread_holds_the_lock
        )
        configure_pool(
            workers=2, stall_timeout=1.0, task_retries=1, crash_tolerance=2
        )
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        text = "ab" * 300
        anchor = document_matrices(evaluator, text, backend="serial")
        obs.configure(enabled=True, reset=True)
        try:
            got = document_matrices(evaluator, text, backend="process", shards=2)
            rings = obs.metrics().counter("parallel.shm.segments").value
        finally:
            obs.configure(enabled=False, reset=True)
        assert _entries_equal(got, anchor)
        assert pool_stats()["crashes"] == 0
        assert rings == 2, "each worker must have attached a flight ring"

    def test_worker_forked_before_the_parent_tracker_keeps_no_registrations(self):
        """A worker forked before this process ever made a segment has no
        tracker of its own; its first flight-ring attach starts one.
        Every later attach must still unregister from it, or that tracker
        holds the parent's ring names and tries to unlink them when the
        worker exits (warning that they leaked)."""
        if _default_start_method() != "fork":
            pytest.skip("tracker inheritance is decided at fork")
        import subprocess
        import sys

        script = "\n".join(
            [
                "from repro import obs",
                "from repro.parallel import ProcCall, configure_pool, get_pool, shutdown_pool",
                "configure_pool(workers=1, start_method='fork')",
                "echo = ProcCall('repro.parallel.procpool:_task_echo', (1,))",
                "get_pool().run([echo])  # forks before any segment exists",
                "obs.configure(enabled=True)",
                "for _ in range(3):",
                "    get_pool().run([echo])  # one fresh flight ring per run",
                "shutdown_pool()",
            ]
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "leaked shared_memory" not in done.stderr, done.stderr
