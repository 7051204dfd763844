"""Unit tests for the serving layer's primitives and request path.

Breaker transitions run against a fake clock (no sleeping); service-level
behaviour (admission control, degradation, lifecycle) is pinned down by
blocking the worker pool behind the coordinator's write lock, which is
deterministic where "submit faster than the workers drain" is not.
"""

import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import SpannerDB
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
    OverloadedError,
    SchemaError,
    ServiceStoppedError,
    SLPError,
)
from repro.serve import (
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
    RWLock,
    ServeConfig,
    SpannerService,
)
from repro.util.breaker import CLOSED, HALF_OPEN, OPEN
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.util import ChaosInjector, fail_at_call

PATTERN = "(a|b)*!x{b}(a|b)*"


def drain_to_worker(service, timeout: float = 5.0) -> None:
    """Wait until the (parked) worker pool has dequeued everything."""
    waited = 0.0
    while service.stats()["queue_depth"] and waited < timeout:
        threading.Event().wait(0.005)
        waited += 0.005
    assert not service.stats()["queue_depth"], "worker never dequeued"


def store():
    db = SpannerDB()
    db.add_document("d1", "ababbab")
    db.register_spanner("m", PATTERN)
    return db


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(
            failure_threshold=3, reset_after=1.0, half_open_probes=2, clock=clock
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_reset_and_probe_cap(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        assert breaker.allow()
        # both probe slots in flight: a third caller is refused
        assert not breaker.allow()

    def test_probe_successes_close(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.stats()["times_closed"] == 1

    def test_probe_failure_reopens_with_fresh_timer(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.stats()["times_opened"] == 2
        clock.advance(0.5)  # fresh timer: not yet half-open
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert breaker.state == HALF_OPEN

    def test_closed_grant_settling_in_half_open_is_not_a_probe(self):
        breaker, clock = self.make(failure_threshold=1, half_open_probes=1)

        def is_fault(exc):
            return isinstance(exc, FaultInjectedError)

        assert breaker.allow()
        with breaker.guard(is_fault):  # a slow request, granted while closed
            assert breaker.allow()
            with pytest.raises(FaultInjectedError), breaker.guard(is_fault):
                raise FaultInjectedError("another request fails")
            assert breaker.state == OPEN
            clock.advance(1.0)
            assert breaker.state == HALF_OPEN
        # the slow request succeeded, but no probe has run
        assert breaker.state == HALF_OPEN
        assert breaker.stats()["probes_in_flight"] == 0
        assert breaker.stats()["times_closed"] == 0
        # a real probe still closes it
        assert breaker.allow()
        with breaker.guard(is_fault):
            pass
        assert breaker.state == CLOSED

    def test_probe_from_an_earlier_half_open_period_is_not_a_probe(self):
        breaker, clock = self.make(failure_threshold=1, half_open_probes=2)

        def is_fault(exc):
            return isinstance(exc, FaultInjectedError)

        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        with breaker.guard(is_fault):  # a slow probe of the first period
            assert breaker.allow()
            with pytest.raises(FaultInjectedError), breaker.guard(is_fault):
                raise FaultInjectedError("the other probe fails")
            assert breaker.state == OPEN
            clock.advance(1.0)
            assert breaker.state == HALF_OPEN
            assert breaker.allow()
            with breaker.guard(is_fault):  # one probe of the new period
                pass
        # the stale probe's success does not count towards the two needed
        assert breaker.state == HALF_OPEN
        assert breaker.stats()["probes_in_flight"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)

    # -- long-lived generator probes -----------------------------------
    # an enumeration probe holds its allow() grant for as long as the
    # consumer iterates; the pairing contract (every grant ends in
    # exactly one record_success/record_failure) is what keeps the
    # half-open accounting correct across that window

    @staticmethod
    def probe_generator(breaker, items, fail_at=None):
        """A probe whose grant settles only when the generator finishes:
        exhaustion records success, a raise or close() records failure."""
        try:
            for index, item in enumerate(items):
                if fail_at is not None and index == fail_at:
                    raise FaultInjectedError("mid-enumeration fault")
                yield item
        except BaseException:
            breaker.record_failure()
            raise
        else:
            breaker.record_success()

    def tripped_half_open(self, **kwargs):
        breaker, clock = self.make(**kwargs)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        return breaker, clock

    def test_generator_probe_holds_its_slot_until_exhausted(self):
        breaker, _ = self.tripped_half_open(half_open_probes=1)
        assert breaker.allow()
        probe = self.probe_generator(breaker, "ab")
        next(probe)
        # mid-enumeration: the probe is still in flight, nobody else
        # may probe, and the breaker has not moved
        assert breaker.stats()["probes_in_flight"] == 1
        assert not breaker.allow()
        assert breaker.state == HALF_OPEN
        assert list(probe) == ["b"]  # exhaustion settles the probe
        assert breaker.state == CLOSED
        assert breaker.stats()["probes_in_flight"] == 0

    def test_generator_probe_failure_mid_enumeration_reopens(self):
        breaker, clock = self.tripped_half_open(half_open_probes=1)
        assert breaker.allow()
        probe = self.probe_generator(breaker, "abc", fail_at=1)
        next(probe)
        with pytest.raises(FaultInjectedError):
            next(probe)
        assert breaker.state == OPEN
        assert breaker.stats()["times_opened"] == 2
        clock.advance(1.0)  # fresh timer from the probe failure
        assert breaker.state == HALF_OPEN

    def test_abandoned_generator_probe_settles_as_failure(self):
        # a consumer that walks away mid-enumeration must not leak the
        # probe slot: close() throws GeneratorExit into the frame and
        # the probe settles as a failure
        breaker, _ = self.tripped_half_open(half_open_probes=1)
        assert breaker.allow()
        probe = self.probe_generator(breaker, "abc")
        next(probe)
        probe.close()
        assert breaker.state == OPEN
        assert breaker.stats()["probes_in_flight"] == 0

    def test_two_generator_probes_settle_independently(self):
        breaker, _ = self.tripped_half_open()  # half_open_probes=2
        assert breaker.allow()
        assert breaker.allow()
        first = self.probe_generator(breaker, "ab")
        second = self.probe_generator(breaker, "ab")
        next(first)
        next(second)
        assert not breaker.allow()  # both slots in flight
        assert list(first) == ["b"]
        assert breaker.state == HALF_OPEN  # one success of the two needed
        assert list(second) == ["b"]
        assert breaker.state == CLOSED


class TestRetryPolicy:
    def test_backoff_is_exponential_with_bounded_jitter(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=1.0, seed=7)
        for attempt in range(1, 5):
            step = 0.01 * 2 ** (attempt - 1)
            delay = policy.backoff(attempt)
            assert step / 2 <= delay <= step

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.2, seed=0)
        assert policy.backoff(10) <= 0.2

    def test_same_seed_same_schedule(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.backoff(i) for i in range(1, 6)] == [
            b.backoff(i) for i in range(1, 6)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetryBudget:
    def test_spends_down_then_denies(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=0.5)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.stats()["denied"] == 1

    def test_refill_restores_and_caps(self):
        budget = RetryBudget(capacity=1.0, refill_per_success=0.6)
        assert budget.try_spend()
        budget.refill()
        assert not budget.try_spend()  # 0.6 < 1 token
        budget.refill()
        assert budget.try_spend()  # capped at 1.0, spendable
        budget.refill()
        budget.refill()
        assert budget.stats()["tokens"] <= 1.0


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                assert lock.stats()["readers"] == 2

    def test_writer_excludes_readers(self):
        lock = RWLock()
        lock.acquire_write()
        with pytest.raises(DeadlineExceededError):
            lock.acquire_read(timeout=0.05)
        lock.release_write()
        with lock.read():
            pass

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        blocked = threading.Thread(target=lock.acquire_write)
        blocked.start()
        # wait until the writer is parked
        for _ in range(100):
            if lock.stats()["writers_waiting"] == 1:
                break
            threading.Event().wait(0.01)
        with pytest.raises(DeadlineExceededError):
            lock.acquire_read(timeout=0.05)  # parks behind the waiting writer
        lock.release_read()
        blocked.join(timeout=5)
        assert not blocked.is_alive()
        lock.release_write()

    def test_write_timeout_raises_typed_error(self):
        lock = RWLock()
        lock.acquire_read()
        with pytest.raises(DeadlineExceededError):
            lock.acquire_write(timeout=0.05)
        lock.release_read()


class TestAdmissionControl:
    def test_sheds_with_retry_after_when_full(self):
        service = SpannerService(store(), ServeConfig(workers=1, queue_limit=2))
        with service:
            # park the pool behind the write lock: nothing drains
            service.coordinator.lock.acquire_write()
            try:
                tickets = [service.submit("m", "d1")]
                drain_to_worker(service)  # worker holds it, blocked on read
                tickets += [service.submit("m", "d1") for _ in range(2)]
                with pytest.raises(OverloadedError) as shed:
                    service.submit("m", "d1")
                assert shed.value.retry_after > 0
            finally:
                service.coordinator.lock.release_write()
            for ticket in tickets:
                assert len(ticket.result(timeout=10).tuples) == 4
        stats = service.stats()
        assert stats["shed"] == 1
        assert stats["completed"] == 3

    def test_expired_in_queue_fails_without_work(self):
        service = SpannerService(store(), ServeConfig(workers=1))
        with service:
            service.coordinator.lock.acquire_write()
            try:
                blocker = service.submit("m", "d1")
                drain_to_worker(service)  # the lone worker is now parked
                ticket = service.submit("m", "d1", deadline=0.01)  # stays queued
                threading.Event().wait(0.05)
            finally:
                service.coordinator.lock.release_write()
            blocker.result(timeout=10)
            with pytest.raises(DeadlineExceededError):
                ticket.result(timeout=10)
        assert service.stats()["expired_in_queue"] == 1


    def test_close_racing_offers_and_takes_loses_nothing(self):
        # Admission.close() must hand back exactly what no consumer took:
        # every accepted item ends up taken once or in close()'s list,
        # and every offer is accepted, shed, or refused
        import sys

        from repro.serve.admission import Admission

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):
                admission = Admission(
                    8, shed_metric="serve.shed", depth_gauge="serve.queue_depth",
                    unit="requests",
                )
                admission.open()
                accepted, refused, taken = [], [], []

                def produce(base):
                    for item in range(base, base + 300):
                        try:
                            admission.offer(item)
                            accepted.append(item)
                        except OverloadedError:
                            pass
                        except ServiceStoppedError:
                            refused.append(item)

                def consume():
                    while (item := admission.take()) is not None:
                        taken.append(item)

                threads = [
                    threading.Thread(target=produce, args=(1000 * i,)) for i in range(4)
                ] + [threading.Thread(target=consume) for _ in range(3)]
                for thread in threads:
                    thread.start()
                threading.Event().wait(0.002)
                leftover = admission.close()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(taken + leftover) == sorted(accepted)
                assert len(accepted) + len(refused) + admission.shed == 1200
        finally:
            sys.setswitchinterval(previous)


class TestServiceLifecycle:
    def test_query_answers_match_direct_evaluation(self):
        db = store()
        expected = sorted(map(str, db.query("m", "d1")))
        with SpannerService(db, ServeConfig(workers=2)) as service:
            result = service.query("m", "d1")
            assert not result.degraded
            assert result.attempts == 1
            assert sorted(map(str, result.tuples)) == expected

    def test_submit_after_stop_raises(self):
        service = SpannerService(store())
        service.start()
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.submit("m", "d1")

    def test_stop_fails_queued_requests(self):
        service = SpannerService(store(), ServeConfig(workers=1))
        service.start()
        service.coordinator.lock.acquire_write()
        try:
            tickets = [service.submit("m", "d1")]
            drain_to_worker(service)  # the lone worker holds it, parked
            tickets += [service.submit("m", "d1") for _ in range(4)]
            # stop with the pool still parked: queued requests must resolve
            stopper = threading.Thread(target=service.stop)
            stopper.start()
            while service.stats()["running"]:
                threading.Event().wait(0.005)
        finally:
            service.coordinator.lock.release_write()
        stopper.join(timeout=10)
        outcomes = []
        for ticket in tickets:
            try:
                ticket.result(timeout=5)
                outcomes.append("ok")
            except ServiceStoppedError:
                outcomes.append("stopped")
        # the dequeued request finishes; the four still queued are failed
        # by the stop, and every one of them is counted
        assert outcomes == ["ok"] + ["stopped"] * 4
        stats = service.stats()
        assert (stats["submitted"], stats["completed"], stats["failed"]) == (5, 1, 4)
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]

    def test_submit_racing_stop_resolves_typed(self, monkeypatch):
        # stop() lands after submit has begun but before its request is
        # enqueued: the request must not be stranded in a queue nobody
        # reads — submit refuses, or its ticket fails, with the typed error
        service = SpannerService(store(), ServeConfig(workers=1)).start()
        clamp = service._clamp_deadline

        def stop_then_clamp(deadline):
            service.stop()
            return clamp(deadline)

        monkeypatch.setattr(service, "_clamp_deadline", stop_then_clamp)
        try:
            ticket = service.submit("m", "d1")
        except ServiceStoppedError:
            pass
        else:
            with pytest.raises(ServiceStoppedError):
                ticket.result(timeout=1.0)
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]

    def test_unknown_names_surface_typed_errors(self):
        with SpannerService(store()) as service:
            with pytest.raises(SchemaError):
                service.query("nope", "d1")
            with pytest.raises(SLPError):
                service.query("m", "nope")

    def test_mutations_are_visible_to_later_queries(self):
        with SpannerService(store()) as service:
            service.add_document("d2", "bbb")
            result = service.query("m", "d2")
            assert len(result.tuples) == 3
            assert service.stats()["mutations"] == 1

    def test_ticket_timeout_is_typed(self):
        service = SpannerService(store(), ServeConfig(workers=1))
        with service:
            service.coordinator.lock.acquire_write()
            try:
                ticket = service.submit("m", "d1")
                with pytest.raises(DeadlineExceededError):
                    ticket.result(timeout=0.05)
            finally:
                service.coordinator.lock.release_write()
            ticket.result(timeout=10)


class TestDegradation:
    def test_faulty_compressed_path_degrades_with_identical_tuples(self):
        db = store()
        expected = sorted(map(str, db.query("m", "d1")))
        config = ServeConfig(
            workers=2,
            retry_max_attempts=2,
            breaker_failure_threshold=2,
            breaker_reset_after=60.0,
        )
        injector = ChaosInjector(seed=1)
        with SpannerService(db, config) as service:
            with injector.chaos(
                SLPSpannerEvaluator, "enumerate", site="enum", error_rate=1.0
            ):
                results = [service.query("m", "d1", timeout=30) for _ in range(6)]
        assert all(r.degraded for r in results)
        for r in results:
            assert sorted(map(str, r.tuples)) == expected
        stats = service.stats()
        assert stats["degraded"] == 6
        assert stats["breaker"]["state"] == "open"
        assert stats["breaker"]["times_opened"] == 1

    def test_degradation_disabled_surfaces_breaker_and_fault_errors(self):
        config = ServeConfig(
            workers=1,
            degrade=False,
            retry_max_attempts=1,
            breaker_failure_threshold=1,
            breaker_reset_after=60.0,
        )
        injector = ChaosInjector(seed=2)
        with SpannerService(store(), config) as service:
            with injector.chaos(
                SLPSpannerEvaluator, "enumerate", site="enum", error_rate=1.0
            ):
                with pytest.raises(FaultInjectedError):
                    service.query("m", "d1")
                with pytest.raises(CircuitOpenError):
                    service.query("m", "d1")

    def test_breaker_recovers_after_reset(self):
        config = ServeConfig(
            workers=1,
            retry_max_attempts=1,
            breaker_failure_threshold=1,
            breaker_reset_after=0.05,
            breaker_half_open_probes=1,
        )
        injector = ChaosInjector(seed=3)
        with SpannerService(store(), config) as service:
            with injector.chaos(
                SLPSpannerEvaluator, "enumerate", site="enum", error_rate=1.0
            ):
                assert service.query("m", "d1").degraded
            threading.Event().wait(0.06)
            # fault gone, reset elapsed: the half-open probe succeeds
            result = service.query("m", "d1")
            assert not result.degraded
            assert service.breaker.state == "closed"

    def test_untyped_probe_error_settles_its_grant(self):
        # a half-open probe that dies of an untyped error must still hand
        # its probe slot back, or the breaker stays half-open with every
        # slot held and each later query degrades
        clock = FakeClock()
        service = SpannerService(store(), ServeConfig(workers=1))
        breaker = service.breaker = CircuitBreaker(
            failure_threshold=1, reset_after=1.0, half_open_probes=2, clock=clock
        )
        with service:
            breaker.record_failure()
            clock.advance(1.0)
            assert breaker.state == HALF_OPEN
            with fail_at_call(SpannerDB, "query", error=RuntimeError("untyped bug")):
                with pytest.raises(RuntimeError):
                    service.query("m", "d1")
            assert breaker.stats()["probes_in_flight"] == 0
            result = service.query("m", "d1")
            assert not result.degraded
            assert breaker.state == CLOSED

    def test_retries_recover_from_one_shot_fault(self):
        db = store()
        expected = sorted(map(str, db.query("m", "d1")))
        config = ServeConfig(workers=1, retry_max_attempts=3, breaker_failure_threshold=5)
        injector = ChaosInjector(seed=11)
        # rate 0.35: under seed 11 the first draw fires, later ones do not
        with SpannerService(db, config) as service:
            with injector.chaos(
                SLPSpannerEvaluator, "enumerate", site="enum", error_rate=0.35
            ):
                results = [service.query("m", "d1", timeout=30) for _ in range(10)]
        assert all(sorted(map(str, r.tuples)) == expected for r in results)
        retried = [r for r in results if r.attempts > 1]
        if injector.fired():
            assert retried or any(r.degraded for r in results)


# ---------------------------------------------------------------------------
# model-based breaker test: allow / guard / clock against a reference model
# ---------------------------------------------------------------------------
class BreakerModel:
    """The breaker's contract, written plainly.  A grant is bound when it
    is issued — ``None`` while closed, the half-open period for a probe —
    and only a probe of the current half-open period settles as a probe
    result; an open breaker goes half-open once ``reset_after`` has passed
    since it opened."""

    def __init__(self, threshold: int, reset_after: float, probes: int) -> None:
        self.threshold, self.reset_after, self.probes = threshold, reset_after, probes
        self.state, self.failures, self.opened_at = CLOSED, 0, 0.0
        self.in_flight = self.successes = self.opened = self.closed = 0
        self.period = 0

    def now_state(self, now: float) -> str:
        if self.state == OPEN and now - self.opened_at >= self.reset_after:
            self.state, self.in_flight, self.successes = HALF_OPEN, 0, 0
            self.period += 1
        return self.state

    def allow(self, now: float) -> tuple[bool, int | None]:
        """``(granted, grant)``."""
        state = self.now_state(now)
        if state == HALF_OPEN and self.in_flight < self.probes:
            self.in_flight += 1
            return True, self.period
        return state == CLOSED, None

    def settle(self, fault: bool, grant: int | None, now: float) -> None:
        state = self.now_state(now)
        if state == HALF_OPEN:
            if grant != self.period:
                return
            self.in_flight = max(0, self.in_flight - 1)
            self.successes += not fault
            if fault:
                self.state, self.opened_at, self.opened = OPEN, now, self.opened + 1
            elif self.successes >= self.probes:
                self.state, self.failures, self.closed = CLOSED, 0, self.closed + 1
                self.in_flight = self.successes = 0
        elif state == CLOSED:
            self.failures = self.failures + 1 if fault else 0
            if self.failures >= self.threshold:
                self.state, self.opened_at, self.opened = OPEN, now, self.opened + 1


#: what the guarded work does: return, raise a fault of the guarded
#: path, raise a typed error that is not one, or raise an untyped bug
_OUTCOMES = {
    "ok": None,
    "fault": FaultInjectedError("path fault"),
    "typed": SchemaError("not the path's fault"),
    "untyped": RuntimeError("untyped bug"),
}


class BreakerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.breaker = CircuitBreaker(
            failure_threshold=2, reset_after=1.0, half_open_probes=2, clock=self.clock
        )
        self.model = BreakerModel(2, 1.0, 2)
        #: granted requests still running: (entered guard, model grant)
        self.running: list = []

    @rule()
    def allow(self):
        granted = self.breaker.allow()
        model_granted, grant = self.model.allow(self.clock.now)
        assert granted == model_granted
        if granted:
            # the request enters its guarded work at once and may still be
            # running while the breaker changes state
            guard = self.breaker.guard(lambda exc: isinstance(exc, FaultInjectedError))
            guard.__enter__()
            self.running.append((guard, grant))

    @precondition(lambda self: self.running)
    @rule(data=st.data(), outcome=st.sampled_from(sorted(_OUTCOMES)))
    def settle(self, data, outcome):
        index = data.draw(st.integers(min_value=0, max_value=len(self.running) - 1))
        guard, grant = self.running.pop(index)
        error = _OUTCOMES[outcome]
        if error is None:
            guard.__exit__(None, None, None)
        else:
            # the guard settles, then lets the exception propagate
            assert not guard.__exit__(type(error), error, None)
        self.model.settle(outcome == "fault", grant, self.clock.now)

    @rule(seconds=st.sampled_from([0.25, 0.5, 1.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def matches_the_model(self):
        stats = self.breaker.stats()
        assert stats["state"] == self.model.now_state(self.clock.now)
        assert stats["probes_in_flight"] == self.model.in_flight
        assert stats["probes_in_flight"] <= self.breaker.half_open_probes
        assert stats["times_opened"] == self.model.opened
        assert stats["times_closed"] == self.model.closed


TestBreakerMachine = BreakerMachine.TestCase
TestBreakerMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
