"""A circuit breaker: trip on consecutive failures, probe to recover.

:mod:`repro.serve` guards the SLP-compressed evaluation path with one,
and :class:`repro.serve.StreamSession` guards its rebuild fallback with
another.

The compressed evaluator is the fast path — O(log |D|) delay — but it is
also the *stateful* path: shared matrix caches, arena-backed nodes, and
(under fault injection or real trouble) the path that fails first.  The
breaker keeps a run of failures on it from taking the whole service down:

* **closed** (healthy): requests use the compressed path; each failure
  increments a consecutive-failure count, each success resets it.
* **open** (tripped): after ``failure_threshold`` consecutive failures the
  breaker opens for ``reset_after`` seconds; :meth:`allow` answers False
  and the service degrades those queries to decompressed evaluation —
  identical results, worse latency, service up.
* **half-open** (probing): once ``reset_after`` elapses, up to
  ``half_open_probes`` requests are let through as probes.  A probe
  failure re-opens the breaker (with a fresh timer); ``half_open_probes``
  consecutive probe successes close it again.

Every :meth:`~CircuitBreaker.allow` grant is settled through
:meth:`~CircuitBreaker.guard`, the one place outside this module that
decides success or failure: a normal exit or an exception that is not a
fault of the guarded path (a schema error, an expired deadline, an
untyped bug) settles as a success, a fault as a failure.  No exception
can leave a half-open probe slot held.

A settle belongs to the grant it settles, not to the state the breaker
is in when it arrives: the guard binds the grant its thread's last
:meth:`~CircuitBreaker.allow` issued, and only a probe issued in the
*current* half-open period may settle as a probe result.  A request
granted while closed that finishes after the breaker went half-open
says nothing about the probes, so it cannot close the breaker.

All timing uses the monotonic clock; an injectable ``clock`` makes state
transitions unit-testable without sleeping.  Thread-safe: every
transition happens under one lock, and :meth:`allow` accounts in-flight
half-open probes so a thundering herd cannot over-probe.

State changes are observable: ``serve.breaker.state`` (gauge, 0 = closed,
1 = half-open, 2 = open), ``serve.breaker.opened`` / ``.closed``
(transition counters) via :mod:`repro.obs`.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro import obs

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: no grant pending on this thread (a settle then binds to the state it
#: finds, as a bare record_success/record_failure does)
_UNBOUND = object()


class CircuitBreaker:
    """Trip on consecutive failures, recover through half-open probes."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 0.25,
        half_open_probes: int = 2,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        #: bumped on every entry into half-open: a probe grant carries the
        #: period it was issued in
        self._period = 0
        #: per thread, the grant of its last allow() until it is settled
        #: (``None`` = a closed-state grant, an int = a probe's period)
        self._pending = threading.local()
        #: lifetime transition counts (accurate under the lock; the obs
        #: metrics mirror them best-effort)
        self._times_opened = 0
        self._times_closed = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        # an expired open breaker *is* half-open; the transition is lazy
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_after
        ):
            self._enter(HALF_OPEN)
        return self._state

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May this request take the guarded (compressed) path?

        In half-open state, grants are counted as in-flight probes — at
        most ``half_open_probes`` outstanding — and every grant **must**
        be settled, by running the guarded work under :meth:`guard` on
        the thread that was granted.
        """
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                grant = None
            elif state == HALF_OPEN and self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                grant = self._period
            else:
                return False
        self._pending.grant = grant
        return True

    @contextlib.contextmanager
    def guard(self, is_fault):
        """Settle one :meth:`allow` grant around the guarded work.

        The grant is bound on entry: the one this thread's last
        :meth:`allow` issued.  A normal exit records a success; an
        exception records a failure when ``is_fault(exc)`` holds and a
        success otherwise (it says nothing about the path's health), then
        propagates."""
        grant = self._take_grant()
        try:
            yield
        except BaseException as exc:
            self._settle(is_fault(exc), grant)
            raise
        self._settle(False, grant)

    def record_success(self) -> None:
        """Settle this thread's pending grant as a success."""
        self._settle(False, self._take_grant())

    def record_failure(self) -> None:
        """Settle this thread's pending grant as a failure."""
        self._settle(True, self._take_grant())

    def _take_grant(self):
        grant = getattr(self._pending, "grant", _UNBOUND)
        self._pending.grant = _UNBOUND
        if grant is _UNBOUND:
            with self._lock:
                grant = self._period if self._state_locked() == HALF_OPEN else None
        return grant

    def _settle(self, fault: bool, grant) -> None:
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                if grant != self._period:
                    return  # not a probe of this period: says nothing
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                if fault:
                    self._enter(OPEN)  # one failed probe re-opens, fresh timer
                else:
                    self._probe_successes += 1
                    if self._probe_successes >= self.half_open_probes:
                        self._enter(CLOSED)
            elif not fault:
                self._consecutive_failures = 0
            elif state == CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._enter(OPEN)
            # already open: a straggler failure changes nothing

    # ------------------------------------------------------------------
    def _enter(self, state: str) -> None:
        previous, self._state = self._state, state
        if state == OPEN:
            self._opened_at = self._clock()
            self._times_opened += 1
        elif state == CLOSED:
            self._consecutive_failures = 0
            self._times_closed += 1
        if state in (CLOSED, HALF_OPEN):
            self._probes_in_flight = 0
            self._probe_successes = 0
        if state == HALF_OPEN:
            self._period += 1
        if previous != state and obs.enabled():
            registry = obs.metrics()
            registry.gauge("serve.breaker.state").set(_STATE_GAUGE[state])
            if state == OPEN:
                registry.counter("serve.breaker.opened").inc()
            elif state == CLOSED:
                registry.counter("serve.breaker.closed").inc()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self._times_opened,
                "times_closed": self._times_closed,
                "probes_in_flight": self._probes_in_flight,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state!r})"
