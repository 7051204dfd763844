"""Fault injection for robustness testing (monkeypatch-style).

The fault-tolerance contract of :class:`~repro.db.SpannerDB` — mutations
are atomic, budgets terminate cleanly, crashes lose at most the last
non-durable record — is only worth anything if it survives failures at the
*worst* moments.  This module provides those moments on demand:

* :func:`fail_at_allocation` — raise on the N-th SLP node allocation
  (mid-``edit``/``add_document``, after some staged nodes already exist);
* :func:`fail_in_preprocess` — raise on the N-th spanner preprocess call
  (mid-``register_spanner``, or mid-``add_document`` between spanners);
* :func:`truncate_journal_write` — emit only a prefix of a journal record
  and then die (a torn write followed by a crash);
* :func:`truncate_file` — post-hoc torn-write simulation on any file;
* :func:`fail_at_call` — the generic primitive behind the above;
* :class:`ChaosInjector` — a *seedable, concurrency-aware* probabilistic
  schedule of errors and delays for multi-threaded chaos runs (the
  :mod:`repro.serve` chaos suite);
* :class:`FeedChaos` — the streaming counterpart: a seeded schedule of
  feed misbehaviour (torn chunks, bursts, stalls, mid-window evaluator
  faults) consumed by :class:`repro.serve.StreamSession` and the
  streaming chaos lane.

All injected errors are :class:`~repro.errors.FaultInjectedError`, a
:class:`~repro.errors.SpanlibError`, so they travel exactly the rollback
and recovery paths genuine failures take.  Every helper is a context
manager that restores the patched attribute on exit, so faults never leak
between tests.

Determinism contract
--------------------

Every injection in this module is a pure function of explicit inputs — a
call counter (:func:`fail_at_call` family) or an explicit integer seed.
There is **no module-level RNG state**: every seeded schedule
(:class:`ChaosInjector`, :class:`FeedChaos`) draws
from the one function :func:`_schedule_rng`, ``random.Random(f"{seed}:
{site}:{k}")``, so two runs with the same seed draw the same fault
schedule and a chaos-test failure replays exactly from its seed.  For
multi-threaded runs the schedule is *concurrency-aware*: the decision for
the k-th call at a given site is ``f(seed, site, k)`` regardless of which
thread makes it, so the multiset of injected faults is identical across
interleavings even though thread schedules are not.  A multi-step
operation that must replay its own verdicts whatever else interleaves
uses a site of its own, e.g. ``f"{site}:{op_id}"``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import threading
import time
from typing import Iterator

from repro.errors import FaultInjectedError

__all__ = [
    "ChaosInjector",
    "FeedChaos",
    "fail_at_call",
    "fail_at_allocation",
    "fail_in_preprocess",
    "truncate_journal_write",
    "truncate_file",
]


def _schedule_rng(seed: int, site: str, k) -> random.Random:
    """The generator behind the *k*-th draw at *site* of schedule *seed*
    (*k* is a call count, or a tuple key such as a pool task's).

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    draw is stable across processes and interpreter runs (unlike
    ``hash``, which is salted)."""
    return random.Random(f"{seed}:{site}:{k}")


def _verdict(draw: float, *outcomes: tuple[str, float]) -> str | None:
    """The first outcome whose cumulative rate exceeds *draw*, else None."""
    bound = 0.0
    for name, rate in outcomes:
        bound += rate
        if draw < bound:
            return name
    return None


@contextlib.contextmanager
def fail_at_call(
    target: object,
    attribute: str,
    at: int = 1,
    error: Exception | None = None,
) -> Iterator[dict]:
    """Patch ``target.attribute`` so its *at*-th invocation raises.

    Calls before the *at*-th pass through to the original; calls after it
    pass through again (the fault fires exactly once).  Yields a mutable
    ``{"calls": int}`` dict so tests can assert how far execution got.
    """
    if at < 1:
        raise ValueError(f"fault trigger must be >= 1, got {at}")
    original = getattr(target, attribute)
    state = {"calls": 0}

    def wrapper(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] == at:
            raise error if error is not None else FaultInjectedError(
                f"injected fault in {attribute!r} (call {at})"
            )
        return original(*args, **kwargs)

    setattr(target, attribute, wrapper)
    try:
        yield state
    finally:
        setattr(target, attribute, original)


def fail_at_allocation(at: int = 1, error: Exception | None = None):
    """Raise on the *at*-th SLP node allocation (``SLP._new_node``).

    This is the sharpest mid-mutation failure point: ``edit`` and
    ``add_document`` allocate O(log d) staged nodes before committing, so a
    fault here leaves staged arena state for rollback to clean up.
    """
    from repro.slp.slp import SLP

    return fail_at_call(SLP, "_new_node", at=at, error=error)


def fail_in_preprocess(at: int = 1, error: Exception | None = None):
    """Raise on the *at*-th ``SLPSpannerEvaluator.preprocess`` call.

    With k spanners registered, ``add_document`` preprocesses the new node
    k times; ``register_spanner`` preprocesses once per stored document —
    so *at* selects "fail on the at-th spanner/document".
    """
    from repro.slp.spanner_eval import SLPSpannerEvaluator

    return fail_at_call(SLPSpannerEvaluator, "preprocess", at=at, error=error)


@contextlib.contextmanager
def truncate_journal_write(keep_bytes: int = 0, at: int = 1) -> Iterator[dict]:
    """Tear the *at*-th journal append after *keep_bytes* bytes, then die.

    Patches ``SpannerDB._journal_write`` so the targeted append writes only
    a prefix of its payload and raises :class:`FaultInjectedError` — the
    on-disk effect of a crash mid-``write(2)``.  Recovery must stop replay
    at the torn record.
    """
    from repro.db import SpannerDB

    original = SpannerDB._journal_write
    state = {"calls": 0}

    def wrapper(self, payload: str):
        state["calls"] += 1
        if state["calls"] == at:
            original(self, payload[:keep_bytes])
            raise FaultInjectedError(
                f"injected torn journal write (kept {keep_bytes} bytes)"
            )
        return original(self, payload)

    SpannerDB._journal_write = wrapper
    try:
        yield state
    finally:
        SpannerDB._journal_write = original


class ChaosInjector:
    """A seeded, thread-safe schedule of probabilistic faults and delays.

    One injector drives a whole chaos run.  Each *site* (a short string
    naming an injection point, e.g. ``"preprocess"`` or ``"journal"``) has
    its own call counter; the decision for the k-th call at a site is::

        _schedule_rng(seed, site, k).random() < rate

    The per-site counters are incremented under a lock, making the
    schedule *concurrency-aware*: however threads interleave, the k-th
    call at a site always gets the same verdict, so a run's fault multiset
    is a pure function of its seed.

    Use :meth:`maybe_fail` / :meth:`maybe_delay` directly at a call site
    you control, or :meth:`chaos` to monkeypatch one into an existing
    method for the duration of a ``with`` block.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    def _draw(self, site: str) -> float:
        with self._lock:
            k = self._calls.get(site, 0)
            self._calls[site] = k + 1
        return _schedule_rng(self.seed, site, k).random()

    def _fires(self, site: str, rate: float) -> bool:
        """Take the next position of *site*'s schedule: does it fire?  A
        zero rate takes no position."""
        if rate <= 0.0 or self._draw(site) >= rate:
            return False
        with self._lock:
            self._fired[site] = self._fired.get(site, 0) + 1
        return True

    def maybe_fail(self, site: str, rate: float, error: Exception | None = None) -> None:
        """Raise :class:`~repro.errors.FaultInjectedError` with probability
        *rate* (per the deterministic schedule) at this site."""
        if self._fires(site, rate):
            raise error if error is not None else FaultInjectedError(
                f"chaos fault at {site!r} (seed {self.seed})"
            )

    def maybe_delay(self, site: str, rate: float, seconds: float) -> bool:
        """Sleep *seconds* with probability *rate*; returns whether it slept."""
        fired = self._fires(site, rate)
        if fired:
            time.sleep(seconds)
        return fired

    def fired(self) -> dict[str, int]:
        """Per-site count of faults/delays that actually fired so far."""
        with self._lock:
            return dict(self._fired)

    def calls(self) -> dict[str, int]:
        """Per-site call counts (schedule positions consumed so far)."""
        with self._lock:
            return dict(self._calls)

    @contextlib.contextmanager
    def chaos(
        self,
        target: object,
        attribute: str,
        site: str | None = None,
        error_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.0005,
    ) -> Iterator["ChaosInjector"]:
        """Patch ``target.attribute`` to consult this schedule on every call.

        A targeted call first (maybe) sleeps, then (maybe) raises, then
        passes through to the original — delays exercise slow-path races,
        errors exercise rollback/retry/degradation paths.  The patch is
        removed on exit, like every helper in this module."""
        point = site if site is not None else attribute
        original = getattr(target, attribute)

        def wrapper(*args, **kwargs):
            self.maybe_delay(f"{point}.delay", delay_rate, delay)
            self.maybe_fail(point, error_rate)
            return original(*args, **kwargs)

        setattr(target, attribute, wrapper)
        try:
            yield self
        finally:
            setattr(target, attribute, original)


@dataclasses.dataclass(frozen=True)
class FeedChaos:
    """A seeded schedule of live-feed misbehaviour for streaming chaos runs.

    Two halves, both pure functions of the seed:

    * **producer side** — :meth:`perturb` re-chunks a feed per the
      schedule: *torn* chunks arrive split at a seeded cut point, and
      *bursts* arrive with several chunks coalesced into one oversized
      append.  Concatenation is always preserved
      (``"".join(perturb(chunks)) == "".join(chunks)``), so the document
      the consumer assembles is exactly the producer's — only the window
      boundaries move, which is precisely what the differential fuzz lane
      wants to stress.
    * **consumer side** — :meth:`decide` gives the verdict for one
      evaluation window: ``"fault"`` (the session injects a
      :class:`~repro.errors.FaultInjectedError` into the window's first
      attempt, exercising retry and the circuit-broken rebuild fallback),
      ``"stall"`` (the session sleeps ``stall_seconds``, exercising
      backpressure and deadline overruns), or ``None``.

    The verdict for window *k* is ``f(seed, k)`` — the same
    concurrency-aware determinism contract as :class:`ChaosInjector`.
    """

    seed: int
    fault_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.005
    tear_rate: float = 0.0
    burst_rate: float = 0.0
    max_burst: int = 4

    def decide(self, window_seq: int) -> str | None:
        """``"fault"``, ``"stall"``, or ``None`` for window *window_seq*."""
        return _verdict(
            _schedule_rng(self.seed, "feed-window", window_seq).random(),
            ("fault", self.fault_rate),
            ("stall", self.stall_rate),
        )

    def perturb(self, chunks) -> Iterator[str]:
        """Re-chunk *chunks* per the seeded tear/burst schedule.

        A generator, so unbounded feeds stay unbounded; empty chunks
        (heartbeats) pass through untouched."""
        pending = ""
        pending_count = 0
        for index, chunk in enumerate(chunks):
            rng = _schedule_rng(self.seed, "feed-chunk", index)
            draw = rng.random()
            if draw < self.burst_rate and pending_count + 1 < self.max_burst:
                pending += chunk
                pending_count += 1
                continue
            chunk = pending + chunk
            pending = ""
            pending_count = 0
            torn = self.burst_rate <= draw < self.burst_rate + self.tear_rate
            if torn and len(chunk) > 1:
                cut = 1 + rng.randrange(len(chunk) - 1)
                yield chunk[:cut]
                yield chunk[cut:]
            else:
                yield chunk
        if pending:
            yield pending


def truncate_file(path: str, keep_bytes: int) -> int:
    """Truncate *path* to *keep_bytes* bytes, simulating a torn write that
    a crash left behind.  Returns the number of bytes removed."""
    size = os.path.getsize(path)
    keep = max(0, min(size, keep_bytes))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return size - keep
