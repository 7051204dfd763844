"""StreamSession: the concurrent surface over a windowed spanner stream.

:class:`repro.stream.WindowedSpannerStream` is deliberately
single-threaded; this module wraps it in the serving layer's robustness
machinery so a live producer and a results consumer can run against it
concurrently:

* **backpressure** — chunks enter through the same bounded
  :class:`~repro.serve.admission.Admission` queue the query service uses;
  :meth:`StreamSession.feed` never blocks, it sheds with a typed
  :class:`~repro.errors.OverloadedError` whose ``retry_after`` comes from
  the queue's :class:`~repro.serve.admission.RetryAfterHint` EWMA, fed
  with observed per-window times;
* **per-window deadlines with degradation** — a window that overruns its
  budget ships the results collected so far plus a
  :class:`~repro.errors.WindowOverrunError` *marker* instead of stalling
  the feed (partial state is resumable; the next complete window
  reconciles the frontier);
* **circuit-broken rebuild fallback** — fault or differential-guard
  failures on the incremental-append path count against an internal
  :class:`~repro.util.breaker.CircuitBreaker` (settled through its
  ``guard``); once it opens, windows go
  through :meth:`~repro.stream.WindowedSpannerStream.rebuild` (correct
  but O(n)) until probes show the incremental path healthy again;
* **clean draining** — :meth:`StreamSession.close` stops admissions,
  processes what is queued under a drain deadline, discards (and counts)
  the rest, and always returns within that deadline plus join slack.
  An untyped error inside one window is counted in ``internal_errors``,
  ships one degraded result (``overrun=True``, a ``WindowOverrunError``
  caused by the error), and the evaluation thread goes on with the next
  chunk.

Only typed errors cross the session boundary: ``OverloadedError`` and
``ServiceStoppedError`` from :meth:`feed`, ``WindowOverrunError`` as a
marker on degraded :class:`~repro.stream.WindowResult`\\ s.  Seeded feed
chaos (:class:`repro.util.faults.FeedChaos`) plugs in via the config —
``"stall"`` verdicts sleep before the window, ``"fault"`` verdicts
poison its first ingest attempt — which is how the streaming chaos lane
drives 30 %-fault-rate runs deterministically.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator

from repro import obs
from repro.errors import (
    EvaluationLimitError,
    FaultInjectedError,
    MemoryLimitError,
    ServiceStoppedError,
    StreamError,
    WindowOverrunError,
)
from repro.serve.admission import Admission
from repro.stream.windowed import (
    StreamConfig,
    WindowResult,
    WindowedSpannerStream,
    record_window_metrics,
)
from repro.util.breaker import CircuitBreaker
from repro.util.budget import Deadline
from repro.util.faults import FeedChaos

__all__ = ["StreamSession", "StreamSessionConfig"]

_DONE = object()


def _is_ingest_fault(exc: BaseException) -> bool:
    """A failure of the incremental path itself (transient or a guard
    trip) — the only kind that counts against the rebuild breaker."""
    return isinstance(exc, (StreamError, FaultInjectedError))


@dataclass(frozen=True)
class StreamSessionConfig:
    """Knobs of one :class:`StreamSession` (see the module docstring and
    the streaming ingestion runbook in ``docs/RELIABILITY.md``)."""

    #: bounded ingest queue; a full queue sheds with ``OverloadedError``
    queue_limit: int = 64
    #: default drain allowance of :meth:`StreamSession.close` (seconds)
    drain_deadline: float = 5.0
    #: ingest/evaluate attempts per window before it degrades
    window_attempts: int = 3
    #: consecutive incremental-path failures that open the rebuild breaker
    breaker_failures: int = 3
    #: seconds an open breaker waits before probing incremental again
    breaker_reset_after: float = 1.0
    #: seeded feed-fault schedule (``None`` = clean run)
    chaos: FeedChaos | None = None


class StreamSession:
    """Resilient streaming evaluation of one spanner over a live feed.

    One producer thread calls :meth:`feed`, one consumer thread iterates
    :meth:`results`; a single internal evaluation thread owns the
    underlying :class:`~repro.stream.WindowedSpannerStream` (preserving
    its single-owner safety argument).  Use as a context manager::

        with StreamSession("!x{err}") as session:
            session.feed(chunk)           # OverloadedError => back off
            ...
        # __exit__ drains within the configured deadline

    """

    def __init__(
        self,
        spanner,
        config: StreamSessionConfig | None = None,
        stream_config: StreamConfig | None = None,
    ) -> None:
        self.config = config or StreamSessionConfig()
        self._stream = WindowedSpannerStream(spanner, stream_config)
        self._admission = Admission(
            self.config.queue_limit,
            shed_metric="stream.backpressure",
            depth_gauge="stream.queue_depth",
            unit="chunks",
        )
        self._results_q: queue.SimpleQueue = queue.SimpleQueue()
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_after=self.config.breaker_reset_after,
            half_open_probes=1,
        )
        self._lock = threading.Lock()
        self._counts = {
            "windows": 0,
            "overruns": 0,
            "rebuilds": 0,
            "faults": 0,
            "discarded": 0,
            "internal_errors": 0,
        }
        self._running = False
        self._closing = False
        self._drain_deadline: Deadline | None = None
        #: a chunk whose ingest failed outright, retried as the next window
        self._carry: str | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StreamSession":
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._closing = False
            self._admission.open()
        self._thread = threading.Thread(
            target=self._run, name="stream-eval", daemon=True
        )
        self._thread.start()
        return self

    def __enter__(self) -> "StreamSession":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, deadline: float | None = None) -> dict:
        """Stop admissions, drain queued windows, join; returns stats.

        Bounded: queued windows evaluate under budgets clamped to the
        drain deadline, and whatever is still queued when it expires is
        discarded (counted in ``stats()["discarded"]``), so close always
        returns within the deadline plus join slack.
        """
        with self._lock:
            already_stopped = not self._running
            if not already_stopped:
                seconds = self.config.drain_deadline if deadline is None else deadline
                self._drain_deadline = Deadline.after(seconds)
                self._closing = True
        if already_stopped:
            return self.stats()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=seconds + 1.0)
            if thread.is_alive():  # pragma: no cover - defensive
                self._results_q.put(_DONE)
        with self._lock:
            self._running = False
        return self.stats()

    # ------------------------------------------------------------------
    # producer surface
    # ------------------------------------------------------------------
    def feed(self, chunk: str) -> None:
        """Enqueue one chunk; never blocks.

        Raises :class:`~repro.errors.ServiceStoppedError` once the
        session is closed/closing, and :class:`~repro.errors.OverloadedError`
        (with a ``retry_after`` drain estimate) when the producer has
        outrun evaluation and the bounded queue is full.
        """
        if self._closing:
            raise ServiceStoppedError("stream session is not accepting chunks")
        self._admission.offer(chunk)

    # ------------------------------------------------------------------
    # consumer surface
    # ------------------------------------------------------------------
    def results(self) -> Iterator[WindowResult]:
        """Yield :class:`~repro.stream.WindowResult` per processed window
        until the session drains.  Single consumer."""
        while True:
            item = self._results_q.get()
            if item is _DONE:
                return
            yield item

    def frontier(self) -> set:
        """Snapshot of the current full result set (authoritative once
        the session is closed; advisory while windows are in flight)."""
        return self._stream.results()

    def stats(self) -> dict:
        with self._lock:
            counts = dict(self._counts)
        return {
            **counts,
            "shed": self._admission.shed,
            "running": self._running,
            "queue_depth": len(self._admission),
            "queue_limit": self.config.queue_limit,
            "window_ema_s": self._admission.hint.ema_s,
            "breaker": self._breaker.stats(),
            "stream": self._stream.stats(),
        }

    # ------------------------------------------------------------------
    # the evaluation thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                drain = self._drain_deadline
                if self._closing and drain is not None and drain.expired():
                    break
                chunk = self._carry
                self._carry = None
                if chunk is None:
                    chunk = self._admission.take(timeout=0.02)
                    if chunk is None:
                        if self._closing:
                            break
                        continue
                seq = self._stream.begin_window()
                t0 = time.perf_counter_ns()
                try:
                    self._process(seq, chunk)
                except Exception as exc:  # noqa: BLE001 - the thread must outlive one bad window
                    # nothing untyped leaves the session: the window is
                    # counted as an internal error and still ships one
                    # degraded result (a consumer pairing each feed()
                    # with one result must not wait forever); the feed
                    # marches on
                    with self._lock:
                        self._counts["internal_errors"] += 1
                    obs.tracer().event("stream.internal_error", error=repr(exc))
                    self._results_q.put(self._failed_window(seq, exc, t0))
            # closing admission hands back the backlog atomically, so a
            # chunk fed while the loop wound down is counted, not lost
            discarded = len(self._admission.close()) + (self._carry is not None)
            self._carry = None
            if discarded:
                with self._lock:
                    self._counts["discarded"] += discarded
                if obs.enabled():
                    obs.metrics().counter("stream.discarded").inc(discarded)
        finally:
            self._results_q.put(_DONE)

    def _failed_window(self, seq: int, exc: Exception, t0: int) -> WindowResult:
        """The degraded result of a window that died of an untyped error:
        nothing ingested, nothing shipped, the error as the marker's cause."""
        stream = self._stream
        return WindowResult(
            window=seq,
            chunk_chars=0,
            document_chars=stream.document_chars,
            added=[],
            retracted=[],
            overrun=True,
            error=self._overrun(seq, f"internal error ({exc!r})", exc),
            frontier_bytes=stream.frontier_bytes,
            window_ns=time.perf_counter_ns() - t0,
        )

    def _process(self, seq: int, chunk: str) -> None:
        stream = self._stream
        chaos = self.config.chaos
        verdict = chaos.decide(seq) if chaos is not None else None
        if verdict == "stall":
            time.sleep(chaos.stall_seconds)
        budget = stream.window_budget(self._drain_deadline if self._closing else None)
        t0 = time.perf_counter_ns()
        error: WindowOverrunError | None = None
        fresh = 0
        rebuilt = False
        discarded = False
        ingested = not chunk
        inject_fault = verdict == "fault"
        attempts = 0
        last_exc: BaseException | None = None

        while not ingested and error is None and attempts < self.config.window_attempts:
            attempts += 1
            incremental = self._breaker.allow()
            try:
                # only the incremental path holds a breaker grant to settle
                with self._breaker.guard(_is_ingest_fault) if incremental else nullcontext():
                    if inject_fault:
                        inject_fault = False
                        raise FaultInjectedError(
                            f"feed chaos: injected fault in window {seq} "
                            f"(seed {chaos.seed})"
                        )
                    fresh = (stream.ingest if incremental else stream.rebuild)(chunk, budget)
                rebuilt = not incremental
                ingested = True
            except MemoryLimitError as exc:
                # the rebuild_max_chars / byte guard is permanent for this
                # document: drop the chunk instead of wedging the feed on it
                error = self._overrun(seq, f"ingest refused by byte guard ({exc})", exc)
                discarded = True
            except EvaluationLimitError as exc:
                # deadline/step overrun — not the path's fault; incremental
                # ingest keeps resumable partial state: the chunk IS part
                # of the document now
                ingested = incremental
                error = self._overrun(seq, f"ingest overran its budget ({exc})", exc)
            except (StreamError, FaultInjectedError) as exc:
                # transient (or guard-tripped) failure: the chunk was
                # rolled back; retry, letting the breaker reroute
                with self._lock:
                    self._counts["faults"] += 1
                last_exc = exc

        if not ingested and error is None:
            error = self._overrun(
                seq, f"ingest failed after {attempts} attempts ({last_exc})", last_exc
            )

        added: list = []
        retracted: list = []
        if error is None and (chunk or not stream.frontier_complete):
            for attempt in range(1, self.config.window_attempts + 1):
                try:
                    added, retracted, complete = stream.evaluate(budget)
                    if not complete:
                        error = self._overrun(
                            seq,
                            f"evaluation overran its budget "
                            f"({len(added)} results shipped partial)",
                        )
                    break
                except MemoryLimitError as exc:
                    # frontier bound: typed, permanent — degrade the window
                    # with the frontier untouched (still under the bound)
                    error = self._overrun(seq, f"frontier budget refused ({exc})", exc)
                    break
                except (StreamError, FaultInjectedError) as exc:
                    with self._lock:
                        self._counts["faults"] += 1
                    if attempt == self.config.window_attempts:
                        error = self._overrun(
                            seq, f"evaluation failed after {attempt} attempts ({exc})", exc
                        )

        result = WindowResult(
            window=seq,
            chunk_chars=len(chunk) if ingested else 0,
            document_chars=stream.document_chars,
            added=added,
            retracted=retracted,
            overrun=error is not None,
            error=error,
            rebuilt=rebuilt,
            fresh_nodes=fresh,
            frontier_bytes=stream.frontier_bytes,
            window_ns=time.perf_counter_ns() - t0,
        )
        record_window_metrics(result)
        self._admission.hint.observe(result.window_ns / 1e9)
        with self._lock:
            self._counts["windows"] += 1
            if error is not None:
                self._counts["overruns"] += 1
            if rebuilt:
                self._counts["rebuilds"] += 1
        if error is not None and obs.enabled():
            obs.metrics().counter("stream.degraded").inc()
        if not ingested and not discarded and chunk:
            self._carry = chunk
        self._results_q.put(result)

    @staticmethod
    def _overrun(
        seq: int, detail: str, cause: BaseException | None = None
    ) -> WindowOverrunError:
        error = WindowOverrunError(f"window {seq}: {detail}", window=seq)
        if cause is not None:
            error.__cause__ = cause
        return error
