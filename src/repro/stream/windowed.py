"""Windowed spanner evaluation over an append-only feed.

The paper's compressed-evaluation pipeline (Schmid & Schweikardt; see
``repro.slp.spanner_eval``) assumes the document exists in full before
preprocessing.  This module removes that assumption for the one edit
shape live feeds actually perform — *append* — while keeping every
correctness guarantee bit-for-bit:

* :meth:`repro.slp.slp.SLP.append_text` joins each chunk onto the right
  spine of the document's strongly balanced SLP, so a window allocates
  only ``O(|chunk| + log n)`` fresh nodes and the evaluator's
  ``(σ, T, T_em)`` cache entries for the untouched prefix survive.
* A **differential guard** maintains the whole-document entry a second
  way — the associative fold of :mod:`repro.parallel.fold` over the raw
  feed characters — and compares it bit-for-bit against the entry
  computed over the appended SLP, on every ingest and every rebuild.
  Exact associativity of the entry algebra makes any mismatch a hard
  evidence of corruption (:class:`~repro.errors.StreamError`), at which
  point the caller (see :class:`repro.serve.StreamSession`) falls back
  to :meth:`WindowedSpannerStream.rebuild`.
* Windows emit **deltas**.  Spanner results are not monotone under
  append (a span ending at the old boundary ``n+1`` can stop matching on
  the extended document), so each window reports ``added`` — results
  newly present — and ``retracted`` — results that held on the previous
  prefix but no longer do.  The maintained *frontier* (the latest full
  result set) therefore always equals a one-shot query over the current
  document, which is exactly what the differential fuzz lane asserts.

Per-window resource governance reuses :class:`repro.util.Budget`: the
deadline bounds ingest + enumeration, ``max_steps`` bounds abstract
work, and ``frontier_max_bytes`` is charged against the frontier after
every window so a pathological feed raises a typed
:class:`~repro.errors.MemoryLimitError` instead of growing without
bound.  A window that overruns its deadline ships the results collected
so far and carries a :class:`~repro.errors.WindowOverrunError` marker;
the next complete window reconciles the frontier (partial-window state
is resumable, never corrupting).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.core.spans import SpanTuple
from repro.errors import (
    EvaluationLimitError,
    MemoryLimitError,
    StreamError,
    WindowOverrunError,
)
from repro.kernels.plan import evaluator_for
from repro.parallel.fold import combine, identity_entry, text_entry
from repro.slp.balance import rebalance
from repro.slp.build import repair_node
from repro.slp.slp import SLP
from repro.util.budget import Budget, Deadline

__all__ = [
    "StreamConfig",
    "WindowResult",
    "WindowedSpannerStream",
    "span_tuple_bytes",
    "stream_windows",
]


def span_tuple_bytes(tup: SpanTuple) -> int:
    """Deterministic per-tuple cost used for frontier memory accounting.

    A flat estimate (object header + one interned-name/span pair per
    binding) rather than ``sys.getsizeof`` recursion: the charge must be
    identical across platforms and interpreter versions so the
    ``frontier_max_bytes`` bound in tests and runbooks is reproducible.
    """
    return 64 + 48 * len(tup)


def _entries_equal(left, right) -> bool:
    """Bit-for-bit equality of two ``(σ, T, T_em)`` entries."""
    if left is None or right is None:
        return False
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs of one :class:`WindowedSpannerStream`.

    Parameters
    ----------
    window_deadline:
        Wall-clock seconds each window (ingest + evaluation) may spend
        before it is shipped partial with a
        :class:`~repro.errors.WindowOverrunError` marker.  ``None``
        disables the per-window deadline.
    max_steps:
        Abstract step allowance per window (matrix products and
        enumeration descents), same units as :class:`repro.util.Budget`.
    frontier_max_bytes:
        Bound on the dedup frontier's accounted bytes
        (:func:`span_tuple_bytes` per tuple); exceeding it raises a
        typed :class:`~repro.errors.MemoryLimitError`.
    rebuild_max_chars:
        Decompression guard on the :meth:`WindowedSpannerStream.rebuild`
        fallback, which must materialise the whole document once.
    """

    window_deadline: float | None = None
    max_steps: int | None = None
    frontier_max_bytes: int | None = None
    rebuild_max_chars: int = 10_000_000


@dataclass
class WindowResult:
    """What one appended chunk changed about the spanner's result set."""

    #: zero-based window index
    window: int
    #: characters appended by this window's chunk
    chunk_chars: int
    #: total document length after the append
    document_chars: int
    #: results newly present on the extended document
    added: list[SpanTuple]
    #: results that held on the previous prefix but no longer do
    retracted: list[SpanTuple]
    #: True when the window shipped partial (deadline/step overrun or
    #: exhausted fault retries); ``added`` is then a lower bound and
    #: ``retracted`` is empty — the next complete window reconciles
    overrun: bool = False
    #: the typed marker carried (not raised) by an overrun window
    error: WindowOverrunError | None = None
    #: True when this window went through the rebuild-from-scratch path
    rebuilt: bool = False
    #: fresh SLP-node entries the evaluator computed for this window
    fresh_nodes: int = 0
    #: accounted frontier bytes after this window (gauge)
    frontier_bytes: int = 0
    #: wall-clock nanoseconds the window spent (monotonic)
    window_ns: int = 0


class WindowedSpannerStream:
    """Incremental spanner evaluation over an append-only document.

    Single-owner by design: one stream owns one private SLP arena and is
    driven from one thread (the caller's, or a
    :class:`repro.serve.StreamSession` evaluation thread).  Concurrency,
    backpressure and fault routing live in the session layer; this class
    is the deterministic core the differential fuzz lane exercises.
    """

    def __init__(self, spanner, config: StreamConfig | None = None) -> None:
        self.config = config or StreamConfig()
        self._evaluator = evaluator_for(spanner)
        self._q = self._evaluator.det.num_states
        self.slp = SLP()
        self.node: int | None = None
        #: latest full result set (the dedup frontier); always equals a
        #: one-shot query over the current document after a complete window
        self._frontier: set[SpanTuple] = set()
        self._frontier_bytes = 0
        #: does the frontier reflect a *complete* evaluation of the
        #: current document?  False until the first window: even the
        #: empty document can have results (empty-span tuples), which
        #: the first window establishes via the decompressed path
        self._frontier_complete = False
        self._text_len = 0
        #: guard state: the raw-feed fold covers all but the last
        #: len(_pending_tail) chars, which are ingested but not yet folded
        #: (non-empty only after a budget overrun mid-ingest)
        self._prefix_entry = identity_entry(self._q)
        self._pending_tail = ""
        self._windows = 0
        self._rebuilds = 0
        self._guard_trips = 0

    # ------------------------------------------------------------------
    # budgets and bookkeeping
    # ------------------------------------------------------------------
    def window_budget(self, deadline: Deadline | None = None) -> Budget:
        """A fresh per-window budget from the config (tightened by an
        optional caller deadline — e.g. a session drain deadline)."""
        own = (
            Deadline.after(self.config.window_deadline)
            if self.config.window_deadline is not None
            else None
        )
        # frontier_max_bytes is charged by evaluate() against a dedicated
        # guard, not here: Budget.max_bytes polices every materialisation
        # it sees, and the fold's internal level buffers must not be
        # bounded by a limit that means "frontier memory"
        return Budget(
            deadline=Deadline.earliest(own, deadline),
            max_steps=self.config.max_steps,
        )

    def begin_window(self) -> int:
        """Claim the next window index (used by :meth:`append` and by the
        session layer, which drives ingest/evaluate itself)."""
        index = self._windows
        self._windows += 1
        return index

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, chunk: str, budget: Budget | None = None) -> int:
        """Incrementally append *chunk*; returns fresh evaluator entries.

        Failure semantics (the robustness contract the session relies on):

        * a **budget overrun** (:class:`~repro.errors.DeadlineExceededError`
          or :class:`~repro.errors.EvaluationLimitError`) propagates but
          the chunk *is* part of the document — preprocessing and the
          guard fold are resumable: the next ingest folds the chunk
          with its own and checks the guard again;
        * **any other failure** (injected fault, guard trip) rolls the
          arena and all bookkeeping back to the pre-call state, so the
          chunk is *not* ingested and the caller may retry or
          :meth:`rebuild` with it.
        """
        if not chunk:
            return 0
        mark = self.slp.mark()
        saved = (
            self.node,
            self._text_len,
            self._pending_tail,
            self._prefix_entry,
            self._frontier_complete,
        )
        try:
            self.node = self.slp.append_text(self.node, chunk)
            self._text_len += len(chunk)
            # queued before preprocess, so an overrun there leaves the
            # chunk for the next ingest to fold instead of losing it
            self._pending_tail += chunk
            self._frontier_complete = False
            fresh = self._evaluator.preprocess(self.slp, self.node, budget)
            self._fold_pending(budget)
            self._check_guard(self.slp, self.node, self._prefix_entry, "ingest")
            return fresh
        except EvaluationLimitError:
            # deadline/step overrun: keep the (resumable) partial state
            raise
        except BaseException:
            # stream arena is single-owner, so rollback mirrors db.py's
            # transaction machinery on a private arena (truncation
            # invalidates the evaluator's entries above the mark)
            self.slp.truncate(mark)  # thread-safety-ok
            (
                self.node,
                self._text_len,
                self._pending_tail,
                self._prefix_entry,
                self._frontier_complete,
            ) = saved
            raise

    def _fold_pending(self, budget: Budget | None) -> None:
        """Fold ingested-but-unfolded chars into the raw-feed entry."""
        tail = self._pending_tail
        entry = text_entry(
            self._evaluator.char_entries(tail), tail, self._q, budget=budget
        )
        self._prefix_entry = combine(self._prefix_entry, entry, self._q)
        self._pending_tail = ""

    def _check_guard(self, slp: SLP, node: int, folded, path: str) -> None:
        """Compare *node*'s SLP entry against the raw-feed fold *folded*,
        bit for bit; a mismatch counts a guard trip and raises typed."""
        if _entries_equal(self._evaluator.node_entry(slp, node), folded):
            return
        self._guard_trips += 1
        if obs.enabled():
            obs.metrics().counter("stream.guard_trips").inc()
        raise StreamError(
            f"differential guard tripped on {path}: the SLP entry disagrees "
            "with the raw-feed fold — compressed state is corrupt"
        )

    # ------------------------------------------------------------------
    # rebuild fallback
    # ------------------------------------------------------------------
    def rebuild(self, chunk: str = "", budget: Budget | None = None) -> int:
        """Rebuild the compressed state from scratch, appending *chunk*.

        The degraded path behind the session's circuit breaker: derives
        the current document (bounded by ``rebuild_max_chars``),
        recompresses it with Re-Pair into a **fresh arena**, recomputes
        the evaluator entries and the guard fold, and only then commits —
        a failure mid-rebuild leaves the previous state untouched and the
        chunk un-ingested.  O(n), unlike :meth:`ingest`'s O(log n).
        """
        full_len = self._text_len + len(chunk)
        if full_len > self.config.rebuild_max_chars:
            raise MemoryLimitError(
                f"stream rebuild would materialise {full_len} chars "
                f"(rebuild_max_chars is {self.config.rebuild_max_chars})"
            )
        text = (
            self.slp.derive(self.node, limit=self.config.rebuild_max_chars)
            if self.node is not None
            else ""
        )
        full = text + chunk
        if budget is not None:
            budget.charge_bytes(len(full), "stream rebuild")
        old_slp = self.slp
        fresh_slp = SLP()
        try:
            node = rebalance(fresh_slp, repair_node(fresh_slp, full)) if full else None
            fresh = 0
            prefix = identity_entry(self._q)
            if node is not None:
                fresh = self._evaluator.preprocess(fresh_slp, node, budget)
                prefix = text_entry(
                    self._evaluator.char_entries(full), full, self._q, budget=budget
                )
                self._check_guard(fresh_slp, node, prefix, "rebuild")
        except BaseException:
            # previous state untouched; drop the half-built arena's
            # entries eagerly instead of waiting for its finalizer
            self._evaluator.index.drop(fresh_slp.serial)
            raise
        # commit, then eagerly release the old arena's cached matrices
        self.slp = fresh_slp
        self.node = node
        self._text_len = len(full)
        self._prefix_entry = prefix
        self._pending_tail = ""
        if chunk:
            self._frontier_complete = False
        self._rebuilds += 1
        self._evaluator.index.drop(old_slp.serial)
        if obs.enabled():
            obs.metrics().counter("stream.rebuilds").inc()
        return fresh

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, budget: Budget | None = None
    ) -> tuple[list[SpanTuple], list[SpanTuple], bool]:
        """Evaluate the current document and reconcile the frontier.

        Returns ``(added, retracted, complete)``.  A budget overrun mid-
        enumeration ships the tuples collected so far (``complete`` is
        False, ``retracted`` stays empty, the frontier only grows) —
        partial state is resumable: the next complete window emits the
        missing tuples as ``added`` and reconciles retractions.  Any
        other failure (e.g. an injected evaluator fault) propagates with
        the frontier untouched.
        """
        collected: list[SpanTuple] = []
        complete = False
        try:
            if self.node is not None:
                for tup in self._evaluator.enumerate(self.slp, self.node, budget):
                    collected.append(tup)
            else:
                # the arena cannot represent the empty document; its
                # (possibly non-empty: empty-span tuples) result set
                # comes from the decompressed path instead
                for tup in self._evaluator.evaluate_text("", budget=budget):
                    collected.append(tup)
            complete = True
        except MemoryLimitError:
            # the frontier/rebuild byte bound is a typed config violation,
            # not a per-window overrun: propagate
            raise
        except EvaluationLimitError:
            complete = False
        current = set(collected)
        added = [t for t in collected if t not in self._frontier]
        if complete:
            retracted = [t for t in self._frontier if t not in current]
            new_frontier = current
        else:
            retracted = []
            new_frontier = self._frontier | current
        new_bytes = sum(span_tuple_bytes(t) for t in new_frontier)
        if self.config.frontier_max_bytes is not None:
            # charged before the frontier mutates, so on refusal the held
            # frontier is still under the bound
            Budget(max_bytes=self.config.frontier_max_bytes).charge_bytes(
                new_bytes, "stream frontier"
            )
        self._frontier = new_frontier
        self._frontier_bytes = new_bytes
        self._frontier_complete = complete
        if obs.enabled():
            registry = obs.metrics()
            registry.gauge("stream.frontier_bytes").set(new_bytes)
            registry.gauge("stream.frontier_tuples").set(len(new_frontier))
        return added, retracted, complete

    # ------------------------------------------------------------------
    # the composed per-window surface
    # ------------------------------------------------------------------
    def append(self, chunk: str, *, deadline: Deadline | None = None) -> WindowResult:
        """One window: ingest *chunk*, evaluate, return the delta.

        The single-threaded surface (no backpressure, no fault retries —
        see :class:`repro.serve.StreamSession` for those).  Budget
        overruns become an ``overrun`` window carrying a typed
        :class:`~repro.errors.WindowOverrunError`; a differential-guard
        trip (:class:`~repro.errors.StreamError`) and a frontier-bound
        violation (:class:`~repro.errors.MemoryLimitError`) propagate.
        """
        index = self.begin_window()
        budget = self.window_budget(deadline)
        t0 = time.perf_counter_ns()
        error: WindowOverrunError | None = None
        fresh = 0
        added: list[SpanTuple] = []
        retracted: list[SpanTuple] = []
        try:
            fresh = self.ingest(chunk, budget)
        except MemoryLimitError:
            raise
        except EvaluationLimitError as exc:
            error = WindowOverrunError(
                f"window {index}: ingest overran its budget ({exc})", window=index
            )
            error.__cause__ = exc
        if error is None and (chunk or not self._frontier_complete):
            added, retracted, complete = self.evaluate(budget)
            if not complete:
                error = WindowOverrunError(
                    f"window {index}: evaluation overran its budget "
                    f"({len(added)} results shipped partial)",
                    window=index,
                )
        result = WindowResult(
            window=index,
            chunk_chars=len(chunk),
            document_chars=self._text_len,
            added=added,
            retracted=retracted,
            overrun=error is not None,
            error=error,
            fresh_nodes=fresh,
            frontier_bytes=self._frontier_bytes,
            window_ns=time.perf_counter_ns() - t0,
        )
        record_window_metrics(result)
        return result

    def windows(self, chunks: Iterable[str]) -> Iterator[WindowResult]:
        """Generator over :meth:`append` results, one window per chunk."""
        for chunk in chunks:
            yield self.append(chunk)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def results(self) -> set[SpanTuple]:
        """A snapshot of the frontier (the current full result set after
        a complete window)."""
        return set(self._frontier)

    @property
    def frontier_complete(self) -> bool:
        """Does the frontier reflect a complete evaluation of the
        current document?"""
        return self._frontier_complete

    @property
    def document_chars(self) -> int:
        return self._text_len

    @property
    def frontier_bytes(self) -> int:
        """Accounted frontier bytes (:func:`span_tuple_bytes` per tuple)."""
        return self._frontier_bytes

    def stats(self) -> dict:
        return {
            "windows": self._windows,
            "document_chars": self._text_len,
            "frontier_tuples": len(self._frontier),
            "frontier_bytes": self._frontier_bytes,
            "frontier_complete": self._frontier_complete,
            "rebuilds": self._rebuilds,
            "guard_trips": self._guard_trips,
            "arena_nodes": self.slp.num_nodes(),
            "cache_bytes": self._evaluator.cache_bytes(),
            "cached_nodes": self._evaluator.cached_nodes(self.slp.serial),
            "sealed_nodes": self._evaluator.sealed_nodes(self.slp.serial),
        }


def record_window_metrics(result: WindowResult) -> None:
    """Publish one window's ``stream.*`` metrics (no-op when obs is off)."""
    if not obs.enabled():
        return
    registry = obs.metrics()
    registry.counter("stream.windows").inc()
    registry.histogram("stream.window_ns").record(result.window_ns)
    registry.counter("stream.appended_chars").inc(result.chunk_chars)
    registry.counter("stream.results").inc(len(result.added))
    registry.counter("stream.retracted").inc(len(result.retracted))
    registry.counter("stream.fresh_nodes").inc(result.fresh_nodes)
    if result.overrun:
        registry.counter("stream.overruns").inc()
    registry.gauge("stream.frontier_bytes").set(result.frontier_bytes)


def stream_windows(
    spanner, chunks: Iterable[str], config: StreamConfig | None = None
) -> Iterator[WindowResult]:
    """Convenience generator: evaluate *spanner* over an append feed.

    >>> from repro.stream import stream_windows
    >>> for window in stream_windows("!x{ab}", ["ab", "ab"]):
    ...     print(window.window, sorted(map(str, window.added)))
    """
    stream = WindowedSpannerStream(spanner, config)
    return stream.windows(chunks)
