"""Tracing: nestable spans on the monotonic clock, exported as JSONL.

A :class:`Tracer` produces *span* records (name, start, duration, nested
parent, free-form attributes) and *event* records (a point in time).  All
timestamps come from :func:`time.perf_counter_ns` relative to the tracer's
construction instant — never the wall clock — so traces are immune to NTP
steps and are meaningful to diff.

Cost model:

* **disabled** (the default): :meth:`Tracer.span` returns a shared no-op
  context manager without allocating — one ``if`` and one attribute read;
* **enabled**: entering/exiting a span is two clock reads, one small dict,
  and (with a sink) one ``json.dumps`` + ``write``.

Record schema (one JSON object per line)::

    {"type": "span",  "name": str, "id": int, "parent": int | null,
     "t0_ns": int, "dur_ns": int, "attrs": {...}, "error": str | null}
    {"type": "event", "name": str, "parent": int | null,
     "t0_ns": int, "attrs": {...}}

Thread-safety: the span stack is *per-thread* (thread-local), so spans
opened by concurrent :mod:`repro.serve` workers nest correctly within
their own thread and never adopt another thread's span as parent.  Record
emission (ring append / sink write) and id allocation are serialised by a
small lock, so JSONL lines never interleave mid-line; the lock is only
ever touched when tracing is enabled.

Request identity: a thread may activate a
:class:`~repro.obs.context.TraceContext`; records emitted while it is
active carry ``"trace"`` (the request's trace id), so every span and
event of one request can be picked out of a shared trace file.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO

__all__ = ["Tracer"]


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """An open span; created by :meth:`Tracer.span`, closed by ``with``."""

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = tracer._next_id()
        self.parent: int | None = None
        self._t0 = 0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter_ns() - self._t0
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        record = {
            "type": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "t0_ns": self._t0 - tracer._epoch,
            "dur_ns": dur,
            "attrs": self.attrs,
            "error": exc_type.__name__ if exc_type is not None else None,
        }
        ctx = tracer.current_context()
        if ctx is not None:
            record["trace"] = ctx.trace_id
        tracer._emit(record)
        return False


class Tracer:
    """Span/event recorder with a JSONL sink or an in-memory ring.

    Parameters
    ----------
    enabled:
        When false (default) every :meth:`span` returns the shared no-op
        span and :meth:`event` returns immediately.
    sink:
        ``None`` — keep records in memory (:meth:`records`), capped at
        *max_records* (oldest kept, newest dropped, drop count reported);
        a path string — append JSONL lines to that file (opened lazily,
        flushed on :meth:`close`); or any object with a ``write`` method.
    """

    def __init__(
        self,
        enabled: bool = False,
        sink=None,
        max_records: int = 100_000,
    ) -> None:
        self.enabled = bool(enabled)
        self._records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._epoch = time.perf_counter_ns()
        self._max_records = max_records
        self.dropped = 0
        self._sink_path: str | None = None
        self._sink_file: IO[str] | None = None
        self._owns_sink = False
        self.set_sink(sink)

    @property
    def _stack(self) -> list:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # request identity
    # ------------------------------------------------------------------
    def current_context(self):
        """This thread's active :class:`~repro.obs.context.TraceContext`
        (or ``None``)."""
        return getattr(self._local, "context", None)

    def activate_context(self, ctx):
        """Set this thread's trace context; returns the previous one."""
        previous = getattr(self._local, "context", None)
        self._local.context = ctx
        return previous

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_sink(self, sink) -> None:
        """Point the tracer at a new sink, closing any owned file first."""
        self.close_sink()
        if sink is None:
            return
        if isinstance(sink, str):
            self._sink_path = sink  # opened lazily on first record
        else:
            self._sink_file = sink  # caller-owned file-like object

    def close_sink(self) -> None:
        if self._sink_file is not None and self._owns_sink:
            try:
                self._sink_file.flush()
            finally:
                self._sink_file.close()
        self._sink_file = None
        self._sink_path = None
        self._owns_sink = False

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""
        if self._sink_file is not None and not self._owns_sink:
            try:
                self._sink_file.flush()
            except (AttributeError, ValueError):
                pass
        self.close_sink()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def span(self, name: str, **attrs):
        """A context manager timing one named scope (no-op when disabled).

        ::

            with tracer.span("enumerate", doc=name):
                ...
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event (no-op when disabled)."""
        if not self.enabled:
            return
        record = {
            "type": "event",
            "name": name,
            "parent": self._stack[-1].id if self._stack else None,
            "t0_ns": time.perf_counter_ns() - self._epoch,
            "attrs": attrs,
        }
        ctx = self.current_context()
        if ctx is not None:
            record["trace"] = ctx.trace_id
        self._emit(record)

    def _emit(self, record: dict) -> None:
        with self._lock:
            if self._sink_path is not None and self._sink_file is None:
                self._sink_file = open(self._sink_path, "a", encoding="utf-8")
                self._owns_sink = True
            if self._sink_file is not None:
                self._sink_file.write(json.dumps(record, default=str) + "\n")
            elif len(self._records) < self._max_records:
                self._records.append(record)
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """The in-memory records (empty when a sink is attached)."""
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()
        self._stack.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, records={len(self._records)})"
