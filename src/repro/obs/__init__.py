"""``repro.obs`` — tracing, metrics, and delay profiling for the engine.

A dependency-free observability layer with near-zero cost when disabled
(the default).  One global :class:`~repro.obs.trace.Tracer` and one global
:class:`~repro.obs.metrics.Metrics` registry serve the whole process;
instrumented code guards with :func:`enabled` (a bool read) and therefore
adds nothing measurable to hot paths until :func:`configure` switches
observability on.

Usage::

    from repro import obs

    obs.configure(enabled=True, sink="trace.jsonl")
    with obs.tracer().span("ingest", doc="logs"):
        db.add_document("logs", text)
    print(obs.metrics().snapshot())
    obs.configure(enabled=False)       # flushes and detaches the sink

Served requests additionally carry a
:class:`~repro.obs.context.TraceContext`: :func:`new_trace` mints one at
the admission point and :func:`use_context` activates it for a scope, so
every record of the request carries its trace id.

The CLI exposes the same switches: ``python -m repro db store.slpdb query
... --trace out.jsonl`` and ``python -m repro db store.slpdb metrics
[--format prom]``.  See ``docs/OBSERVABILITY.md`` for the trace-file
schema and the measured overhead numbers.

This package imports only the standard library — it must never depend on
the rest of :mod:`repro` (everything in :mod:`repro` is allowed to depend
on it, including :mod:`repro.util.budget` during package initialisation).
"""

from __future__ import annotations

import contextlib
import os
import threading

from repro.obs.context import TraceContext
from repro.obs.export import export_prometheus
from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.profile import DelayProfiler
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "DelayProfiler",
    "Gauge",
    "Histogram",
    "Metrics",
    "TraceContext",
    "Tracer",
    "configure",
    "current_context",
    "enabled",
    "export_prometheus",
    "metrics",
    "new_trace",
    "tracer",
    "use_context",
]

_tracer = Tracer(enabled=False)
_metrics = Metrics()
_enabled = False


def configure(
    enabled: bool | None = None,
    sink=None,
    reset: bool = False,
) -> None:
    """Reconfigure the global tracer and metrics registry.

    Parameters
    ----------
    enabled:
        Turn the whole layer on or off; ``None`` leaves the state as is.
        Disabling flushes and detaches any file sink.
    sink:
        New trace sink — a JSONL file path or a file-like object; passing
        one implies tracing output goes there instead of the in-memory
        ring.  Ignored unless provided.
    reset:
        Also clear accumulated metrics and in-memory trace records.
    """
    global _enabled
    if reset:
        _metrics.reset()
        _tracer.clear()
    if sink is not None:
        _tracer.set_sink(sink)
    if enabled is not None:
        _enabled = bool(enabled)
        _tracer.enabled = _enabled
        if not _enabled:
            _tracer.close()


def enabled() -> bool:
    """Is observability globally on?  (The hot-path guard.)"""
    return _enabled


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def metrics() -> Metrics:
    """The process-wide metrics registry."""
    return _metrics


# ----------------------------------------------------------------------
# trace-context helpers (request identity)
# ----------------------------------------------------------------------
def new_trace() -> TraceContext:
    """Mint a fresh request-level trace context (admission points only)."""
    return TraceContext.mint()


def current_context() -> TraceContext | None:
    """The calling thread's active trace context (or ``None``)."""
    return _tracer.current_context()


@contextlib.contextmanager
def use_context(ctx: TraceContext | None):
    """Activate *ctx* for the calling thread within a ``with`` block.

    ``use_context(None)`` is a true no-op that leaves whatever context is
    already active untouched — callers can pass an optional context
    straight through without branching."""
    if ctx is None:
        yield None
        return
    previous = _tracer.activate_context(ctx)
    try:
        yield ctx
    finally:
        _tracer.activate_context(previous)


def _reset_after_fork() -> None:
    """Make the child's obs state safe after ``os.fork``.

    The child shares the parent's buffered sink file object; flushing or
    closing it here would duplicate buffered lines into the file, so the
    handle is *abandoned* (the parent still owns the real one).  The
    inherited metric values and any open-span stack are dropped too:
    they are the *parent's* measurements.  The child starts disabled and
    re-enables through :func:`configure`."""
    global _enabled
    _enabled = False
    _tracer.enabled = False
    _tracer._sink_file = None
    _tracer._sink_path = None
    _tracer._owns_sink = False
    _tracer._lock = threading.Lock()
    _tracer._local = threading.local()
    _tracer._records = []
    _metrics.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - linux container
    os.register_at_fork(after_in_child=_reset_after_fork)
