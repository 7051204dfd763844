"""Streaming ingestion: incremental spanner evaluation over live feeds.

The first append-oriented subsystem: where :mod:`repro.db` assumes whole
documents, this package evaluates a spanner *while the document grows*,
one appended chunk (a "window") at a time:

* :class:`WindowedSpannerStream` — the deterministic core.  Each window
  appends its chunk onto the document's strongly balanced SLP via
  :meth:`repro.slp.slp.SLP.append_text` (O(log n) fresh nodes), checks
  the root's σ and length against a DFA run over the raw feed (the
  guard), and emits the result **delta**: tuples newly
  added and tuples retracted (spanner results are not monotone under
  append).  Per-window :class:`repro.util.Budget` governance bounds
  wall-clock, steps and frontier memory with typed errors.
* :func:`stream_windows` — one-call generator over a chunk iterable.
* The concurrent surface — bounded ingest queue, backpressure,
  circuit-broken rebuild fallback, drain-on-close — is
  :class:`repro.serve.StreamSession`.

See ``docs/RELIABILITY.md`` ("Streaming ingestion runbook") for tuning
and the degraded-mode semantics.
"""

from repro.stream.windowed import (
    StreamConfig,
    WindowResult,
    WindowedSpannerStream,
    span_tuple_bytes,
    stream_windows,
)

__all__ = [
    "StreamConfig",
    "WindowResult",
    "WindowedSpannerStream",
    "span_tuple_bytes",
    "stream_windows",
]
