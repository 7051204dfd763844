"""Prometheus text exposition for the global metrics registry.

:func:`export_prometheus` renders a :class:`~repro.obs.metrics.Metrics`
registry in the Prometheus text format (version 0.0.4): counters and
gauges as single samples, power-of-two histograms as the conventional
cumulative ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``.

Metric names are sanitised to ``[a-zA-Z0-9_:]`` (dots become
underscores, so ``serve.queue_ns`` exports as ``serve_queue_ns``).

Histogram ``le`` bounds are the buckets' upper edges ``2^i`` — exact
powers of two rather than the usual decimal ladder, which keeps the
export lossless with respect to what the registry actually stores.
"""

from __future__ import annotations

import re

from repro.obs.metrics import Metrics

__all__ = ["export_prometheus"]

_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitise(name: str) -> str:
    return _NAME_SANITISE.sub("_", name)


def export_prometheus(registry: Metrics | None = None) -> str:
    """The registry (default: the global one) as Prometheus text format."""
    if registry is None:
        from repro import obs

        registry = obs.metrics()
    snapshot_counters = {k: c.value for k, c in sorted(registry._counters.items())}
    snapshot_gauges = {k: g.value for k, g in sorted(registry._gauges.items())}
    histograms = dict(sorted(registry._histograms.items()))

    lines: list[str] = []
    for raw, value in snapshot_counters.items():
        name = _sanitise(raw) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    for raw, value in snapshot_gauges.items():
        name = _sanitise(raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    for raw, hist in histograms.items():
        name = _sanitise(raw)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for i, bucket in enumerate(hist.counts):
            if not bucket:
                continue
            cumulative += bucket
            upper = 0 if i == 0 else 1 << i
            lines.append(f'{name}_bucket{{le="{upper}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{name}_sum {hist.total}")
        lines.append(f"{name}_count {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""
