"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

Everything here is dependency-free (no numpy in any hot path) and designed
for single-digit-nanosecond-to-sub-microsecond cost per update:

* :class:`Counter` and :class:`Gauge` are a single attribute update;
* :class:`Histogram` buckets samples by ``int.bit_length()`` — bucket *i*
  holds values in ``[2^(i-1), 2^i)`` — so recording is O(1) with no search
  and no allocation, while still supporting percentile queries with a
  worst-case factor-2 quantisation error (plenty for "is the delay flat?"
  questions; exact ``min``/``max``/``sum`` are kept alongside).

A :class:`Metrics` registry hands out named instruments get-or-create
style; :meth:`Metrics.snapshot` renders the whole registry as plain dicts
for ``SpannerDB.stats()``, the ``db ... metrics`` CLI action, and tests.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "Metrics"]

#: bit_length of a 63-bit int is at most 63; one bucket per bit_length
_NUM_BUCKETS = 64


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.value})"


class Histogram:
    """Power-of-two-bucket histogram for non-negative integer samples.

    Intended for durations in nanoseconds (from
    :func:`time.perf_counter_ns`).  Bucket ``i`` counts samples whose
    ``bit_length()`` is ``i``, i.e. the half-open range ``[2^(i-1), 2^i)``;
    bucket 0 counts exact zeros.  :meth:`percentile` returns the *upper
    bound* of the bucket containing the requested rank — a conservative
    estimate that is never more than 2× the true value; ``min``/``max``
    are likewise bucket bounds, not exact samples.

    The recording state is deliberately just ``counts`` and ``total`` so
    that hot loops (see :class:`~repro.obs.profile.DelayProfiler`) can
    update the two attributes directly — everything else is derived at
    read time, keeping the per-sample cost to an increment and an add.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts = [0] * _NUM_BUCKETS
        self.total = 0

    def record(self, value: int) -> None:
        """Record one sample (negative values clamp to 0)."""
        value = int(value)
        if value < 0:
            value = 0
        self.counts[min(value.bit_length(), _NUM_BUCKETS - 1)] += 1
        self.total += value

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def min(self) -> float | None:
        """Lower bound of the lowest occupied bucket (None when empty)."""
        for i, bucket in enumerate(self.counts):
            if bucket:
                return 0.0 if i == 0 else float(1 << (i - 1))
        return None

    @property
    def max(self) -> float | None:
        """Upper bound of the highest occupied bucket (None when empty)."""
        for i in range(_NUM_BUCKETS - 1, -1, -1):
            if self.counts[i]:
                return 0.0 if i == 0 else float(1 << i)
        return None

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the *p*-th percentile sample.

        ``p`` is in ``[0, 100]``; returns 0.0 for an empty histogram."""
        count = self.count
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(count * p / 100.0))
        cumulative = 0
        for i, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= rank:
                return 0.0 if i == 0 else float(1 << i)
        return float(1 << (_NUM_BUCKETS - 1))  # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, mean={self.mean:.1f})"


class Metrics:
    """A named registry of counters, gauges, and histograms.

    Instruments are created on first access and live for the registry's
    lifetime; hot paths should hoist the instrument handle out of loops
    (``hist = metrics.histogram("x"); ... hist.record(v)``) so the per-event
    cost is one method call, not a dict lookup.

    Thread-safety: instrument *creation* is locked (double-checked, so the
    common get path stays a lock-free dict read) — without this, two
    threads racing on first access would each create an instrument and one
    would silently swallow the other's updates.  Instrument *updates* are
    deliberately unlocked: under the GIL an interleaved ``+=`` can at worst
    lose an occasional increment, which is an acceptable trade for keeping
    the hot path a single attribute update; correctness-critical serving
    counters are accounted separately under the service's own lock (see
    ``SpannerService.stats``)."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_create_lock")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._create_lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as plain nested dicts (JSON-serialisable)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (used between benchmark phases and tests)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
