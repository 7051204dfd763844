"""The retry-after estimator shared by every backpressure signal.

It lives in :mod:`repro.util` beside the circuit breaker, with the other
mechanisms the serving layer builds its request lifecycle from.
"""

from __future__ import annotations

import threading

__all__ = ["RetryAfterHint"]


class RetryAfterHint:
    """One EWMA of observed service time, shared by every admission surface.

    The query-queue shed path and stream backpressure
    (:class:`repro.serve.StreamSession`) both answer the same question —
    "how long until the backlog drains?" — so they must answer it from
    *one* estimator instead of diverging copies: ``hint()`` is queued
    work × mean service time per worker, floored at 1 ms so honouring
    clients never busy-spin.

    Thread-safe; the EWMA seeds from the first sample and then tracks a
    window of ``window`` observations (default 32, matching the historic
    service behaviour).
    """

    __slots__ = ("_lock", "_ema_s", "window")

    def __init__(self, window: int = 32) -> None:
        self._lock = threading.Lock()
        self._ema_s = 0.0
        self.window = max(1, int(window))

    def observe(self, seconds: float) -> None:
        """Feed one completed operation's service time."""
        with self._lock:
            if self._ema_s == 0.0:
                self._ema_s = seconds
            else:
                self._ema_s += (seconds - self._ema_s) / self.window

    @property
    def ema_s(self) -> float:
        """The current mean-service-time estimate (seconds)."""
        with self._lock:
            return self._ema_s

    def hint(self, depth: int, workers: int = 1) -> float:
        """Suggested retry-after seconds for a queue *depth* backlog."""
        return max(0.001, self.ema_s * max(1, depth) / max(1, workers))
