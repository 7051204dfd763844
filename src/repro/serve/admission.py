"""Admission control shared by every serving surface.

:class:`Admission` is the one bounded queue in front of the query service
(:class:`~repro.serve.SpannerService`) and the streaming session
(:class:`~repro.serve.StreamSession`).  It never blocks a producer: a full
queue *sheds* with :class:`~repro.errors.OverloadedError` carrying a
``retry_after`` drain estimate from :class:`RetryAfterHint`, and a closed
queue refuses with :class:`~repro.errors.ServiceStoppedError`.
:meth:`Admission.close` stops admission and hands back whatever was still
queued in one atomic step, so an item is either taken by a consumer or
returned to the closer — never stranded between the two.
"""

from __future__ import annotations

import threading
from collections import deque

from repro import obs
from repro.errors import OverloadedError, ServiceStoppedError
from repro.util.retry_after import RetryAfterHint

__all__ = ["Admission", "RetryAfterHint"]


class Admission:
    """A bounded FIFO that sheds instead of blocking.

    Starts closed; :meth:`open` admits, :meth:`close` stops admitting.
    *shed_metric* (a counter, also the name of the shed trace event) and
    *depth_gauge* keep each surface's existing metric names; *unit* names
    the queued things in error messages.  ``shed`` counts refusals for a
    full queue under the queue's own lock.
    """

    def __init__(
        self,
        limit: int,
        *,
        workers: int = 1,
        shed_metric: str,
        depth_gauge: str,
        unit: str,
    ) -> None:
        self.limit = int(limit)
        self.workers = max(1, int(workers))
        self.hint = RetryAfterHint()
        self.shed = 0
        self._shed_metric = shed_metric
        self._depth_gauge = depth_gauge
        self._unit = unit
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._open = False

    def __len__(self) -> int:
        return len(self._items)

    def open(self) -> None:
        with self._cond:
            self._open = True

    def retry_after(self) -> float:
        """Backlog drain estimate for the current queue depth."""
        return self.hint.hint(len(self._items), self.workers)

    def offer(self, item, **labels) -> None:
        """Enqueue *item*, or raise: ``ServiceStoppedError`` when closed,
        ``OverloadedError`` (with ``retry_after``) when full.  *labels*
        annotate the shed trace event."""
        with self._cond:
            if not self._open:
                raise ServiceStoppedError(f"not accepting {self._unit}: stopped")
            full = len(self._items) >= self.limit
            if full:
                self.shed += 1
            else:
                self._items.append(item)
                self._cond.notify()
            depth = len(self._items)
        if full:
            retry_after = self.retry_after()
            if obs.enabled():
                obs.metrics().counter(self._shed_metric).inc()
                obs.tracer().event(
                    self._shed_metric, retry_after=retry_after, **labels
                )
            raise OverloadedError(
                f"queue full ({self.limit} {self._unit}); "
                f"retry after {retry_after:.3f}s",
                retry_after=retry_after,
            )
        if obs.enabled():
            obs.metrics().gauge(self._depth_gauge).set(depth)

    def take(self, timeout: float | None = None):
        """The oldest queued item; ``None`` on timeout or once closed and
        empty."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._items or not self._open, timeout
            ) or not self._items:
                return None
            item = self._items.popleft()
            depth = len(self._items)
        if obs.enabled():
            obs.metrics().gauge(self._depth_gauge).set(depth)
        return item

    def close(self) -> list:
        """Stop admitting and return everything still queued (atomic: an
        item is either taken by a consumer or in this list)."""
        with self._cond:
            self._open = False
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
        if obs.enabled():
            obs.metrics().gauge(self._depth_gauge).set(0)
        return items
