"""Reader/writer coordination between concurrent queries and edits.

:class:`~repro.db.SpannerDB` is single-threaded by construction: queries
fill the per-spanner matrix caches as they preprocess fresh nodes, and a
transaction rollback *truncates the SLP arena and invalidates caches* —
state that must never be observed half-changed.  The serving layer
therefore serialises access through one :class:`RWLock`:

* **queries** hold the read lock for their whole evaluation (admission to
  first-to-last tuple), so any number run concurrently against an
  immutable snapshot of the arena, catalogs, and caches;
* **mutations** (``add_document`` / ``edit`` / ``register_spanner`` /
  explicit transactions) hold the write lock exclusively, so a rollback's
  arena truncation and cache invalidation can never race a reader.

Benign exceptions: two concurrent readers may both preprocess the same
fresh node and write *identical* matrices into the evaluator cache — a
duplicated computation, never an inconsistency (the matrices are a pure
function of the automaton and the immutable node).  Likewise readers fill
the evaluator's continuation memo together, and one may clear it when it
passes its cap while another reads it: each value is a pure function of
its key and the node's matrices, so a lost value is only a recomputation.
Everything else that
mutates evaluator-cache or arena state must run under :meth:`write` —
``tools/check_thread_safety.py`` lints that this stays true.

The lock is **writer-preferring**: once a writer is waiting, new readers
queue behind it, so a steady query stream cannot starve edits.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from repro.errors import DeadlineExceededError

__all__ = ["RWLock", "StoreCoordinator"]


class RWLock:
    """A writer-preferring readers/writer lock.

    Any number of readers may hold the lock together; writers are
    exclusive against both readers and other writers.  Acquisitions accept
    an optional *timeout* (seconds) and raise
    :class:`~repro.errors.DeadlineExceededError` on expiry, so a stuck
    writer surfaces as a typed, bounded failure instead of a hang.
    Not reentrant — neither side may be acquired recursively.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def read(self, timeout: float | None = None) -> Iterator[None]:
        self.acquire_read(timeout)
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write(self, timeout: float | None = None) -> Iterator[None]:
        self.acquire_write(timeout)
        try:
            yield
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    def acquire_read(self, timeout: float | None = None) -> None:
        with self._cond:
            # writer preference: park behind any waiting writer
            if not self._cond.wait_for(
                lambda: not self._writer and self._writers_waiting == 0,
                timeout=timeout,
            ):
                raise DeadlineExceededError(
                    f"read lock not acquired within {timeout}s"
                )
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: float | None = None) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                if not self._cond.wait_for(
                    lambda: not self._writer and self._readers == 0,
                    timeout=timeout,
                ):
                    raise DeadlineExceededError(
                        f"write lock not acquired within {timeout}s"
                    )
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            return {
                "readers": self._readers,
                "writer": self._writer,
                "writers_waiting": self._writers_waiting,
            }


class StoreCoordinator:
    """One :class:`RWLock` bound to one :class:`~repro.db.SpannerDB`.

    All store access inside :class:`~repro.serve.SpannerService` goes
    through this object: worker threads evaluate under :meth:`read`, and
    every mutation — including multi-operation transactions — runs under
    :meth:`write`, so readers always observe a fully committed snapshot
    (see the concurrency test suite's snapshot-consistency properties).
    """

    def __init__(self, db) -> None:
        self.db = db
        self.lock = RWLock()

    @contextlib.contextmanager
    def read(self, timeout: float | None = None) -> Iterator:
        with self.lock.read(timeout):
            yield self.db

    @contextlib.contextmanager
    def write(self, timeout: float | None = None) -> Iterator:
        with self.lock.write(timeout):
            yield self.db

    @contextlib.contextmanager
    def transaction(self, timeout: float | None = None) -> Iterator:
        """A write-locked :meth:`SpannerDB.transaction` scope: the batch
        commits (or rolls back) before any reader can look again."""
        with self.lock.write(timeout):
            with self.db.transaction():
                yield self.db
