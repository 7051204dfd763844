"""Leak-proof shared-memory segments for the crash flight recorder.

Shard work and its results travel through each worker's pipe
(:mod:`repro.parallel.procpool`); shared memory has one job left.  The
flight recorder (:mod:`repro.parallel.flight`) gives every worker a ring
that must outlive the worker: a SIGKILLed worker's pipe dies with it, but
a segment the *parent* owns can still be read after the kill.  This
module creates, attaches and unlinks those segments.

The hard part of shared memory is not sharing it but *unlinking* it: a
worker that is OOM-killed or SIGKILLed can never run its cleanup, and a
leaked ``/dev/shm`` segment outlives the process that lost it.  The
leak-proofing contract here is structural, and
``tools/check_shm_hygiene.py`` lints it:

* **only the parent creates segments** — workers attach to existing
  names and never own one, so no worker death can leak a segment;
* every creation goes through a :class:`SegmentRegistry`, whose
  ``close()`` runs on success, failure, and (via ``atexit``) interpreter
  exit — the unlink does not depend on the request finishing cleanly;
* worker-side attachments detach from Python's ``resource_tracker``
  immediately (:func:`attach`), because the tracker of an *attaching*
  process would otherwise unlink the parent's live segment when that
  worker exits (bpo-38119) — exactly the double-free this module exists
  to prevent.

:func:`live_segments` reports every segment this process created and has
not yet unlinked; the test suite asserts it is empty after every
process-backend test, crash tests included.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import time

from repro import obs
from repro.errors import ParallelError

__all__ = [
    "SEGMENT_PREFIX",
    "SegmentRegistry",
    "attach",
    "live_segments",
]

#: every segment this module creates is named
#: ``repro-shm-<pid>-<token>-<counter>``: the pid plus a random token make
#: the name host-unique (concurrent repro processes never collide, nor does
#: a restart collide with segments a SIGKILLed predecessor leaked), the
#: counter makes it unique within a process, and the prefix keeps stray
#: segments attributable (grep-able in ``/dev/shm``)
SEGMENT_PREFIX = "repro-shm"

_live_lock = threading.Lock()
_live: dict[str, object] = {}  # name -> SharedMemory (created, not yet unlinked)
_counter = 0


def _shared_memory():
    """Deferred stdlib import (importing it spawns no tracker by itself,
    but keeping it out of module import keeps cold starts lean)."""
    from multiprocessing import shared_memory

    return shared_memory


def _segment_name() -> str:
    """A fresh host-unique segment name (see :data:`SEGMENT_PREFIX`)."""
    global _counter
    with _live_lock:
        _counter += 1
        count = _counter
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}-{count}"


def live_segments() -> list[str]:
    """Names of segments created by this process and not yet unlinked.

    The leak oracle: after any pool run — successful, failed, or
    chaos-killed — this list must be empty again once the run's
    :class:`SegmentRegistry` closed."""
    with _live_lock:
        return sorted(_live)


def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    with _live_lock:
        leftovers = list(_live.values())
        _live.clear()
    for segment in leftovers:
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass


atexit.register(_cleanup_at_exit)


#: set in a forked child whose parent's resource tracker was running at
#: ``fork()``, so the child talks to the *parent's* tracker
_tracker_inherited = False


def _reset_after_fork() -> None:  # pragma: no cover - runs in the child
    """A forked worker inherits the parent's ``_live`` table by memory
    copy; if its own ``atexit`` ran :func:`_cleanup_at_exit` it would
    unlink segments the *parent* still owns.  Ownership never crosses
    ``fork()``: drop the inherited entries (close/unlink stay with the
    parent).  ``_tracker_inherited`` tells :func:`attach` whether this
    process shares the parent's resource tracker; it is decided here, at
    fork time, because a tracker the child starts later is its own.

    A lock another parent thread held at ``fork()`` stays held in the
    child forever, so the child starts with both locks it needs released:
    its segment table's, and the resource tracker's — attaching registers
    the segment with the tracker, which takes that lock (concurrent pool
    runs create and unlink flight rings while the pool forks)."""
    global _tracker_inherited
    _live_lock._at_fork_reinit()
    _live.clear()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker._lock._at_fork_reinit()
    _tracker_inherited = getattr(tracker, "_fd", None) is not None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


class SegmentRegistry:
    """Owner of every shared-memory segment of one parent-side pool run.

    A context manager: segments created inside the ``with`` block are
    unlinked when it exits — on the success path, on any exception, and
    (should the process die with registries open) by the module's
    ``atexit`` hook.  Unlink is idempotent; a vanished segment is not an
    error during cleanup."""

    def __init__(self) -> None:
        self._segments: list = []
        self._closed = False

    # -- creation (the only SharedMemory creation site in the library) --
    def create(self, nbytes: int):
        if self._closed:
            raise RuntimeError("SegmentRegistry used after close")
        shared_memory = _shared_memory()
        size = max(1, int(nbytes))
        t0 = time.perf_counter_ns() if obs.enabled() else 0
        segment = None
        last_error: BaseException | None = None
        # the pid + random token in _segment_name() make a clash all but
        # impossible, but a leaked segment from a pid-reused predecessor
        # still costs only a retry under a fresh token, never the request
        for _ in range(8):
            try:
                segment = shared_memory.SharedMemory(
                    create=True, name=_segment_name(), size=size
                )
                break
            except FileExistsError as exc:
                last_error = exc
        if segment is None:
            raise ParallelError(
                "could not allocate a unique shared-memory segment name"
                " after 8 attempts"
            ) from last_error
        with _live_lock:
            _live[segment.name] = segment
        self._segments.append(segment)
        if obs.enabled():
            registry = obs.metrics()
            registry.counter("parallel.shm.segments").inc()
            registry.counter("parallel.shm.bytes").inc(segment.size)
            registry.histogram("parallel.shm.create_ns").record(
                time.perf_counter_ns() - t0
            )
        return segment

    def close(self) -> None:
        """Unlink everything this registry created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            with _live_lock:
                _live.pop(segment.name, None)
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except Exception:
                pass
        self._segments = []

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# worker side: attach, never create, never unlink
# ----------------------------------------------------------------------
def attach(name: str):
    """Attach to a parent-owned segment, tracker-detached.

    Attaching registers the segment with a ``resource_tracker``; if that
    tracker belongs to *this* process, it would unlink the parent's live
    segment when this process exits (bpo-38119), so the registration is
    removed immediately (Python < 3.13 has no ``track=False``).  A worker
    **forked while the parent's tracker ran** instead shares that tracker
    — there the duplicate registration is harmless and must be left
    alone: removing it would strip the parent's own crash backstop and
    double-unregister at unlink time.  A worker forked before the parent
    started one starts its own on its first attach, and unregisters every
    time."""
    t0 = time.perf_counter_ns() if obs.enabled() else 0
    segment = _shared_memory().SharedMemory(name=name)
    if not _tracker_inherited:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals shifted
            pass
    if obs.enabled():
        obs.metrics().histogram("parallel.shm.attach_ns").record(
            time.perf_counter_ns() - t0
        )
    return segment
