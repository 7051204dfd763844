"""The crash flight recorder: a worker's last words, readable post-mortem.

A SIGKILLed pool worker (chaos, OOM, stall-kill, deadline-kill) can never
ship its telemetry: the pipes die with it, and the supervisor alone could
only report *that* a worker died, never *what it was doing*.  This module
closes that gap with a tiny parent-owned shared-memory ring per worker:
the worker mirrors every trace record it emits into the ring (via
``Tracer.record_hook``), and when the supervisor declares the worker
crashed it *salvages* the ring — the records survive because the segment
belongs to the parent, not the victim.

Ring layout (one segment per worker per :meth:`ProcPool.run`)::

    header:  <IIII  = magic, slot_count, slot_size, writes
    slots:   slot_count × (<I length-prefix + slot_size payload bytes)

The worker writes slot ``writes % slot_count`` (payload first, then the
length prefix, then the header's ``writes`` counter), so the parent reads
the last ``min(writes, slot_count)`` records in chronological order.
There is no locking: the worker is the only writer, the parent only reads
after the worker is dead (or while it is stopped mid-SIGKILL — a torn
record fails JSON parsing and is skipped, never misread).

Records longer than a slot are retried without their ``attrs`` payload
and dropped if still oversized — the recorder prefers losing detail to
losing the timeline.  Segment creation goes through the caller's
:class:`~repro.parallel.shm.SegmentRegistry` (the library's single
creation site), so rings obey its leak-proofing contract: unlinked when
the run's registry closes, crash or not.  The rings are the only shared
memory the library uses; shard work travels through the workers' pipes.
"""

from __future__ import annotations

import json
import struct

from repro.parallel import shm

__all__ = ["DEFAULT_SLOTS", "DEFAULT_SLOT_SIZE", "FlightWriter", "create_ring", "salvage"]

_MAGIC = 0x464C5452  # "FLTR"
_HEADER = struct.Struct("<IIII")  # magic, slot_count, slot_size, writes
_LENGTH = struct.Struct("<I")

DEFAULT_SLOTS = 32
DEFAULT_SLOT_SIZE = 512


def ring_nbytes(slots: int, slot_size: int) -> int:
    return _HEADER.size + slots * (_LENGTH.size + slot_size)


def create_ring(
    registry: "shm.SegmentRegistry",
    slots: int = DEFAULT_SLOTS,
    slot_size: int = DEFAULT_SLOT_SIZE,
):
    """A fresh parent-owned ring segment (header initialised, zero writes).

    The segment lives and dies with *registry*; the caller ships
    ``segment.name`` to the worker inside the dispatch spec."""
    segment = registry.create(ring_nbytes(slots, slot_size))
    _HEADER.pack_into(segment.buf, 0, _MAGIC, slots, slot_size, 0)
    return segment


class FlightWriter:
    """Worker-side writer for one ring (the ``record_hook`` target).

    Attaches to the parent's segment by name; :meth:`write` serialises a
    trace record into the next slot.  Close-only on :meth:`close` —
    unlinking is the parent registry's job."""

    __slots__ = ("name", "_segment", "_slots", "_slot_size", "_writes")

    def __init__(self, name: str) -> None:
        self.name = name
        self._segment = shm.attach(name)
        magic, self._slots, self._slot_size, self._writes = _HEADER.unpack_from(
            self._segment.buf, 0
        )
        if magic != _MAGIC:
            raise ValueError(f"segment {name!r} is not a flight ring")

    def write(self, record: dict) -> None:
        try:
            payload = json.dumps(record, default=str).encode("utf-8")
            if len(payload) > self._slot_size:
                slim = {k: v for k, v in record.items() if k != "attrs"}
                payload = json.dumps(slim, default=str).encode("utf-8")
                if len(payload) > self._slot_size:
                    return
            slot = self._writes % self._slots
            offset = _HEADER.size + slot * (_LENGTH.size + self._slot_size)
            buf = self._segment.buf
            buf[
                offset + _LENGTH.size : offset + _LENGTH.size + len(payload)
            ] = payload
            _LENGTH.pack_into(buf, offset, len(payload))
            self._writes += 1
            _HEADER.pack_into(
                buf, 0, _MAGIC, self._slots, self._slot_size, self._writes
            )
        except Exception:  # the recorder must never break the traced path
            pass

    def close(self) -> None:
        try:
            self._segment.close()
        except Exception:  # pragma: no cover
            pass


def salvage(segment) -> list[dict]:
    """Read a (dead) worker's ring from the parent-owned *segment*.

    Returns the last ``min(writes, slot_count)`` records oldest-first;
    torn or truncated slots (the worker died mid-write) are skipped."""
    try:
        magic, slots, slot_size, writes = _HEADER.unpack_from(segment.buf, 0)
    except Exception:
        return []
    if magic != _MAGIC or slots == 0:
        return []
    count = min(writes, slots)
    records: list[dict] = []
    for sequence in range(writes - count, writes):
        slot = sequence % slots
        offset = _HEADER.size + slot * (_LENGTH.size + slot_size)
        try:
            (length,) = _LENGTH.unpack_from(segment.buf, offset)
            if not 0 < length <= slot_size:
                continue
            payload = bytes(
                segment.buf[offset + _LENGTH.size : offset + _LENGTH.size + length]
            )
            record = json.loads(payload.decode("utf-8"))
        except Exception:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records
