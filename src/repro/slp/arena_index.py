"""One per-arena node cache for compressed evaluation (paper Section 4.2;
updates as in [40]).

Every compressed algorithm over an SLP memoises one value per node — the
``(σ, T, T_em)`` triple of :mod:`repro.slp.spanner_eval`, the
reachability matrix of :mod:`repro.slp.membership`, the
``(count, prefix, suffix)`` of :mod:`repro.slp.pattern` — computed
bottom-up as a *leaf* value per terminal and a *combine* step per pair
node.  CDE edits and appends only allocate fresh nodes, so a warm memo
pays for those alone.  :class:`ArenaIndex` is that memo, once:

* entries are indexed ``serial → node → value``: every maintenance
  operation costs O(that arena's own entries), and the per-arena dicts are
  what the consumers' hot loops read;
* **sealed** ids mark nodes whose whole subtree is cached.  A repeat query
  on a sealed root walks nothing, and discovery stops at sealed children,
  so after an edit it visits O(fresh + log n) nodes, not the document;
* resident bytes are kept per arena and in total, from the size function
  the owner passes in — every stats call is O(1);
* **the arena owns invalidation.**  An index registers itself in a weak set
  on each :class:`~repro.slp.slp.SLP` it caches.  :meth:`SLP.truncate`
  drops entries and sealed bits for ids ``>= mark`` in every live index
  before discarding the nodes (rollback reuses those ids), and one
  finalizer per arena drops a collected arena's entries.  That finalizer
  holds the weak set, never an index, so a cache stays collectable however
  long its arenas live.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable

from repro.slp.slp import SLP

__all__ = ["ArenaIndex"]


_attach_lock = threading.Lock()
# a process forked while another thread held the lock would inherit it held
# forever (the process pool forks from serving threads)
os.register_at_fork(after_in_child=_attach_lock._at_fork_reinit)


def _no_bytes(value) -> int:
    return 0


def _forget_arena(indexes: "weakref.WeakSet[ArenaIndex]", serial: int) -> None:
    """Finalizer of a collected arena: drop it from every live index."""
    for index in list(indexes):
        index.drop(serial)


class ArenaIndex:
    """``serial → node → value`` memo with sealing and byte accounting.

    *nbytes* maps a cached value to its resident bytes (entries of a
    consumer that reports no bytes count 0).  Invalidation and dropping
    need exclusive access (the store's write lock); concurrent readers may
    :meth:`merge` and :meth:`seal` together, since entries for one node
    are identical pure values.  :meth:`compute` only reads, so worker
    threads may run it concurrently between mutations."""

    def __init__(self, nbytes: Callable[[object], int] = _no_bytes) -> None:
        self._nbytes = nbytes
        #: serial -> node -> cached value
        self._arena_entries: dict[int, dict[int, object]] = {}
        #: serial -> ids whose entire subtree is cached.  Sealing is
        #: conservative: a node seals only once its entry exists and both
        #: children are sealed, bottom-up over a completed walk
        self._sealed: dict[int, set[int]] = {}
        #: serial -> resident bytes of that arena's entries
        self._arena_bytes: dict[int, int] = {}
        #: resident bytes over every arena
        self.total_bytes = 0

    # ------------------------------------------------------------------
    # reads (O(1) unless stated)
    # ------------------------------------------------------------------
    def entries(self, slp: SLP) -> dict:
        """*slp*'s ``node → value`` dict — the view hot loops index into
        (treat as read-only; an arena with nothing cached gets a detached
        empty dict)."""
        return self._arena_entries.get(slp.serial, {})

    def node_entry(self, slp: SLP, node: int):
        """The cached value for one node, or ``None``."""
        return self._arena_entries.get(slp.serial, {}).get(node)

    def is_sealed(self, slp: SLP, node: int) -> bool:
        """Is *node*'s entire subtree cached (the O(1) repeat path)?"""
        return node in self._sealed.get(slp.serial, ())

    def cached_node_ids(self, slp: SLP) -> list[int]:
        """The cached node ids of *slp*, in arbitrary order (O(this arena's
        entries); other arenas are never scanned)."""
        return list(self._arena_entries.get(slp.serial, ()))

    def cached_nodes(self, serial: int | None = None) -> int:
        """Cached entries of one arena, or of all (O(arenas))."""
        if serial is None:
            return sum(len(arena) for arena in self._arena_entries.values())
        return len(self._arena_entries.get(serial, ()))

    def sealed_nodes(self, serial: int | None = None) -> int:
        """Sealed ids of one arena, or of all (O(arenas))."""
        if serial is None:
            return sum(len(sealed) for sealed in self._sealed.values())
        return len(self._sealed.get(serial, ()))

    def arena_cache_stats(self, serial: int) -> dict:
        """``{"entries", "bytes", "sealed"}`` for one arena."""
        return {
            "entries": len(self._arena_entries.get(serial, ())),
            "bytes": self._arena_bytes.get(serial, 0),
            "sealed": len(self._sealed.get(serial, ())),
        }

    # ------------------------------------------------------------------
    # discovery and computation
    # ------------------------------------------------------------------
    def compute(
        self, slp: SLP, root: int, leaf, combine, budget=None
    ) -> tuple[dict, list[int], int]:
        """Values for every node reachable from *root* that is not cached
        yet, as ``(fresh, walked, skipped)``; nothing is mutated.

        The discovery pass runs :meth:`SLP.frontier` (stopping at sealed
        nodes), skips cached nodes, and groups the remaining pair nodes by
        level: a pair's level is one more than its deeper fresh child, so
        every wave's operands are computed before the wave.  Each fresh
        terminal gets ``leaf(char)``; each wave gets one call
        ``combine(operands, wave)`` with ``wave`` the ``(node, left,
        right)`` triples and ``operands`` their ``(left value, right
        value)`` pairs, returning one value per triple.  A
        :class:`~repro.util.Budget` is charged one step per fresh node.

        *walked* is the bottom-up discovery order (what :meth:`seal`
        consumes); *skipped* counts the sealed nodes the walk stopped at."""
        walked, skipped = slp.frontier(root, self._sealed.get(slp.serial, ()))
        cached = self._arena_entries.get(slp.serial, {})
        fresh: dict = {}
        level: dict[int, int] = {}
        waves: list[list[tuple[int, int, int]]] = []
        for current in walked:
            if current in cached:
                continue
            if budget is not None:
                budget.step()
            if slp.is_terminal(current):
                fresh[current] = leaf(slp.char(current))
                continue
            left, right = slp.children(current)
            depth = max(level.get(left, 0), level.get(right, 0)) + 1
            level[current] = depth
            if depth > len(waves):
                waves.append([])
            waves[depth - 1].append((current, left, right))
        for wave in waves:
            operands = [
                (
                    fresh[left] if left in fresh else cached[left],
                    fresh[right] if right in fresh else cached[right],
                )
                for _, left, right in wave
            ]
            for (current, _, _), value in zip(wave, combine(operands, wave)):
                fresh[current] = value
        return fresh, walked, skipped

    def merge(self, slp: SLP, fresh: dict) -> int:
        """Adopt ``node → value`` entries computed against *slp*; returns
        how many were added (nodes another merge beat us to keep their
        value — entries for one node are interchangeable)."""
        serial = slp.serial
        arena = self._arena_entries.get(serial)
        if arena is None:
            arena = self._attach(slp)
        nbytes = self._nbytes
        added = size = 0
        for node, value in fresh.items():
            if node not in arena:
                arena[node] = value
                size += nbytes(value)
                added += 1
        self._arena_bytes[serial] += size
        self.total_bytes += size
        return added

    def seal(self, slp: SLP, walked: list[int]) -> None:
        """Seal every walked node whose subtree is now fully cached.

        *walked* is the bottom-up order of one completed frontier walk, so
        each child of a walked pair is earlier in the list or was sealed
        already (the walk stops only at sealed nodes): sealing propagates
        to the root in one linear pass."""
        arena = self._arena_entries.get(slp.serial)
        if arena is None:
            return
        sealed = self._sealed[slp.serial]
        is_terminal = slp.is_terminal
        children = slp.children
        for current in walked:
            if current not in arena:
                continue
            if is_terminal(current):
                sealed.add(current)
                continue
            left, right = children(current)
            if left in sealed and right in sealed:
                sealed.add(current)

    def seal_subtree(self, slp: SLP, node: int) -> bool:
        """Walk *node*'s unsealed frontier and seal what is fully cached;
        returns whether *node* itself is sealed."""
        if self.is_sealed(slp, node):
            return True
        walked, _ = slp.frontier(node, self._sealed.get(slp.serial, ()))
        self.seal(slp, walked)
        return self.is_sealed(slp, node)

    # ------------------------------------------------------------------
    # arena lifecycle
    # ------------------------------------------------------------------
    def _attach(self, slp: SLP) -> dict:
        """Start caching *slp*: register with its weak set of live indexes,
        arming the arena's collection finalizer on first use.

        Concurrent readers may merge into a new arena together (see
        :mod:`repro.serve.coordination`), so attaching is serialised: a
        second weak set or a replaced entry dict would lose a registration
        or entries.  It happens once per index and arena."""
        with _attach_lock:
            serial = slp.serial
            arena = self._arena_entries.get(serial)
            if arena is None:
                indexes = slp._indexes
                if indexes is None:
                    indexes = slp._indexes = weakref.WeakSet()
                    weakref.finalize(slp, _forget_arena, indexes, serial)
                indexes.add(self)
                # sealed set and byte count exist before the entries dict
                # becomes visible to lock-free readers
                self._sealed[serial] = set()
                self._arena_bytes[serial] = 0
                arena = self._arena_entries[serial] = {}
            return arena

    def invalidate_from(self, serial: int, mark: int) -> int:
        """Drop entries and sealed bits for ids ``>= mark`` of one arena.

        Called by :meth:`SLP.truncate` before it discards those ids: later
        allocations reuse them, and a stale entry or sealed root would
        answer for the rolled-back document.  Sealed ids below the mark
        stay sealed — children precede parents in the arena, so a surviving
        node's subtree survives too.  Returns the number dropped."""
        arena = self._arena_entries.get(serial)
        if not arena:
            return 0
        stale = [node for node in arena if node >= mark]
        nbytes = self._nbytes
        size = sum(nbytes(arena.pop(node)) for node in stale)
        self._arena_bytes[serial] -= size
        self.total_bytes -= size
        self._sealed[serial] = {n for n in self._sealed[serial] if n < mark}
        return len(stale)

    def drop(self, serial: int) -> None:
        """Forget one arena entirely (collected or discarded); O(1)."""
        self._sealed.pop(serial, None)
        if self._arena_entries.pop(serial, None) is not None:
            self.total_bytes -= self._arena_bytes.pop(serial)
