"""Compressed pattern matching: occurrences of a short pattern in an
SLP-compressed document, without decompression.

Footnote 5 of the paper observes that "most basic string analysis tasks can
be performed directly on SLPs"; this module implements the textbook
instance.  For a pattern P of length m, each node A stores

* ``pref(A)`` / ``suf(A)`` — the first/last ``min(|D(A)|, m−1)`` characters
  of ``D(A)`` (enough context to detect boundary-crossing matches), and
* ``count(A)`` — the number of (possibly overlapping) occurrences of P.

For a pair node, occurrences either lie inside a child (counted there,
shared across the DAG) or cross the boundary — detectable inside the
``suf(left)·pref(right)`` window of length ≤ 2(m−1).  Total time
O(|S|·m), i.e. logarithmic in |D| for well-compressed documents.

:meth:`CompressedPatternMatcher.occurrences` additionally streams match
*positions* lazily by descending only into subtrees that contain matches.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.errors import SLPError
from repro.slp.arena_index import ArenaIndex
from repro.slp.slp import SLP

__all__ = ["CompressedPatternMatcher"]


def _overlapping_count(text: str, pattern: str) -> int:
    count = 0
    start = text.find(pattern)
    while start != -1:
        count += 1
        start = text.find(pattern, start + 1)
    return count


class CompressedPatternMatcher:
    """Occurrence counting and location for one fixed pattern."""

    def __init__(self, pattern: str) -> None:
        if not pattern:
            raise SLPError("pattern must be non-empty")
        self.pattern = pattern
        #: the node cache: serial -> node -> (count, prefix, suffix)
        self.index = ArenaIndex()

    # ------------------------------------------------------------------
    def cached_nodes(self, serial: int | None = None) -> int:
        """Cached node count — for one arena, or overall."""
        return self.index.cached_nodes(serial)

    def is_sealed(self, slp: SLP, node: int) -> bool:
        """Whether *node*'s entire subtree is known cached (O(1))."""
        return self.index.is_sealed(slp, node)

    def _leaf(self, ch: str) -> tuple[int, str, str]:
        context = ch[: len(self.pattern) - 1]
        return (1 if ch == self.pattern else 0), context, context

    def _node_data(self, slp: SLP, node: int) -> tuple[int, str, str]:
        index = self.index
        if not index.is_sealed(slp, node):
            combine = partial(self._combine, slp)
            fresh, walked, _ = index.compute(
                slp,
                node,
                self._leaf,
                lambda operands, wave: list(map(combine, wave, operands)),
            )
            index.merge(slp, fresh)
            index.seal(slp, walked)
        return index.node_entry(slp, node)

    def _combine(self, slp: SLP, pair, operands) -> tuple[int, str, str]:
        """(count, prefix, suffix) of one pair node from its children's."""
        _, left, right = pair
        (count_l, pref_l, suf_l), (count_r, pref_r, suf_r) = operands
        m = len(self.pattern)
        keep = m - 1
        window = suf_l + pref_r
        crossing = sum(
            1
            for i in range(len(window) - m + 1)
            if i < len(suf_l) < i + m and window.startswith(self.pattern, i)
        )
        if slp.length(left) >= keep:
            prefix = pref_l
        else:
            prefix = (pref_l + pref_r)[:keep]
        if slp.length(right) >= keep:
            suffix = suf_r
        else:
            suffix = (suf_l + suf_r)[-keep:] if keep else ""
        return count_l + count_r + crossing, prefix, suffix

    # ------------------------------------------------------------------
    def count(self, slp: SLP, node: int) -> int:
        """Overlapping occurrences of the pattern in ``D(node)``."""
        return self._node_data(slp, node)[0]

    def contains(self, slp: SLP, node: int) -> bool:
        return self.count(slp, node) > 0

    def occurrences(self, slp: SLP, node: int) -> Iterator[int]:
        """Stream the 0-based start offsets of all occurrences, in order.

        Descends only into subtrees with matches; boundary-crossing matches
        are found in the suf/pref window, so a single occurrence costs
        O(depth · m).  Note: offsets are plain ints even when |D| is
        astronomic.
        """
        self._node_data(slp, node)
        m = len(self.pattern)
        data = self.index.entries(slp)
        # in-order traversal as an explicit LIFO (an SLP of depth d must
        # not consume d interpreter stack frames): left matches, crossing
        # matches, right matches are each emitted in increasing position
        # order, so frames are pushed right-to-left
        _DESCEND, _CROSSING = 0, 1
        stack: list[tuple[int, int, int]] = [(_DESCEND, node, 0)]
        while stack:
            kind, current, offset = stack.pop()
            left_right = None if slp.is_terminal(current) else slp.children(current)
            if kind == _CROSSING:
                left, right = left_right
                left_length = slp.length(left)
                _, _, suf_l = data[left]
                _, pref_r, _ = data[right]
                window = suf_l + pref_r
                window_start = offset + left_length - len(suf_l)
                for i in range(len(window) - m + 1):
                    if i < len(suf_l) < i + m and window.startswith(
                        self.pattern, i
                    ):
                        yield window_start + i
                continue
            count, _, _ = data[current]
            if count == 0:
                continue
            if left_right is None:
                yield offset  # pattern is the single character
                continue
            left, right = left_right
            stack.append((_DESCEND, right, offset + slp.length(left)))
            stack.append((_CROSSING, current, offset))
            stack.append((_DESCEND, left, offset))
