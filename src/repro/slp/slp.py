"""Straight-line programs (SLPs) and SLP-represented document databases
(paper Section 4).

An SLP is a DAG whose sinks represent the alphabet symbols and whose inner
nodes have a *left* and a *right* child; a node A derives the document
``D(A) = D(left) · D(right)``.  Designating nodes as documents turns one SLP
into a *document database* (Figure 1 of the paper).

Implementation notes
--------------------

* The :class:`SLP` object is an **arena with hash-consing**: structurally
  equal pairs are shared automatically, which is what gives SLPs their
  compression (and what the balanced editing operations of Section 4.3
  exploit for persistence).  Node handles are plain ints.
* Per-node ``length`` and ``order`` (the paper's ``ord``: longest path to a
  leaf, plus one) are maintained incrementally, so balancedness predicates
  are O(1) per node.
* Lengths are Python ints, so documents of astronomically exponential
  length are representable — deriving them is guarded by an explicit limit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.errors import SLPError

__all__ = ["SLP", "DocumentDatabase", "figure_1_slp", "figure_1_database"]


class SLP:
    """An arena of hash-consed SLP nodes.

    Node ids are ints; terminals and pairs are created through
    :meth:`terminal` and :meth:`pair` and never mutated or deleted.
    """

    __slots__ = (
        "_char",
        "_left",
        "_right",
        "_length",
        "_order",
        "_terminals",
        "_pairs",
        "_serial",
        "_indexes",
        "__weakref__",
    )

    #: process-wide arena serials; ``id()`` is reused after collection, so
    #: evaluator caches keyed by it could silently serve matrices computed
    #: for a dead arena — serials are unique for the life of the process
    _serials = itertools.count()

    def __init__(self) -> None:
        self._serial = next(SLP._serials)
        self._char: list[str | None] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._length: list[int] = []
        self._order: list[int] = []
        self._terminals: dict[str, int] = {}
        self._pairs: dict[tuple[int, int], int] = {}
        #: weak set of the live node caches (:class:`~repro.slp.arena_index.
        #: ArenaIndex`) holding entries for this arena; created on first use
        self._indexes = None

    @property
    def serial(self) -> int:
        """A process-unique arena identifier, safe to key caches by."""
        return self._serial

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def terminal(self, ch: str) -> int:
        """The (unique) sink node deriving the single character *ch*."""
        if len(ch) != 1:
            raise SLPError(f"terminal must be a single character, got {ch!r}")
        node = self._terminals.get(ch)
        if node is None:
            node = self._new_node(ch, -1, -1, 1, 1)
            self._terminals[ch] = node
        return node

    def pair(self, left: int, right: int) -> int:
        """The (hash-consed) inner node deriving ``D(left)·D(right)``."""
        self._check(left)
        self._check(right)
        node = self._pairs.get((left, right))
        if node is None:
            node = self._new_node(
                None,
                left,
                right,
                self._length[left] + self._length[right],
                max(self._order[left], self._order[right]) + 1,
            )
            self._pairs[(left, right)] = node
        return node

    def _new_node(self, ch, left, right, length, order) -> int:
        self._char.append(ch)
        self._left.append(left)
        self._right.append(right)
        self._length.append(length)
        self._order.append(order)
        return len(self._char) - 1

    def _check(self, node: int) -> None:
        if not 0 <= node < len(self._char):
            raise SLPError(f"unknown SLP node {node}")

    # ------------------------------------------------------------------
    # transactional staging
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """A rollback token: the current arena size.

        Nodes are allocated densely, so every node created after ``mark()``
        has id ``>= mark`` and :meth:`truncate` can discard exactly the
        staged allocations of a failed mutation.
        """
        return len(self._char)

    def truncate(self, mark: int) -> int:
        """Discard every node allocated at or after *mark*.

        Every live node cache of this arena first drops its entries and
        sealed bits for ids ``>= mark`` — later allocations reuse those
        ids, so a surviving entry would answer for the discarded document.
        Safe only when no other live structure references the discarded
        ids; ``SpannerDB``'s transaction rollback restores its document
        table in the same step.  Returns the number of nodes discarded.
        Old nodes can never reference new ones (children are always
        allocated before their parents), so the surviving prefix is closed
        under reachability.
        """
        if not 0 <= mark <= len(self._char):
            raise SLPError(f"invalid arena mark {mark}")
        for index in list(self._indexes or ()):
            index.invalidate_from(self._serial, mark)
        discarded = len(self._char) - mark
        if discarded == 0:
            return 0
        del self._char[mark:]
        del self._left[mark:]
        del self._right[mark:]
        del self._length[mark:]
        del self._order[mark:]
        self._terminals = {ch: n for ch, n in self._terminals.items() if n < mark}
        self._pairs = {key: n for key, n in self._pairs.items() if n < mark}
        return discarded

    def from_text(self, text: str) -> int:
        """A balanced parse of *text* (no compression beyond sharing).

        Builds a perfectly balanced binary concatenation tree; repeated
        factors of equal shape are shared by hash-consing.  For real
        compression use :mod:`repro.slp.build`.
        """
        if not text:
            raise SLPError("SLPs derive non-empty documents")
        nodes = [self.terminal(ch) for ch in text]
        while len(nodes) > 1:
            paired = [
                self.pair(nodes[i], nodes[i + 1])
                for i in range(0, len(nodes) - 1, 2)
            ]
            if len(nodes) % 2:
                paired.append(nodes[-1])
            nodes = paired
        return nodes[0]

    def append_text(self, node: int | None, text: str) -> int | None:
        """A strongly balanced node deriving ``D(node) + text``.

        The streaming append primitive: *text* is parsed into a strongly
        balanced subtree and joined onto *node*'s right spine with the
        AVL join from :func:`repro.slp.balance.concat_balanced`, so only
        ``O(|text| + ord(node))`` fresh nodes are allocated and every
        pre-existing node (and any evaluator-cache entry keyed on it)
        survives untouched.  *node* must be ``None`` (empty document) or
        strongly balanced — documents built by ``rebalance``/
        ``balanced_node`` or by previous ``append_text`` calls qualify.

        Fresh nodes have ids ``>= mark()`` taken before the call, which
        is what makes incremental cache maintenance (preprocess only the
        new spine; roll back by truncating to the mark) possible.
        """
        from repro.slp.balance import concat_balanced
        from repro.slp.build import balanced_node

        if not text:
            return node
        suffix = balanced_node(self, text)
        return concat_balanced(self, node, suffix)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def is_terminal(self, node: int) -> bool:
        self._check(node)
        return self._char[node] is not None

    def char(self, node: int) -> str:
        if not self.is_terminal(node):
            raise SLPError(f"node {node} is not a terminal")
        return self._char[node]  # type: ignore[return-value]

    def children(self, node: int) -> tuple[int, int]:
        if self.is_terminal(node):
            raise SLPError(f"terminal node {node} has no children")
        return self._left[node], self._right[node]

    def length(self, node: int) -> int:
        """``|D(node)|`` (maintained incrementally; O(1))."""
        self._check(node)
        return self._length[node]

    def order(self, node: int) -> int:
        """The paper's ``ord``: longest path to a leaf, plus one (O(1))."""
        self._check(node)
        return self._order[node]

    def num_nodes(self) -> int:
        """Total nodes in the arena (shared across all documents)."""
        return len(self._char)

    def arena_bytes(self) -> int:
        """Approximate heap footprint of the arena containers in bytes.

        Counts the five parallel per-node lists and the two hash-consing
        dicts (container overhead plus slot pointers); the shared
        small-int/char objects they reference are not double-counted.
        Surfaced by :meth:`repro.db.SpannerDB.stats` as
        ``slp_arena_bytes``."""
        import sys

        return (
            sys.getsizeof(self._char)
            + sys.getsizeof(self._left)
            + sys.getsizeof(self._right)
            + sys.getsizeof(self._length)
            + sys.getsizeof(self._order)
            + sys.getsizeof(self._terminals)
            + sys.getsizeof(self._pairs)
        )

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def derive(self, node: int, limit: int = 10_000_000) -> str:
        """The derived document ``D(node)``.

        Refuses to materialise documents longer than *limit* — SLPs can be
        exponentially smaller than their documents, and accidentally
        decompressing is the classic footgun of compressed algorithmics.
        """
        if self.length(node) > limit:
            raise SLPError(
                f"derivation of length {self.length(node)} exceeds limit {limit}"
            )
        out: list[str] = []
        stack = [node]
        while stack:
            current = stack.pop()
            ch = self._char[current]
            if ch is not None:
                out.append(ch)
            else:
                stack.append(self._right[current])
                stack.append(self._left[current])
        return "".join(out)

    def reachable(self, *roots: int) -> set[int]:
        """All nodes reachable from *roots* (the size ``|S|`` of Section 4
        counts these)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            self._check(node)
            seen.add(node)
            if self._char[node] is None:
                stack.append(self._left[node])
                stack.append(self._right[node])
        return seen

    def size(self, *roots: int) -> int:
        """``|S|`` = number of reachable nodes from *roots*."""
        return len(self.reachable(*roots))

    def topological(self, *roots: int) -> list[int]:
        """Reachable nodes in bottom-up (children before parents) order."""
        order: list[int] = []
        seen: set[int] = set()

        def visit(node: int) -> None:
            stack = [(node, False)]
            while stack:
                current, expanded = stack.pop()
                if expanded:
                    order.append(current)
                    continue
                if current in seen:
                    continue
                seen.add(current)
                stack.append((current, True))
                if self._char[current] is None:
                    stack.append((self._right[current], False))
                    stack.append((self._left[current], False))

        for root in roots:
            visit(root)
        return order

    def frontier(self, root: int, stop) -> tuple[list[int], int]:
        """Reachable nodes in bottom-up order, *without descending* into
        any node contained in *stop* (a set-like of node ids).

        This is the discovery walk of incremental maintenance: evaluator
        caches mark fully preprocessed subtrees as *sealed*, and because
        every mutation primitive (``pair``, ``append_text``, ``apply_cde``,
        the balanced concat/split) only *appends* arena nodes, the
        frontier of a post-edit root is the fresh spine plus the sealed
        boundary — ``O(fresh + log n)`` nodes instead of the ``O(n)`` full
        :meth:`topological` walk.

        Returns ``(order, skipped)``: *order* lists the reachable nodes
        **not** in *stop* (children before parents, stopped children
        excluded), *skipped* counts the distinct stopped nodes the walk
        halted at.  ``frontier(root, ())`` is :meth:`topological`.
        """
        self._check(root)
        order: list[int] = []
        skipped = 0
        seen: set[int] = set()
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            current, expanded = stack.pop()
            if expanded:
                order.append(current)
                continue
            if current in seen:
                continue
            seen.add(current)
            if current in stop:
                skipped += 1
                continue
            stack.append((current, True))
            if self._char[current] is None:
                stack.append((self._right[current], False))
                stack.append((self._left[current], False))
        return order, skipped

    # ------------------------------------------------------------------
    # balancedness (Section 4.1)
    # ------------------------------------------------------------------
    def bal(self, node: int) -> int:
        """``bal(A) = ord(left) − ord(right)`` (0 for terminals)."""
        if self.is_terminal(node):
            return 0
        left, right = self.children(node)
        return self._order[left] - self._order[right]

    def is_balanced(self, node: int) -> bool:
        """``bal(A) ∈ {−1, 0, 1}``."""
        return self.bal(node) in (-1, 0, 1)

    def is_strongly_balanced(self, node: int) -> bool:
        """*node* and all its descendants are balanced."""
        return all(self.is_balanced(n) for n in self.reachable(node))

    def is_c_shallow(self, node: int, c: float = 2.0) -> bool:
        """``ord(A) ≤ c · log2|D(A)|`` for the node and all descendants
        (leaves and single-character derivations are trivially shallow)."""
        import math

        for n in self.reachable(node):
            length = self._length[n]
            if length <= 1:
                continue
            if self._order[n] - 1 > c * math.log2(length):
                return False
        return True


class DocumentDatabase:
    """A set of named documents stored as designated nodes of one SLP."""

    def __init__(self, slp: SLP | None = None) -> None:
        self.slp = slp if slp is not None else SLP()
        self._docs: dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_texts(cls, texts: dict[str, str], balanced: bool = True) -> "DocumentDatabase":
        """Build a database from plain strings (balanced parses by default)."""
        db = cls()
        for name, text in texts.items():
            db.add_text(name, text, balanced=balanced)
        return db

    def add_text(self, name: str, text: str, balanced: bool = True) -> int:
        from repro.slp.build import balanced_node

        if balanced:
            node = balanced_node(self.slp, text)
        else:
            node = self.slp.from_text(text)
        return self.add_node(name, node)

    def add_node(self, name: str, node: int) -> int:
        if name in self._docs:
            raise SLPError(f"document {name!r} already exists")
        self.slp._check(node)
        self._docs[name] = node
        return node

    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        try:
            return self._docs[name]
        except KeyError:
            raise SLPError(f"no document named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._docs)

    def __contains__(self, name: str) -> bool:
        return name in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def document(self, name: str, limit: int = 10_000_000) -> str:
        """Decompress one document (test/debug helper)."""
        return self.slp.derive(self.node(name), limit)

    def documents(self) -> Iterator[tuple[str, int]]:
        yield from sorted(self._docs.items())

    def size(self) -> int:
        """``|S|`` restricted to nodes reachable from stored documents."""
        return self.slp.size(*self._docs.values())


def figure_1_slp() -> tuple[SLP, dict[str, int]]:
    """The SLP of Figure 1 of the paper (solid part), exactly.

    Returns the arena and a name → node map for
    ``T_a, T_b, T_c, E, F, C, B, D, A1, A2, A3``, with::

        D(E) = ab     D(F) = bc    D(C) = bca    D(B) = abbca
        D(D) = bcaabbca
        D(A1) = ababbcabca   D(A2) = bcabcaabbca   D(A3) = ababbca

    and the node orders / balances reported in Section 4.1.
    """
    slp = SLP()
    t_a, t_b, t_c = slp.terminal("a"), slp.terminal("b"), slp.terminal("c")
    e = slp.pair(t_a, t_b)          # ab
    f = slp.pair(t_b, t_c)          # bc
    c = slp.pair(f, t_a)            # bca
    b = slp.pair(e, c)              # abbca
    d = slp.pair(c, b)              # bcaabbca
    a3 = slp.pair(e, b)             # ababbca
    a1 = slp.pair(a3, c)            # ababbcabca
    a2 = slp.pair(c, d)             # bcabcaabbca
    return slp, {
        "T_a": t_a, "T_b": t_b, "T_c": t_c,
        "E": e, "F": f, "C": c, "B": b, "D": d,
        "A1": a1, "A2": a2, "A3": a3,
    }


def figure_1_database() -> tuple[DocumentDatabase, dict[str, int]]:
    """The document database of Figure 1: documents D1, D2, D3 at the
    designated nodes A1, A2, A3."""
    slp, nodes = figure_1_slp()
    db = DocumentDatabase(slp)
    db.add_node("D1", nodes["A1"])
    db.add_node("D2", nodes["A2"])
    db.add_node("D3", nodes["A3"])
    return db, nodes
