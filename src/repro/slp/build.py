"""Building SLPs from plain text (grammar-based compression).

The paper points out that many practical dictionary compressors are covered
by SLPs and that computing a *smallest* SLP is NP-complete [3, 4]; practical
algorithms are approximate.  Provided here:

* :func:`balanced_node` — the trivial strongly balanced parse (no
  compression beyond hash-consing; size O(|D|)).  The baseline.
* :func:`repair_node` — Re-Pair global pair replacement: repeatedly
  replace the most frequent adjacent digram by a fresh nonterminal.  On
  repetitive inputs this reaches size O(log |D|)-ish.  Built incrementally
  (Larsson–Moffat: linked symbol arrays, per-digram occurrence lists and a
  lazy priority queue), so it costs O(|D| log |D|), not a rescan of the
  document per replaced digram.
* :func:`lz78_node` — the LZ78 parse folded into an SLP (each phrase is
  "previous phrase + one character", which *is* an SLP production).
* :func:`repeat_node` / :func:`power_node` — exact exponential compression
  ``w^k`` by binary exponentiation; the workhorse of the compressed-
  evaluation benchmarks (experiments C2/C3), where ``|S| = O(|w| + log k)``.
* :func:`fibonacci_node` — the Fibonacci-word SLP ``F_n = F_{n−1}·F_{n−2}``
  (pleasantly, strongly balanced by construction).

All builders return nodes whose derivation round-trips exactly; the test
suite checks this property with hypothesis.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import islice

from repro.errors import SLPError
from repro.slp.balance import concat_balanced
from repro.slp.slp import SLP

__all__ = [
    "balanced_node",
    "repair_node",
    "lz78_node",
    "repeat_node",
    "power_node",
    "fibonacci_node",
]


def balanced_node(slp: SLP, text: str) -> int:
    """A strongly balanced parse of *text* (mid-point recursion)."""
    if not text:
        raise SLPError("SLPs derive non-empty documents")

    def build(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return slp.terminal(text[lo])
        mid = (lo + hi) // 2
        return slp.pair(build(lo, mid), build(mid, hi))

    return build(0, len(text))


def repair_node(slp: SLP, text: str) -> int:
    """Re-Pair compression of *text* into an SLP node, in O(|D| log |D|).

    Repeatedly replaces the most frequent adjacent node pair with a fresh
    pair node until no digram occurs twice; the remaining sequence is
    folded pairwise.  Ties go to the digram whose leftmost occurrence is
    leftmost; a run of k equal symbols holds ⌊k/2⌋ left-aligned ``aa``
    pairs and is rewritten greedily from the left.

    Incremental in the style of Larsson and Moffat: the symbols live in
    arrays over the original positions with prev/next links, each digram
    keeps its count and its occurrence positions (appended in increasing
    order, invalidated lazily), runs of equal symbols keep their length at
    their ends, and a lazily invalidated max-heap orders the digrams by
    (count descending, leftmost live occurrence ascending).  A replacement
    touches only its two neighbouring digrams, so the whole build costs
    O(|D| log |D|) instead of a full rescan per replaced pair.  The result
    is generally *not* strongly balanced — rebalance if needed.
    """
    if not text:
        raise SLPError("SLPs derive non-empty documents")
    sym = [slp.terminal(ch) for ch in text]
    n = len(sym)
    # a digram (x, y) is keyed x * width + y; every id this call can see
    # or allocate is below width, so keys are unique and decode by divmod
    width = slp.num_nodes() + n
    # position n is the sentinel behind both ends: nxt of the last symbol
    # is n, prv of the first is -1, and sym[n] == sym[-1] == -1 is dead
    sym.append(-1)
    nxt = list(range(1, n + 2))
    prv = list(range(-1, n))
    # a maximal run of equal symbols keeps its other end at both ends and
    # its length at its start
    other = [0] * (n + 1)
    run_length = [0] * (n + 1)
    count: defaultdict[int, int] = defaultdict(int)
    occurrences: defaultdict[int, list[int]] = defaultdict(list)
    start = 0
    for index in range(1, n + 1):
        if sym[index] != sym[start]:
            other[start] = index - 1
            other[index - 1] = start
            run_length[start] = length = index - start
            if length > 1:
                count[sym[start] * (width + 1)] += length >> 1
            start = index
    for index in range(n - 1):
        occurrences[sym[index] * width + sym[index + 1]].append(index)
    heap = []
    for key, positions in occurrences.items():
        # runs counted their aa digrams; any other digram counts every
        # adjacency, as its occurrences cannot overlap
        live = count.setdefault(key, len(positions))
        if live > 1:
            heap.append((-live, positions[0], key))
    heapq.heapify(heap)
    # occurrences[key][head[key]:] holds every live occurrence of key;
    # a position once invalid for a digram never becomes valid again
    head: defaultdict[int, int] = defaultdict(int)

    while heap:
        negative, leftmost, key = heap[0]
        live = count[key]
        if live < 2:
            heapq.heappop(heap)
            continue
        positions = occurrences[key]
        first = head[key]
        index = positions[first]
        while sym[index] * width + sym[nxt[index]] != key:
            first += 1
            index = positions[first]
        head[key] = first
        if live != -negative or index != leftmost:
            # priorities only fall, so a stale entry re-queues lower
            heapq.heapreplace(heap, (-live, index, key))
            continue
        heapq.heappop(heap)
        x, y = divmod(key, width)
        z = slp.pair(x, y)
        zz = z * (width + 1)
        known = len(occurrences)
        if x == y:
            for index in positions[first:]:
                if sym[index] != x or sym[nxt[index]] != x:
                    continue
                # index starts a maximal run of k >= 2 copies of x
                k = run_length[index]
                end = other[index]
                p = prv[index]
                u = sym[p]
                if u >= 0:
                    count[u * width + x] -= 1
                    new = u * width + z
                    occurrences[new].append(p)
                    count[new] += 1
                run = []
                pos = index
                for _ in range(k >> 1):
                    j = nxt[pos]
                    after = nxt[j]
                    sym[pos] = z
                    sym[j] = -1
                    nxt[pos] = after
                    prv[after] = pos
                    run.append(pos)
                    pos = after
                last = run.pop()
                other[index] = last
                other[last] = index
                run_length[index] = m = k >> 1
                if m > 1:
                    occurrences[zz].extend(run)
                    count[zz] += m >> 1
                if k & 1:
                    # the odd copy stays behind at the old run end
                    other[end] = end
                    run_length[end] = 1
                    v = x
                else:
                    v = sym[pos]
                    if v < 0:
                        continue
                    count[x * width + v] -= 1
                new = z * width + v
                occurrences[new].append(last)
                count[new] += 1
        else:
            xx = x * (width + 1)
            yy = y * (width + 1)
            for index in positions[first:]:
                j = nxt[index]
                if sym[index] != x or sym[j] != y:
                    continue
                p = prv[index]
                q = nxt[j]
                u = sym[p]
                v = sym[q]
                if u == x:  # the x-run ending here loses its last copy
                    s = other[index]
                    k = run_length[s]
                    if not k & 1:
                        count[xx] -= 1
                    other[s] = p
                    other[p] = s
                    run_length[s] = k - 1
                elif u >= 0:
                    count[u * width + x] -= 1
                if u == z:  # z-runs grow left to right as pairs merge
                    s = other[p]
                    run_length[s] = k = run_length[s] + 1
                    other[s] = index
                    other[index] = s
                    occurrences[zz].append(p)
                    if not k & 1:
                        count[zz] += 1
                else:
                    other[index] = index
                    run_length[index] = 1
                    if u >= 0:
                        new = u * width + z
                        occurrences[new].append(p)
                        count[new] += 1
                if v >= 0:
                    if v == y:  # the y-run starting here loses its first copy
                        e = other[j]
                        k = run_length[j]
                        if not k & 1:
                            count[yy] -= 1
                        other[q] = e
                        other[e] = q
                        run_length[q] = k - 1
                    else:
                        count[y * width + v] -= 1
                    new = z * width + v
                    occurrences[new].append(index)
                    count[new] += 1
                nxt[index] = q
                prv[q] = index
                sym[index] = z
                sym[j] = -1
        # dicts keep insertion order: the digrams this round first saw
        # (each holds z) are the last ones in occurrences
        fresh = list(islice(reversed(occurrences), len(occurrences) - known))
        count[key] = 0
        del occurrences[key]
        for new in fresh:
            live = count[new]
            if live > 1:
                # a stale first position only ranks the entry too high
                heapq.heappush(heap, (-live, occurrences[new][0], new))

    sequence = []
    index = 0
    while index < n:
        sequence.append(sym[index])
        index = nxt[index]
    return _fold(slp, sequence)


def lz78_node(slp: SLP, text: str) -> int:
    """The LZ78 parse of *text* as an SLP node.

    LZ78 phrases have the shape "longest previously seen phrase + one fresh
    character", which maps directly onto SLP pair nodes.
    """
    if not text:
        raise SLPError("SLPs derive non-empty documents")
    # trie of phrases: maps (phrase_node_or_root, char) -> phrase node
    trie: dict[tuple[int | None, str], int] = {}
    phrases: list[int] = []
    current: int | None = None
    for ch in text:
        step = trie.get((current, ch))
        if step is not None:
            current = step
            continue
        node = slp.terminal(ch) if current is None else slp.pair(current, slp.terminal(ch))
        trie[(current, ch)] = node
        phrases.append(node)
        current = None
    if current is not None:  # unfinished phrase at the end of the text
        phrases.append(current)
    return _fold(slp, phrases)


def repeat_node(slp: SLP, node: int, times: int) -> int:
    """The node deriving ``D(node)`` repeated *times* (binary exponentiation).

    Uses balanced concatenation, so the result of repeating a strongly
    balanced node is strongly balanced, with O(log times) fresh nodes.
    """
    if times < 1:
        raise SLPError("repetition count must be >= 1")
    result: int | None = None
    power = node
    remaining = times
    while remaining:
        if remaining & 1:
            result = concat_balanced(slp, result, power)
        remaining >>= 1
        if remaining:
            power = slp.pair(power, power)
    assert result is not None
    return result


def power_node(slp: SLP, text: str, exponent: int) -> int:
    """``text^(2^exponent)`` with ``|S| = O(|text| + exponent)`` nodes."""
    node = balanced_node(slp, text)
    for _ in range(exponent):
        node = slp.pair(node, node)
    return node


def fibonacci_node(slp: SLP, n: int) -> int:
    """The n-th Fibonacci word (``F_1 = b``, ``F_2 = a``,
    ``F_n = F_{n−1}·F_{n−2}``) — an O(n)-node, strongly balanced SLP for a
    document of length ``fib(n)``."""
    if n < 1:
        raise SLPError("Fibonacci index must be >= 1")
    previous = slp.terminal("b")
    if n == 1:
        return previous
    current = slp.terminal("a")
    for _ in range(n - 2):
        previous, current = current, slp.pair(current, previous)
    return current


def _fold(slp: SLP, nodes: list[int]) -> int:
    """Fold a sequence of nodes pairwise into a single node."""
    if not nodes:
        raise SLPError("cannot fold an empty sequence")
    while len(nodes) > 1:
        folded = [
            slp.pair(nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)
        ]
        if len(nodes) % 2:
            folded.append(nodes[-1])
        nodes = folded
    return nodes[0]
