"""The quadratic Re-Pair builder, kept as a test-only oracle.

This is the original ``repair_node``: it recounts every digram over the
whole sequence and rewrites the whole list once per replaced pair, so it
costs O(|D| · rounds).  The incremental builder in
:mod:`repro.slp.build` must return the same node, allocating the same
arena nodes in the same order; the differential tests and the C10
speedup lane compare the two.
"""

from collections import Counter

from repro.errors import SLPError
from repro.slp.build import _fold
from repro.slp.slp import SLP


def quadratic_repair_node(slp: SLP, text: str) -> int:
    """Re-Pair-style compression of *text* into an SLP node.

    Repeatedly replaces the most frequent adjacent node pair (counted over
    non-overlapping, left-to-right occurrences) with a fresh pair node until
    no digram occurs twice; the remaining sequence is folded pairwise.
    The result is generally *not* strongly balanced — rebalance if needed.
    """
    if not text:
        raise SLPError("SLPs derive non-empty documents")
    sequence = [slp.terminal(ch) for ch in text]
    while len(sequence) > 1:
        counts: Counter[tuple[int, int]] = Counter()
        index = 0
        while index + 1 < len(sequence):
            digram = (sequence[index], sequence[index + 1])
            counts[digram] += 1
            # skip one position on aa-runs so occurrences never overlap
            if (
                index + 2 < len(sequence)
                and sequence[index + 1] == sequence[index]
                and sequence[index + 2] == sequence[index]
            ):
                index += 2
            else:
                index += 1
        if not counts:
            break
        digram, count = counts.most_common(1)[0]
        if count < 2:
            break
        replacement = slp.pair(*digram)
        rewritten: list[int] = []
        index = 0
        while index < len(sequence):
            if (
                index + 1 < len(sequence)
                and (sequence[index], sequence[index + 1]) == digram
            ):
                rewritten.append(replacement)
                index += 2
            else:
                rewritten.append(sequence[index])
                index += 1
        sequence = rewritten
    return _fold(slp, sequence)
