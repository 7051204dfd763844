"""The associative fold of plain text behind the stream guard.

A plain-text document is, for evaluation purposes, a product of per-
character ``(σ, T, T_em)`` entries — the same algebra
:meth:`repro.slp.SLPSpannerEvaluator.preprocess` computes bottom-up over
an SLP's parse tree:

* ``σ`` composes as partial functions (``_DEAD`` absorbs),
* ``T_em`` of a pair is ``T_em_L · T_R  ∪  σ_L-pull(T_em_R)`` (the first
  emission is in the left part, or the left part runs pure and the first
  emission is in the right part),
* ``T = T_em ∪ σ`` (a run either emits or is exactly the pure run).

The combine itself is :func:`repro.kernels.bitmat.combine_rows` — the
same function the SLP wave calls — and its one product runs through
:func:`repro.kernels.bitmat.mm_rows`.  Every operation is an **exact**
boolean/integer computation (the float32 products are exact for 0/1
operands with |Q| < 2²⁴), so the combine is associative *bit-for-bit*:
any parenthesisation — the SLP's parse tree, this module's balanced
pairwise reduction, or its chunk split — packs to identical words.  That
is what lets the stream guard (:mod:`repro.stream.windowed`) compare an
SLP root entry against a fold of the raw feed, with equality to the SLP
result asserted (not hoped for) by the differential test suite.

Unlike ``preprocess`` — whose per-node Python loop is the right shape for
a *dedup-friendly* SLP DAG — a whole reduction level here is advanced
with a handful of *batched* numpy operations (one stacked
:func:`~repro.kernels.bitmat.mm_rows` product, ``take_along_axis``
gathers, word-wise unions) on ``(m, q, ·)`` arrays, with no per-entry
Python objects anywhere inside a chunk.  The batching is what pays (≥ 2×
over a scalar per-character fold, in practice ~20×,
``benchmarks/bench_parallel.py``).  No duplicate-product collapsing
happens inside a chunk — O(n·|Q|³) arithmetic instead of the SLP path's
O(|S|·|Q|³) — which is why the compressed path still wins on repetitive
documents (see ``docs/PERFORMANCE.md``).

Memory is bounded by folding in *chunks*: each chunk of
:data:`DEFAULT_CHUNK` characters is reduced to a single entry before the
next chunk is touched, so a level's working set (:func:`level_bytes`:
the float32 operands and counts ``mm_rows`` multiplies, plus the packed
rows the combine builds) is ``O(DEFAULT_CHUNK · |Q|²)`` regardless of
document length.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.bitmat import (
    BitMatrix,
    combine_rows,
    function_bits,
    mm_rows,
    words_for,
)

__all__ = [
    "DEFAULT_CHUNK",
    "char_codes",
    "combine",
    "fold_entries",
    "identity_entry",
    "level_bytes",
    "reduce_stack",
    "text_entry",
]

_DEAD = -1

#: characters folded per reduction block: bounds a level's working set at
#: ``level_bytes(DEFAULT_CHUNK/2, |Q|)`` while keeping the batched matmuls
#: large enough to amortise numpy call overhead; read at call time, and
#: the folded value does not depend on it (associativity)
DEFAULT_CHUNK = 1024

#: an entry is (σ: (q,) int64, T: BitMatrix, T_em: BitMatrix) — the same
#: triple SLPSpannerEvaluator caches per node; a *stack* is the batched
#: form (σ: (m, q) int64, T rows: (m, q, w) uint64, T_em rows: ditto)


def identity_entry(q: int):
    """The ε-document entry: σ = id, T = identity bits, T_em = ∅.

    Neutral element of :func:`combine` on both sides — folding zero
    characters must behave exactly like reading nothing."""
    sigma = np.arange(q, dtype=np.int64)
    t_em = BitMatrix(np.zeros((q, words_for(q)), dtype=np.uint64), q)
    return sigma, function_bits(sigma, q), t_em


def level_bytes(pairs: int, q: int) -> int:
    """Bytes one reduction level of *pairs* combines materialises.

    :func:`~repro.kernels.bitmat.mm_rows` unpacks both operand stacks to
    float32, multiplies them into float32 counts and masks the counts
    (three float32 and one bool ``(pairs, q, q)`` array); the combine then
    builds packed ``(pairs, q, words_for(q))`` uint64 rows (the product,
    the pulled ``T_em_R``, the new ``T_em`` and ``T``) and the new
    ``(pairs, q)`` int64 σ.  Checked against the level's measured peak
    allocation in ``tests/test_parallel.py``."""
    return pairs * q * (13 * q + 4 * words_for(q) * 8 + 8)


def _combine_level(sigmas, t_rows, t_em_rows, q: int):
    """One reduction level: combine entries (0,1), (2,3), … batched.

    An odd trailing entry is carried up unchanged — associativity makes
    the resulting parenthesisation irrelevant to the folded value."""
    m = sigmas.shape[0]
    left, right = slice(0, m - 1, 2), slice(1, m, 2)
    sigma, t_new, t_em_new = combine_rows(
        sigmas[left],
        sigmas[right],
        t_em_rows[right],
        mm_rows(t_em_rows[left], t_rows[right], q),
        q,
    )
    if m % 2:
        sigma = np.concatenate([sigma, sigmas[-1:]])
        t_new = np.concatenate([t_new, t_rows[-1:]])
        t_em_new = np.concatenate([t_em_new, t_em_rows[-1:]])
    return sigma, t_new, t_em_new


def reduce_stack(stack, q: int, budget=None):
    """Fold an entry stack down to one entry (levelwise pairwise combine).

    A :class:`~repro.util.Budget` is charged one step per combined pair
    (the same O(|Q|³)-product unit ``preprocess`` charges per fresh node)
    and ``charge_bytes`` guards each level's :func:`level_bytes`."""
    sigmas, t_rows, t_em_rows = stack
    if sigmas.shape[0] == 0:
        return identity_entry(q)
    while sigmas.shape[0] > 1:
        if budget is not None:
            pairs = sigmas.shape[0] // 2
            budget.step(pairs)
            budget.charge_bytes(level_bytes(pairs, q), what="parallel fold level")
        sigmas, t_rows, t_em_rows = _combine_level(sigmas, t_rows, t_em_rows, q)
    return (
        sigmas[0],
        BitMatrix(np.ascontiguousarray(t_rows[0]), q),
        BitMatrix(np.ascontiguousarray(t_em_rows[0]), q),
    )


def _stack_entries(entries):
    """The batched stack of a non-empty list of scalar entries."""
    return (
        np.stack([entry[0] for entry in entries]),
        np.stack([entry[1].rows for entry in entries]),
        np.stack([entry[2].rows for entry in entries]),
    )


def fold_entries(entries, q: int, budget=None):
    """Fold already-scalar entries (e.g. one per chunk) into one."""
    entries = list(entries)
    if not entries:
        return identity_entry(q)
    if len(entries) == 1:
        return entries[0]
    return reduce_stack(_stack_entries(entries), q, budget)


def combine(left, right, q: int):
    """The binary combine (exposed for tests and incremental callers)."""
    return fold_entries([left, right], q)


def char_codes(text: str) -> np.ndarray:
    """The code point of every character of *text*, as ``uint32``.

    One UTF-32 encode, no per-position Python loop.  ``"surrogatepass"``
    lets a lone surrogate (legal in a ``str``, not in UTF-32) through as
    its own code, exactly the value ``ord()`` gives it."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def text_entry(table, text: str, q: int, *, budget=None):
    """``(σ, T, T_em)`` of *text*: chunked balanced reduction.

    *table* maps every distinct character of *text* to its ``(σ, T,
    T_em)`` entry (prefetch via
    :meth:`repro.slp.SLPSpannerEvaluator.char_entries` so the fold never
    touches the locked char-table store).  Character codes
    (:func:`char_codes`) are deduplicated with ``np.unique`` into one
    stack of distinct entries; each :data:`DEFAULT_CHUNK` block of
    positions is gathered from it and reduced fully before the next is
    touched, then the per-chunk entries are folded — the value is
    independent of the chunk size (associativity), only the peak working
    set changes."""
    distinct, inverse = np.unique(char_codes(text), return_inverse=True)
    if inverse.size == 0:
        return identity_entry(q)
    sigmas, t_rows, t_em_rows = _stack_entries(
        [table[chr(code)] for code in distinct]
    )
    chunk_entries = []
    for start in range(0, inverse.size, DEFAULT_CHUNK):
        index = inverse[start : start + DEFAULT_CHUNK]
        chunk_entries.append(
            reduce_stack(
                (sigmas[index], t_rows[index], t_em_rows[index]), q, budget
            )
        )
    return fold_entries(chunk_entries, q, budget)
