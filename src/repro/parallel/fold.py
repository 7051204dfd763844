"""The associative fold kernel behind shard-parallel evaluation.

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
pairwise reduction, or a k-way shard split — packs to identical words.
That is what lets :mod:`repro.parallel` split a document into shards,
fold each shard on its own worker, and fold the shard entries on the
caller's thread, with equality to the serial result asserted (not hoped
for) by the differential test suite, and what lets the stream guard
compare an SLP root entry against a raw-feed fold.

Unlike ``preprocess`` — whose per-node Python loop is the right shape for
a *dedup-friendly* SLP DAG — a whole reduction level here is advanced
with a handful of *batched* numpy operations (stacked float32 matmul,
``take_along_axis`` gathers, word-wise unions) on ``(m, q, ·)`` arrays,
with no per-entry Python objects anywhere inside a shard.  The batching
is what pays (≥ 2× over a scalar per-character fold, in practice ~20×,
``benchmarks/bench_parallel.py``).  No duplicate-product
collapsing happens inside a shard — O(n·|Q|³) arithmetic instead of the
SLP path's O(|S|·|Q|³) — which is why the compressed path still wins on
repetitive documents (see ``docs/PERFORMANCE.md``).

Memory is bounded by folding in *chunks*: each chunk of ``chunk_size``
characters is reduced to a single entry before the next chunk is touched,
so the transient float32 working set is ``O(chunk_size · |Q|²)`` per
worker regardless of document length.
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
    "reduce_stack",
    "shard_spans",
    "text_entry",
]

_DEAD = -1

#: characters folded per reduction block: bounds each worker's transient
#: float32 stacks at ``3 · chunk/2 · |Q|² · 4`` bytes while keeping the
#: batched matmuls large enough to amortise numpy call overhead
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


def shard_spans(n: int, shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, end)`` spans covering ``[0, n)``.

    At most *shards* spans, never an empty one; sizes differ by ≤ 1 so no
    worker becomes the straggler by construction."""
    shards = max(1, min(int(shards), n)) if n else 1
    base, extra = divmod(n, shards)
    spans = []
    start = 0
    for index in range(shards):
        end = start + base + (1 if index < extra else 0)
        if end > start:
            spans.append((start, end))
        start = end
    return spans


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
    and ``charge_bytes`` guards each level's transient float32 stacks."""
    sigmas, t_rows, t_em_rows = stack
    if sigmas.shape[0] == 0:
        return identity_entry(q)
    while sigmas.shape[0] > 1:
        if budget is not None:
            pairs = sigmas.shape[0] // 2
            budget.step(pairs)
            budget.charge_bytes(
                3 * pairs * q * q * 4, what="parallel fold level"
            )
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
    """Fold already-scalar entries (e.g. one per shard) into one."""
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


def text_entry(
    table, text: str, q: int, *, chunk_size: int = DEFAULT_CHUNK, budget=None
):
    """``(σ, T, T_em)`` of one text shard: chunked balanced reduction.

    *table* maps every distinct character of *text* to its ``(σ, T,
    T_em)`` entry (prefetch via
    :meth:`repro.slp.SLPSpannerEvaluator.char_entries` so the fold never
    touches the locked char-table store).  Character codes
    (:func:`char_codes`) are deduplicated with ``np.unique`` into one
    stack of distinct entries; each ``chunk_size`` block of positions is
    gathered from it and reduced fully before the next is touched, then
    the per-chunk entries are folded — the value is independent of
    *chunk_size* (associativity), only the peak working set changes.  The
    serial loop and the process backend's workers both fold through here."""
    distinct, inverse = np.unique(char_codes(text), return_inverse=True)
    if inverse.size == 0:
        return identity_entry(q)
    sigmas, t_rows, t_em_rows = _stack_entries(
        [table[chr(code)] for code in distinct]
    )
    chunk_size = max(2, int(chunk_size))
    chunk_entries = []
    for start in range(0, inverse.size, chunk_size):
        index = inverse[start : start + chunk_size]
        chunk_entries.append(
            reduce_stack(
                (sigmas[index], t_rows[index], t_em_rows[index]), q, budget
            )
        )
    return fold_entries(chunk_entries, q, budget)
