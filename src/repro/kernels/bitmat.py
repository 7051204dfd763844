"""Packed-bitset boolean matrices: the evaluation kernels.

A |Q|×|Q| boolean reachability matrix is stored as ``ceil(Q/64)`` uint64
words per row (``numpy.packbits`` layout, little bit order) and nothing
else: a :class:`BitMatrix` is its packed rows and its column count.  Row
operations — union, single-bit σ-scatter — are a handful of word-wide
numpy operations.  Continuation vectors are plain Python-int bitsets (bit
*s* is state *s*): :func:`matvec` is the one product between the two
forms, and the enumeration descent memoises its results, so its own
tests are int shifts and masks with no numpy at all.

Products go through BLAS in exactly one place, :func:`mm_rows`: a stack
of packed operand pairs is unpacked, multiplied with one float32 matmul
(exact for 0/1 matrices with |Q| < 2²⁴), clamped and packed again.  No
dense form outlives the call, so there is no mirror to keep warm or to
drop.  Around it:

* :func:`bool_mm_many` multiplies a whole *wave* of independent SLP nodes
  in one :func:`mm_rows` call after collapsing duplicate operand pairs —
  on repetitive documents (the reason SLPs exist) most of a wave's
  products are verbatim repeats of each other and are computed once;
* :func:`combine_rows` is the one ``(σ, T, T_em)`` combine: the SLP wave
  (:mod:`repro.slp.spanner_eval`) and the text fold
  (:mod:`repro.parallel.fold`) both call it, which is why their entries
  agree bit for bit.

Duplicate collapsing is a two-tier scheme.  Within a wave, operand pairs
are grouped by *object identity* — a dict lookup per pair, no hashing of
matrix content on the hot path.  Identity grouping alone would miss
equal-content matrices produced by different subtrees, so every distinct
result can be pushed through an *intern pool* (the ``intern`` argument)
keyed by exact content ``(rows.shape, rows.tobytes())``.  Because SLP
waves are processed level by level, interning a result at level ``k``
canonicalises it before any level ``k+1`` pair references it — so
identity grouping downstream captures exactly the duplicates content
hashing would.
"""

from __future__ import annotations

import numpy as np

from repro import obs

__all__ = [
    "BitMatrix",
    "bool_mm",
    "bool_mm_many",
    "combine_rows",
    "function_bits",
    "function_bits_many",
    "intern_many",
    "intern_matrix",
    "matvec",
    "mm_rows",
    "pack_rows",
    "pack_vec",
    "unpack_rows",
    "unpack_vec",
    "words_for",
]

WORD_BITS = 64
# Above this |Q|, numpy's stacked (3-D) matmul stops beating a python
# loop of 2-D BLAS GEMMs (measured crossover ≈ 128–160 on this class of
# hardware), and the batch's float32 working set starts to thrash cache.
_BATCH_MM_MAX_Q = 128


def words_for(bits: int) -> int:
    """How many uint64 words hold *bits* bits (at least one)."""
    return max(1, (int(bits) + WORD_BITS - 1) // WORD_BITS)


def pack_rows(bools: np.ndarray) -> np.ndarray:
    """Pack a (..., q) bool array into (..., words_for(q)) uint64 words."""
    q = bools.shape[-1]
    w = words_for(q)
    packed8 = np.packbits(bools, axis=-1, bitorder="little")
    pad = w * 8 - packed8.shape[-1]
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros(packed8.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed8).view(np.uint64)


def _unpack_bits(packed: np.ndarray, q: int) -> np.ndarray:
    """(..., w) uint64 words to (..., q) uint8 0/1 values."""
    return np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8),
        axis=-1,
        count=q,
        bitorder="little",
    )


def unpack_rows(packed: np.ndarray, q: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (..., w) uint64 back to (..., q) bool."""
    return _unpack_bits(packed, q).astype(bool)


def pack_vec(bools: np.ndarray) -> np.ndarray:
    """Pack a (q,) bool vector into (words_for(q),) uint64 words."""
    return pack_rows(bools.reshape(1, -1))[0]


def unpack_vec(words: np.ndarray, q: int) -> np.ndarray:
    return unpack_rows(words.reshape(1, -1), q)[0]


class BitMatrix:
    """An n×q boolean matrix held as packed uint64 rows.

    ``rows`` — shape (n, words_for(q)) — is the only representation;
    :meth:`to_bool` unpacks a fresh copy on demand.  Instances are
    treated as immutable once built; sharing one object between duplicate
    wave entries or cache hits is always safe.
    """

    __slots__ = ("q", "rows")

    def __init__(self, rows: np.ndarray, q: int) -> None:
        self.q = int(q)
        self.rows = rows

    @classmethod
    def from_bool(cls, matrix: np.ndarray) -> "BitMatrix":
        matrix = np.asarray(matrix, dtype=bool)
        return cls(pack_rows(matrix), matrix.shape[-1])

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident footprint: the packed words."""
        return self.rows.nbytes

    def to_bool(self) -> np.ndarray:
        return unpack_rows(self.rows, self.q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitMatrix({self.n}x{self.q}, words={self.rows.shape[-1]})"


# ----------------------------------------------------------------------
# products and the (σ, T, T_em) combine
# ----------------------------------------------------------------------
def mm_rows(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Boolean products ``a[k] @ b[k]`` of two packed row stacks.

    *a* is (m, n, ·) and *b* is (m, k, words_for(q)) uint64, with k the
    inner dimension; the result is (m, n, words_for(q)).  Both stacks are
    unpacked, multiplied as float32 counts (exact for 0/1 operands),
    clamped to 0/1 and packed — every packed product runs through here."""
    a32 = _unpack_bits(a, b.shape[-2]).astype(np.float32)
    b32 = _unpack_bits(b, q).astype(np.float32)
    if len(a32) > 1 and q <= _BATCH_MM_MAX_Q:
        counts = np.matmul(a32, b32)
    else:
        # Above the crossover, per-slice 2-D products hit the tuned BLAS
        # GEMM path (numpy's stacked matmul does not); clamping and
        # packing still happen once for the whole stack below.
        counts = np.empty(a32.shape[:-1] + (q,), dtype=np.float32)
        for k in range(len(a32)):
            np.matmul(a32[k], b32[k], out=counts[k])
    return pack_rows(counts > 0)


def bool_mm(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Boolean matrix product ``a @ b`` (exact)."""
    if obs.enabled():
        obs.metrics().counter("kernels.mm").inc()
    return BitMatrix(mm_rows(a.rows[None], b.rows[None], b.q)[0], b.q)


def intern_matrix(pool: dict, matrix: BitMatrix) -> BitMatrix:
    """Canonicalise *matrix* against *pool* by exact content.

    Returns the pooled object whose packed rows equal *matrix*'s (same
    shape, same words), otherwise registers *matrix* and returns it."""
    return pool.setdefault((matrix.rows.shape, matrix.rows.tobytes()), matrix)


def intern_many(pool: dict, matrices: list[BitMatrix]) -> list[BitMatrix]:
    """:func:`intern_matrix` over a batch, in order."""
    return [intern_matrix(pool, matrix) for matrix in matrices]


def bool_mm_many(
    pairs: list[tuple[BitMatrix, BitMatrix]],
    intern: dict | None = None,
) -> list[BitMatrix]:
    """Product of every (A, B) pair — one :func:`mm_rows` call per wave.

    Pairs whose operands are the *same objects* are computed once and
    share one result.  With an ``intern`` pool (a plain dict the caller
    keeps for the duration of one preprocessing pass), each distinct
    result is additionally canonicalised by content, so equal matrices
    produced by different subtrees become one object — which is what
    makes the identity grouping catch them in every later wave.
    """
    m = len(pairs)
    if m == 0:
        return []
    group_of: dict[tuple[int, int], int] = {}
    distinct: list[tuple[BitMatrix, BitMatrix]] = []
    inverse: list[int] = []
    for ab in pairs:
        ident = (id(ab[0]), id(ab[1]))
        g = group_of.get(ident)
        if g is None:
            g = len(distinct)
            group_of[ident] = g
            distinct.append(ab)
        inverse.append(g)
    d = len(distinct)
    if obs.enabled():
        registry = obs.metrics()
        registry.counter("kernels.mm").inc(d)
        registry.counter("kernels.mm_collapsed").inc(m - d)
    q = distinct[0][1].q
    rows = mm_rows(
        np.stack([a.rows for a, _ in distinct]),
        np.stack([b.rows for _, b in distinct]),
        q,
    )
    results = [BitMatrix(rows[k], q) for k in range(d)]
    if intern is not None:
        fresh = results
        results = intern_many(intern, fresh)
        interned = sum(a is not b for a, b in zip(results, fresh))
        if interned and obs.enabled():
            obs.metrics().counter("kernels.mm_interned").inc(interned)
    return [results[g] for g in inverse]


def combine_rows(
    sig_l: np.ndarray,
    sig_r: np.ndarray,
    t_em_r: np.ndarray,
    product: np.ndarray,
    q: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(σ, T, T_em)`` entries of a batch of pairs (L, R).

    *sig_l*, *sig_r* are (m, q) int64 partial functions (-1, the dead
    state, absorbs), *t_em_r* is R's T_em row stack (m, q, w) and
    *product* the rows of ``T_em_L · T_R`` (from :func:`mm_rows` or
    :func:`bool_mm_many`).
    Returns ``(σ, T rows, T_em rows)`` with

    * ``σ = σ_R ∘ σ_L``;
    * ``T_em = T_em_L · T_R ∪ σ_L-pull(T_em_R)`` — the first emission is
      in L, or L runs pure and the first emission is in R;
    * ``T = T_em ∪ σ`` — a run either emits or is exactly the pure run,
      which saves the second matrix product.

    Every step is exact, so the combine is associative bit for bit: any
    parenthesisation of the same document packs to identical words."""
    dead_l = sig_l == -1
    index = np.where(dead_l, 0, sig_l)
    sigma = np.where(dead_l, -1, np.take_along_axis(sig_r, index, axis=1))
    pulled = np.take_along_axis(t_em_r, index[:, :, None], axis=1)
    pulled[dead_l] = 0
    t_em = product | pulled
    return sigma, t_em | function_bits_many(sigma, q), t_em


def matvec(a: BitMatrix, cont: int) -> int:
    """Boolean ``a @ cont`` on an int bitset: bit *s* of the result is set
    when row *s* of *a* intersects the state set *cont* (bit *t* = state
    *t*, so ``cont < 2**a.q``)."""
    words = np.frombuffer(
        cont.to_bytes(8 * a.rows.shape[-1], "little"), dtype=np.uint64
    )
    hits = np.packbits((a.rows & words).any(axis=1), bitorder="little")
    return int.from_bytes(hits.tobytes(), "little")


def function_bits(sigma: np.ndarray, q: int, dead: int = -1) -> BitMatrix:
    """The partial function σ as a packed relation: bit σ[s] set in row s."""
    w = words_for(q)
    rows = np.zeros((len(sigma), w), dtype=np.uint64)
    valid = np.nonzero(sigma != dead)[0]
    targets = sigma[valid]
    rows[valid, targets // WORD_BITS] = np.uint64(1) << (
        targets % WORD_BITS
    ).astype(np.uint64)
    return BitMatrix(rows, q)


def function_bits_many(sigmas: np.ndarray, q: int, dead: int = -1) -> np.ndarray:
    """Batched :func:`function_bits`: (m, n) σ stack → (m, n, w) packed rows."""
    m, n = sigmas.shape
    w = words_for(q)
    rows = np.zeros((m, n, w), dtype=np.uint64)
    batch, source = np.nonzero(sigmas != dead)
    targets = sigmas[batch, source]
    rows[batch, source, targets // WORD_BITS] = np.uint64(1) << (
        targets % WORD_BITS
    ).astype(np.uint64)
    return rows
