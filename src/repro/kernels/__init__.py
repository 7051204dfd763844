"""Boolean linear-algebra kernels and the shared query-plan cache.

The survey's speed guarantees — O(|S|·|Q|³) compressed preprocessing
([39]), O(|X|) delay ([10], [2]) — all reduce to boolean reachability
matrices over the deterministic automaton's state set Q.  This package is
the dependency-light layer those matrices live on:

* :mod:`repro.kernels.bitmat` — |Q|×|Q| boolean matrices packed into
  uint64 bit-words (:class:`BitMatrix`) and the primitives every consumer
  is wired onto: the one product over packed row stacks (:func:`mm_rows`)
  behind the boolean matrix product (:func:`bool_mm`) and the
  wave-batched, duplicate-collapsing product (:func:`bool_mm_many`), the
  one ``(σ, T, T_em)`` combine (:func:`combine_rows`), mat-vec against
  an int-bitset continuation vector (:func:`matvec`), and σ-scatter
  (:func:`function_bits`).
* :mod:`repro.kernels.plan` — a bounded, thread-safe LRU cache from
  spanner source text to its compiled plan (deterministic eVA + shared
  evaluator), with byte accounting through :class:`repro.util.Budget`
  and hit/miss/eviction counters in :mod:`repro.obs`.

Everything here depends only on numpy and the library's own util/obs
layers — no new third-party dependencies.
"""

from repro.kernels.bitmat import (
    BitMatrix,
    bool_mm,
    bool_mm_many,
    combine_rows,
    function_bits,
    function_bits_many,
    intern_many,
    intern_matrix,
    matvec,
    mm_rows,
    pack_rows,
    pack_vec,
    unpack_rows,
    unpack_vec,
    words_for,
)
from repro.kernels.plan import (
    CompiledPlan,
    PlanCache,
    configure_plan_cache,
    plan_cache,
)

__all__ = [
    "BitMatrix",
    "CompiledPlan",
    "PlanCache",
    "bool_mm",
    "bool_mm_many",
    "combine_rows",
    "configure_plan_cache",
    "function_bits",
    "function_bits_many",
    "intern_many",
    "intern_matrix",
    "matvec",
    "mm_rows",
    "pack_rows",
    "pack_vec",
    "plan_cache",
    "unpack_rows",
    "unpack_vec",
    "words_for",
]
