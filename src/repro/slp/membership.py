"""Compressed NFA membership: ``D(S) ∈ L(M)`` without decompressing
(the warm-up task of Section 4.2).

For each SLP node A, a boolean |Q|×|Q| matrix ``M_A`` records from which
state which state is reachable by reading ``D(A)``; for a pair node,
``M_A = M_B · M_C`` (boolean matrix multiplication), computed bottom-up
along the DAG.  Total time ``O(|S| · |Q|^3)`` — possibly *exponentially*
faster than the ``O(|D| · |Q|^2)`` simulation on the decompressed document,
which is exactly the crossover benchmark C2 measures.

Matrices are held packed (:class:`repro.kernels.bitmat.BitMatrix`, uint64
bit-words per row) and pair products run wave-by-wave through
:func:`repro.kernels.bitmat.bool_mm_many`: all nodes of equal depth are
multiplied in one batched BLAS call, and duplicate operand pairs — the
normal case on the repetitive documents SLPs exist for — are computed
once and shared.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.automata.nfa import NFA
from repro.core.alphabet import symbol_matches
from repro.kernels.bitmat import BitMatrix, bool_mm_many, pack_vec
from repro.slp.arena_index import ArenaIndex
from repro.slp.slp import SLP

__all__ = ["CompressedMembership", "simulate_uncompressed"]


def _packed_nbytes(matrix: BitMatrix) -> int:
    return matrix.rows.nbytes


class CompressedMembership:
    """Reusable compressed-membership oracle for one NFA.

    Per-(SLP, node) matrices are memoised in an
    :class:`~repro.slp.arena_index.ArenaIndex` (``serial → node →
    matrix``), so repeated queries against the same document database —
    including documents that share subtrees — pay only for new nodes.  Fully-preprocessed roots are *sealed*: a repeat query
    on a sealed root returns without walking, and the discovery walk for a
    fresh root stops descending at any sealed child, so after an append or
    CDE edit only the O(fresh + log n) frontier is visited.  This is the
    incremental behaviour needed after CDE updates ([40]): an edit creates
    O(log |D|) fresh nodes, and only those get new matrices.
    """

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa.remove_epsilon()
        self.num_states = self.nfa.num_states
        self._char_matrices: dict[str, BitMatrix] = {}
        #: the node cache: serial -> node -> packed matrix, with sealed roots
        self.index = ArenaIndex(_packed_nbytes)
        self._initial_rows = np.array(sorted(self.nfa.initial), dtype=np.int64)
        accepting = np.zeros(self.num_states, dtype=bool)
        for state in self.nfa.accepting:
            accepting[state] = True
        self._accepting_words = pack_vec(accepting)

    def cached_nodes(self, serial: int | None = None) -> int:
        """How many node matrices are cached — for one arena, or overall."""
        return self.index.cached_nodes(serial)

    def is_sealed(self, slp: SLP, node: int) -> bool:
        """Whether *node*'s entire subtree is known cached (O(1))."""
        return self.index.is_sealed(slp, node)

    # ------------------------------------------------------------------
    def char_matrix(self, ch: str) -> np.ndarray:
        """The one-character transition matrix (bool, |Q|×|Q|)."""
        return self._char_bitmatrix(ch).to_bool()

    def _char_bitmatrix(self, ch: str) -> BitMatrix:
        matrix = self._char_matrices.get(ch)
        if matrix is None:
            dense = np.zeros((self.num_states, self.num_states), dtype=bool)
            for source in self.nfa.states():
                for symbol, target in self.nfa.arcs_from(source):
                    if symbol is not None and symbol_matches(symbol, ch):
                        dense[source, target] = True
            matrix = BitMatrix.from_bool(dense)
            self._char_matrices[ch] = matrix
        return matrix

    def node_matrix(self, slp: SLP, node: int) -> np.ndarray:
        """The reachability matrix of ``D(node)`` as a bool array (a dense
        view of the packed form :meth:`node_bitmatrix` keeps cached)."""
        return self.node_bitmatrix(slp, node).to_bool()

    def node_bitmatrix(self, slp: SLP, node: int) -> BitMatrix:
        """The packed reachability matrix of ``D(node)``, bottom-up with
        memo; fresh pair nodes multiply as depth-waves through the batched,
        duplicate-collapsing kernel.

        A sealed root returns its matrix with zero walk; otherwise the
        discovery walk (:meth:`SLP.frontier`) prunes at sealed children,
        and everything it visited is sealed afterwards so the next append
        only pays for its own spine.

        With :mod:`repro.obs` enabled, memo effectiveness and kernel time
        are recorded (``slp.membership.cache_hits`` / ``.cache_misses`` /
        ``.sealed_hits`` / ``.kernel_ns``) — once per call, not per node."""
        index = self.index
        observing = obs.enabled()
        if index.is_sealed(slp, node):
            if observing:
                registry = obs.metrics()
                registry.counter("slp.membership.sealed_hits").inc()
                registry.counter("slp.membership.cache_hits").inc()
            return index.node_entry(slp, node)
        t0 = time.perf_counter_ns() if observing else 0
        # One intern pool per pass: equal matrices from different subtrees
        # become one object, so later waves collapse them by identity.
        intern: dict = {}
        fresh_entries, walked, _ = index.compute(
            slp,
            node,
            self._char_bitmatrix,
            lambda operands, _wave: bool_mm_many(operands, intern=intern),
        )
        fresh = index.merge(slp, fresh_entries)
        index.seal(slp, walked)
        if observing:
            registry = obs.metrics()
            registry.counter("slp.membership.cache_misses").inc(fresh)
            registry.counter("slp.membership.cache_hits").inc(len(walked) - fresh)
            registry.counter("slp.membership.kernel_ns").inc(
                time.perf_counter_ns() - t0
            )
        return index.node_entry(slp, node)

    def accepts(self, slp: SLP, node: int) -> bool:
        """Decide ``D(node) ∈ L(M)`` in O(new nodes · |Q|^3)."""
        matrix = self.node_bitmatrix(slp, node)
        if not len(self._initial_rows) or not self.nfa.accepting:
            return False
        return bool(
            (matrix.rows[self._initial_rows] & self._accepting_words).any()
        )


def simulate_uncompressed(nfa: NFA, doc: str) -> bool:
    """The baseline: classical O(|D| · |Q|^2) NFA simulation."""
    return nfa.accepts(doc)
