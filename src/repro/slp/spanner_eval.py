"""Regular spanner evaluation over SLP-compressed documents
(paper Section 4.2; Schmid & Schweikardt [39], updates as in [40]).

The algorithm generalises the compressed membership test: for a
*deterministic* extended vset-automaton with state set Q and every SLP node
A we precompute

* ``σ_A`` — the *pure* transition function: the state reached by reading
  ``D(A)`` with **no** marker emissions (a partial function Q → Q, because
  the automaton is deterministic over characters);
* ``T_A`` — the boolean reachability matrix allowing arbitrary marker
  emissions inside ``D(A)`` (one block per position, the left boundary
  owned by A, the right boundary by A's context); for a pair node
  ``T_A = T_B · T_C`` exactly as in the membership warm-up.

Preprocessing is ``O(|S| · |Q|^3)`` — linear in the *compressed* size, the
[39] bound.  Enumeration then walks the DAG top-down: marker-free stretches
are skipped wholesale through ``σ``, the recursion only descends towards
positions where an emission that can still reach acceptance happens
(pruned with ``T``-matrix/continuation-vector products), and each output
tuple therefore costs ``O(depth · |Q|^2)`` — i.e. **O(log |D|) delay** on
balanced SLPs, independent of the compressibility of the document.

All matrices live on :mod:`repro.kernels.bitmat`: σ stays an int64 pure
transition function, while ``T`` and ``T_em`` are packed
:class:`~repro.kernels.bitmat.BitMatrix` rows.  Three facts make this fast:

* ``T = T_em ∪ σ`` — a run either emits at least one marker (``T_em``) or
  none (exactly the σ bit), so only *one* product per pair node is needed
  where the seed computed two;
* pair nodes of equal depth are independent, so preprocessing multiplies
  them as one *wave* through :func:`~repro.kernels.bitmat.bool_mm_many`,
  which batches the BLAS call and collapses duplicate operand pairs
  (repetitive documents — the reason SLPs exist — repeat most products
  verbatim), and finishes the wave with the one batched ``(σ, T, T_em)``
  combine, :func:`~repro.kernels.bitmat.combine_rows`, that the text
  fold of :mod:`repro.parallel.fold` uses too;
* enumeration never touches numpy on a warm path: continuation vectors
  are Python-int bitsets, the descent's products against ``T`` and
  ``T_em`` are memoised per (node, continuation) beside the node cache,
  and every pruning test is an int shift and mask.

Because matrices are memoised per node and CDE editing only creates
O(|φ| · log d) fresh nodes (sharing the rest), evaluating a spanner on an
edited document only pays for the fresh nodes — the dynamic behaviour of
[40] (experiment C4).  *Discovery* is incremental too: fully preprocessed
roots are **sealed**, a repeat query on a sealed root skips the
topological walk entirely (O(1)), and an unsealed root's walk stops at
sealed children — so after an edit or append even *finding* the fresh
nodes costs O(fresh + log n), never a full-document rescan (the
``slp.eval.walk_visited`` / ``walk_skipped`` / ``sealed_hits`` counters
make this measurable, benchmark DYN1/DYN2).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro import obs
from repro.automata.evset import DeterministicEVA, ExtendedVSetAutomaton
from repro.core.spans import SpanRelation, SpanTuple
from repro.enumeration.naive import emissions_to_tuple
from repro.kernels.bitmat import (
    BitMatrix,
    bool_mm,
    bool_mm_many,
    combine_rows,
    function_bits,
    intern_matrix,
    matvec,
)
from repro.obs.profile import DelayProfiler
from repro.slp.arena_index import ArenaIndex
from repro.slp.slp import SLP

__all__ = ["SLPSpannerEvaluator"]

_DEAD = -1

#: bound on per-automaton cached characters (LRU) — generous for text
#: alphabets, hard cap for adversarial unicode streams
_CHAR_TABLE_LIMIT = 512


class _CharTableStore:
    """Per-automaton char tables: bounded LRU, shared between evaluators.

    One store exists per :class:`DeterministicEVA` *instance* (see
    :func:`_char_table_store`); every evaluator compiled from that
    automaton reads the same tables, so N evaluators pay for each
    character once instead of N times, and the LRU bound stops an
    adversarial alphabet from growing the cache without limit.  Holds the
    automaton's *components* (not the automaton itself) so the registry's
    weak keying can still collect the automaton."""

    __slots__ = ("q", "atoms", "char_trans", "mark_e", "_tables", "_lock")

    def __init__(self, det: DeterministicEVA) -> None:
        q = det.num_states
        self.q = q
        self.atoms = det.atoms
        self.char_trans = det.char_trans
        mark_e = np.zeros((q, q), dtype=bool)
        for state in range(q):
            for target in det.set_trans[state].values():
                mark_e[state, target] = True
        self.mark_e = BitMatrix.from_bool(mark_e)
        self._tables: OrderedDict[
            str, tuple[np.ndarray, BitMatrix, BitMatrix]
        ] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, ch: str) -> tuple[np.ndarray, BitMatrix, BitMatrix]:
        """(σ, T, T_em) for a single character."""
        with self._lock:
            cached = self._tables.get(ch)
            if cached is not None:
                self._tables.move_to_end(ch)
                return cached
            q = self.q
            sigma = np.full(q, _DEAD, dtype=np.int64)
            atom = self.atoms.classify(ch)
            if atom is not None:
                for state in range(q):
                    target = self.char_trans[state].get(atom)
                    if target is not None:
                        sigma[state] = target
            step = function_bits(sigma, q)
            # T = Mark1 · step = (I ∪ MarkE) · step = step ∪ T_em
            t_em = bool_mm(self.mark_e, step)
            t = BitMatrix(t_em.rows | step.rows, q)
            entry = (sigma, t, t_em)
            self._tables[ch] = entry
            while len(self._tables) > _CHAR_TABLE_LIMIT:
                self._tables.popitem(last=False)
            return entry

    def nbytes(self) -> int:
        with self._lock:
            return sum(
                sigma.nbytes + t.rows.nbytes + t_em.rows.nbytes
                for sigma, t, t_em in self._tables.values()
            )


_char_table_stores: "weakref.WeakKeyDictionary[DeterministicEVA, _CharTableStore]"
_char_table_stores = weakref.WeakKeyDictionary()
_char_table_stores_lock = threading.Lock()


def _char_table_store(det: DeterministicEVA) -> _CharTableStore:
    with _char_table_stores_lock:
        store = _char_table_stores.get(det)
        if store is None:
            store = _CharTableStore(det)
            _char_table_stores[det] = store
        return store


def _entry_nbytes(entry: tuple[np.ndarray, BitMatrix, BitMatrix]) -> int:
    sigma, t, t_em = entry
    return sigma.nbytes + t.rows.nbytes + t_em.rows.nbytes


class SLPSpannerEvaluator:
    """Compressed evaluation of one regular spanner over SLP documents."""

    def __init__(self, spanner) -> None:
        if isinstance(spanner, DeterministicEVA):
            det = spanner
        elif isinstance(spanner, ExtendedVSetAutomaton):
            det = spanner.determinize()
        else:
            det = ExtendedVSetAutomaton.from_vset(spanner).determinize()
        self.det = det
        q = det.num_states
        #: char tables are shared per deterministic automaton (bounded LRU)
        self._char_tables_cache = _char_table_store(det)
        #: state sets are int bitsets: bit s stands for state s
        self._accepting = sum(1 << state for state in set(det.accepting))
        # trailing continuation: accept directly or via one final block
        self._cont_end = self._accepting | sum(
            1 << state
            for state in range(q)
            if any(
                self._accepting >> target & 1
                for target in det.set_trans[state].values()
            )
        )
        #: the node cache: serial -> node -> (σ, T, T_em), where T_em only
        #: counts runs with at least one marker emission (the enumeration
        #: pruning matrix), with sealed roots and per-arena resident bytes
        self.index = ArenaIndex(_entry_nbytes)

    # ------------------------------------------------------------------
    # matrices
    # ------------------------------------------------------------------
    def char_entries(
        self, chars
    ) -> dict[str, tuple[np.ndarray, BitMatrix, BitMatrix]]:
        """``{ch: (σ, T, T_em)}`` for every distinct character of *chars*.

        Prefetches through the shared per-automaton store — one lock
        acquisition per *distinct* character — so the text fold of
        :mod:`repro.parallel` reads a plain dict instead of taking the
        store lock once per document position."""
        return {ch: self._char_tables_cache.get(ch) for ch in set(chars)}

    def preprocess(self, slp: SLP, node: int, budget=None) -> int:
        """Compute (σ, T, T_em) for every reachable node; returns the number
        of *fresh* nodes processed (0 when everything was already cached).

        An optional :class:`~repro.util.Budget` is charged one step per
        fresh node (each step is an O(|Q|³) matrix product).

        Discovery is **incremental**: a repeat call on a *sealed* root
        (one whose whole subtree is cached) returns in O(1) without any
        walk, and an unsealed root's discovery walk stops at sealed
        children — after a CDE edit or append (which only allocate fresh
        arena nodes) the walk visits O(fresh + log n) nodes, never the
        whole document.

        Fresh pair nodes are grouped into *waves* of equal depth (all
        operands already computed) and each wave's products run as one
        batched, duplicate-collapsing kernel call —
        :func:`repro.kernels.bitmat.bool_mm_many`.  Only ``T_em`` is ever
        multiplied: ``T = T_em ∪ σ`` recovers the full reachability matrix
        as a word-level union.

        With :mod:`repro.obs` enabled, cache effectiveness
        (``slp.eval.cache_hits`` / ``slp.eval.cache_misses``), discovery
        cost (``slp.eval.walk_visited`` / ``slp.eval.walk_skipped`` /
        ``slp.eval.sealed_hits``) and the time spent in the matrix kernel
        (``slp.eval.kernel_ns``) are recorded — the instrumentation runs
        once per call, outside the node loop."""
        observing = obs.enabled()
        index = self.index
        if index.is_sealed(slp, node):
            # sealed root: everything reachable is cached — no walk at all
            if observing:
                registry = obs.metrics()
                registry.counter("slp.eval.sealed_hits").inc()
                registry.counter("slp.eval.cache_hits").inc()
            return 0
        t0 = time.perf_counter_ns() if observing else 0
        # One intern pool per pass: node matrices that come out equal
        # (different subtrees, same behaviour) become one object, so the
        # identity grouping inside bool_mm_many collapses every later
        # wave's repeated products.  Likewise nodes with identical
        # (σ, T, T_em) share one tuple object, which is what makes the
        # node-level grouping collapse duplicate nodes in *later* waves.
        intern: dict = {}
        entry_pool: dict = {}
        fresh_entries, walked, skipped = index.compute(
            slp,
            node,
            self._char_tables_cache.get,
            lambda operands, _wave: self._combine_wave(operands, intern, entry_pool),
            budget,
        )
        fresh = index.merge(slp, fresh_entries)
        index.seal(slp, walked)
        if observing:
            registry = obs.metrics()
            registry.counter("slp.eval.cache_misses").inc(fresh)
            registry.counter("slp.eval.cache_hits").inc(len(walked) - fresh)
            registry.counter("slp.eval.walk_visited").inc(len(walked))
            registry.counter("slp.eval.walk_skipped").inc(skipped)
            registry.counter("slp.eval.kernel_ns").inc(
                time.perf_counter_ns() - t0
            )
        return fresh

    def seal_subtree(self, slp: SLP, node: int) -> bool:
        """Walk *node*'s unsealed frontier and seal every subtree whose
        entries are fully cached; returns whether *node* itself is sealed."""
        return self.index.seal_subtree(slp, node)

    def is_sealed(self, slp: SLP, node: int) -> bool:
        """Is *node*'s entire subtree cached (the O(1) repeat path)?"""
        return self.index.is_sealed(slp, node)

    def sealed_nodes(self, serial: int | None = None) -> int:
        """How many nodes are sealed, in one arena or overall."""
        return self.index.sealed_nodes(serial)

    def _combine_wave(
        self, operands: list[tuple], intern: dict, entry_pool: dict
    ) -> list[tuple]:
        """One wave's per-node (σ, T, T_em) from its operand entry pairs."""
        q = self.det.num_states
        # Node-level identity dedup: two nodes whose operand entries are
        # the same objects (the normal case once matrices are interned)
        # get one computed (σ, T, T_em), and every batched step below runs
        # on distinct groups only.
        group_of: dict[tuple[int, int], int] = {}
        node_group: list[int] = []
        distinct_l: list[tuple] = []
        distinct_r: list[tuple] = []
        for entry_l, entry_r in operands:
            ident = (id(entry_l), id(entry_r))
            g = group_of.get(ident)
            if g is None:
                g = len(distinct_l)
                group_of[ident] = g
                distinct_l.append(entry_l)
                distinct_r.append(entry_r)
            node_group.append(g)
        pairs = zip(distinct_l, distinct_r)
        products = bool_mm_many(
            [(entry_l[2], entry_r[1]) for entry_l, entry_r in pairs], intern=intern
        )
        sigma_all, t_rows, t_em_rows = combine_rows(
            np.stack([entry_l[0] for entry_l in distinct_l]),
            np.stack([entry_r[0] for entry_r in distinct_r]),
            np.stack([entry_r[2].rows for entry_r in distinct_r]),
            np.stack([product.rows for product in products]),
            q,
        )
        entries = []
        for k in range(len(distinct_l)):
            t_em = intern_matrix(intern, BitMatrix(t_em_rows[k], q))
            t = intern_matrix(intern, BitMatrix(t_rows[k], q))
            ekey = (id(t), id(t_em), sigma_all[k].tobytes())
            entry = entry_pool.get(ekey)
            if entry is None:
                entry = (sigma_all[k], t, t_em)
                entry_pool[ekey] = entry
            entries.append(entry)
        return [entries[g] for g in node_group]

    def cached_nodes(self, serial: int | None = None) -> int:
        """How many (SLP node → matrices) entries are cached, in one arena
        or overall."""
        return self.index.cached_nodes(serial)

    def node_entry(self, slp: SLP, node: int):
        """The cached ``(σ, T, T_em)`` entry for one node, or ``None``."""
        return self.index.node_entry(slp, node)

    def cache_bytes(self) -> int:
        """Resident bytes of packed node matrices plus shared char tables."""
        return self.index.total_bytes + self._char_tables_cache.nbytes()

    def arena_cache_stats(self, serial: int) -> dict:
        """``{"entries", "bytes", "sealed", "memo"}`` for one arena, in
        O(1) — what :meth:`repro.db.SpannerDB.stats` reports per spanner.
        ``bytes`` counts the (σ, T, T_em) entries; ``memo`` is the number
        of memoised continuation products of :meth:`enumerate`."""
        return self.index.arena_cache_stats(serial)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_nonempty(self, slp: SLP, node: int, budget=None) -> bool:
        """``⟦M⟧(D(node)) ≠ ∅`` without decompression: one T-product chain."""
        self.preprocess(slp, node, budget)
        return self.entry_is_nonempty(self.index.node_entry(slp, node))

    def entry_is_nonempty(self, entry) -> bool:
        """Does a whole-document ``(σ, T, T_em)`` entry admit any accepted
        run?  Same test as :meth:`is_nonempty`, for entries produced
        outside the node cache (e.g. the text fold of
        :func:`repro.parallel.text_entry`)."""
        _, T, _ = entry
        return bool(matvec(T, self._cont_end) >> self.det.initial & 1)

    def enumerate(self, slp: SLP, node: int, budget=None) -> Iterator[SpanTuple]:
        """Enumerate ``⟦M⟧(D(node))`` with delay O(depth · |Q|^2).

        When a :class:`~repro.util.Budget` is given, one step is charged
        per DAG descent, so a deadline or step limit terminates even the
        enumeration of an exponentially long document cleanly.

        With :mod:`repro.obs` enabled, per-tuple delays land in the
        ``slp.eval.delay_ns`` histogram under an ``slp.eval.enumerate``
        span (the O(log |D|)-delay claim, measured)."""
        stream = self._enumerate_impl(slp, node, budget)
        if not obs.enabled():
            yield from stream
            return
        profiler = DelayProfiler(obs.metrics().histogram("slp.eval.delay_ns"))
        with obs.tracer().span("slp.eval.enumerate", doc_length=slp.length(node)):
            yield from profiler.wrap(stream)

    def _enumerate_impl(self, slp: SLP, node: int, budget=None) -> Iterator[SpanTuple]:
        self.preprocess(slp, node, budget)
        det = self.det
        n = slp.length(node)
        sigma_root, _, _ = self.index.node_entry(slp, node)

        accepting = self._accepting

        def trailing(q_out: int, emissions: tuple) -> Iterator[tuple]:
            if accepting >> q_out & 1:
                yield emissions
            for block, target in det.set_trans[q_out].items():
                if accepting >> target & 1:
                    yield emissions + tuple((n + 1, m) for m in block)

        # pure run over the whole document
        q_end = int(sigma_root[det.initial])
        if q_end != _DEAD:
            yield from map(emissions_to_tuple, trailing(q_end, ()))
        # runs with at least one emission strictly inside (or at the left
        # boundary of) the document
        for q_out, emissions in self._runs(
            slp, node, det.initial, 0, self._cont_end, budget
        ):
            yield from map(emissions_to_tuple, trailing(q_out, emissions))

    def evaluate(self, slp: SLP, node: int, budget=None) -> SpanRelation:
        return SpanRelation(
            self.det.variables, self.enumerate(slp, node, budget)
        )

    # ------------------------------------------------------------------
    # decompressed fallback (the degraded path of repro.serve)
    # ------------------------------------------------------------------
    def evaluate_text(self, text: str, budget=None) -> SpanRelation:
        """Evaluate the *same* spanner on raw, decompressed text.

        Backward dynamic programming over the deterministic eVA and the
        plain string — no SLP, no per-node matrix cache, no shared state.
        This is the graceful-degradation path of :mod:`repro.serve`: when
        the circuit breaker trips on the compressed evaluator, queries are
        answered from the decompressed document instead.  Results are
        tuple-for-tuple identical to :meth:`evaluate` (asserted by the
        differential fuzz suite); the price is O(|D| · |Q|) work instead
        of O(log |D|) delay — latency, not correctness.

        A :class:`~repro.util.Budget` is charged ``|Q|`` steps per
        document position, and — because the suffix-set layers are the
        memory hazard of this path — each materialised layer's size is
        charged through ``Budget.charge_bytes``, so a memory budget
        governs this path exactly like the compressed one.  Layers are
        sparse dicts: states with no surviving continuation are pruned
        instead of carrying empty sets across the whole document."""
        det = self.det
        q = det.num_states
        n = len(text)

        def charge(layer: dict[int, set]) -> None:
            if budget is None:
                return
            suffixes = sum(len(sets) for sets in layer.values())
            emissions = sum(
                len(suffix) for sets in layer.values() for suffix in sets
            )
            # dict/set/frozenset overhead dominates the 16-byte span pairs
            budget.charge_bytes(
                64 * suffixes + 16 * emissions, what="evaluate_text layer"
            )

        def with_blocks(after_block: dict[int, set], position: int) -> dict[int, set]:
            # prepend the optional marker block at *position* (1-based)
            full = {state: set(sets) for state, sets in after_block.items()}
            for state in range(q):
                additions = None
                for block, target in det.set_trans[state].items():
                    suffixes = after_block.get(target)
                    if not suffixes:
                        continue
                    emitted = frozenset((position, m) for m in block)
                    if additions is None:
                        additions = set()
                    additions.update(emitted | suffix for suffix in suffixes)
                if additions:
                    full.setdefault(state, set()).update(additions)
            return full

        after_block: dict[int, set] = {
            state: {frozenset()}
            for state in range(q)
            if self._accepting >> state & 1
        }
        full = with_blocks(after_block, n + 1)
        charge(full)
        for position in range(n - 1, -1, -1):
            if budget is not None:
                budget.step(q)
            atom = det.atoms.classify(text[position])
            after_block = {}
            if atom is not None:
                for state in range(q):
                    target = det.char_trans[state].get(atom)
                    if target is None:
                        continue
                    suffixes = full.get(target)
                    if suffixes:
                        after_block.setdefault(state, set()).update(suffixes)
            full = with_blocks(after_block, position + 1)
            charge(full)
        return SpanRelation(
            det.variables,
            map(emissions_to_tuple, full.get(det.initial, ())),
        )

    # ------------------------------------------------------------------
    def _runs(
        self,
        slp: SLP,
        node: int,
        state: int,
        offset: int,
        cont: int,
        budget=None,
    ) -> Iterator[tuple[int, tuple]]:
        """All runs through ``D(node)`` from *state* with ≥ 1 emission whose
        exit state is in *cont*, as (exit state, emissions) pairs.

        Pruning invariant: a descent happens only when its subtree is
        guaranteed (via the T_em matrices) to produce at least one output,
        so the work between two consecutive outputs is O(depth · |Q|²) —
        the O(log |D|) delay of [39] on balanced SLPs.

        The DFS is an explicit LIFO of two task kinds (deep or adversarially
        unbalanced SLPs must not hit the interpreter recursion limit):

        * ``expand`` — enumerate the runs of one subtree from one entry
          state, with the pending right-context chain alongside;
        * ``resolve`` — feed one produced run through that chain: exit the
          pair purely through σ_R (no further emissions on the right) and/or
          descend into the right child for the emitting completions.

        Continuation vectors are Python-int bitsets (bit *s* is state *s*).
        A pair node needs three products: ``T_R·cont`` (the left child's
        continuation), ``T_em_R·cont`` (the entry states from which R can
        still emit) and ``T_em_L·cont_left``.  Each comes from the arena's
        memo (:meth:`ArenaIndex.memo`), which maps ``(node, cont)`` to
        ``(T·cont, T_em·cont)``; only a miss runs
        :func:`~repro.kernels.bitmat.matvec`.  Warm reads repeat the same
        few continuations at every node, so every pruning test is an int
        shift and mask, with no numpy call."""
        det = self.det
        #: the per-arena views — the hot descent loop below does plain
        #: dict lookups per child
        data = self.index.entries(slp)
        memo, limit = self.index.memo(slp)

        def products(child: int, child_cont: int) -> tuple[int, int]:
            """``(T·cont, T_em·cont)`` of one child — the memo miss path."""
            _, t, t_em = data[child]
            value = (matvec(t, child_cont), matvec(t_em, child_cont))
            if len(memo) >= limit:
                memo.clear()
            memo[child, child_cont] = value
            return value

        atoms = det.atoms
        char_trans = det.char_trans
        set_trans = det.set_trans
        # the caller checked the root id; every id below comes from the arena
        char_of, left_of, right_of, length_of = slp.columns()
        # rights chain record: (σ_R, right node, right offset, cont after the
        # pair, T_em_R·cont as an int bitset, tail)
        _EXPAND, _RESOLVE = 0, 1
        stack: list[tuple] = [(_EXPAND, node, state, offset, (), cont, None)]
        while stack:
            task = stack.pop()
            if task[0] == _RESOLVE:
                _, p, emissions, rights = task
                if rights is None:
                    yield p, emissions
                    continue
                sigma_r, rnode, roff, rcont, right_em, tail = rights
                # the emitting right-descent is pushed first so the pure
                # σ_R exit (pushed second, popped first) keeps the seed's
                # output order: pure completion before right-child runs
                if right_em >> p & 1:
                    stack.append(
                        (_EXPAND, rnode, p, roff, emissions, rcont, tail)
                    )
                pure_exit = sigma_r.item(p)
                if pure_exit != _DEAD and rcont >> pure_exit & 1:
                    stack.append((_RESOLVE, pure_exit, emissions, tail))
                continue
            _, cur, cur_state, cur_offset, prefix, cur_cont, rights = task
            if budget is not None:
                budget.step()
            ch = char_of[cur]
            if ch is not None:
                atom = atoms.classify(ch)
                if atom is None:
                    continue
                produced = []
                for block, mid in set_trans[cur_state].items():
                    target = char_trans[mid].get(atom)
                    if target is not None and cur_cont >> target & 1:
                        produced.append(
                            (
                                _RESOLVE,
                                target,
                                prefix + tuple((cur_offset + 1, m) for m in block),
                                rights,
                            )
                        )
                stack.extend(reversed(produced))
                continue
            left, right = left_of[cur], right_of[cur]
            cont_left, right_em = memo.get((right, cur_cont)) or products(
                right, cur_cont
            )
            left_length = length_of[left]
            # the pure-left branch (left consumed without emissions, all
            # emissions in the right child) is pushed first — it comes last
            pure_mid = data[left][0].item(cur_state)
            if pure_mid != _DEAD and right_em >> pure_mid & 1:
                stack.append(
                    (
                        _EXPAND,
                        right,
                        pure_mid,
                        cur_offset + left_length,
                        prefix,
                        cur_cont,
                        rights,
                    )
                )
            # the left part may exit in any state R can carry to cont
            if not cont_left:
                continue
            _, left_em = memo.get((left, cont_left)) or products(left, cont_left)
            if left_em >> cur_state & 1:
                stack.append(
                    (
                        _EXPAND,
                        left,
                        cur_state,
                        cur_offset,
                        prefix,
                        cont_left,
                        (
                            data[right][0],
                            right,
                            cur_offset + left_length,
                            cur_cont,
                            right_em,
                            rights,
                        ),
                    )
                )
