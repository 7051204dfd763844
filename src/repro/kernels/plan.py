"""The shared query-plan cache: spanner source → compiled plan.

Compiling a regex-formula into a deterministic extended vset-automaton
(parse → Glushkov → eVA → subset construction) is the document-independent
but decidedly non-free half of every query; the seed paid it on *every*
``register_spanner`` call, and a fresh evaluator then re-derived char
tables and node matrices from nothing.  The plan cache interns the
compiled artefact per source text:

* a **plan** is the deterministic eVA plus one shared
  ``SLPSpannerEvaluator``.  Evaluator caches are keyed by the process-
  unique SLP arena serial, so one evaluator serves any number of stores
  without cross-talk, and repeated registrations against the same arena
  skip the node-matrix warm-up entirely;
* the cache is a **bounded LRU**: at most ``max_entries`` plans and at
  most ``max_bytes`` of resident matrix bytes, accounted through
  :class:`repro.util.Budget` (`charge_bytes`), evicting
  least-recently-used plans until the budget admits the rest — plans
  grow as their evaluators warm up, so the accessed plan's byte account
  is refreshed on every access, not only on insert, and the running
  total is maintained incrementally (one ``cache_bytes()`` call per
  access/eviction, never a full re-summation).  A plan that alone
  exceeds ``max_bytes`` is evicted too (counted in
  ``kernels.plan_cache.over_budget``) — an over-budget warm plan is
  never silently retained;
* bookkeeping takes one internal lock, but **compilation runs outside
  it**: concurrent misses on *distinct* sources compile in parallel,
  while concurrent misses on the *same* source are deduplicated through
  a per-key in-flight table (one thread compiles, the rest wait for its
  result).  Hit/miss/eviction counters are published through
  :mod:`repro.obs` (``kernels.plan_cache.hits`` / ``.misses`` /
  ``.evictions`` / ``.over_budget``).

:func:`evaluator_for` is the one spanner → evaluator resolution:
``SpannerDB.register_spanner`` and ``WindowedSpannerStream`` route every
string-valued spanner through the process-wide cache (:func:`plan_cache`);
:mod:`repro.serve` and the CLI inherit it through the store and the
stream.  :func:`configure_plan_cache` resizes or resets the process-wide
instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs
from repro.errors import MemoryLimitError
from repro.util.budget import Budget

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "configure_plan_cache",
    "evaluator_for",
    "plan_cache",
]

#: default bound on resident plan bytes (packed matrices are 8× smaller
#: than the seed's bool arrays, so this holds hundreds of warm plans)
DEFAULT_MAX_BYTES = 64 * 1024 * 1024
DEFAULT_MAX_ENTRIES = 64


class CompiledPlan:
    """One compiled spanner: source text, deterministic eVA, evaluator."""

    __slots__ = ("source", "deva", "evaluator")

    def __init__(self, source: str, deva, evaluator) -> None:
        self.source = source
        self.deva = deva
        self.evaluator = evaluator

    def cache_bytes(self) -> int:
        """Resident bytes of the plan's evaluator caches (grows with use)."""
        return int(self.evaluator.cache_bytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledPlan({self.source!r}, states={self.deva.num_states})"


def _compile(source: str) -> CompiledPlan:
    # deferred imports: kernels is imported by the slp layer, so pulling
    # the evaluator in at module load would be circular
    from repro.regex.compile import spanner_from_regex
    from repro.slp.spanner_eval import SLPSpannerEvaluator

    evaluator = SLPSpannerEvaluator(spanner_from_regex(source))
    return CompiledPlan(source, evaluator.det, evaluator)


class PlanCache:
    """Bounded, thread-safe LRU of :class:`CompiledPlan` by source text."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._plans: OrderedDict[str, CompiledPlan] = OrderedDict()
        #: last-observed cache_bytes() per plan and their running total —
        #: refreshed for the plan touched by each access, so eviction
        #: decisions are O(1) instead of re-summing the whole cache
        self._bytes: dict[str, int] = {}
        self._total_bytes = 0
        self._lock = threading.RLock()
        #: source → event of the thread currently compiling it; misses on
        #: a source already in flight wait instead of recompiling, misses
        #: on distinct sources compile concurrently (no cache-wide stall)
        self._inflight: dict[str, threading.Event] = {}
        self._budget = Budget(max_bytes=self.max_bytes)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._over_budget = 0

    # ------------------------------------------------------------------
    def get_or_compile(self, source: str, compiler=None) -> CompiledPlan:
        """The cached plan for *source*, compiling (and caching) on miss.

        Compilation happens *outside* the cache lock: a slow compile of
        one spanner never blocks hits — or other misses — on different
        sources.  Concurrent misses on the same source are collapsed to
        one compilation through the in-flight table.

        *compiler* overrides the default regex-formula compiler: it maps
        *source* to a :class:`CompiledPlan` and is how :mod:`repro.query`
        interns whole-query plans under their canonical plan text, so a
        repeated analyst query warms exactly like a single spanner.  The
        caller must use distinct key namespaces for distinct compilers
        (query keys are prefixed ``query:``)."""
        observing = obs.enabled()
        counted = False
        while True:
            wait_for: threading.Event | None = None
            with self._lock:
                plan = self._plans.get(source)
                if plan is not None:
                    self._plans.move_to_end(source)
                    if not counted:
                        self._hits += 1
                        if observing:
                            obs.metrics().counter("kernels.plan_cache.hits").inc()
                    self._account(source, plan)
                    self._shrink()
                    return plan
                if not counted:
                    counted = True
                    self._misses += 1
                    if observing:
                        obs.metrics().counter("kernels.plan_cache.misses").inc()
                wait_for = self._inflight.get(source)
                if wait_for is None:
                    self._inflight[source] = threading.Event()
            if wait_for is not None:
                # another thread is compiling this source; wait for it and
                # re-check (it may have failed or been evicted instantly)
                wait_for.wait()
                continue
            try:
                plan = (compiler or _compile)(source)
            except BaseException:
                with self._lock:
                    self._inflight.pop(source).set()
                raise
            with self._lock:
                self._inflight.pop(source).set()
                if self.max_entries > 0:
                    self._plans[source] = plan
                    self._account(source, plan)
                    self._shrink()
            return plan

    def _account(self, source: str, plan: CompiledPlan) -> None:
        """Refresh one plan's byte record and the incremental total."""
        current = plan.cache_bytes()
        self._total_bytes += current - self._bytes.get(source, 0)
        self._bytes[source] = current

    def _evict_lru(self) -> None:
        source, _ = self._plans.popitem(last=False)
        self._total_bytes -= self._bytes.pop(source, 0)

    def _shrink(self) -> None:
        """Evict LRU plans until entry and byte bounds both admit the rest.

        Byte accounting goes through :class:`repro.util.Budget`'s
        ``charge_bytes`` guard so the cache and every other
        materialisation bound in the system share one failure model.
        Totals are maintained incrementally by :meth:`_account`; each
        eviction is O(1).  A single plan whose warm caches alone exceed
        ``max_bytes`` is evicted as well (callers keep the reference they
        were handed; the cache just refuses to retain it)."""
        evicted = 0
        while len(self._plans) > max(0, self.max_entries):
            self._evict_lru()
            evicted += 1
        while self._plans:
            try:
                self._budget.charge_bytes(self._total_bytes, what="plan cache")
            except MemoryLimitError:
                if len(self._plans) == 1:
                    self._over_budget += 1
                    if obs.enabled():
                        obs.metrics().counter(
                            "kernels.plan_cache.over_budget"
                        ).inc()
                self._evict_lru()
                evicted += 1
                continue
            break
        if evicted:
            self._evictions += evicted
            if obs.enabled():
                obs.metrics().counter("kernels.plan_cache.evictions").inc(evicted)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, source: str) -> bool:
        with self._lock:
            return source in self._plans

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._bytes.clear()
            self._total_bytes = 0

    def stats(self) -> dict:
        """Sizing and effectiveness counters (also mirrored in obs).

        Plans grow between accesses, so their bytes are re-accounted here
        and the cache shrinks back within its bounds before reporting —
        ``bytes`` never exceeds ``max_bytes``."""
        with self._lock:
            for source, plan in self._plans.items():
                self._account(source, plan)
            self._shrink()
            return {
                "entries": len(self._plans),
                "bytes": self._total_bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "over_budget": self._over_budget,
            }


_default_cache = PlanCache()
_default_lock = threading.Lock()


def plan_cache() -> PlanCache:
    """The process-wide plan cache (shared by SpannerDB, serve, and CLI)."""
    return _default_cache


def configure_plan_cache(
    max_entries: int = DEFAULT_MAX_ENTRIES,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> PlanCache:
    """Replace the process-wide cache with a freshly sized (empty) one."""
    global _default_cache
    with _default_lock:
        _default_cache = PlanCache(max_entries=max_entries, max_bytes=max_bytes)
        return _default_cache


def evaluator_for(spanner):
    """Resolve *spanner* to an :class:`~repro.slp.SLPSpannerEvaluator`.

    A regex-formula string goes through the process-wide plan cache (one
    compile and determinisation shared by every caller naming the same
    source); an evaluator passes through; a ``RegularSpanner`` is
    unwrapped to its automaton; any automaton gets a fresh evaluator."""
    from repro.slp.spanner_eval import SLPSpannerEvaluator

    if isinstance(spanner, str):
        return plan_cache().get_or_compile(spanner).evaluator
    if isinstance(spanner, SLPSpannerEvaluator):
        return spanner
    return SLPSpannerEvaluator(getattr(spanner, "automaton", spanner))
