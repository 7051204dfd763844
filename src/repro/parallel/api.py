"""Shard-parallel evaluation: the public entry points.

:func:`document_matrices` splits one plain-text document into balanced
shards, folds each shard with the associative ``(σ, T, T_em)`` algebra of
:mod:`repro.parallel.fold` (in a loop on the calling thread, or on a pool
worker), and folds the shard entries on the calling thread.  The result
is bit-for-bit the entry ``preprocess`` would compute for the same
document's SLP; :func:`is_nonempty_text` answers non-emptiness from it
without enumeration.

It accepts ``"serial"`` (the calling thread), ``"process"`` (the
supervised pool of :mod:`repro.parallel.procpool`) and ``"auto"``.  For
the ``"process"`` backend the fan-out changes vehicle, not value: each
shard's text and the character table travel through the worker's pipe,
the worker folds them with :func:`~repro.parallel.fold.text_entry` — the
*same code* the serial path runs — and the folded entry comes back
bit-for-bit identical.

There is no bulk fan-out over stored documents: a :class:`~repro.db.SpannerDB`
preprocesses and seals every stored root for every registered spanner
when the document or spanner arrives, so a bulk query only enumerates
(:meth:`SpannerDB.query_bulk <repro.db.SpannerDB.query_bulk>` is a loop).

``"auto"`` resolution and graceful degradation live in
:func:`resolve_backend` and the module's process-path circuit breaker: a
:class:`~repro.errors.WorkerCrashError` records a failure and the work
reruns serially (identical results, no crash isolation);
enough consecutive crashes open the breaker and ``"auto"`` stops
choosing the process backend until it recovers.
:class:`~repro.errors.PoolExhaustedError` degrades only under
``"auto"`` — a caller that asked for ``"process"`` explicitly gets the
typed backpressure signal.

Shard fan-out and fold timings are recorded through :mod:`repro.obs`
(the ``parallel.document_matrices`` span, and ``parallel.shards`` /
``parallel.fanout_ns`` / ``parallel.fold_ns`` / ``parallel.degraded``
counters) so worker sizing can be tuned from traces instead of guesses —
see ``docs/PERFORMANCE.md`` for the sizing guidance and
``docs/RELIABILITY.md`` for the supervision runbook.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

from repro import obs
from repro.errors import ParallelError, PoolExhaustedError, WorkerCrashError
from repro.parallel.fold import DEFAULT_CHUNK, fold_entries, shard_spans, text_entry
from repro.parallel.procpool import ProcCall, default_workers, get_pool, usable_cores
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.util.breaker import CircuitBreaker
from repro.util.budget import Budget, Deadline

__all__ = [
    "as_evaluator",
    "document_matrices",
    "is_nonempty_text",
    "process_breaker",
    "resolve_backend",
]

#: below this many characters the pipe round-trip costs more
#: than the fold itself; ``"auto"`` keeps such documents serial
_PROCESS_MIN_CHARS = 4096

_BACKENDS = ("auto", "process", "serial")

_breaker_lock = threading.Lock()
_breaker = None


def process_breaker():
    """The circuit breaker guarding the process backend (lazily built).

    Worker crashes record failures; enough consecutive ones open it and
    :func:`resolve_backend` answers ``"serial"`` until the half-open
    probe succeeds.  Exposed so tests can inspect or reset degradation
    state."""
    global _breaker
    with _breaker_lock:
        if _breaker is None:
            _breaker = CircuitBreaker(failure_threshold=3, reset_after=5.0)
        return _breaker


def resolve_backend(backend: str = "auto", *, size_hint_chars: int | None = None) -> str:
    """Resolve ``"auto"`` to ``"process"`` or ``"serial"``.

    The other two names pass through; anything else raises
    :class:`ParallelError`.

    ``"auto"`` picks ``"process"`` only where the backend sweep of
    ``docs/PERFORMANCE.md`` shows it paying off: a single-document fold
    (*size_hint_chars* given) of at least ``_PROCESS_MIN_CHARS``
    characters, on at least two usable cores (affinity-aware), with the
    process breaker closed.  Everything else is ``"serial"``."""
    if backend not in _BACKENDS:
        raise ParallelError(
            f"unknown parallel backend {backend!r}; expected one of {_BACKENDS}"
        )
    if backend != "auto":
        return backend
    if size_hint_chars is None or size_hint_chars < _PROCESS_MIN_CHARS:
        return "serial"
    if usable_cores() < 2 or not process_breaker().allow():
        return "serial"
    # allow() in half-open state reserves a probe slot that must be
    # settled; the probe is the request itself, and _try_process settles
    # it through the breaker's guard.
    return "process"


def _record_degraded(reason: str) -> None:
    if obs.enabled():
        obs.metrics().counter("parallel.degraded").inc()
        obs.metrics().counter(f"parallel.degraded.{reason}").inc()


def _is_crash(exc: BaseException) -> bool:
    return isinstance(exc, WorkerCrashError)


def _try_process(requested: str, fn):
    """Run *fn* (a process-backend fan-out); ``None`` means "rerun
    serially".

    A :class:`~repro.errors.WorkerCrashError` means crash isolation did
    its job: the workers died, we did not, and the values are identical
    serially — only the isolation is lost.  A
    :class:`~repro.errors.PoolExhaustedError` is backpressure, not ill
    health: ``"auto"`` falls back to serial, an explicit ``"process"``
    caller gets the typed signal.  Under ``"auto"`` the breaker grant of
    :func:`resolve_backend` is settled by the guard: only a crash counts
    against the pool; any other outcome (typed task errors included —
    the pool itself behaved) releases the probe as a success."""
    try:
        with process_breaker().guard(_is_crash) if requested == "auto" else nullcontext():
            return fn()
    except WorkerCrashError:
        _record_degraded("crash")
    except PoolExhaustedError:
        if requested != "auto":
            raise
        _record_degraded("exhausted")
    return None


def as_evaluator(spanner) -> SLPSpannerEvaluator:
    """Resolve *spanner* to an evaluator.

    Strings go through the process-wide plan cache (one compile +
    determinisation amortised across every call that names the same
    source); evaluators pass through; anything else —
    :class:`~repro.automata.evset.DeterministicEVA`, a vset-automaton, a
    ``RegularSpanner`` — gets a fresh evaluator."""
    if isinstance(spanner, SLPSpannerEvaluator):
        return spanner
    if isinstance(spanner, str):
        from repro.kernels.plan import plan_cache

        return plan_cache().get_or_compile(spanner).evaluator
    return SLPSpannerEvaluator(spanner)


# ----------------------------------------------------------------------
# budget shipping: only the *deadline* crosses the process boundary
# ----------------------------------------------------------------------
def _budget_spec(budget):
    """``(deadline_at, max_steps_left, max_bytes)`` or ``None``.

    The monotonic clock is system-wide on Linux, so a deadline instant is
    meaningful in the worker.  Steps are *not* shared across processes
    the way the serial path shares one Budget object — each worker
    gets the full remaining allowance, and the parent charges the actual
    worker-reported steps to the caller's budget afterwards, so step
    exhaustion still surfaces (just after the batch, not mid-shard)."""
    if budget is None:
        return None
    deadline_at = budget.deadline.at if budget.deadline is not None else None
    return (deadline_at, budget.remaining_steps(), budget.max_bytes)


def _budget_from_spec(spec):
    if spec is None:
        return None
    deadline_at, max_steps, max_bytes = spec
    return Budget(
        deadline=Deadline(deadline_at) if deadline_at is not None else None,
        max_steps=max_steps,
        max_bytes=max_bytes,
    )


def _charge_worker_steps(budget, steps: int) -> None:
    if budget is not None and steps:
        budget.step(steps)


# ----------------------------------------------------------------------
# within one document
# ----------------------------------------------------------------------
def document_matrices(
    spanner,
    text: str,
    *,
    workers: int | None = None,
    backend: str = "serial",
    shards: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    budget=None,
):
    """``(σ, T, T_em)`` of *text* under *spanner*, computed shard-parallel.

    The document is split into *shards* balanced spans (default: one per
    *workers*, itself defaulting to the usable cores); each span folds
    with the chunked kernel of :mod:`repro.parallel.fold` — in a loop on
    the calling thread under ``"serial"``, on a pool worker under
    ``"process"`` — and the per-shard entries fold on the calling thread.
    The returned entry is **bit-for-bit identical** for every ``(backend,
    workers, shards, chunk_size)`` choice — asserted differentially
    against the SLP ``preprocess`` path by the test suite.

    A :class:`~repro.util.Budget` is charged one step per combined pair,
    and ``max_bytes`` guards each level's transient float32 stacks.  (On
    the process backend the deadline ships to the workers and steps are
    charged when their counts return — see :func:`_budget_spec`.)"""
    evaluator = as_evaluator(spanner)
    q = evaluator.det.num_states
    if workers is None:
        workers = default_workers()
    if shards is None:
        shards = workers
    if shards < 1:
        raise ParallelError(f"shards and workers must be >= 1, got {shards}")
    requested = backend
    backend = resolve_backend(backend, size_hint_chars=len(text))
    spans = shard_spans(len(text), shards)
    # distinct chars resolve through the store's lock exactly once, here
    table = evaluator.char_entries(text)
    observing = obs.enabled()
    # the fallback admission point: a fold arriving with no active trace
    # gets an id here, so worker-side spans stitch under this call
    ctx = obs.new_trace() if observing and obs.current_context() is None else None
    with obs.use_context(ctx), obs.tracer().span(
        "parallel.document_matrices",
        chars=len(text),
        shards=len(spans),
        workers=workers,
        backend=backend,
    ):
        t0 = time.perf_counter_ns() if observing else 0
        shard_entries = None
        if backend == "process":
            shard_entries = _try_process(
                requested,
                lambda: _fold_shards_process(table, text, q, spans, chunk_size, budget),
            )
        if shard_entries is None:
            shard_entries = [
                text_entry(
                    table, text[start:end], q, chunk_size=chunk_size, budget=budget
                )
                for start, end in spans
            ]
        t1 = time.perf_counter_ns() if observing else 0
        entry = fold_entries(shard_entries, q, budget)
        if observing:
            registry = obs.metrics()
            registry.counter("parallel.shards").inc(len(spans))
            registry.counter("parallel.fanout_ns").inc(t1 - t0)
            registry.counter("parallel.fold_ns").inc(
                time.perf_counter_ns() - t1
            )
            # the counters above aggregate totals; the histograms keep the
            # per-request distribution (is fanout dominated by a few slow
            # requests or many?)
            registry.histogram("parallel.phase.fanout_ns").record(t1 - t0)
            registry.histogram("parallel.phase.fold_ns").record(
                time.perf_counter_ns() - t1
            )
    return entry


def _fold_shards_process(table, text: str, q: int, spans, chunk_size, budget):
    """Fan the shard folds out to worker processes, one task per span.

    Each task carries the character table and its shard's text through the
    worker's pipe and returns the folded entry with the steps it charged,
    which are billed to *budget* once the batch settles."""
    spec = _budget_spec(budget)
    calls = [
        ProcCall(
            "repro.parallel.api:_fold_shard_task",
            (table, text[start:end], q, chunk_size, spec),
        )
        for start, end in spans
    ]
    deadline = budget.deadline if budget is not None else None
    outcomes = get_pool().run(calls, deadline=deadline)
    _charge_worker_steps(budget, sum(steps for _, steps in outcomes))
    return [entry for entry, _ in outcomes]


def _fold_shard_task(table, text: str, q: int, chunk_size: int, budget_spec):
    """Worker side of :func:`_fold_shards_process`: ``(entry, steps)`` of
    one shard, folded by :func:`~repro.parallel.fold.text_entry`."""
    budget = _budget_from_spec(budget_spec)
    entry = text_entry(table, text, q, chunk_size=chunk_size, budget=budget)
    return entry, budget.steps if budget is not None else 0


def is_nonempty_text(spanner, text: str, **kwargs) -> bool:
    """``⟦M⟧(text) ≠ ∅`` from one shard-parallel fold (no enumeration,
    no SLP).  Keyword arguments are those of :func:`document_matrices`."""
    evaluator = as_evaluator(spanner)
    return evaluator.entry_is_nonempty(
        document_matrices(evaluator, text, **kwargs)
    )
