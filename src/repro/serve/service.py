"""`SpannerService`: a concurrent, fault-tolerant query service over
:class:`~repro.db.SpannerDB`.

The request path, end to end:

1. **Admission.**  Every ``submit*`` builds one request and offers it to
   the bounded :class:`~repro.serve.admission.Admission` queue.  A full
   queue *sheds* instead of buffering without bound:
   :class:`~repro.errors.OverloadedError` carries a ``retry_after`` hint
   derived from the backlog and the observed mean service time, so
   well-behaved clients drain the overload instead of amplifying it.
   :meth:`SpannerService.stop` fails every queued request with
   :class:`~repro.errors.ServiceStoppedError`.
2. **Deadline.**  Each request gets the tightest of its own deadline and
   the service default (:meth:`Deadline.earliest <repro.util.Deadline.earliest>`),
   threaded into a fresh :class:`~repro.util.Budget` per attempt — the
   step allowance resets on retry (the cache is warmer), the wall-clock
   deadline never does.  A request that expires while queued is failed
   without doing any work.
3. **Execution.**  A worker evaluates on the SLP-compressed path under
   the coordinator's read lock, under
   :meth:`CircuitBreaker.guard <repro.util.breaker.CircuitBreaker.guard>`.  Transient failures
   (injected faults, step budgets hit on a cold cache) are retried with
   seeded exponential backoff while the service-wide
   :class:`~repro.serve.retry.RetryBudget` lasts.
4. **Degradation.**  When the breaker is open — or the final retry of a
   compressed attempt fails — the query falls back to decompressed
   evaluation (:meth:`SpannerDB.query_decompressed`): identical tuples,
   worse latency, service up.  Every degraded answer is flagged on its
   :class:`QueryResult` and counted in ``serve.degraded``.
5. **Mutations** (:meth:`add_document` / :meth:`edit` /
   :meth:`register_spanner` / :meth:`transaction`) run under the
   exclusive write lock, so queries always see fully committed state and
   a rollback's arena truncation can never race a reader.

Everything emits :mod:`repro.obs` spans and metrics (queue depth, shed
count, breaker state, degraded/retry counts, queue-wait and execution
histograms); correctness-critical counts are *also* kept under the
service's own lock and reported by :meth:`stats`, immune to the
best-effort nature of unlocked metric updates under concurrency.

See ``docs/RELIABILITY.md`` ("Serving runbook") for the operational
semantics of every state and counter.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.core.spans import SpanTuple
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    EvaluationLimitError,
    FaultInjectedError,
    MemoryLimitError,
    ServiceStoppedError,
    SpanlibError,
)
from repro.kernels.plan import plan_cache
from repro.serve.admission import Admission, RetryAfterHint
from repro.serve.coordination import StoreCoordinator
from repro.serve.retry import RetryBudget, RetryPolicy
from repro.util.breaker import CircuitBreaker
from repro.util.budget import Budget, Deadline

__all__ = [
    "ServeConfig",
    "SpannerService",
    "QueryResult",
    "BulkQueryResult",
    "RetryAfterHint",
    "Ticket",
]


def _is_transient(exc: BaseException) -> bool:
    """Worth another attempt?  Injected faults are, and so are step
    budgets exhausted on a cold cache — but an expired *deadline* stays
    expired and a *memory* guard will trip again on the same input."""
    if isinstance(exc, (DeadlineExceededError, MemoryLimitError)):
        return False
    return isinstance(exc, (FaultInjectedError, EvaluationLimitError))


@dataclass
class ServeConfig:
    """Tunables for one :class:`SpannerService` (defaults serve tests and
    small deployments; production would raise ``workers``/``queue_limit``)."""

    workers: int = 4
    queue_limit: int = 64
    #: seconds; every request's deadline is clamped to at most this
    default_deadline: float | None = None
    #: per-attempt step allowance threaded into each request's Budget
    max_steps: int | None = None
    #: allow degraded (decompressed) evaluation when the breaker is open
    degrade: bool = True
    retry_max_attempts: int = 3
    retry_base_delay: float = 0.005
    retry_max_delay: float = 0.1
    retry_budget_capacity: float = 20.0
    retry_budget_refill: float = 0.1
    breaker_failure_threshold: int = 5
    breaker_reset_after: float = 0.25
    breaker_half_open_probes: int = 2
    #: seeds the backoff jitter sequence (deterministic chaos replays)
    seed: int = 0


@dataclass
class QueryResult:
    """A completed query: the tuples plus how the service got them."""

    tuples: list[SpanTuple]
    degraded: bool
    attempts: int
    queue_ns: int = 0
    exec_ns: int = 0


@dataclass
class BulkQueryResult:
    """A completed batch: per-document tuples plus how the service got
    them.  One admission slot, one deadline, one retry/degradation loop
    for the whole batch — ``degraded`` and ``attempts`` describe the batch
    as a unit."""

    results: dict[str, list[SpanTuple]]
    degraded: bool
    attempts: int
    queue_ns: int = 0
    exec_ns: int = 0


class Ticket:
    """A handle to one submitted request (a minimal future)."""

    __slots__ = ("_event", "_result", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    def _complete(self, result: QueryResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block for the outcome; re-raises the request's typed error.

        Raises :class:`~repro.errors.DeadlineExceededError` if *timeout*
        elapses first (the request itself keeps running)."""
        if not self._event.wait(timeout):
            raise DeadlineExceededError(
                f"no result within {timeout}s (request still in flight)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class _Request:
    """One admitted request of any kind — a query, a batch, an algebra
    expression.  The worker loop and the retry/degradation machinery see
    only these fields: ``compressed`` and ``decompressed`` map
    ``(db, budget)`` to the payload on the SLP path and on the degraded
    path, and ``result_cls(payload, degraded, attempts, queue_ns,
    exec_ns)`` wraps it for the ticket."""

    describe: dict
    compressed: Callable
    decompressed: Callable
    result_cls: type
    deadline: Deadline | None
    max_steps: int | None
    ticket: Ticket = field(default_factory=Ticket)
    enqueued_ns: int = field(default_factory=time.perf_counter_ns)
    #: the request's TraceContext, minted at admission when obs is on
    trace_ctx: object = None


class SpannerService:
    """A thread-pool query executor with admission control, retries,
    circuit-broken degradation, and reader/writer coordination."""

    def __init__(self, db, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.coordinator = StoreCoordinator(db)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_after=self.config.breaker_reset_after,
            half_open_probes=self.config.breaker_half_open_probes,
        )
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay=self.config.retry_base_delay,
            max_delay=self.config.retry_max_delay,
            seed=self.config.seed,
        )
        self.retry_budget = RetryBudget(
            capacity=self.config.retry_budget_capacity,
            refill_per_success=self.config.retry_budget_refill,
        )
        self._admission = Admission(
            self.config.queue_limit,
            workers=self.config.workers,
            shed_metric="serve.shed",
            depth_gauge="serve.queue_depth",
            unit="requests",
        )
        self._threads: list[threading.Thread] = []
        self._running = False
        self._stats_lock = threading.Lock()
        self._counts: dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "expired_in_queue": 0,
            "degraded": 0,
            "retries": 0,
            "mutations": 0,
            "mutation_failures": 0,
        }
        #: recent per-request service times (ns), for p50/p99 and the
        #: retry-after hint; bounded so a long-lived service stays O(1)
        self._latencies_ns: deque[int] = deque(maxlen=4096)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SpannerService":
        if self._running:
            return self
        self._running = True
        self._admission.open()
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop accepting work, fail everything still queued, join workers.

        Closing admission and collecting the queue is one atomic step, so
        a ``submit`` racing this call is either refused or failed here;
        every request failed by a stop counts in ``failed``."""
        if not self._running:
            return
        self._running = False
        for item in self._admission.close():
            self._fail(item, ServiceStoppedError("service stopped"))
        for thread in self._threads:
            thread.join(timeout)
        alive = [t for t in self._threads if t.is_alive()]
        self._threads = []
        if alive:
            raise ServiceStoppedError(
                f"{len(alive)} worker(s) failed to stop within {timeout}s"
            )

    def __enter__(self) -> "SpannerService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission (admission control)
    # ------------------------------------------------------------------
    def submit(
        self,
        spanner: str,
        document: str,
        deadline: float | Deadline | None = None,
        max_steps: int | None = None,
    ) -> Ticket:
        """Enqueue one query; sheds with a retry-after hint when full."""
        return self._submit(
            {"spanner": spanner, "document": document},
            lambda db, budget: list(db.query(spanner, document, budget)),
            lambda db, budget: list(db.query_decompressed(spanner, document, budget)),
            QueryResult,
            deadline,
            max_steps,
        )

    def submit_bulk(
        self,
        spanner: str,
        documents,
        *,
        deadline: float | Deadline | None = None,
        max_steps: int | None = None,
    ) -> Ticket:
        """Enqueue one *batch* of queries over many stored documents.

        The batch occupies a single admission slot (shedding whole batches
        keeps the retry-after hint honest under overload), shares one
        deadline and step budget, and amortises the spanner lookup and
        plan-cache hit across every document through
        :meth:`SpannerDB.query_bulk <repro.db.SpannerDB.query_bulk>`.  The
        degraded attempt evaluates each document decompressed.  The ticket
        resolves to a :class:`BulkQueryResult`."""
        documents = list(documents)

        def compressed(db, budget):
            relations = db.query_bulk(spanner, documents, budget=budget)
            return {name: list(relation) for name, relation in relations.items()}

        return self._submit(
            {"spanner": spanner, "documents": len(documents)},
            compressed,
            lambda db, budget: {
                name: list(db.query_decompressed(spanner, name, budget))
                for name in documents
            },
            BulkQueryResult,
            deadline,
            max_steps,
        )

    def submit_expression(
        self,
        expression: str,
        document: str | None = None,
        deadline: float | Deadline | None = None,
        max_steps: int | None = None,
    ) -> Ticket:
        """Enqueue one spanner-algebra expression (:mod:`repro.query`).

        Rides the same admission control, retry, and circuit-broken
        degradation loop as single-spanner queries.  The compressed attempt
        plans and executes through :meth:`SpannerDB.query_expr
        <repro.db.SpannerDB.query_expr>`; the degraded path is the
        language's naive materialization reference over the decompressed
        text — machinery-disjoint, so a poisoned compiled path cannot leak
        into degraded answers, which stay extensionally identical."""

        def decompressed(db, budget):
            from repro.query.executor import evaluate_query_naive

            text = "" if document is None else db.document_text(document, budget=budget)
            return list(evaluate_query_naive(expression, text, db=db, budget=budget))

        return self._submit(
            {"expression": expression, "document": document},
            lambda db, budget: list(db.query_expr(expression, document, budget)),
            decompressed,
            QueryResult,
            deadline,
            max_steps,
        )

    def query_expression(
        self,
        expression: str,
        document: str | None = None,
        deadline: float | Deadline | None = None,
        max_steps: int | None = None,
        timeout: float | None = 30.0,
    ) -> QueryResult:
        """Synchronous convenience: :meth:`submit_expression` + result."""
        return self.submit_expression(
            expression, document, deadline, max_steps
        ).result(timeout)

    def _clamp_deadline(self, deadline) -> Deadline | None:
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline.after(deadline)
        default = self.config.default_deadline
        if default is not None:
            default = Deadline.after(default)
        return Deadline.earliest(deadline, default)

    def _submit(
        self, describe, compressed, decompressed, result_cls, deadline, max_steps
    ) -> Ticket:
        """Admit one request: every ``submit*`` ends here.  A stopped
        service refuses with ``ServiceStoppedError`` (counted ``failed``),
        a full queue with ``OverloadedError`` (counted ``shed``)."""
        request = _Request(
            describe,
            compressed,
            decompressed,
            result_cls,
            self._clamp_deadline(deadline),
            max_steps if max_steps is not None else self.config.max_steps,
        )
        if obs.enabled():
            # admission is *the* minting point: every span this request
            # produces in the worker thread carries this id
            request.trace_ctx = obs.new_trace()
        self._count("submitted")
        try:
            self._admission.offer(request, **describe)
        except ServiceStoppedError as exc:
            self._fail(request, exc)
            raise
        if obs.enabled():
            obs.metrics().counter("serve.submitted").inc()
        return request.ticket

    def query(
        self,
        spanner: str,
        document: str,
        deadline: float | Deadline | None = None,
        max_steps: int | None = None,
        timeout: float | None = 30.0,
    ) -> QueryResult:
        """Synchronous convenience: :meth:`submit` + :meth:`Ticket.result`."""
        return self.submit(spanner, document, deadline, max_steps).result(timeout)

    def query_bulk(
        self,
        spanner: str,
        documents,
        *,
        deadline: float | Deadline | None = None,
        max_steps: int | None = None,
        timeout: float | None = 30.0,
    ) -> BulkQueryResult:
        """Synchronous convenience: :meth:`submit_bulk` + :meth:`Ticket.result`."""
        return self.submit_bulk(
            spanner, documents, deadline=deadline, max_steps=max_steps
        ).result(timeout)

    # ------------------------------------------------------------------
    # mutations (write-locked)
    # ------------------------------------------------------------------
    def add_document(self, name: str, text: str, budget=None, timeout: float | None = None) -> None:
        self._mutate(lambda db: db.add_document(name, text, budget), timeout)

    def edit(self, new_name: str, expression, budget=None, timeout: float | None = None) -> int:
        return self._mutate(lambda db: db.edit(new_name, expression, budget), timeout)

    def register_spanner(self, name: str, spanner, budget=None, timeout: float | None = None) -> None:
        self._mutate(lambda db: db.register_spanner(name, spanner, budget), timeout)

    def save(self, path: str, timeout: float | None = None) -> None:
        self._mutate(lambda db: db.save(path), timeout)

    def transaction(self, timeout: float | None = None):
        """A write-locked all-or-nothing batch (see
        :meth:`StoreCoordinator.transaction <repro.serve.coordination.StoreCoordinator.transaction>`)."""
        self._count("mutations")
        return self.coordinator.transaction(timeout)

    def _mutate(self, operation, timeout: float | None):
        self._count("mutations")
        try:
            with self.coordinator.write(timeout) as db:
                return operation(db)
        except SpanlibError:
            self._count("mutation_failures")
            if obs.enabled():
                obs.metrics().counter("serve.mutation_failures").inc()
            raise

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while (item := self._admission.take()) is not None:
            if not self._running:
                self._fail(item, ServiceStoppedError("service stopped"))
                continue
            queue_ns = time.perf_counter_ns() - item.enqueued_ns
            t0 = time.perf_counter_ns()
            try:
                if item.deadline is not None and item.deadline.expired():
                    self._count("expired_in_queue")
                    raise DeadlineExceededError(
                        "request deadline expired while queued "
                        f"(waited {queue_ns / 1e9:.3f}s)"
                    )
                with obs.use_context(item.trace_ctx):
                    payload, degraded, attempts = self._execute(item)
            except Exception as exc:  # noqa: BLE001 - tickets must resolve
                self._fail(item, exc)
                continue
            exec_ns = time.perf_counter_ns() - t0
            self._note_completion(exec_ns, degraded)
            if obs.enabled():
                registry = obs.metrics()
                registry.counter("serve.completed").inc()
                registry.histogram("serve.queue_ns").record(queue_ns)
                registry.histogram("serve.exec_ns").record(exec_ns)
                if degraded:
                    registry.counter("serve.degraded").inc()
            item.ticket._complete(
                item.result_cls(payload, degraded, attempts, queue_ns, exec_ns)
            )

    def _execute(self, request) -> tuple:
        """The retry/degradation loop for one request (see module doc)."""
        attempt = 0
        while True:
            attempt += 1
            if request.deadline is not None and request.deadline.expired():
                raise DeadlineExceededError(
                    f"request deadline expired before attempt {attempt}"
                )
            compressed = self.breaker.allow()
            try:
                with obs.tracer().span(
                    "serve.attempt",
                    attempt=attempt,
                    path="slp" if compressed else "decompressed",
                    **request.describe,
                ):
                    if compressed:
                        payload = self._attempt_compressed(request)
                        if attempt == 1:
                            self.retry_budget.refill()
                        return payload, False, attempt
                    if not self.config.degrade:
                        raise CircuitOpenError(
                            "compressed evaluation tripped and degradation is disabled"
                        )
                    return self._attempt_decompressed(request), True, attempt
            except SpanlibError as exc:
                if not _is_transient(exc):
                    raise
                if attempt >= self.retry_policy.max_attempts or not self.retry_budget.try_spend():
                    # retries exhausted: one last-resort degradation if the
                    # failure was on the compressed path (its matrices, its
                    # faults); a failing decompressed path has nothing left
                    # to fall back to
                    if compressed and self.config.degrade:
                        return self._attempt_decompressed(request), True, attempt
                    raise
                self._count("retries")
                if obs.enabled():
                    obs.metrics().counter("serve.retries").inc()
                delay = self.retry_policy.backoff(attempt)
                if request.deadline is not None:
                    delay = min(delay, max(0.0, request.deadline.remaining()))
                if delay > 0:
                    time.sleep(delay)

    def _attempt_compressed(self, request):
        """One compressed attempt, settling the breaker grant: only a
        transient failure counts against the path — a schema error, an
        expired deadline or an untyped bug says nothing about its health.

        The stream is materialised *inside* the read lock: tuples must not
        be produced lazily after a writer may have truncated the arena."""
        budget = self._budget_for(request)
        with self.breaker.guard(_is_transient), self.coordinator.read() as db:
            return request.compressed(db, budget)

    def _attempt_decompressed(self, request):
        budget = self._budget_for(request)
        with self.coordinator.read() as db:
            return request.decompressed(db, budget)

    def _budget_for(self, request) -> Budget | None:
        if request.deadline is None and request.max_steps is None:
            return None
        return Budget(deadline=request.deadline, max_steps=request.max_steps)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counts[key] += amount

    def _fail(self, request, exc: BaseException) -> None:
        """Resolve *request* with *exc*, counted once in ``failed``."""
        self._count("failed")
        if obs.enabled():
            obs.metrics().counter("serve.failed").inc()
            obs.metrics().counter(f"serve.failed.{type(exc).__name__}").inc()
        request.ticket._fail(exc)

    def _note_completion(self, exec_ns: int, degraded: bool) -> None:
        with self._stats_lock:
            self._counts["completed"] += 1
            if degraded:
                self._counts["degraded"] += 1
            self._latencies_ns.append(exec_ns)
        self._admission.hint.observe(exec_ns / 1e9)

    def latency_percentile(self, p: float) -> float:
        """Exact percentile (seconds) over the recent-latency window."""
        with self._stats_lock:
            window = sorted(self._latencies_ns)
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, int(len(window) * p / 100.0)))
        return window[rank] / 1e9

    def stats(self) -> dict:
        """Accurate (service-locked) serving statistics plus component
        states — the numbers the chaos suite asserts on.  At idle,
        ``submitted == completed + failed + shed``."""
        with self._stats_lock:
            counts = dict(self._counts)
        return {
            **counts,
            "shed": self._admission.shed,
            "running": self._running,
            "workers": self.config.workers,
            "queue_depth": len(self._admission),
            "queue_limit": self.config.queue_limit,
            "exec_ema_s": self._admission.hint.ema_s,
            "p50_s": self.latency_percentile(50),
            "p99_s": self.latency_percentile(99),
            "breaker": self.breaker.stats(),
            "retry_budget": self.retry_budget.stats(),
            "lock": self.coordinator.lock.stats(),
            "plan_cache": plan_cache().stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._running else "stopped"
        return f"SpannerService({state}, workers={self.config.workers})"


def serve_queries(
    service: SpannerService,
    requests: Iterator[tuple[str, str]],
    deadline: float | None = None,
) -> Iterator[QueryResult | SpanlibError]:
    """Drive *requests* (``(spanner, document)`` pairs) through *service*,
    yielding a :class:`QueryResult` or the typed error for each — shed
    requests surface as :class:`~repro.errors.OverloadedError` items, not
    exceptions, so callers can measure shed rates.  Used by the CLI
    ``serve`` subcommand and the benchmark driver."""
    tickets: list[Ticket | SpanlibError] = []
    for spanner, document in requests:
        try:
            tickets.append(service.submit(spanner, document, deadline=deadline))
        except SpanlibError as exc:
            tickets.append(exc)
    for ticket in tickets:
        if isinstance(ticket, SpanlibError):
            yield ticket
            continue
        try:
            yield ticket.result(timeout=None)
        except SpanlibError as exc:
            yield exc
