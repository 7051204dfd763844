"""Per-layer tracing of a benchmark run, from outside the program.

:meth:`Tracer.install` wraps public functions at the module where their
callers look them up (``repro.slp.spanner_eval.bool_mm_many``,
``repro.stream.windowed.text_entry``, class methods on their class).
While the tracer is on, each wrapped call records a :class:`Span` —
name, start, end, parent span and the request's ``obs`` trace id — kept
in memory until the run ends.  Generators are timed across their
``next`` calls.  A span's self time is its time minus its child spans'.

In the measured phase every other batch is traced (with the program's
own ``repro.obs`` counters switched on too) and the rest run bare, so
``trace.overhead`` compares traced and untraced batches that ran
interleaved on the same host.  Set-up is not traced.  A layer the
workload's measured batches never call reports 0.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time

from repro import obs
import repro.db
import repro.kernels.plan
import repro.query.executor
import repro.slp.spanner_eval
import repro.stream.windowed
from repro.db import SpannerDB
from repro.kernels.plan import PlanCache, plan_cache
from repro.query.executor import QuerySession
from repro.slp.slp import SLP
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.stream.windowed import WindowedSpannerStream

def _slp_attr(args):
    return args[0].slp


def _own_slp(args):
    return args[0]


#: (owner, attribute, span name, value probe); the probe is None, "gen"
#: (a generator: value = items yielded), "result" (value = the int
#: returned), "pairs" (value = len of the first argument), "frontier"
#: (value = result-set size afterwards) or a callable mapping the call's
#: arguments to the SLP whose node growth is the value
TARGETS = (
    (SpannerDB, "query", "db.query", "gen"),
    (SpannerDB, "edit", "db.edit", _slp_attr),
    (SpannerDB, "add_document", "db.add", _slp_attr),
    (SpannerDB, "query_expr", "db.query_expr", None),
    (repro.db, "repair_node", "slp.repair", None),
    (repro.stream.windowed, "repair_node", "slp.repair", None),
    (repro.db, "rebalance", "slp.rebalance", None),
    (repro.stream.windowed, "rebalance", "slp.rebalance", None),
    (repro.db, "apply_cde", "slp.cde", None),
    (SLP, "append_text", "slp.append", _own_slp),
    (SLPSpannerEvaluator, "preprocess", "eval.preprocess", "result"),
    (SLPSpannerEvaluator, "enumerate", "eval.enumerate", "gen"),
    (repro.slp.spanner_eval, "bool_mm_many", "kernels.mm", "pairs"),
    (repro.query.executor, "parse_expression", "query.parse", None),
    (repro.query.executor, "plan_expression", "query.plan", None),
    (repro.query.executor, "build_automaton", "query.automaton", None),
    (QuerySession, "execute_plan", "query.execute", None),
    (WindowedSpannerStream, "ingest", "stream.ingest", _slp_attr),
    (WindowedSpannerStream, "evaluate", "stream.evaluate", "frontier"),
    (repro.stream.windowed, "text_entry", "stream.guard", None),
    (repro.stream.windowed, "combine", "stream.guard", None),
)
WRITES = ("db.edit", "db.add", "stream.ingest")
#: per-layer timing metric -> (span name, self time?)
TIMES = {
    "db.query_ms": ("db.query", False),
    "db.edit_ms": ("db.edit", False),
    "db.add_ms": ("db.add", False),
    "db.query_expr_ms": ("db.query_expr", False),
    "slp.repair_ms": ("slp.repair", False),
    "slp.rebalance_ms": ("slp.rebalance", False),
    "slp.cde_ms": ("slp.cde", False),
    "slp.append_ms": ("slp.append", False),
    "eval.preprocess_ms": ("eval.preprocess", True),
    "eval.enumerate_ms": ("eval.enumerate", True),
    "kernels.mm_ms": ("kernels.mm", True),
    "plan.compile_ms": ("plan.compile", False),
    "query.parse_ms": ("query.parse", False),
    "query.plan_ms": ("query.plan", False),
    "query.automaton_ms": ("query.automaton", False),
    "query.execute_ms": ("query.execute", False),
    "stream.ingest_ms": ("stream.ingest", False),
    "stream.evaluate_ms": ("stream.evaluate", False),
    "stream.guard_ms": ("stream.guard", False),
}
COUNTERS = (
    "slp.eval.walk_visited",
    "slp.eval.walk_skipped",
    "slp.eval.sealed_hits",
    "kernels.mm",
    "kernels.mm_collapsed",
)


class Span:
    __slots__ = (
        "name", "parent", "trace_id", "phase",
        "start_ns", "end_ns", "active_ns", "child_ns", "value",
    )

    def __init__(self, name, parent, trace_id, phase) -> None:
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        #: the index of the measured batch the span ran in
        self.phase = phase
        self.start_ns = self.end_ns = None
        self.active_ns = self.child_ns = self.value = 0

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


class Tracer:
    """Span recorder, wrapper installer and per-layer aggregator."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.on = False
        self.phase: int | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.factors: dict[int, float] = {}
        self.traced_p50: list[float] = []
        self.untraced_p50: list[float] = []
        #: (queue, exec, client latency) of each traced served request
        self.serve_samples: list[tuple[float, float, float]] = []
        #: client latency minus the session's window time, per traced window
        self.handoffs: list[float] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.plan = {"hits": 0, "misses": 0, "evictions": 0}
        self.traced_ops = 0
        self._snap: dict | None = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        ctx = obs.current_context()
        return Span(
            name, stack[-1] if stack else None,
            ctx.trace_id if ctx is not None else None, self.phase,
        )

    def _segment(self, span: Span, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if span.start_ns is None:
                span.start_ns = start
            span.end_ns = end
            span.active_ns += end - start
            if parent is not None:
                parent.child_ns += end - start

    def _wrap(self, name: str, fn, probe):
        tracer = self
        if probe == "gen":
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                return tracer._traced_gen(tracer._open(name), fn(*args, **kwargs))

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            slp = probe(args) if callable(probe) else None
            before = slp.num_nodes() if slp is not None else 0
            try:
                result = tracer._segment(span, fn, *args, **kwargs)
            finally:
                tracer.spans.append(span)
            if slp is not None:
                span.value = slp.num_nodes() - before
            elif probe == "result":
                span.value = result
            elif probe == "pairs":
                span.value = len(args[0])
            elif probe == "frontier":
                span.value = len(args[0].results())
            return result

        return wrapper

    def _traced_gen(self, span: Span, gen):
        try:
            while True:
                try:
                    item = self._segment(span, next, gen)
                except StopIteration:
                    return
                span.value += 1
                yield item
        finally:
            gen.close()
            self.spans.append(span)

    def install(self) -> None:
        for owner, attr, name, probe in TARGETS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, probe))
        original = PlanCache.get_or_compile
        tracer = self

        @functools.wraps(original)
        def get_or_compile(cache, source, compiler=None):
            if not tracer.on:
                return original(cache, source, compiler)
            # the compiler runs only on a miss: its span is the compile
            compile_fn = compiler or repro.kernels.plan._compile
            return original(cache, source, tracer._wrap("plan.compile", compile_fn, None))

        self._patches.append((PlanCache, "get_or_compile", original))
        PlanCache.get_or_compile = get_or_compile

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.on = False
        obs.configure(enabled=False, reset=True)

    def trace(self, phase: int) -> None:
        self.phase = phase
        self.on = True
        obs.configure(enabled=True)

    def pause(self) -> None:
        self.on = False
        obs.configure(enabled=False)

    # ------------------------------------------------------------------
    # the measured phase (hook protocol of run.measure)
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        counters = obs.metrics().snapshot()["counters"]
        stats = plan_cache().stats()
        return {
            **{k: counters.get(k, 0) for k in COUNTERS},
            **{f"plan.{k}": stats[k] for k in self.plan},
        }

    def begin(self, index: int) -> bool:
        traced = index % 2 == 1
        if traced:
            self.trace(index)
            self._snap = self._snapshot()
        return traced

    def end(self, traced: bool) -> None:
        if not traced:
            return
        after = self._snapshot()
        self.pause()
        for key in COUNTERS:
            self.counters[key] += after[key] - self._snap[key]
        for key in self.plan:
            self.plan[key] += after[f"plan.{key}"] - self._snap[f"plan.{key}"]

    def record(self, index: int, traced: bool, samples, factor: float) -> None:
        primary = [s.seconds * factor for s in samples if s.ok and s.primary]
        (self.traced_p50 if traced else self.untraced_p50).extend(primary)
        if not traced:
            return
        self.factors[index] = factor
        self.traced_ops += len(samples)
        for s in samples:
            if s.serve is not None:
                self.serve_samples.append(
                    (s.serve[0] * factor, s.serve[1] * factor, s.seconds * factor)
                )
            if s.window_ns is not None:
                self.handoffs.append((s.seconds - s.window_ns / 1e9) * factor)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _measured(self, names) -> list[tuple[Span, float]]:
        """Spans named in *names* from the traced batches, each with its
        batch's calibration factor."""
        return [(s, self.factors[s.phase]) for s in self.spans if s.name in names]

    def layer_metrics(self, calibrator, serve_before, serve_after) -> dict:
        metrics: dict[str, tuple[float, str]] = {}

        def mean(values) -> float:
            return statistics.fmean(values) if values else 0.0

        def median(values) -> float:
            return statistics.median(values) if values else 0.0

        for metric, (name, self_time) in TIMES.items():
            metrics[metric] = (mean([
                (s.active_ns - (s.child_ns if self_time else 0)) * f / 1e6
                for s, f in self._measured((name,))
            ]), "ms")

        served = self.serve_samples
        metrics["serve.queue_ms"] = (median([q / 1e6 for q, _, _ in served]), "ms")
        metrics["serve.exec_ms"] = (median([e / 1e6 for _, e, _ in served]), "ms")
        metrics["serve.overhead_ms"] = (median([c * 1e3 - e / 1e6 for _, e, c in served]), "ms")
        for key in ("retries", "failed", "shed", "degraded"):
            metrics[f"serve.{key}"] = (serve_after.get(key, 0) - serve_before.get(key, 0), "count")

        writes = [s for s, _ in self._measured(WRITES)]
        metrics["slp.fresh_nodes_per_write"] = (mean([s.value for s in writes]), "count")
        write_ids = {id(s) for s in writes}
        fresh = sum(
            s.value for s, _ in self._measured(("eval.preprocess",))
            if any(id(a) in write_ids for a in s.ancestors())
        )
        metrics["eval.fresh_matrices_per_write"] = (fresh / len(writes) if writes else 0.0, "count")
        ops = max(1, self.traced_ops)
        metrics["eval.walk_visited"] = (self.counters["slp.eval.walk_visited"] / ops, "count")
        metrics["eval.walk_skipped"] = (self.counters["slp.eval.walk_skipped"] / ops, "count")
        preprocesses = len(self._measured(("eval.preprocess",)))
        metrics["eval.sealed_hit_ratio"] = (
            self.counters["slp.eval.sealed_hits"] / preprocesses if preprocesses else 0.0, "ratio"
        )
        metrics["eval.tuples_per_read"] = (
            mean([s.value for s, _ in self._measured(("eval.enumerate",))]), "count"
        )
        products = self.counters["kernels.mm"]
        collapsed = self.counters["kernels.mm_collapsed"]
        metrics["kernels.mm_products"] = (products / ops, "count")
        metrics["kernels.mm_collapsed_ratio"] = (
            collapsed / (products + collapsed) if products + collapsed else 0.0, "ratio"
        )
        lookups = self.plan["hits"] + self.plan["misses"]
        metrics["plan.hit_ratio"] = (self.plan["hits"] / lookups if lookups else 1.0, "ratio")
        metrics["plan.evictions"] = (self.plan["evictions"], "count")
        metrics["plan.bytes"] = (plan_cache().stats()["bytes"], "B")

        metrics["stream.handoff_ms"] = (median(self.handoffs) * 1e3, "ms")
        metrics["stream.results_per_window"] = (
            mean([s.value for s, _ in self._measured(("stream.evaluate",))]), "count"
        )
        traced, untraced = median(self.traced_p50), median(self.untraced_p50)
        metrics["trace.p50_traced_ms"] = (traced * 1e3, "ms")
        metrics["trace.p50_untraced_ms"] = (untraced * 1e3, "ms")
        metrics["trace.overhead"] = (traced / untraced if untraced else 0.0, "ratio")
        metrics["calib_ms"] = (calibrator.median_ms(), "ms")
        return metrics

    def summary(self) -> dict:
        return {
            "spans": len(self.spans),
            "trace_ids": len({s.trace_id for s in self.spans if s.trace_id}),
            "traced_batches": len(self.factors),
        }
