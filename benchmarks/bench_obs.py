"""Experiments O1/O3: the observability tax and the measured
constant-delay profile (paper Section 2.5 / Section 4.2; ISSUE 2 and
ISSUE 7 acceptance criteria).

Claims benchmarked:

* with :mod:`repro.obs` **disabled** (the default), the instrumented
  enumeration and SLP-evaluation hot paths are indistinguishable from the
  raw, uninstrumented pipeline (the guard is one boolean per call);
* with observability **enabled** — per-tuple delay histograms, spans, and
  cache counters live — the overhead stays under the 5% target of
  docs/OBSERVABILITY.md (the assertions allow slack for timer noise on
  shared CI hardware; the recorded ratios are the honest numbers);
* the per-tuple delay percentiles reported by the histogram-backed
  profiler are **flat in the document length** — the empirical form of
  the constant-delay claim ([10]/[2]): p50 on a 64×-longer document stays
  within one power-of-two bucket of the short document's p50;
* **O3 (cross-process)**: the process backend with worker telemetry
  harvest, trace shipping, and flight rings live stays under the looser
  1.5x ceiling of ``tools/check_bench_regression.py`` — harvest deltas
  piggyback on result messages, so the added cost is packing, not
  round-trips.
"""

import gc
import random
import statistics
import time

import pytest

from repro import obs
from repro.enumeration import Enumerator, profile_delays
from repro.enumeration.naive import emissions_to_tuple
from repro.parallel import (
    configure_pool,
    document_matrices,
    live_segments,
    shutdown_pool,
)
from repro.regex import spanner_from_regex
from repro.slp import SLP, repair_node
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.util import sparse_matches

PATTERN = "(a|b)*!x{ab}(a|b)*"


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with observability off and empty, and
    leaks neither a pool nor a shared-memory segment."""
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=False, reset=True)
    shutdown_pool()
    assert live_segments() == []


def _median_ns(fn, repeats: int = 9) -> float:
    """Median wall time of *fn* with the GC parked (single-run deltas are
    milliseconds; collector pauses would dominate the spread)."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
        gc.enable()
    return statistics.median(samples)


def test_o1_disabled_overhead_unmeasurable(bench):
    """Instrumented enumerate_index with obs off vs the raw emissions
    pipeline: the ratio must sit in the timer-noise band."""
    enumerator = Enumerator(spanner_from_regex(PATTERN))
    index = enumerator.preprocess(sparse_matches("ab", "a", count=2000, gap=30))

    def raw():
        return sum(1 for _ in map(emissions_to_tuple, enumerator.enumerate_emissions(index)))

    def instrumented():
        return sum(1 for _ in enumerator.enumerate_index(index))

    raw(), instrumented()  # warm up
    ratio = _median_ns(instrumented) / _median_ns(raw)
    bench(instrumented)
    bench.record(disabled_over_raw_ratio=round(ratio, 4))
    assert ratio < 1.10, f"disabled instrumentation must be free, got {ratio:.3f}x"


def test_o1_enabled_overhead_under_target(bench):
    """Per-tuple delay histogram + stream span on: <5% target, asserted
    with CI slack; the measured ratio is recorded in BENCH_obs.json."""
    enumerator = Enumerator(spanner_from_regex(PATTERN))
    index = enumerator.preprocess(sparse_matches("ab", "a", count=2000, gap=30))

    def run():
        return sum(1 for _ in enumerator.enumerate_index(index))

    run()  # warm up
    obs.configure(enabled=False, reset=True)
    disabled = _median_ns(run)
    obs.configure(enabled=True, reset=True)
    enabled = _median_ns(run)
    recorded = obs.metrics().histogram("enumeration.delay_ns").count
    obs.configure(enabled=False)
    ratio = enabled / disabled
    bench(run)
    bench.record(enabled_over_disabled_ratio=round(ratio, 4))
    assert recorded > 0, "enabled run must populate the delay histogram"
    assert ratio < 1.25, f"enabled overhead target is 5%, got {ratio:.3f}x"


def test_o1_slp_eval_enabled_overhead(bench):
    """The compressed evaluator's cache counters and kernel timer are per
    *call*, not per node — enabling them must not slow evaluation."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    slp = SLP()
    node = repair_node(slp, sparse_matches("ab", "a", count=500, gap=40))

    def run():
        return sum(1 for _ in evaluator.enumerate(slp, node))

    run()  # warm up (and fill the matrix cache)
    obs.configure(enabled=False, reset=True)
    disabled = _median_ns(run)
    obs.configure(enabled=True, reset=True)
    enabled = _median_ns(run)
    hits = obs.metrics().counter("slp.eval.cache_hits").value
    obs.configure(enabled=False)
    ratio = enabled / disabled
    bench(run)
    bench.record(enabled_over_disabled_ratio=round(ratio, 4))
    assert hits > 0, "warm cache must register hits once observability is on"
    assert ratio < 1.25, f"enabled overhead target is 5%, got {ratio:.3f}x"


def test_o3_process_pool_enabled_overhead(bench):
    """The cross-process lane: ``document_matrices`` over the process
    backend with the full ISSUE 7 machinery live — per-task harvest
    collection, span shipping, per-worker flight rings.
    The ceiling is looser than the in-process lanes' (1.5x, enforced on
    the recorded row by tools/check_bench_regression.py): the harvest and
    ring writes are real per-task work, but they ride the existing result
    pipe rather than adding round-trips."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    rng = random.Random(0)
    text = "".join(rng.choice("ab") for _ in range(32 * 1024))
    configure_pool(workers=2)

    def run():
        return document_matrices(
            evaluator, text, backend="process", workers=2, shards=2
        )

    run()  # warm the pool and the plan cache
    obs.configure(enabled=False, reset=True)
    disabled = _median_ns(run, repeats=5)
    obs.configure(enabled=True, reset=True)
    enabled = _median_ns(run, repeats=5)
    harvests = obs.metrics().counter("parallel.proc.harvests").value
    obs.configure(enabled=False)
    ratio = enabled / disabled
    bench(run, rounds=1)
    bench.record(
        doc_length=len(text),
        enabled_over_disabled_ratio=round(ratio, 4),
        harvests=harvests,
    )
    assert harvests > 0, "enabled runs must fold worker harvests"
    assert ratio < 1.5, f"cross-process obs ceiling is 1.5x, got {ratio:.3f}x"


def test_o3_crash_telemetry_survives_sigkill(bench):
    """The flight-recorder row: under a seeded SIGKILL schedule the batch
    still answers exactly, and every declared crash carries salvaged
    last-activity records.  Recorded here so the salvage rate is a
    tracked number, not an anecdote."""
    from repro.parallel import ProcCall, ProcPool
    from repro.util import WorkerChaos

    obs.configure(enabled=True, reset=True)
    chaos = WorkerChaos(seed=0, kill_rate=0.3)
    # verdicts are keyed on (run, call index, attempt), so the schedule is
    # fixed: seed 0 kills no task more than twice in a row in the lane's
    # two batches, and the deep retry budget leaves room to change seeds
    pool = ProcPool(workers=2, chaos=chaos, task_retries=8, crash_tolerance=100)
    echo = "repro.parallel.procpool:_task_echo"

    def run():
        return pool.run([ProcCall(echo, (i,)) for i in range(8)])

    try:
        assert run() == list(range(8))
        bench(run, rounds=1)
        stats = pool.stats()
    finally:
        pool.shutdown()
    crash_events = [
        r for r in obs.tracer().records() if r.get("name") == "worker.crash"
    ]
    salvaged = [e for e in crash_events if e["attrs"]["salvaged"]]
    obs.configure(enabled=False)
    assert stats["crashes"] >= 1
    assert len(salvaged) == len(crash_events), "every crash must salvage its ring"
    bench.record(
        crashes=stats["crashes"],
        crash_sigkill=stats["crash_sigkill"],
        salvaged_crash_events=len(salvaged),
    )


@pytest.mark.parametrize("scale", [64, 512, 4096])
def test_o1_delay_percentiles_flat(bench, scale):
    """The delay profile: per-tuple p50/p90 must not grow with |D|.

    Power-of-two buckets quantise to at most 2×, so "flat" is asserted as
    "within a factor of 4 of the smallest document's p50" — a 64× longer
    document with delay growing even as log |D| would blow through that.
    The full percentile rows land in BENCH_obs.json as the delay-profile
    report."""
    enumerator = Enumerator(spanner_from_regex(PATTERN))
    doc = sparse_matches("ab", "a", count=scale, gap=30)
    index = enumerator.preprocess(doc)

    def profile():
        gc.collect()
        gc.disable()
        try:
            items, profiler = profile_delays(enumerator.enumerate_index(index))
        finally:
            gc.enable()
        assert len(items) == scale
        return profiler

    profile()  # warm up
    profiler = bench(profile)
    report = profiler.report()
    bench.benchmark.extra_info["doc_length"] = len(doc)
    bench.record(
        tuples=scale,
        p50_ns=report["p50"],
        p90_ns=report["p90"],
        p99_ns=report["p99"],
    )
    # the flatness assertion compares against the smallest document's run,
    # computed fresh here so the test stands alone under -k
    base_index = enumerator.preprocess(sparse_matches("ab", "a", count=64, gap=30))
    _, base = profile_delays(enumerator.enumerate_index(base_index))
    assert profiler.percentile(50) <= 4 * max(base.percentile(50), 1.0), (
        f"p50 delay grew with the document: {profiler.percentile(50)}ns "
        f"on |D|={len(doc)} vs {base.percentile(50)}ns on the base document"
    )
