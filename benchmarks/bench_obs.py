"""Experiment O1: the observability tax and the measured constant-delay
profile (paper Section 2.5 / Section 4.2).

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
  within one power-of-two bucket of the short document's p50.
"""

import gc
import statistics
import time

import pytest

from repro import obs
from repro.enumeration import Enumerator, profile_delays
from repro.enumeration.naive import emissions_to_tuple
from repro.regex import spanner_from_regex
from repro.slp import SLP, repair_node
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.util import sparse_matches

PATTERN = "(a|b)*!x{ab}(a|b)*"


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with observability off and empty."""
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=False, reset=True)


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


def _paired_ratio(fn, baseline, pairs: int = 15) -> float:
    """Median of ``time(fn) / time(baseline)`` over back-to-back pairs.

    The two runs of a pair alternate which goes first and run with the GC
    parked, so load drift on a shared host hits both halves of a pair
    alike instead of landing on one side of two separate medians."""
    ratios = []
    for index in range(pairs):
        order = (fn, baseline) if index % 2 else (baseline, fn)
        elapsed = {}
        for run in order:
            gc.collect()
            gc.disable()
            start = time.perf_counter_ns()
            run()
            elapsed[run] = time.perf_counter_ns() - start
            gc.enable()
        ratios.append(elapsed[fn] / elapsed[baseline])
    return statistics.median(ratios)


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
    ratio = _paired_ratio(instrumented, raw)
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
