"""R4 — serving-layer overhead and fault-rate throughput sweep.

Three claims from the serving issue, measured end to end:

* **Overhead**: fault-free throughput through the full service stack
  (queue, deadline plumbing, breaker accounting, RW lock) stays within
  ~10% of an unguarded ``db.query`` loop — the guardrails are cheap when
  nothing is wrong.  The document is large enough (1k chars, 512 tuples
  per query) that evaluation dominates, as it does in any real workload.
* **Throughput under faults**: at 10% and 30% injected fault rates every
  request still completes (retries + degradation), throughput degrades
  smoothly rather than collapsing, and
* **Tail latency**: the breaker + retry budget keep p99 under faults
  within 5× of the fault-free p99 — failures cost retries and the
  occasional decompressed evaluation, never unbounded queueing.
"""

import statistics
import time

from repro import SpannerDB
from repro.serve import ServeConfig, SpannerService, serve_queries
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.util import ChaosInjector

PATTERN = "(a|b)*!x{ab}(a|b)*"
DOC = "ab" * 512
QUERIES = 30
#: alternating direct/service pairs behind the overhead ratio
PAIRS = 9


def build_store() -> SpannerDB:
    db = SpannerDB()
    db.add_document("d", DOC)
    db.register_spanner("m", PATTERN)
    list(db.query("m", "d"))  # warm the matrix caches
    return db


def service_config(seed: int = 0) -> ServeConfig:
    return ServeConfig(
        workers=2,
        queue_limit=QUERIES * 2,
        retry_max_attempts=3,
        retry_base_delay=0.001,
        retry_max_delay=0.01,
        breaker_failure_threshold=5,
        breaker_reset_after=0.05,
        seed=seed,
    )


def run_service_round(db, fault_rate: float, seed: int) -> dict:
    """Push QUERIES requests through a service at one fault rate; returns
    elapsed wall time, completion counts, and latency percentiles."""
    injector = ChaosInjector(seed)
    service = SpannerService(db, service_config(seed))
    requests = [("m", "d")] * QUERIES
    with injector.chaos(
        SLPSpannerEvaluator, "enumerate", site="enumerate", error_rate=fault_rate
    ):
        with service:
            start = time.perf_counter()
            outcomes = list(serve_queries(service, iter(requests)))
            elapsed = time.perf_counter() - start
    completed = [o for o in outcomes if not isinstance(o, Exception)]
    assert len(completed) == QUERIES, "every request must complete"
    assert all(len(o.tuples) == 512 for o in completed), "wrong answers"
    stats = service.stats()
    return {
        "elapsed": elapsed,
        "throughput_qps": QUERIES / elapsed,
        "p50": service.latency_percentile(50),
        "p99": service.latency_percentile(99),
        "degraded": stats["degraded"],
        "retries": stats["retries"],
        "breaker_opened": stats["breaker"]["times_opened"],
        "faults_fired": sum(injector.fired().values()),
    }


def test_fault_free_overhead_vs_unguarded(bench):
    """The guarded service keeps ≥ ~90% of unguarded throughput."""
    db = build_store()

    def direct_loop():
        for _ in range(QUERIES):
            assert len(list(db.query("m", "d"))) == 512

    def direct_elapsed():
        start = time.perf_counter()
        direct_loop()
        return time.perf_counter() - start

    bench(direct_loop, rounds=3)
    # One direct loop against one service round spread 0.75–1.21x on a
    # 2-vCPU host for the same code, so the ratio is the median over
    # pairs that alternate which side runs first.
    ratios, directs, services = [], [], []
    for pair in range(PAIRS):
        if pair % 2:
            direct = direct_elapsed()
            round_stats = run_service_round(db, fault_rate=0.0, seed=0)
        else:
            round_stats = run_service_round(db, fault_rate=0.0, seed=0)
            direct = direct_elapsed()
        assert round_stats["degraded"] == 0
        assert round_stats["faults_fired"] == 0
        directs.append(direct)
        services.append(round_stats["elapsed"])
        ratios.append(round_stats["elapsed"] / direct)
    ratio = statistics.median(ratios)
    bench.record(
        direct_qps=QUERIES / statistics.median(directs),
        service_qps=QUERIES / statistics.median(services),
        overhead_ratio=ratio,
    )
    # within 10% of unguarded (evaluation dominates; the pool adds ~µs)
    assert ratio <= 1.10, f"service overhead {ratio:.2f}x"


def test_throughput_and_tail_latency_across_fault_rates(bench):
    """0% / 10% / 30% fault sweep: everything completes, p99 stays
    within 5× of fault-free p99."""
    db = build_store()
    sweep = {}
    for rate in (0.0, 0.1, 0.3):
        sweep[rate] = run_service_round(db, fault_rate=rate, seed=17)

    def fault_free_round():
        return run_service_round(db, fault_rate=0.0, seed=17)

    bench(fault_free_round, rounds=2)
    bench.record(
        qps_clean=sweep[0.0]["throughput_qps"],
        qps_10pct=sweep[0.1]["throughput_qps"],
        qps_30pct=sweep[0.3]["throughput_qps"],
        p99_clean=sweep[0.0]["p99"],
        p99_10pct=sweep[0.1]["p99"],
        p99_30pct=sweep[0.3]["p99"],
        retries_30pct=sweep[0.3]["retries"],
        degraded_30pct=sweep[0.3]["degraded"],
        breaker_opened_30pct=sweep[0.3]["breaker_opened"],
    )
    assert sweep[0.1]["faults_fired"] > 0
    assert sweep[0.3]["faults_fired"] > 0
    for rate in (0.1, 0.3):
        assert sweep[rate]["p99"] <= 5 * max(sweep[0.0]["p99"], 1e-6), (
            f"p99 at {rate:.0%} faults: {sweep[rate]['p99']:.3f}s vs "
            f"clean {sweep[0.0]['p99']:.3f}s"
        )
    # throughput degrades, it does not collapse
    assert sweep[0.3]["throughput_qps"] >= sweep[0.0]["throughput_qps"] / 5
