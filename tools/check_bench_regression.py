#!/usr/bin/env python3
"""Gate benchmark results against regressions.

Two modes, one binary:

``python tools/check_bench_regression.py``
    *Validate* the committed ``benchmarks/results/`` — every file parses,
    every module has rows, every recorded before/after ``speedup`` still
    meets its documented floor (packed kernels ≥ 3x, plan cache ≥ 2x),
    and every recorded observability-overhead ratio stays under its
    ceiling.  Every floor and ceiling must name a test that some
    ``benchmarks/bench_*.py`` defines: a gate on a deleted lane fails
    here instead of passing silently for want of a row.  This is the
    cheap invariant CI runs on every push without executing the perf
    workload.

``python tools/check_bench_regression.py BASELINE_DIR FRESH_DIR``
    *Compare* a fresh benchmark run against a baseline (typically: copy
    the committed results aside, re-run ``pytest benchmarks/``, then
    compare).  Fails when any test got more than ``--max-slowdown``
    (default 1.3x) slower, or any fitted complexity exponent drifted by
    more than ``--max-exponent-drift`` (default 0.25) — a slope change
    means the *shape* of a claim moved, which no amount of noise excuses.

Timing comparisons skip rows whose baseline is below ``--min-seconds``
(default 5 ms): micro-rows are dominated by interpreter jitter and would
make the 1.3x gate flap.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
DEFAULT_RESULTS = BENCHMARKS / "results"

# documented floors for the recorded before/after rows (ISSUE 4 acceptance)
SPEEDUP_FLOORS = {
    "test_c2_packed_kernel_speedup": 3.0,
    "test_c3_packed_kernel_speedup": 3.0,
    "test_o2_repeated_query_plan_cache": 2.0,
    # shard-parallel evaluation (ISSUE 5): the batched-fold row always
    # exists
    "test_parallel_batched_fold_speedup": 2.0,
    # sublinear incremental maintenance (ISSUE 9): warm post-edit
    # preprocess vs cold rebuild at the largest (64x) document size —
    # measured ~150x on the reference host, floored far below that
    "test_dyn1_postedit_latency_sublinear": 3.0,
    # query planner (ISSUE 10): a repeated expression must hit the shared
    # plan cache, and warm-statistics join re-ordering must beat the
    # written-order plan (both measured well above the floor; the
    # reorder row also records naive_speedup vs left-to-right
    # materialization, gated in the benchmark itself)
    "test_query_plan_cache_warm_hit": 2.0,
    "test_query_planner_reorder_beats_naive": 2.0,
    # warm sealed log reads: compressed enumeration vs the decompressed
    # fallback, per output tuple (measured ~12x; 1.8x before the int-bitset
    # descent with its continuation memo)
    "test_c3_warm_log_read_per_tuple": 5.0,
    # incremental Re-Pair vs the quadratic rescanning oracle on a 43-line
    # log, same grammar node for node (measured 12-18x)
    "test_c10_repair_log_document_speedup": 3.0,
}

# ceilings for the observability-tax rows: the recorded
# ratio fields in BENCH_obs.json must stay under the documented ceiling.  The
# lanes target ~3% overhead (asserted at 1.25x for timer noise on shared CI
# machines).
OVERHEAD_CEILINGS = {
    "test_o1_disabled_overhead_unmeasurable": ("disabled_over_raw_ratio", 1.10),
    "test_o1_enabled_overhead_under_target": ("enabled_over_disabled_ratio", 1.25),
    "test_o1_slp_eval_enabled_overhead": ("enabled_over_disabled_ratio", 1.25),
    # streaming ingestion (ISSUE 8): late windows stay within 3x of early
    # ones across 64x feed growth (the log-spine claim), the dedup
    # frontier never exceeds its configured byte bound, and the 30%-fault
    # chaos lane keeps per-window p99 within 5x of the clean lane
    "test_stream_window_latency_flat_64x": ("latency_ratio", 3.0),
    "test_stream_frontier_memory_ceiling": ("frontier_over_budget_ratio", 1.0),
    "test_stream_chaos_tail_latency": ("chaos_over_clean_p99_ratio", 5.0),
    # sublinear incremental maintenance (ISSUE 9): post-edit latency must
    # fit an exponent < 0.5 against document size at 64x growth (the row
    # also carries it as fitted_exponent, so compare mode gates drift), a
    # repeat query on a sealed root performs zero topological visits, and
    # append discovery walks only a sliver of the arena
    "test_dyn1_postedit_latency_sublinear": ("incremental_exponent", 0.5),
    "test_dyn2_sealed_repeat_zero_walk": ("repeat_walk_visited", 0.0),
    "test_dyn3_append_discovery_frontier": ("walk_visited_fraction", 0.05),
}


def _load_rows(directory: pathlib.Path) -> dict[str, dict]:
    """All result rows across a directory, keyed by 'module::test'."""
    rows: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        module = payload.get("bench", path.stem)
        file_rows = payload.get("rows", [])
        if not file_rows:
            raise SystemExit(f"{path.name}: no result rows")
        for row in file_rows:
            rows[f"{module}::{row['test']}"] = row
    if not rows:
        raise SystemExit(f"{directory}: no BENCH_*.json files found")
    return rows


def defined_benchmarks(directory: pathlib.Path = BENCHMARKS) -> set[str]:
    """Names of the test functions every ``bench_*.py`` in *directory*
    defines."""
    names = set()
    for path in sorted(directory.glob("bench_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names.update(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_")
        )
    return names


def stale_gates(defined: set[str]) -> list[str]:
    """Floors and ceilings whose test no benchmark defines any more."""
    return [
        f"{table}: {name} names no test in benchmarks/bench_*.py"
        for table, gates in (
            ("SPEEDUP_FLOORS", SPEEDUP_FLOORS),
            ("OVERHEAD_CEILINGS", OVERHEAD_CEILINGS),
        )
        for name in sorted(gates)
        if name not in defined
    ]


def validate(directory: pathlib.Path) -> list[str]:
    """Invariants of a single results directory (the committed baseline)."""
    problems = stale_gates(defined_benchmarks())
    for key, row in _load_rows(directory).items():
        floor = SPEEDUP_FLOORS.get(row.get("name", ""))
        speedup = row.get("speedup")
        if floor is not None and isinstance(speedup, (int, float)):
            if speedup < floor:
                problems.append(
                    f"{key}: recorded speedup {speedup:.2f}x below the "
                    f"{floor:.1f}x floor"
                )
        ceiling_spec = OVERHEAD_CEILINGS.get(row.get("name", ""))
        if ceiling_spec is not None:
            field, ceiling = ceiling_spec
            ratio = row.get(field)
            if isinstance(ratio, (int, float)) and ratio > ceiling:
                problems.append(
                    f"{key}: recorded {field} {ratio:.3f}x above the "
                    f"{ceiling:.2f}x ceiling"
                )
        seconds = row.get("seconds")
        if isinstance(seconds, (int, float)) and seconds < 0:
            problems.append(f"{key}: negative seconds {seconds}")
    return problems


def compare(
    baseline_dir: pathlib.Path,
    fresh_dir: pathlib.Path,
    max_slowdown: float,
    max_exponent_drift: float,
    min_seconds: float,
) -> list[str]:
    baseline = _load_rows(baseline_dir)
    fresh = _load_rows(fresh_dir)
    problems = []
    compared = 0
    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh.get(key)
        if fresh_row is None:
            problems.append(f"{key}: present in baseline, missing from fresh run")
            continue
        base_s, fresh_s = base_row.get("seconds"), fresh_row.get("seconds")
        if (
            isinstance(base_s, (int, float))
            and isinstance(fresh_s, (int, float))
            and base_s >= min_seconds
        ):
            compared += 1
            if fresh_s > base_s * max_slowdown:
                problems.append(
                    f"{key}: {fresh_s:.4f}s vs baseline {base_s:.4f}s "
                    f"({fresh_s / base_s:.2f}x > {max_slowdown:.2f}x)"
                )
        base_e = base_row.get("fitted_exponent")
        fresh_e = fresh_row.get("fitted_exponent")
        if isinstance(base_e, (int, float)) and isinstance(fresh_e, (int, float)):
            if abs(fresh_e - base_e) > max_exponent_drift:
                problems.append(
                    f"{key}: fitted exponent drifted {base_e:.3f} -> {fresh_e:.3f} "
                    f"(|Δ| > {max_exponent_drift})"
                )
    if compared == 0:
        problems.append("no timing rows were comparable; check the directories")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", type=pathlib.Path)
    parser.add_argument("fresh", nargs="?", type=pathlib.Path)
    parser.add_argument("--max-slowdown", type=float, default=1.3)
    parser.add_argument("--max-exponent-drift", type=float, default=0.25)
    parser.add_argument("--min-seconds", type=float, default=0.005)
    args = parser.parse_args(argv)

    if args.baseline is not None and args.fresh is None:
        parser.error("compare mode needs both BASELINE_DIR and FRESH_DIR")

    if args.baseline is None:
        problems = validate(DEFAULT_RESULTS)
        mode = f"validate {DEFAULT_RESULTS}"
    else:
        problems = compare(
            args.baseline,
            args.fresh,
            args.max_slowdown,
            args.max_exponent_drift,
            args.min_seconds,
        )
        mode = f"compare {args.baseline} -> {args.fresh}"

    if problems:
        print(f"bench regression check FAILED ({mode}):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"bench regression check ok ({mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
