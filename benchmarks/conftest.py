"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` file regenerates one experiment of DESIGN.md's
per-experiment index (P* = paper artifacts, C* = complexity-claim shapes,
R* = reliability, O* = observability).  Benchmarks assert the *shape* of
each claim (who wins, how things scale), never absolute numbers; see
EXPERIMENTS.md for the recorded outcomes.

Machine-readable results
------------------------

Every test that uses the ``bench`` fixture automatically contributes one
result row, and at session end the rows are written per module to
``benchmarks/results/BENCH_<name>.json``::

    {"bench": "enumeration",
     "rows": [{"name": ..., "test": ..., "n": ..., "seconds": ...,
               "fitted_exponent": ..., "params": {...}, "extra_info": {...}}]}

``seconds`` is the median of the measured rounds; ``n`` is inferred from
``benchmark.extra_info`` (``doc_length``/``n``/``length``) or an integer
``scale``/``exponent``-style parametrisation; ``fitted_exponent`` is the
least-squares slope of log(seconds) against log(n) across the
parametrised variants of the same test (only where ≥ 2 sizes ran — the
empirical complexity exponent, so the perf trajectory of every claim is
recorded, not just eyeballed).  Use ``bench.record(key=value, ...)`` to
attach extra fields to the current row.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from collections import defaultdict

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

# lanes that time a builder against its test-only oracle import it from
# the ``tests`` package, which a bare ``pytest benchmarks/`` cannot see
sys.path.insert(0, str(RESULTS_DIR.parent.parent))

_rows_by_module: dict[str, list[dict]] = defaultdict(list)


@pytest.fixture
def bench(benchmark, request):
    """A thin wrapper that runs each benchmark a small, fixed number of
    rounds — the workloads here are macro-benchmarks where pytest-benchmark
    auto-calibration would be needlessly slow — and records a result row
    for ``BENCH_<module>.json``."""
    extra: dict = {}

    def run(fn, *args, rounds: int = 3, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=rounds, iterations=1)

    def record(**fields) -> None:
        """Attach extra fields to this test's result row."""
        extra.update(fields)

    run.benchmark = benchmark
    run.record = record
    yield run
    row = _make_row(request, benchmark, extra)
    if row is not None:
        _rows_by_module[request.node.module.__name__].append(row)


def _median_seconds(benchmark) -> float | None:
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return None
    inner = getattr(stats, "stats", stats)
    median = getattr(inner, "median", None)
    return float(median) if median is not None else None


def _jsonable(value):
    return value if isinstance(value, (int, float, str, bool)) or value is None else None


def _infer_n(params: dict, info: dict):
    for key in ("doc_length", "n", "length"):
        if isinstance(info.get(key), (int, float)):
            return info[key]
    for key in ("scale", "n", "size", "count"):
        if isinstance(params.get(key), int):
            return params[key]
    if isinstance(params.get("exponent"), int):
        return 2 ** params["exponent"]
    if isinstance(params.get("big_exponent"), int):
        return 2 ** params["big_exponent"]
    return None


def _make_row(request, benchmark, extra: dict) -> dict | None:
    seconds = _median_seconds(benchmark)
    if seconds is None and not extra:
        return None  # the test never ran a measured benchmark
    params = {}
    if hasattr(request.node, "callspec"):
        params = {
            k: _jsonable(v)
            for k, v in request.node.callspec.params.items()
            if _jsonable(v) is not None
        }
    info = {
        k: _jsonable(v)
        for k, v in dict(getattr(benchmark, "extra_info", {})).items()
        if _jsonable(v) is not None
    }
    row = {
        "name": getattr(request.node, "originalname", None) or request.node.name,
        "test": request.node.name,
        "n": _infer_n(params, info),
        "seconds": seconds,
        "params": params,
        "extra_info": info,
    }
    row.update(extra)
    return row


def _fit_exponents(rows: list[dict]) -> None:
    """Least-squares slope of log(seconds) vs log(n) per test group."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        n, seconds = row.get("n"), row.get("seconds")
        if isinstance(n, (int, float)) and n > 1 and isinstance(seconds, float) and seconds > 0:
            groups[row["name"]].append(row)
    for group in groups.values():
        points = sorted({(row["n"], row["seconds"]) for row in group})
        if len({n for n, _ in points}) < 2:
            continue
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(s) for _, s in points]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        denom = sum((x - mean_x) ** 2 for x in xs)
        if denom == 0:
            continue
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
        for row in group:
            row["fitted_exponent"] = round(slope, 3)


def pytest_sessionfinish(session, exitstatus):
    if not _rows_by_module:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    for module, rows in sorted(_rows_by_module.items()):
        _fit_exponents(rows)
        name = module.removeprefix("bench_")
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(
            json.dumps({"bench": name, "rows": rows}, indent=2, default=str) + "\n",
            encoding="utf-8",
        )
    _rows_by_module.clear()
