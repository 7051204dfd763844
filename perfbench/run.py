"""End-to-end benchmark of the spanner engine.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --calib-nominal-ms 2.0 --workload serve_reads --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --calib-nominal-ms 2.0 --workload all --seed 1 --seconds 5

One run sets the workload up ``SETUPS`` times (reporting the median
set-up time), runs a fixed number of closed-loop batches with the
calibration kernel between batches, checks every recorded
answer against an independent oracle, tears everything down and fails
on any leftover thread, process or shared-memory segment.  The last
line of standard output is the result object; the line before it is a
detail object with raw (uncalibrated) values and provenance.

The batch count is ``--seconds`` times the workload's constant
``batches_per_s``, so a run does the same work on a slow host, a fast
host or a faster program: state that grows with every op (stored
documents, cached plans) and ``peak_rss_mb`` with it then depend on the
seed alone.

``--trace 1`` runs the same workload with the per-layer tracer of
``tracing.py`` switched on for every other batch and reports the
per-layer metrics instead of the end-to-end ones.

Exit codes: 0 ok, 1 wrong answer or leftover resource, 2 usage or a
checkout without the program's sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import threading
import time

import numpy

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
#: percentiles tried for ``tail_ms``, highest first; a full run always
#: gets the 95th.  Above it, samples that a host hiccup hit inside a
#: batch (which the calibration between batches cannot see) dominate and
#: the figure scatters from run to run.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest ladder
    percentile that leaves at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        beyond = len(ordered) - int(len(ordered) * pct / 100)
        if beyond >= 10:
            return _percentile(ordered, pct), pct, beyond
    return ordered[-1], 100.0, 0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def source_revision() -> dict:
    """The commit when the checkout is a git repository, and always a
    digest of the program's sources (checkouts without .git have no
    commit)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref[5:]):
                            commit = line.split()[0]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class Run:
    """Accumulates one run's calibrated and raw measurements."""

    def __init__(self) -> None:
        self.primary: list[float] = []
        self.aux: list[float] = []
        self.raw_primary: list[float] = []
        self.raw_aux: list[float] = []
        self.ops = 0
        self.failed = 0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.batches = 0

    def add(self, samples, wall: float, factor: float) -> None:
        self.batches += 1
        self.busy_s += wall * factor
        self.raw_busy_s += wall
        for sample in samples:
            self.ops += 1
            if not sample.ok:
                self.failed += 1
                continue
            if sample.primary:
                self.primary.append(sample.seconds * factor)
                self.raw_primary.append(sample.seconds)
            if sample.aux:
                self.aux.append(sample.seconds * factor)
                self.raw_aux.append(sample.seconds)


def measure(workload, batches: int, calibrator, hook=None) -> Run:
    """*batches* closed-loop batches, calibrated per batch.

    *hook* (the tracer, in a traced run) is told where each batch begins
    and ends and gets its samples with their calibration factor."""
    run = Run()
    done = []
    boundaries = [calibrator.measure()]
    for index in range(batches):
        workload.prepare()
        traced = hook.begin(index) if hook else False
        start = time.perf_counter()
        samples = workload.batch()
        wall = time.perf_counter() - start
        if hook:
            hook.end(traced)
        boundaries.append(calibrator.measure())
        done.append((traced, samples, wall))
    factors = [calibrator.factor(a, b) for a, b in zip(boundaries, boundaries[1:])]
    for index, ((traced, samples, wall), factor) in enumerate(zip(done, factors)):
        run.add(samples, wall, factor)
        if hook:
            hook.record(index, traced, samples, factor)
    return run


def leftovers() -> list[str]:
    """Threads, child processes and shm segments still alive."""
    import multiprocessing

    from repro.parallel import live_segments

    problems = []
    deadline = time.monotonic() + 5.0
    others = [t for t in threading.enumerate() if t is not threading.main_thread()]
    while others and time.monotonic() < deadline:
        for thread in others:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        others = [t for t in others if t.is_alive()]
    problems += [f"thread {t.name}" for t in others]
    problems += [f"process {p.pid}" for p in multiprocessing.active_children()]
    problems += [f"shm segment {name}" for name in live_segments()]
    return problems


def run_workload(name: str, seed: int, seconds: float, nominal_ms: float,
                 trace: bool = False, scale: float = 1.0, tamper: bool = False) -> dict:
    """One run of one workload; returns the result object (with a
    ``detail`` key that :func:`main` prints on its own line)."""
    from calib import THREADS, Calibrator, SetupClock
    from workloads import WORKLOADS

    from repro.parallel import shutdown_pool

    workload = WORKLOADS[name](seed, scale=scale, tamper=tamper)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setups, raw_setups = [], []
    batches = max(2, round(seconds * workload.batches_per_s))
    calibrator = Calibrator(nominal_ms / 1e3)
    try:
        for index in range(SETUPS):
            if index:
                workload.teardown()
            gc.collect()  # the last set-up's garbage is not this one's cost
            clock = SetupClock(calibrator)
            workload.setup(clock)
            setups.append(clock.calibrated_s)
            raw_setups.append(clock.raw_s)
        serve_before = workload.service_stats()
        gc.collect()
        measure_start = time.perf_counter()
        run = measure(workload, batches, calibrator, tracer)
        measure_s = time.perf_counter() - measure_start
        serve_after = workload.service_stats()
        check_start = time.perf_counter()
        wrong = workload.check()
        check_s = time.perf_counter() - check_start
    finally:
        try:
            workload.teardown()
        finally:
            calibrator.close()
            if tracer is not None:
                tracer.uninstall()
            shutdown_pool()
    problems = leftovers()
    failed = run.failed + wrong
    attempted = max(1, run.ops)
    p50 = _median(run.primary)
    tail_value, tail_pct, tail_beyond = (
        tail(run.primary) if run.primary else (0.0, 0.0, 0)
    )
    metrics = {
        "setup_s": (_median(setups), "s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "tail_ms": (tail_value * 1e3, "ms"),
        "aux_p50_ms": (_median(run.aux) * 1e3, "ms"),
        "ops_per_s": (run.ops / run.busy_s if run.busy_s else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "bytes_per_char": (workload.footprint, "B"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }
    raw_tail = tail(run.raw_primary)[0] if run.raw_primary else 0.0
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "clients": workload.clients,
        "workers": workload.workers,
        "calib_nominal_ms": nominal_ms,
        "calib_ms": calibrator.median_ms(),
        "calib_runs": len(calibrator.samples),
        "calib_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **source_revision(),
        "fail_frac": failed / attempted,
        "wrong_answers": wrong,
        "tail_pct": tail_pct,
        "tail_beyond": tail_beyond,
        "primary_samples": len(run.primary),
        "aux_samples": len(run.aux),
        "batches": run.batches,
        "measure_s": measure_s,
        "setups_s": setups,
        "check_s": check_s,
        "raw": {
            "setup_s": _median(raw_setups),
            "p50_ms": _median(run.raw_primary) * 1e3,
            "tail_ms": raw_tail * 1e3,
            "aux_p50_ms": _median(run.raw_aux) * 1e3,
            "ops_per_s": run.ops / run.raw_busy_s if run.raw_busy_s else 0.0,
        },
        "serve": {k: serve_after.get(k, 0) - serve_before.get(k, 0) for k in serve_after},
        "leftovers": problems,
    }
    if tracer is not None:
        metrics = tracer.layer_metrics(calibrator, serve_before, serve_after)
        detail["trace"] = tracer.summary()
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="sets the batch count: --seconds times the workload's "
                             "batches_per_s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calib-nominal-ms", type=float, required=True,
                        help="the calibration kernel's time on the reference host "
                             "(BENCHMARK.json's command passes it)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.calib_nominal_ms,
                              trace=bool(args.trace))
        print(json.dumps(result.pop("detail"), sort_keys=True))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
