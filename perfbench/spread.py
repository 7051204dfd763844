"""Run-to-run spread of the benchmark's metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/spread.py --workload serve_reads --runs 10

Runs BENCHMARK.json's command once per seed (1, 2, … ``--runs``), one
run at a time, and prints for every end-to-end metric — and for the raw,
uncalibrated value beside it — the median and the interquartile range
as a share of the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles.  This is how the calibrated-vs-raw spreads in
README.md were measured.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    args = parser.parse_args(argv)

    results, details = [], []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            SPEC["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        details.append(json.loads(lines[-2]))
        results.append(json.loads(lines[-1]))
    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s")
    for name in results[0]["metrics"]:
        median, iqr = spread([r["metrics"][name]["value"] for r in results])
        row = f"  {name:15s} median {median:12.4f}  iqr/median {iqr:7.4f}"
        if name in details[0]["raw"]:
            raw_median, raw_iqr = spread([d["raw"][name] for d in details])
            row += f"   raw median {raw_median:12.4f}  iqr/median {raw_iqr:7.4f}"
        print(row)
    calib, calib_iqr = spread([d["calib_ms"] for d in details])
    print(f"  {'calib_ms':15s} median {calib:12.4f}  iqr/median {calib_iqr:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
