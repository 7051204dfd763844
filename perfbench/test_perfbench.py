"""Self-test of the benchmark: every workload, run tiny.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is reported with its
unit, that a deliberately wrong answer reaches ``ok_frac`` / ``failed``,
that no thread, process or shared-memory segment survives teardown, and
that the command fails without printing a result where the program's
sources are missing.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.parallel import live_segments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NOMINAL_MS = float(SPEC["command"][SPEC["command"].index("--calib-nominal-ms") + 1])
TINY = {"seed": 3, "seconds": 1.0, "nominal_ms": NOMINAL_MS, "scale": 0.25}


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def assert_nothing_left() -> None:
    assert [t for t in threading.enumerate() if t is not threading.main_thread()] == []
    assert multiprocessing.active_children() == []
    assert live_segments() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_with_its_unit(name):
    result = bench.run_workload(name, **TINY)
    assert result["correct"], result["detail"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["detail"]["leftovers"] == []
    assert_nothing_left()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_answer_is_counted(name):
    result = bench.run_workload(name, tamper=True, **TINY)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["detail"]["wrong_answers"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert_nothing_left()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(name):
    result = bench.run_workload(name, trace=True, **TINY)
    assert result["correct"], result["detail"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["detail"]["trace"]["spans"] > 0
    assert_nothing_left()


def test_command_prints_result_last():
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "feed_tail", "--seed", "2",
                           "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "serve_reads", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
