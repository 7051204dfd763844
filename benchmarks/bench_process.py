"""Experiment PROC: the supervised process-pool backend.

Shapes asserted (never absolute numbers):

* **determinism under isolation** — ``backend="process"`` produces the
  exact packed ``(σ, T, T_em)`` words of the serial backend on a 64 KiB
  document, shipped through shared memory (the always-recorded row: it
  runs on any machine, including 1-core CI);
* **crash-recovery overhead is bounded** — with a seeded 20% SIGKILL
  schedule, the batch still resolves to the exact serial answer; the
  recorded row carries the observed crash count and the overhead ratio
  against a fault-free process run;
* **process scaling** — on a machine with ≥ 4 usable cores, 4 process
  workers beat the serial fold ≥ 1.3× on a ≥ 256 KiB document (the
  transport and supervision are paid from the same wall-clock).  The
  lane skips — and records no row — where parallelism cannot be
  exhibited.
"""

import os
import random
import time

import numpy as np
import pytest

from repro.parallel import (
    configure_pool,
    document_matrices,
    live_segments,
    pool_stats,
    shutdown_pool,
)
from repro.regex import spanner_from_regex
from repro.slp import SLPSpannerEvaluator
from repro.util import WorkerChaos

PATTERN = "(a|b)*!x{a+}!y{b+}(a|b)*"
SMALL_DOC = 64 * 1024
LARGE_DOC = 256 * 1024


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _random_text(n: int, seed: int = 0) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("ab") for _ in range(n))


def _entries_equal(left, right) -> bool:
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


def _best_of(fn, rounds: int = 2) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every lane builds its own pool and must leak no segments."""
    yield
    shutdown_pool()
    assert live_segments() == []


def test_process_differential_identity(bench):
    """The always-recorded row: process == serial, bit for bit, through
    shared memory — on any machine."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    text = _random_text(SMALL_DOC)
    configure_pool(workers=2)

    serial_seconds, serial_entry = _best_of(
        lambda: document_matrices(evaluator, text, backend="serial", shards=1)
    )
    process_seconds, process_entry = _best_of(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=2, shards=2
        )
    )
    assert _entries_equal(serial_entry, process_entry)
    bench(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=2, shards=2
        ),
        rounds=1,
    )
    bench.record(
        doc_length=SMALL_DOC,
        cores=_usable_cores(),
        serial_seconds=serial_seconds,
        process_seconds=process_seconds,
        observed_process_speedup=serial_seconds / process_seconds,
    )


def test_process_crash_recovery_overhead(bench):
    """A 20% SIGKILL schedule cannot change a single bit of the answer;
    the row records what the recovery machinery cost."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    text = _random_text(SMALL_DOC, seed=1)
    serial_entry = document_matrices(evaluator, text, backend="serial", shards=1)

    configure_pool(workers=2)
    clean_seconds, clean_entry = _best_of(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=2, shards=4
        )
    )
    assert _entries_equal(clean_entry, serial_entry)

    configure_pool(
        workers=2,
        chaos=WorkerChaos(seed=17, kill_rate=0.2),
        task_retries=6,
        crash_tolerance=1000,
    )
    chaos_seconds, chaos_entry = _best_of(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=2, shards=4
        )
    )
    assert _entries_equal(chaos_entry, serial_entry)
    stats = pool_stats() or {}
    bench(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=2, shards=4
        ),
        rounds=1,
    )
    bench.record(
        doc_length=SMALL_DOC,
        kill_rate=0.2,
        crashes=stats.get("crashes", 0),
        respawned=stats.get("respawned", 0),
        clean_seconds=clean_seconds,
        chaos_seconds=chaos_seconds,
        recovery_overhead=chaos_seconds / clean_seconds,
    )


def test_process_speedup_4_workers(bench):
    """≥ 1.3× wall-clock over serial at 4 process workers on 256 KiB —
    falsifiable only where 4 workers can actually run in parallel."""
    cores = _usable_cores()
    if cores < 4:
        pytest.skip(f"needs >= 4 usable cores to exhibit parallelism, have {cores}")
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    text = _random_text(LARGE_DOC)
    configure_pool(workers=4)

    serial_seconds, serial_entry = _best_of(
        lambda: document_matrices(evaluator, text, backend="serial", shards=1)
    )
    process_seconds, process_entry = _best_of(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=4, shards=4
        )
    )
    assert _entries_equal(serial_entry, process_entry)
    speedup = serial_seconds / process_seconds
    bench(
        lambda: document_matrices(
            evaluator, text, backend="process", workers=4, shards=4
        ),
        rounds=1,
    )
    bench.record(
        doc_length=LARGE_DOC,
        cores=cores,
        serial_seconds=serial_seconds,
        process_seconds=process_seconds,
        speedup=speedup,
    )
    assert speedup >= 1.3
