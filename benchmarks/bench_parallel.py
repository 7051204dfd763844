"""Experiment PAR: shard-parallel plain-text evaluation.

Claims, each asserted as a *shape* (who wins, and that the answers are
identical), never as absolute numbers:

* **batching** — the level-wise batched fold beats a scalar per-character
  fold of the *same* exact algebra ≥ 2× on any machine (the single-core
  payoff of the kernel design, independent of worker count);
* **the backend sweep** — serial vs the worker-process pool for
  ``document_matrices`` at 4 KiB–1 MiB.  These lanes carry no floor:
  they record the measurement ``resolve_backend("auto")`` is set from,
  together with the choice it makes for each row, and assert only that
  both backends answer bit for bit alike.  (The ``query_bulk`` rows of
  the sweep are gone with the process bulk path; see
  ``docs/PERFORMANCE.md``.)

``test_parallel_query_bulk_amortisation`` additionally records the
per-document cost of ``SpannerDB.query_bulk`` against a sequential query
loop, asserting equal answers.
"""

import os
import random
import statistics
import time

import numpy as np
import pytest

from repro.db import SpannerDB
from repro.parallel import (
    combine,
    configure_pool,
    document_matrices,
    identity_entry,
    live_segments,
    resolve_backend,
    shutdown_pool,
)
from repro.regex import spanner_from_regex
from repro.slp import SLPSpannerEvaluator

PATTERN = "(a|b)*!x{a+}!y{b+}(a|b)*"


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


def test_parallel_batched_fold_speedup(bench):
    """The level-wise batched fold vs a scalar per-character fold of the
    same algebra: the batching itself must buy ≥ 2× on one core (in
    practice ~20×), independent of worker count."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    q = evaluator.det.num_states
    text = _random_text(8 * 1024, seed=1)
    table = evaluator.char_entries(text)

    def scalar_fold():
        entry = identity_entry(q)
        for ch in text:
            entry = combine(entry, table[ch], q)
        return entry

    batched_seconds, batched_entry = _best_of(
        lambda: document_matrices(evaluator, text, backend="serial", shards=1)
    )
    scalar_seconds, scalar_entry = _best_of(scalar_fold, rounds=1)
    assert _entries_equal(batched_entry, scalar_entry)
    speedup = scalar_seconds / batched_seconds
    bench(lambda: document_matrices(evaluator, text, backend="serial", shards=1), rounds=1)
    bench.record(
        doc_length=len(text),
        scalar_seconds=scalar_seconds,
        batched_seconds=batched_seconds,
        speedup=speedup,
    )
    assert speedup >= 2.0


def test_parallel_query_bulk_amortisation(bench):
    """``query_bulk`` answers exactly like a sequential query loop; the
    recorded timings show the per-batch amortisation (one spanner lookup,
    one span)."""
    db = SpannerDB()
    names = []
    for index in range(8):
        name = f"doc{index}"
        db.add_document(name, _random_text(2048, seed=index))
        names.append(name)
    db.register_spanner("s", PATTERN)

    sequential_seconds, sequential = _best_of(
        lambda: {name: set(db.query("s", name)) for name in names}, rounds=1
    )
    bulk_seconds, bulk = _best_of(lambda: db.query_bulk("s", names), rounds=1)
    assert {name: set(rel) for name, rel in bulk.items()} == sequential
    bench(lambda: db.query_bulk("s", names), rounds=1)
    bench.record(
        documents=len(names),
        sequential_seconds=sequential_seconds,
        bulk_seconds=bulk_seconds,
    )


def _alternate(run, rounds: int = 3) -> tuple[dict, dict]:
    """Median seconds and last answer per backend.  ``run(backend)``
    returns ``(seconds, answer)``; serial and process take turns so drift
    in the host's load hits both alike."""
    times: dict = {"serial": [], "process": []}
    answers: dict = {}
    for _ in range(rounds):
        for backend in times:
            seconds, answers[backend] = run(backend)
            times[backend].append(seconds)
    return {backend: statistics.median(ts) for backend, ts in times.items()}, answers


def _record_sweep_row(bench, medians: dict, auto_choice: str, **fields) -> None:
    bench.record(
        cores=_usable_cores(),
        serial_seconds=medians["serial"],
        process_seconds=medians["process"],
        process_speedup=medians["serial"] / medians["process"],
        auto_choice=auto_choice,
        **fields,
    )


@pytest.fixture
def shared_pool():
    configure_pool(workers=2)
    yield
    shutdown_pool()
    assert live_segments() == []


@pytest.mark.parametrize("size", [4 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024])
def test_parallel_backend_sweep_document(bench, shared_pool, size):
    """One ``document_matrices`` row of the backend sweep: serial vs the
    process pool on a *size*-character document, no floor."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    text = _random_text(size, seed=size)

    def fold(backend):
        start = time.perf_counter()
        entry = document_matrices(evaluator, text, backend=backend)
        return time.perf_counter() - start, entry

    fold("process")  # fork the workers outside the measured rounds
    medians, entries = _alternate(fold)
    assert _entries_equal(entries["serial"], entries["process"])
    bench(lambda: document_matrices(evaluator, text, backend="auto"), rounds=1)
    _record_sweep_row(
        bench,
        medians,
        resolve_backend("auto", size_hint_chars=size),
        doc_length=size,
    )
