"""Experiment PAR: the batched fold of plain-text evaluation.

Claim, asserted as a *shape* (who wins, and that the answers are
identical), never as absolute numbers:

* **batching** — the level-wise batched fold beats a scalar per-character
  fold of the *same* exact algebra ≥ 2× on any machine (the single-core
  payoff of the kernel design).

``test_parallel_query_bulk_amortisation`` additionally records the
per-document cost of ``SpannerDB.query_bulk`` against a sequential query
loop, asserting equal answers.
"""

import random
import time

import numpy as np

from repro.db import SpannerDB
from repro.parallel import combine, identity_entry, text_entry
from repro.regex import spanner_from_regex
from repro.slp import SLPSpannerEvaluator

PATTERN = "(a|b)*!x{a+}!y{b+}(a|b)*"


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
    practice ~20×)."""
    evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
    q = evaluator.det.num_states
    text = _random_text(8 * 1024, seed=1)
    table = evaluator.char_entries(text)

    def scalar_fold():
        entry = identity_entry(q)
        for ch in text:
            entry = combine(entry, table[ch], q)
        return entry

    def batched_fold():
        return text_entry(evaluator.char_entries(text), text, q)

    batched_seconds, batched_entry = _best_of(batched_fold)
    scalar_seconds, scalar_entry = _best_of(scalar_fold, rounds=1)
    assert _entries_equal(batched_entry, scalar_entry)
    speedup = scalar_seconds / batched_seconds
    bench(batched_fold, rounds=1)
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
