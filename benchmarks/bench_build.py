"""Experiment C10: SLP compression quality and cost (paper Section 4's
premise that documents compress well in practice).

Claims benchmarked:

* on repetitive documents, the grammar compressors reach |S| ≪ |D|
  (Re-Pair near-logarithmic on w^k);
* on incompressible (uniform random) documents, |S| = Θ(|D|) — no free
  lunch, as the paper notes for the worst case;
* all builders round-trip exactly, at every size;
* the incremental Re-Pair builds the same grammar as the quadratic
  rescanning one, several times faster on log text.
"""

import statistics
import time

import pytest

from repro.slp import SLP, balanced_node, fibonacci_node, lz78_node, repair_node
from repro.util import gene_sequence, log_document, random_text, repetitive_text
from tests.slp_oracles import quadratic_repair_node


@pytest.mark.parametrize(
    "name,text",
    [
        ("repetitive", repetitive_text("abcabc", 512)),
        ("gene", gene_sequence(2048, seed=5)),
        ("random", random_text(2048, alphabet="abcd", seed=5)),
    ],
)
def test_c10_repair_compression(bench, name, text):
    def run():
        slp = SLP()
        node = repair_node(slp, text)
        return slp, node

    slp, node = bench(run, rounds=1)
    assert slp.derive(node) == text
    ratio = slp.size(node) / len(text)
    bench.benchmark.extra_info["compression_ratio"] = ratio
    if name == "repetitive":
        assert ratio < 0.05  # near-logarithmic
    if name == "random":
        assert ratio > 0.25  # incompressible stays large


def test_c10_repair_log_document_speedup(bench):
    """Incremental Re-Pair vs the quadratic oracle on a 43-line log.

    Both build into fresh arenas and must return the same root over equal
    arenas.  The two run in alternating back-to-back pairs: ``speedup`` is
    the median of the per-pair ratios, ``oracle_seconds`` and
    ``incremental_seconds`` the medians of each side, and the row's
    ``seconds`` is the median incremental build."""
    text = log_document(43)

    def timed(builder):
        slp = SLP()
        start = time.perf_counter()
        root = builder(slp, text)
        return time.perf_counter() - start, slp, root

    def compare(pairs: int = 7):
        oracle_times, fast_times, ratios = [], [], []
        for _ in range(pairs):
            oracle_seconds, oracle_slp, oracle_root = timed(quadratic_repair_node)
            fast_seconds, fast_slp, fast_root = timed(repair_node)
            assert fast_root == oracle_root
            assert fast_slp.columns() == oracle_slp.columns()
            oracle_times.append(oracle_seconds)
            fast_times.append(fast_seconds)
            ratios.append(oracle_seconds / fast_seconds)
        return (
            statistics.median(oracle_times),
            statistics.median(fast_times),
            statistics.median(ratios),
        )

    oracle_seconds, fast_seconds, speedup = bench(compare, rounds=1)
    bench.benchmark.extra_info["doc_length"] = len(text)
    bench.record(
        seconds=fast_seconds,
        oracle_seconds=oracle_seconds,
        incremental_seconds=fast_seconds,
        speedup=speedup,
    )
    assert speedup >= 3.0


@pytest.mark.parametrize(
    "name,text",
    [
        ("repetitive", repetitive_text("ab", 1024)),
        ("random", random_text(2048, alphabet="ab", seed=9)),
    ],
)
def test_c10_lz78_compression(bench, name, text):
    def run():
        slp = SLP()
        node = lz78_node(slp, text)
        return slp, node

    slp, node = bench(run, rounds=1)
    assert slp.derive(node) == text
    ratio = slp.size(node) / len(text)
    bench.benchmark.extra_info["compression_ratio"] = ratio
    if name == "repetitive":
        assert ratio < 0.2


def test_c10_baseline_balanced_parse(bench):
    text = gene_sequence(4096, seed=1)

    def run():
        slp = SLP()
        return slp, balanced_node(slp, text)

    slp, node = bench(run, rounds=1)
    assert slp.derive(node) == text
    # no compression beyond hash-consing: size stays within |D| but the
    # parse is strongly balanced (the property the editing layer needs)
    assert slp.is_strongly_balanced(node)


def test_c10_fibonacci_slp_is_tiny(bench):
    def run():
        slp = SLP()
        return slp, fibonacci_node(slp, 30)

    slp, node = bench(run)
    assert slp.size(node) <= 60
    assert slp.length(node) == 832040  # fib(30)
    bench.benchmark.extra_info["doc_length"] = slp.length(node)
    bench.benchmark.extra_info["slp_size"] = slp.size(node)
