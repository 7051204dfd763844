"""Experiment C3: spanner enumeration over SLP-compressed documents
(paper Section 4 / [39]).

Claims benchmarked:

* preprocessing is O(|S|) — linear in the *compressed* size, so flat when
  |D| doubles but |S| grows by one node;
* enumeration delay is O(log |D|) on balanced SLPs — doubling the document
  adds a constant to the delay, never multiplies it;
* on highly compressible documents the compressed pipeline obtains the
  first tuples massively faster than uncompressed preprocessing (which is
  Ω(|D|)).
"""

import statistics
import time

import numpy as np
import pytest

from repro.enumeration import Enumerator, measure_delays
from repro.kernels import unpack_rows
from repro.regex import spanner_from_regex
from repro.slp import SLP, SLPSpannerEvaluator, balanced_node, power_node

PATTERN = "(a|b)*!x{abb}(a|b)*"
UNIT = "abbab"

_DEAD = -1


def reference_mm(a, b):
    """The seed boolean product: float32 matmul with per-use conversions."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def reference_compose_pure(sigma, matrix):
    """The seed σ-composition on bool matrices (dead rows zeroed)."""
    gathered = matrix[np.where(sigma == _DEAD, 0, sigma)]
    gathered[sigma == _DEAD] = False
    return gathered


# record corpus for the packed-kernel lanes: see bench_slp_membership
_RECORD_FIXED = "abbabbaabbabaabbbaabababbaababbabaabbbabbaabbaabbaababbabababba"[:60]


def _record_corpus(records: int = 2048, ident: int = 4) -> str:
    rng = np.random.default_rng(7)
    return "".join(
        "".join(rng.choice(["a", "b"], size=ident)) + _RECORD_FIXED
        for _ in range(records)
    )


def _reference_preprocess(det, slp, node):
    """The seed recurrence verbatim: dense per-node (σ, T, T_em) with two
    float32 products per pair node and per-use dtype conversions."""
    q = det.num_states
    mark_e = np.zeros((q, q), dtype=bool)
    for state in range(q):
        for target in det.set_trans[state].values():
            mark_e[state, target] = True
    memo = {}
    char_memo = {}

    def function_matrix(sigma):
        step = np.zeros((q, q), dtype=bool)
        valid = sigma != _DEAD
        step[np.nonzero(valid)[0], sigma[valid]] = True
        return step

    def char_tables(ch):
        if ch in char_memo:
            return char_memo[ch]
        sigma = np.full(q, _DEAD, dtype=np.int64)
        atom = det.atoms.classify(ch)
        if atom is not None:
            for state in range(q):
                target = det.char_trans[state].get(atom)
                if target is not None:
                    sigma[state] = target
        step = function_matrix(sigma)
        t_em = reference_mm(mark_e, step)
        char_memo[ch] = (sigma, step | t_em, t_em)
        return char_memo[ch]

    for current in slp.topological(node):
        if current in memo:
            continue
        if slp.is_terminal(current):
            memo[current] = char_tables(slp.char(current))
            continue
        left, right = slp.children(current)
        sigma_l, _, em_l = memo[left]
        sigma_r, t_r, em_r = memo[right]
        dead = sigma_l == _DEAD
        sigma = np.where(dead, _DEAD, sigma_r[np.where(dead, 0, sigma_l)])
        em = reference_mm(em_l, t_r) | reference_compose_pure(sigma_l, em_r)
        memo[current] = (sigma, function_matrix(sigma) | em, em)
    return memo


@pytest.mark.parametrize("exponent", [10, 16, 22])
def test_c3_preprocessing_linear_in_slp(bench, exponent):
    spanner = spanner_from_regex(PATTERN)
    slp = SLP()
    node = power_node(slp, UNIT, exponent)

    def run():
        evaluator = SLPSpannerEvaluator(spanner)
        return evaluator.preprocess(slp, node)

    fresh = bench(run)
    bench.benchmark.extra_info["doc_length"] = slp.length(node)
    bench.benchmark.extra_info["slp_nodes_processed"] = fresh
    assert fresh <= slp.size(node) + 1


@pytest.mark.parametrize(
    "pattern",
    [
        "(a|b)*a(a|b){5}!x{(a|b)*}",  # |Q| = 69 after determinisation
        "(a|b)*a(a|b){6}!x{a(a|b)*}",  # |Q| = 134
    ],
)
def test_c3_packed_kernel_speedup(bench, pattern):
    """Packed wave kernels + matrix interning vs the seed recurrence.

    Same record corpus, same (σ, T, T_em) semantics; the reference pays
    two float32 products per fresh pair node while the packed path pays
    one batched product per *distinct* operand pair.  The before/after of
    this PR is recorded as ``reference_seconds`` / ``packed_seconds``."""
    det = SLPSpannerEvaluator(spanner_from_regex(pattern)).det
    q = det.num_states
    assert q >= 64
    text = _record_corpus()
    slp = SLP()
    node = balanced_node(slp, text)

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    def packed_pass():
        evaluator = SLPSpannerEvaluator(det)
        evaluator.preprocess(slp, node)
        return evaluator

    def compare():
        ref_seconds, ref_memo = min(
            (timed(lambda: _reference_preprocess(det, slp, node)) for _ in range(2)),
            key=lambda pair: pair[0],
        )
        packed_seconds, evaluator = min(
            (timed(packed_pass) for _ in range(2)),
            key=lambda pair: pair[0],
        )
        sigma, t, t_em = evaluator.node_entry(slp, node)
        ref_sigma, ref_t, ref_em = ref_memo[node]
        assert np.array_equal(sigma, ref_sigma)
        assert np.array_equal(unpack_rows(t.rows, q), ref_t)
        assert np.array_equal(unpack_rows(t_em.rows, q), ref_em)
        return ref_seconds, packed_seconds

    ref_seconds, packed_seconds = bench(compare, rounds=1)
    bench.benchmark.extra_info["doc_length"] = len(text)
    bench.record(
        states=q,
        reference_seconds=ref_seconds,
        packed_seconds=packed_seconds,
        speedup=ref_seconds / packed_seconds,
    )
    assert ref_seconds / packed_seconds >= 3.0


def test_c3_delay_logarithmic(bench):
    """Median delay grows additively (O(log |D|)), not multiplicatively."""
    import gc

    spanner = spanner_from_regex(PATTERN)

    def median_delay(exponent: int, take: int = 200) -> float:
        import itertools

        slp = SLP()
        node = power_node(slp, UNIT, exponent)
        evaluator = SLPSpannerEvaluator(spanner)
        evaluator.preprocess(slp, node)
        gc.disable()
        try:
            samples = []
            for _ in range(3):
                stream = itertools.islice(evaluator.enumerate(slp, node), take)
                _, delays = measure_delays(stream)
                samples.append(statistics.median(delays))
        finally:
            gc.enable()
        return min(samples)

    small = median_delay(8)    # |D| = 5·2^8
    large = bench(median_delay, 20, rounds=1)  # |D| = 5·2^20: 4096x longer
    bench.benchmark.extra_info["median_delay_small"] = small
    bench.benchmark.extra_info["median_delay_large"] = large
    # log-shaped: 4096x the document may cost ~ (20/8)x the delay, not 4096x
    assert large < small * 20, (small, large)


def test_c3_first_tuples_vs_uncompressed(bench):
    """On (abbab)^(2^16), compressed first-k beats uncompressed
    preprocessing by a wide margin."""
    import itertools

    spanner = spanner_from_regex(PATTERN)
    exponent = 13
    slp = SLP()
    node = power_node(slp, UNIT, exponent)
    doc = UNIT * (2 ** exponent)

    def compressed_first_tuples():
        evaluator = SLPSpannerEvaluator(spanner)
        evaluator.preprocess(slp, node)
        return list(itertools.islice(evaluator.enumerate(slp, node), 10))

    def uncompressed_first_tuples():
        enumerator = Enumerator(spanner)
        index = enumerator.preprocess(doc)
        return list(itertools.islice(enumerator.enumerate_index(index), 10))

    start = time.perf_counter()
    got_compressed = compressed_first_tuples()
    compressed_time = time.perf_counter() - start

    start = time.perf_counter()
    got_uncompressed = uncompressed_first_tuples()
    uncompressed_time = time.perf_counter() - start

    result = bench(compressed_first_tuples, rounds=2)
    bench.benchmark.extra_info["compressed_time"] = compressed_time
    bench.benchmark.extra_info["uncompressed_time"] = uncompressed_time
    assert set(got_compressed) == set(got_uncompressed)
    assert len(result) == 10
    # the compressed pipeline must win by at least an order of magnitude
    assert compressed_time * 10 < uncompressed_time


def test_c3_results_agree_with_uncompressed(bench):
    """Correctness anchor at a size where both pipelines can materialise."""
    spanner = spanner_from_regex(PATTERN)
    slp = SLP()
    node = power_node(slp, UNIT, 6)
    doc = UNIT * (2 ** 6)

    evaluator = SLPSpannerEvaluator(spanner)
    relation = bench(evaluator.evaluate, slp, node)
    assert relation == Enumerator(spanner).evaluate(doc)
