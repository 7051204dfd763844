"""Experiment C2: compressed NFA membership beats decompression
(paper Section 4.2).

Claim: checking ``D(S) ∈ L(M)`` costs O(|S|·|Q|³) on the SLP versus
O(|D|·|Q|²) on the decompressed document; on compressible documents
(|S| = O(log |D|)) the compressed algorithm wins by an ever-growing factor
and handles documents that cannot even be materialised.
"""

import statistics
import time

import numpy as np
import pytest

from repro.kernels import unpack_rows
from repro.regex import compile_nfa
from repro.slp import (
    SLP,
    CompressedMembership,
    balanced_node,
    power_node,
    simulate_uncompressed,
)

PATTERN = "(a|b)*abb(a|b)*abb(a|b)*"

# --- the record corpus for the packed-kernel lanes -------------------------
# 4096 structured records over {a,b}: a short varying identifier followed by
# a long fixed body — the log-file shape SLP compression exists for.  String
# interning alone cannot collapse the varying prefixes, but the *matrices*
# of long spans are determined by their suffix (the automaton's bounded
# memory), which is exactly what the content-interning kernel exploits.
_RECORD_FIXED = "abbabbaabbabaabbbaabababbaababbabaabbbabbaabbaabbaababbabababba"[:60]
_RECORD_IDENT = 4
_RECORD_COUNT = 4096


def _record_corpus() -> str:
    rng = np.random.default_rng(7)
    return "".join(
        "".join(rng.choice(["a", "b"], size=_RECORD_IDENT)) + _RECORD_FIXED
        for _ in range(_RECORD_COUNT)
    )


def reference_mm(a, b):
    """The seed boolean product: float32 matmul with per-use conversions."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def _reference_node_matrix(nfa, slp, node, char_mats):
    """The seed algorithm verbatim: one float32 product per fresh pair node,
    bool→float32 conversions on every use (see :func:`reference_mm`)."""
    memo = {}
    for current in slp.topological(node):
        if current in memo:
            continue
        if slp.is_terminal(current):
            memo[current] = char_mats[slp.char(current)]
        else:
            left, right = slp.children(current)
            memo[current] = reference_mm(memo[left], memo[right])
    return memo[node]


@pytest.mark.parametrize("exponent", [8, 11, 14])
def test_c2_compressed_membership(bench, exponent):
    """Compressed membership on (abbab)^(2^k): time grows with k = log |D|,
    not with |D|."""
    nfa = compile_nfa(PATTERN)
    slp = SLP()
    node = power_node(slp, "abbab", exponent)

    def run():
        oracle = CompressedMembership(nfa)  # fresh: no cross-round memo
        return oracle.accepts(slp, node)

    accepted = bench(run)
    assert accepted
    bench.benchmark.extra_info["doc_length"] = slp.length(node)
    bench.benchmark.extra_info["slp_size"] = slp.size(node)


@pytest.mark.parametrize("exponent", [8, 11, 14])
def test_c2_uncompressed_baseline(bench, exponent):
    """The baseline simulation is linear in |D| (so 16× per +4 exponent)."""
    nfa = compile_nfa(PATTERN)
    doc = "abbab" * (2 ** exponent)

    accepted = bench(simulate_uncompressed, nfa, doc)
    assert accepted
    bench.benchmark.extra_info["doc_length"] = len(doc)


def test_c2_crossover_and_shape(bench):
    """The shape assertion: compressed wins on the large instance, and its
    cost is flat-ish in |D| while the baseline's is linear."""
    nfa = compile_nfa(PATTERN)

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def compressed(exponent):
        slp = SLP()
        node = power_node(slp, "abbab", exponent)
        oracle = CompressedMembership(nfa)
        assert oracle.accepts(slp, node)

    def baseline(exponent):
        assert simulate_uncompressed(nfa, "abbab" * (2 ** exponent))

    def shape():
        comp_small = min(timed(lambda: compressed(8)) for _ in range(3))
        comp_large = min(timed(lambda: compressed(14)) for _ in range(3))
        base_small = min(timed(lambda: baseline(8)) for _ in range(3))
        base_large = min(timed(lambda: baseline(14)) for _ in range(3))
        return comp_small, comp_large, base_small, base_large

    comp_small, comp_large, base_small, base_large = bench(shape, rounds=1)
    bench.benchmark.extra_info.update(
        compressed_small=comp_small,
        compressed_large=comp_large,
        baseline_small=base_small,
        baseline_large=base_large,
    )
    # baseline is ~linear: 64x document => at least 15x time
    assert base_large / base_small > 15
    # compressed grows like log|D|: far less than 30x
    assert comp_large / comp_small < 10
    # and compressed wins outright on the large instance
    assert comp_large < base_large


@pytest.mark.parametrize("memory", [12, 20, 30])
def test_c2_packed_kernel_speedup(bench, memory):
    """Packed wave kernels vs the seed per-node float32 pipeline.

    ``memory`` is the suffix window of the NFA ``(a|b)*a(a|b){memory}``
    (|Q| = 68 / 108 / 158 after ε-removal — all ≥ 64, the regime the
    packed kernels target).  Both sides run the same preprocessing on the
    same record corpus.  The two run in alternating back-to-back pairs, so
    load drift on a shared host hits both halves of a pair alike:
    ``speedup`` is the median of the per-pair ratios, ``reference_seconds``
    and ``packed_seconds`` the medians of each side, and the row's
    ``seconds`` is the median packed pass."""
    nfa = compile_nfa(f"(a|b)*a(a|b){{{memory}}}").remove_epsilon()
    q = nfa.num_states
    assert q >= 64
    text = _record_corpus()
    slp = SLP()
    node = balanced_node(slp, text)
    char_mats = {
        ch: CompressedMembership(nfa).char_matrix(ch) for ch in "ab"
    }

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    def compare(pairs: int = 9):
        ref_times, packed_times, ratios = [], [], []
        for _ in range(pairs):
            ref_seconds, ref_matrix = timed(
                lambda: _reference_node_matrix(nfa, slp, node, char_mats)
            )
            packed_seconds, packed = timed(
                lambda: CompressedMembership(nfa).node_bitmatrix(slp, node)
            )
            assert np.array_equal(unpack_rows(packed.rows, q), ref_matrix)
            ref_times.append(ref_seconds)
            packed_times.append(packed_seconds)
            ratios.append(ref_seconds / packed_seconds)
        return (
            statistics.median(ref_times),
            statistics.median(packed_times),
            statistics.median(ratios),
        )

    ref_seconds, packed_seconds, speedup = bench(compare, rounds=1)
    bench.benchmark.extra_info["doc_length"] = len(text)
    bench.record(
        seconds=packed_seconds,
        states=q,
        reference_seconds=ref_seconds,
        packed_seconds=packed_seconds,
        speedup=speedup,
    )
    assert speedup >= 3.0


def test_c2_beyond_materialisation(bench):
    """Documents of length 5·2^60 — impossible to decompress — are fine."""
    nfa = compile_nfa(PATTERN)
    slp = SLP()
    node = power_node(slp, "abbab", 60)

    oracle = CompressedMembership(nfa)
    accepted = bench(oracle.accepts, slp, node)
    assert accepted
    assert slp.length(node) == 5 * 2 ** 60
