"""Shard-folded evaluation of one plain-text document: the entry points.

:func:`document_matrices` splits one plain-text document into balanced
shards, folds each shard with the associative ``(σ, T, T_em)`` algebra of
:mod:`repro.parallel.fold`, and folds the shard entries.  The result is
bit-for-bit the entry ``preprocess`` would compute for the same
document's SLP, for every shard and chunk split; :func:`is_nonempty_text`
answers non-emptiness from it without enumeration.

There is no bulk fan-out over stored documents: a :class:`~repro.db.SpannerDB`
preprocesses and seals every stored root for every registered spanner
when the document or spanner arrives, so a bulk query only enumerates
(:meth:`SpannerDB.query_bulk <repro.db.SpannerDB.query_bulk>` is a loop).

Shard and fold timings are recorded through :mod:`repro.obs` (the
``parallel.document_matrices`` span, and ``parallel.shards`` /
``parallel.fanout_ns`` / ``parallel.fold_ns`` counters).
"""

from __future__ import annotations

import time

from repro import obs
from repro.errors import ParallelError
from repro.parallel.fold import DEFAULT_CHUNK, fold_entries, shard_spans, text_entry
from repro.slp.spanner_eval import SLPSpannerEvaluator

__all__ = ["as_evaluator", "document_matrices", "is_nonempty_text"]


def as_evaluator(spanner) -> SLPSpannerEvaluator:
    """Resolve *spanner* to an evaluator.

    Strings go through the process-wide plan cache (one compile +
    determinisation amortised across every call that names the same
    source); evaluators pass through; anything else —
    :class:`~repro.automata.evset.DeterministicEVA`, a vset-automaton, a
    ``RegularSpanner`` — gets a fresh evaluator."""
    if isinstance(spanner, SLPSpannerEvaluator):
        return spanner
    if isinstance(spanner, str):
        from repro.kernels.plan import plan_cache

        return plan_cache().get_or_compile(spanner).evaluator
    return SLPSpannerEvaluator(spanner)


def document_matrices(
    spanner,
    text: str,
    *,
    shards: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    budget=None,
):
    """``(σ, T, T_em)`` of *text* under *spanner*, folded shard by shard.

    The document is split into *shards* balanced spans; each span folds
    with the chunked kernel of :mod:`repro.parallel.fold`, and the
    per-shard entries fold into one.  The returned entry is **bit-for-bit
    identical** for every ``(shards, chunk_size)`` choice — asserted
    differentially against the SLP ``preprocess`` path by the test suite.

    A :class:`~repro.util.Budget` is charged one step per combined pair,
    and ``max_bytes`` guards the packed arrays each reduction level
    builds."""
    if shards < 1:
        raise ParallelError(f"shards must be >= 1, got {shards}")
    evaluator = as_evaluator(spanner)
    q = evaluator.det.num_states
    spans = shard_spans(len(text), shards)
    # distinct chars resolve through the store's lock exactly once, here
    table = evaluator.char_entries(text)
    observing = obs.enabled()
    with obs.tracer().span(
        "parallel.document_matrices", chars=len(text), shards=len(spans)
    ):
        t0 = time.perf_counter_ns() if observing else 0
        shard_entries = [
            text_entry(table, text[start:end], q, chunk_size=chunk_size, budget=budget)
            for start, end in spans
        ]
        t1 = time.perf_counter_ns() if observing else 0
        entry = fold_entries(shard_entries, q, budget)
        if observing:
            registry = obs.metrics()
            registry.counter("parallel.shards").inc(len(spans))
            registry.counter("parallel.fanout_ns").inc(t1 - t0)
            registry.counter("parallel.fold_ns").inc(time.perf_counter_ns() - t1)
    return entry


def is_nonempty_text(spanner, text: str, **kwargs) -> bool:
    """``⟦M⟧(text) ≠ ∅`` from one shard fold (no enumeration, no SLP).
    Keyword arguments are those of :func:`document_matrices`."""
    evaluator = as_evaluator(spanner)
    return evaluator.entry_is_nonempty(
        document_matrices(evaluator, text, **kwargs)
    )
