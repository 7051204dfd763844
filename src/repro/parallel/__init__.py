"""Shard-folded evaluation of one large plain-text document.

The ``(σ, T, T_em)`` algebra that powers compressed spanner evaluation
(Schmid & Schweikardt [39]) is associative, which makes plain-text
evaluation a map-reduce: split the document into shards, fold each
shard's per-character entries, fold the shard entries.  This package
provides

* the exact, batched fold kernel (:mod:`repro.parallel.fold`), which
  advances a whole reduction level per numpy call and also backs the
  stream guard;
* the entry points (:mod:`repro.parallel.api`):
  :func:`document_matrices` / :func:`is_nonempty_text`, a serial loop
  over the shards on the calling thread.

Every entry is bit-for-bit equal across shard and chunk splits; the
differential test suite asserts this against the SLP ``preprocess`` path
rather than assuming it.
"""

from repro.parallel.api import as_evaluator, document_matrices, is_nonempty_text
from repro.parallel.fold import (
    DEFAULT_CHUNK,
    combine,
    fold_entries,
    identity_entry,
    reduce_stack,
    shard_spans,
    text_entry,
)

__all__ = [
    "DEFAULT_CHUNK",
    "as_evaluator",
    "combine",
    "document_matrices",
    "fold_entries",
    "identity_entry",
    "is_nonempty_text",
    "live_segments",
    "reduce_stack",
    "shard_spans",
    "shutdown_pool",
    "text_entry",
]


# perfbench/run.py and perfbench/test_perfbench.py (a read-only benchmark
# harness) still import these two names for their teardown check; with no
# process pool there is nothing to shut down and no segment alive.
def live_segments() -> list[str]:
    """Names of live shared-memory segments: always none."""
    return []


def shutdown_pool() -> None:
    """Stop the process pool: there is none, so this does nothing."""
