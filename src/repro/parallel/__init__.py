"""Shard-parallel evaluation of one large plain-text document.

The ``(σ, T, T_em)`` algebra that powers compressed spanner evaluation
(Schmid & Schweikardt [39]) is associative, which makes plain-text
evaluation a textbook map-reduce: split the document into shards, fold
each shard's per-character entries on a worker, fold the shard entries.
This package provides

* the exact, batched fold kernel (:mod:`repro.parallel.fold`), which
  advances a whole reduction level per numpy call;
* two backends — ``"serial"``, a loop on the calling thread and the
  bit-for-bit differential anchor, and ``"process"``, crash-isolated
  evaluation on the supervised pool of :mod:`repro.parallel.procpool`
  (worker deaths are detected, workers respawned, lost shards retried)
  — plus ``"auto"`` resolution with circuit-broken degradation
  (:func:`~repro.parallel.api.resolve_backend`), set from the backend
  sweep in ``docs/PERFORMANCE.md``;
* leak-proof shared-memory segments for the workers' crash flight
  recorder (:mod:`repro.parallel.shm`, :mod:`repro.parallel.flight`):
  created only by the parent and unlinked on success, failure, and
  interpreter exit alike — shard text and folded entries themselves
  travel through each worker's pipe;
* the entry points (:mod:`repro.parallel.api`):
  :func:`document_matrices` / :func:`is_nonempty_text`.

Every entry is bit-for-bit equal across backends, worker counts, and
shard splits; the differential test suite asserts this against the SLP
``preprocess`` path rather than assuming it.
"""

from repro.parallel.api import (
    as_evaluator,
    document_matrices,
    is_nonempty_text,
    process_breaker,
    resolve_backend,
)
from repro.parallel.fold import (
    DEFAULT_CHUNK,
    combine,
    fold_entries,
    identity_entry,
    reduce_stack,
    shard_spans,
    text_entry,
)
from repro.parallel.procpool import (
    ProcCall,
    ProcPool,
    configure_pool,
    default_workers,
    get_pool,
    pool_stats,
    shutdown_pool,
    usable_cores,
)
from repro.parallel.shm import SegmentRegistry, live_segments

__all__ = [
    "DEFAULT_CHUNK",
    "ProcCall",
    "ProcPool",
    "SegmentRegistry",
    "as_evaluator",
    "combine",
    "configure_pool",
    "default_workers",
    "document_matrices",
    "fold_entries",
    "get_pool",
    "identity_entry",
    "is_nonempty_text",
    "live_segments",
    "pool_stats",
    "process_breaker",
    "reduce_stack",
    "resolve_backend",
    "shard_spans",
    "shutdown_pool",
    "text_entry",
    "usable_cores",
]
