"""Utilities: workloads, budgets, faults, retry-after hints, breakers."""

from repro.util.breaker import CircuitBreaker
from repro.util.budget import Budget, Deadline
from repro.util.retry_after import RetryAfterHint
from repro.util.faults import (
    ChaosInjector,
    FeedChaos,
    WorkerChaos,
    fail_at_allocation,
    fail_at_call,
    fail_in_preprocess,
    truncate_file,
    truncate_journal_write,
)
from repro.util.workloads import (
    gene_sequence,
    log_document,
    random_text,
    repetitive_text,
    sparse_matches,
)

__all__ = [
    "Budget",
    "ChaosInjector",
    "CircuitBreaker",
    "Deadline",
    "FeedChaos",
    "RetryAfterHint",
    "WorkerChaos",
    "fail_at_allocation",
    "fail_at_call",
    "fail_in_preprocess",
    "gene_sequence",
    "log_document",
    "random_text",
    "repetitive_text",
    "sparse_matches",
    "truncate_file",
    "truncate_journal_write",
]
