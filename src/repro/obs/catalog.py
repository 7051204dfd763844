"""The metric-name catalog: every instrument name used anywhere in repro.

``tools/check_metric_names.py`` walks the AST of ``src/`` and fails CI if
any ``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` call uses a
name literal that is not listed here.  The point is discoverability and
hygiene: dashboards, the Prometheus export, and docs/OBSERVABILITY.md can
treat this file as the complete, reviewed inventory — a typo'd or ad-hoc
metric name fails the build instead of silently forking a time series.

Dynamic names (f-strings) must start with a prefix from
:data:`METRIC_PREFIXES`; the convention is one classifying suffix segment
(an exception type, a failure cause) on a catalogued stem.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES", "METRIC_PREFIXES", "is_catalogued"]

#: every exact instrument name creatable from src/ code
METRIC_NAMES = frozenset(
    {
        # util.budget
        "budget.bytes_charged",
        "budget.bytes_last",
        "budget.steps",
        # db
        "db.budget_exceeded",
        "db.edit.fresh_matrices",
        "db.journal.append_ns",
        "db.journal.appends",
        "db.journal.bytes",
        "db.query_bulk",
        "db.query_decompressed",
        "db.recovery.fallback_snapshots",
        "db.recovery.replayed_records",
        "db.recovery.torn_journals",
        "db.saves",
        # enumeration
        "enumeration.delay_ns",
        # kernels
        "kernels.mm",
        "kernels.mm_collapsed",
        "kernels.mm_interned",
        "kernels.plan_cache.evictions",
        "kernels.plan_cache.hits",
        "kernels.plan_cache.misses",
        "kernels.plan_cache.over_budget",
        # parallel (the shard fold)
        "parallel.fanout_ns",
        "parallel.fold_ns",
        "parallel.shards",
        # query (the repro.query language layer)
        "query.evaluations",
        "query.plan.compile",
        "query.plan.load",
        "query.plan.materialize",
        "query.plan.scan",
        "query.statements",
        # serve
        "serve.breaker.closed",
        "serve.breaker.opened",
        "serve.breaker.state",
        "serve.completed",
        "serve.degraded",
        "serve.exec_ns",
        "serve.failed",
        "serve.mutation_failures",
        "serve.queue_depth",
        "serve.queue_ns",
        "serve.retries",
        "serve.shed",
        "serve.submitted",
        # stream (windowed ingestion; see docs/OBSERVABILITY.md)
        "stream.appended_chars",
        "stream.backpressure",
        "stream.degraded",
        "stream.discarded",
        "stream.fresh_nodes",
        "stream.frontier_bytes",
        "stream.frontier_tuples",
        "stream.guard_trips",
        "stream.overruns",
        "stream.queue_depth",
        "stream.rebuilds",
        "stream.results",
        "stream.retracted",
        "stream.window_ns",
        "stream.windows",
        # slp
        "slp.eval.cache_hits",
        "slp.eval.cache_misses",
        "slp.eval.delay_ns",
        "slp.eval.kernel_ns",
        "slp.eval.sealed_hits",
        "slp.eval.walk_skipped",
        "slp.eval.walk_visited",
        "slp.membership.cache_hits",
        "slp.membership.cache_misses",
        "slp.membership.kernel_ns",
        "slp.membership.sealed_hits",
    }
)

#: stems that dynamic (f-string) names may extend with one suffix segment
METRIC_PREFIXES = (
    "db.budget_exceeded.",
    "query.plan.",
    "serve.failed.",
)


def is_catalogued(name: str) -> bool:
    """Is *name* an exact catalogued name or under an allowed prefix?"""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix) for prefix in METRIC_PREFIXES)
