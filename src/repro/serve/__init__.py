"""``repro.serve`` — a concurrent, fault-tolerant query service.

The serving layer composes the robustness primitives of the engine —
transactions and budgets (:mod:`repro.db`, :mod:`repro.util.budget`),
observability (:mod:`repro.obs`), and fault injection
(:mod:`repro.util.faults`) — into a thread-pool executor that keeps
answering *correctly* while queries and edits race, faults fire, and load
exceeds capacity:

* **admission control** — a bounded queue that sheds with a retry-after
  hint (:class:`~repro.errors.OverloadedError`) instead of buffering
  without bound;
* **retries** — exponential backoff with seeded jitter, capped by a
  service-wide retry budget so failure storms cannot amplify;
* **circuit-broken degradation** — repeated failures on the
  SLP-compressed path trip a :class:`CircuitBreaker` and queries fall
  back to decompressed evaluation: identical tuples, worse latency,
  service up, with half-open probing to recover;
* **reader/writer coordination** — an :class:`RWLock` serialises edits
  against concurrent queries, so readers always see a committed snapshot.

Quickstart::

    from repro import SpannerDB
    from repro.serve import ServeConfig, SpannerService

    db = SpannerDB()
    db.add_document("logs", "error at line 3")
    db.register_spanner("words", "(.|\\n)*!w{[a-z]+}(.|\\n)*")

    with SpannerService(db, ServeConfig(workers=4)) as service:
        result = service.query("words", "logs", deadline=2.0)
        print(len(result.tuples), "tuples", "(degraded)" if result.degraded else "")

The chaos suite (``tests/test_chaos.py``) drives hundreds of seeded
multi-threaded runs with injected faults through this layer and asserts
zero wrong answers, zero hangs, and bounded shed rates; see
``docs/RELIABILITY.md`` for the serving runbook.
"""

from repro.serve.coordination import RWLock, StoreCoordinator
from repro.serve.retry import RetryBudget, RetryPolicy
from repro.serve.service import (
    BulkQueryResult,
    QueryResult,
    RetryAfterHint,
    ServeConfig,
    SpannerService,
    Ticket,
    serve_queries,
)
from repro.serve.stream_session import StreamSession, StreamSessionConfig
from repro.util.breaker import CircuitBreaker

__all__ = [
    "BulkQueryResult",
    "CircuitBreaker",
    "QueryResult",
    "RWLock",
    "RetryAfterHint",
    "RetryBudget",
    "RetryPolicy",
    "ServeConfig",
    "SpannerService",
    "StoreCoordinator",
    "StreamSession",
    "StreamSessionConfig",
    "Ticket",
    "serve_queries",
]
