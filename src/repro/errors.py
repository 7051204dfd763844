"""Exception hierarchy for spanlib.

Every error raised by the library derives from :class:`SpanlibError`, so
callers can catch library failures without also catching programming errors
such as :class:`TypeError`.

The hierarchy has three robustness-oriented branches:

* **resource governance** — :class:`EvaluationLimitError` and its
  subclasses :class:`DeadlineExceededError` and :class:`MemoryLimitError`
  are raised by :class:`repro.util.Budget`-governed evaluation instead of
  hanging or exhausting memory;
* **persistence** — :class:`PersistenceError` and :class:`JournalError`
  signal corrupt or torn on-disk state detected by the checksummed
  snapshot/journal machinery of :mod:`repro.slp.serialize`;
* **fault injection** — :class:`FaultInjectedError` is raised by the
  :mod:`repro.util.faults` harness, and is a :class:`SpanlibError` so that
  injected failures exercise exactly the error paths real failures take;
* **serving** — :class:`ServeError` and its subclasses
  :class:`OverloadedError` (admission control shed the request, with a
  ``retry_after`` hint), :class:`CircuitOpenError` (the compressed path is
  tripped and degradation is disabled), and :class:`ServiceStoppedError`
  are raised by the :mod:`repro.serve` query service.

All public errors are exported from :mod:`repro` (asserted by
``tests/test_exports.py``).
"""

from __future__ import annotations

__all__ = [
    "SpanlibError",
    "InvalidSpanError",
    "InvalidMarkedWordError",
    "QueryError",
    "QuerySyntaxError",
    "RegexSyntaxError",
    "NotFunctionalError",
    "SchemaError",
    "UnsupportedSpannerError",
    "EvaluationLimitError",
    "DeadlineExceededError",
    "MemoryLimitError",
    "TransactionError",
    "SLPError",
    "PersistenceError",
    "JournalError",
    "CDEError",
    "FaultInjectedError",
    "ServeError",
    "OverloadedError",
    "CircuitOpenError",
    "ServiceStoppedError",
    "StreamError",
    "WindowOverrunError",
]


class SpanlibError(Exception):
    """Base class of all errors raised by the ``repro`` package."""


class InvalidSpanError(SpanlibError, ValueError):
    """A span's bounds are outside ``1 <= i <= j <= len(doc) + 1``."""


class InvalidMarkedWordError(SpanlibError, ValueError):
    """A sequence of symbols is not a valid subword-marked word or ref-word."""


class RegexSyntaxError(SpanlibError, ValueError):
    """A spanner regex failed to parse.

    Attributes
    ----------
    position:
        0-based offset into the pattern at which parsing failed.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QueryError(SpanlibError, ValueError):
    """A :mod:`repro.query` statement could not be executed.

    Raised by the executor for semantic failures that are not syntax
    errors: references to unbound names, evaluation without a document
    in scope, malformed ``load(...)`` relation files, and so on.  Schema
    violations inside algebra operators keep their own
    :class:`SchemaError` type even when surfaced through the query layer.
    """


class QuerySyntaxError(QueryError):
    """A :mod:`repro.query` expression or script failed to parse.

    Attributes
    ----------
    position:
        0-based offset into the query text at which parsing failed.
    line:
        1-based line number of the failure (scripts are multi-line).
    """

    def __init__(self, message: str, position: int, line: int = 1) -> None:
        super().__init__(f"{message} (at position {position}, line {line})")
        self.position = position
        self.line = line


class NotFunctionalError(SpanlibError, ValueError):
    """An operation required a functional spanner but got a non-functional one."""


class SchemaError(SpanlibError, ValueError):
    """Variable sets of operands are incompatible for the requested operation."""


class UnsupportedSpannerError(SpanlibError, ValueError):
    """The spanner lies outside the fragment an algorithm supports.

    For example, refl-spanner evaluation on documents requires *sequential*
    references (each reference occurs after its variable's closing marker).
    """


class EvaluationLimitError(SpanlibError, RuntimeError):
    """A deliberately bounded computation exhausted its budget.

    Raised both by intrinsically bounded searches (e.g. core-spanner
    satisfiability, which is PSpace-complete in general) and by any
    evaluation governed by a :class:`repro.util.Budget` whose ``max_steps``
    allowance ran out.  The subclasses :class:`DeadlineExceededError` and
    :class:`MemoryLimitError` distinguish the wall-clock and memory guards.
    """


class DeadlineExceededError(EvaluationLimitError):
    """The wall-clock deadline of a :class:`repro.util.Budget` expired.

    Deadline checks are amortised (every ``check_interval`` budget steps),
    so evaluation terminates shortly after — not exactly at — the deadline,
    but always within a bounded number of cheap steps.
    """


class MemoryLimitError(EvaluationLimitError):
    """An operation would materialise more bytes than its budget allows.

    This is the decompression-bomb guard: SLPs can represent documents
    exponentially longer than their compressed size, so ``document_text``,
    CDE expansion, and enumeration preprocessing refuse to grow past the
    budget's ``max_bytes`` instead of exhausting memory.
    """


class TransactionError(SpanlibError, RuntimeError):
    """A :class:`repro.db.SpannerDB` transaction was misused (e.g. a commit
    or rollback without a matching begin) or could not complete cleanly."""


class SLPError(SpanlibError, ValueError):
    """Malformed straight-line program or out-of-range compressed access."""


class PersistenceError(SLPError):
    """On-disk store state failed validation.

    Raised when a checksummed snapshot is torn or corrupt (the checksum
    does not match), or when no readable snapshot — primary or ``.bak``
    fallback — can be found for a store that should have one.
    """


class JournalError(PersistenceError):
    """An edit-journal record is corrupt or cannot be replayed.

    Torn *tails* (a crash mid-append) are not errors — recovery stops at
    the last durable record; this error signals records that pass their
    checksum but cannot be applied to the recovered store.
    """


class CDEError(SpanlibError, ValueError):
    """Malformed complex-document-editing expression (construction, textual
    parsing via :func:`repro.slp.parse_cde`, or out-of-range application)."""


class FaultInjectedError(SpanlibError, RuntimeError):
    """The error raised by :mod:`repro.util.faults` injection points.

    It derives from :class:`SpanlibError` deliberately: an injected fault
    must travel the same rollback/recovery paths as a genuine library
    failure, and the fault-injection test suite asserts precisely that.
    """


class ServeError(SpanlibError, RuntimeError):
    """Base class of failures raised by the :mod:`repro.serve` layer."""


class OverloadedError(ServeError):
    """Admission control shed the request: the queue is full.

    Attributes
    ----------
    retry_after:
        Suggested seconds to wait before resubmitting, derived from the
        current queue depth and the observed mean service time.  Clients
        that honour it drain the backlog instead of amplifying it.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class StreamError(SpanlibError, RuntimeError):
    """Base class of failures raised by the :mod:`repro.stream` layer.

    Raised directly when the stream guard trips: on an append, the σ of a
    DFA run over the raw feed (or the document length) disagreed with the
    appended SLP's root; on a rebuild, the associative ``(σ, T, T_em)``
    fold of the document disagreed bit for bit with the root entry.  The
    compressed state can no longer be trusted and must be rebuilt.
    """


class WindowOverrunError(StreamError):
    """A stream window missed its deadline (or exhausted its fault-retry
    budget) and was shipped *partial* instead of stalling the feed.

    Carried as a marker on the degraded
    :class:`repro.stream.WindowResult` rather than raised, so consumers
    see exactly which windows are incomplete while the feed keeps
    flowing.

    Attributes
    ----------
    window:
        Zero-based index of the overrun window.
    """

    def __init__(self, message: str, window: int = -1) -> None:
        super().__init__(message)
        self.window = int(window)


class CircuitOpenError(ServeError):
    """The compressed-evaluation circuit is open and graceful degradation
    is disabled, so the request cannot be served at all right now."""


class ServiceStoppedError(ServeError):
    """The request was submitted to (or was still queued in) a service
    that has been stopped."""

