"""`SpannerDB`: the integrated system of the paper's Section 4 narrative.

The dynamic setting of [40] is a *system*: an SLP-compressed document
database, a set of registered spanners M₁…M_k whose evaluation structures
are maintained, and a stream of complex document edits after which every
spanner stays immediately queryable.  This module is that system:

* documents are stored strongly balanced (compressed on ingest with
  Re-Pair, then rebalanced);
* registering a spanner compiles it once (deterministic eVA) and
  preprocesses the per-node matrices for every stored document —
  O(|S|·|Q|³) total, shared across documents through the arena;
* :meth:`SpannerDB.edit` applies a CDE-expression in O(|φ|·log d) and
  updates every registered spanner's matrices for the O(log d) fresh
  nodes only;
* :meth:`SpannerDB.query` streams results with O(log |D|) delay, and
  :meth:`SpannerDB.is_nonempty` answers without enumerating.

This is also the "adoption surface" of the library, and it is hardened
accordingly (see ``docs/RELIABILITY.md``):

* **transactional mutations** — :meth:`add_document`,
  :meth:`register_spanner`, and :meth:`edit` are atomic: staged SLP nodes,
  evaluator matrices, and catalog entries are rolled back together on any
  failure, and :meth:`transaction` batches several mutations with
  all-or-nothing semantics;
* **resource governance** — evaluation entry points accept a
  :class:`~repro.util.Budget` (wall-clock deadline, step budget,
  decompression-bomb guard);
* **crash-safe persistence** — :meth:`save` writes an atomic, checksummed
  snapshot; each committed mutation batch is appended to an fsync'd redo
  journal sealed by a commit marker; :meth:`open` recovers the last
  committed state after a crash, tolerating torn snapshot and journal
  writes, and replaying transactions all-or-nothing;
* **observability** — every entry point runs inside a :mod:`repro.obs`
  span (``db.query``, ``db.edit``, ``db.save``, ``db.open``, …), journal
  append latency and recovery replay statistics are recorded as metrics,
  budget exhaustion becomes a ``db.budget_exceeded`` event, and
  :meth:`stats` reports the live registry (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Iterator

from repro import obs
from repro.core.spans import SpanRelation, SpanTuple
from repro.errors import (
    DeadlineExceededError,
    EvaluationLimitError,
    JournalError,
    MemoryLimitError,
    PersistenceError,
    SchemaError,
    SLPError,
    SpanlibError,
    TransactionError,
)
from repro.kernels.plan import evaluator_for, plan_cache
from repro.slp.balance import rebalance
from repro.slp.cde import CDE, apply_cde, format_cde, parse_cde
from repro.slp.build import repair_node
from repro.slp.slp import SLP, DocumentDatabase
from repro.slp.spanner_eval import SLPSpannerEvaluator

__all__ = ["SpannerDB"]

#: budget exhaustion errors that get surfaced as observability events
_BUDGET_ERRORS = (DeadlineExceededError, EvaluationLimitError, MemoryLimitError)


def _budget_event(op: str, exc: BaseException, budget) -> None:
    """Record a budget-exhaustion event (caller checks ``obs.enabled()``)."""
    registry = obs.metrics()
    registry.counter("db.budget_exceeded").inc()
    registry.counter(f"db.budget_exceeded.{type(exc).__name__}").inc()
    obs.tracer().event(
        "db.budget_exceeded",
        op=op,
        error=type(exc).__name__,
        steps=getattr(budget, "steps", None),
    )


def _fsync_dir(path: str) -> None:
    """fsync the directory containing *path*.

    On POSIX a rename or file creation is durable only once the containing
    directory's metadata reaches disk; without this a committed
    :meth:`SpannerDB.save` could vanish entirely on power loss.  Platforms
    whose directories cannot be opened (e.g. Windows) skip silently."""
    directory = os.path.dirname(os.path.abspath(path)) or os.sep
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass
class _Checkpoint:
    """Everything needed to undo a (possibly nested) transaction scope."""

    arena_mark: int
    docs: dict[str, int]
    spanners: dict[str, SLPSpannerEvaluator]
    sources: dict[str, str]
    pending: int


class SpannerDB:
    """A compressed, incrementally editable, spanner-indexed document store."""

    def __init__(self) -> None:
        self._db = DocumentDatabase(SLP())
        self._spanners: dict[str, SLPSpannerEvaluator] = {}
        #: regex source text per spanner registered from a string, so the
        #: query language can inline a stored spanner by name as a regex
        #: atom (spanners registered from automaton objects have no entry)
        self._spanner_sources: dict[str, str] = {}
        #: attached journal file (set by save/open); None = not persistent
        self._journal_path: str | None = None
        #: open transaction checkpoints, innermost last
        self._txn: list[_Checkpoint] = []
        #: encoded journal records awaiting the outermost commit
        self._pending: list[str] = []
        #: set when a journal append failed partway: the torn tail would
        #: hide any later append from recovery, so commits are refused
        #: until :meth:`save` rewrites the journal
        self._journal_poisoned = False
        #: replay statistics from the last :meth:`open` (None for a store
        #: that was never recovered from disk)
        self._recovery: dict | None = None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def transaction(self) -> Iterator["SpannerDB"]:
        """All-or-nothing scope for a batch of mutations.

        ::

            with db.transaction():
                db.add_document("d", text)
                db.edit("d2", Delete(Doc("d"), 1, 10))

        On any exception the arena, the per-spanner matrices, the document
        catalog, and the pending journal records are restored to the state
        at entry, and the exception propagates.  On success, the batched
        journal records plus a commit marker sealing them become durable in
        one append — recovery replays the batch all-or-nothing, and if the
        append itself fails the whole batch rolls back in memory too.
        Transactions nest: inner scopes roll back to their own entry point;
        records only reach the journal when the outermost scope commits.

        Every single mutation runs in its own (auto-)transaction, so a bare
        ``db.edit(...)`` is atomic too.
        """
        self._begin()
        try:
            yield self
        except BaseException:
            self._rollback()
            raise
        else:
            self._commit()

    def _begin(self) -> None:
        self._txn.append(
            _Checkpoint(
                arena_mark=self.slp.mark(),
                docs=dict(self._db._docs),
                spanners=dict(self._spanners),
                sources=dict(self._spanner_sources),
                pending=len(self._pending),
            )
        )

    def _commit(self) -> None:
        if not self._txn:
            raise TransactionError("commit without a matching begin")
        if len(self._txn) > 1:
            self._txn.pop()
            return  # inner scope: defer durability to the outermost commit
        # Outermost scope: make the batch durable *before* discarding the
        # checkpoint, so a failed append (ENOSPC, I/O error, injected
        # fault) rolls the mutation back instead of acknowledging a commit
        # the journal never recorded.  The batch is sealed with a commit
        # marker written in the same append: recovery applies it
        # all-or-nothing, never a torn prefix.
        if self._pending:
            from repro.slp.serialize import encode_commit_marker

            lines = self._pending + [encode_commit_marker(len(self._pending))]
            try:
                self._journal_write("".join(line + "\n" for line in lines))
            except BaseException:
                self._journal_poisoned = True
                self._rollback()
                raise
        self._txn.pop()
        self._pending.clear()

    def _rollback(self) -> None:
        if not self._txn:
            raise TransactionError("rollback without a matching begin")
        cp = self._txn.pop()
        del self._pending[cp.pending:]
        self._db._docs = cp.docs
        self._spanners = cp.spanners
        self._spanner_sources = cp.sources
        # truncation first drops ids >= mark from every live cache of the
        # arena (they will be reused) — including evaluators this store no
        # longer registers, which the plan cache may hand out again
        self.slp.truncate(cp.arena_mark)

    def _journal_record(self, *fields: str) -> None:
        """Stage one redo record; it becomes durable at outermost commit."""
        if self._journal_path is None:
            return
        from repro.slp.serialize import encode_journal_record

        self._pending.append(encode_journal_record(fields))

    def _journal_write(self, payload: str) -> None:
        """Append *payload* to the journal and force it to disk.

        This is the durability point of a commit — and the injection point
        :func:`repro.util.faults.truncate_journal_write` tears to simulate
        a crash mid-append."""
        assert self._journal_path is not None
        if self._journal_poisoned:
            raise PersistenceError(
                "journal has a torn tail from an earlier failed append; "
                "call save() to checkpoint before committing further mutations"
            )
        observing = obs.enabled()
        t0 = time.perf_counter_ns() if observing else 0
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        if observing:
            registry = obs.metrics()
            registry.histogram("db.journal.append_ns").record(
                time.perf_counter_ns() - t0
            )
            registry.counter("db.journal.appends").inc()
            registry.counter("db.journal.bytes").inc(len(payload))

    # ------------------------------------------------------------------
    # documents
    # ------------------------------------------------------------------
    @property
    def slp(self) -> SLP:
        return self._db.slp

    def add_document(self, name: str, text: str, budget=None) -> None:
        """Ingest plain text: compress (incremental Re-Pair, O(|D| log |D|)
        for |D| characters), rebalance, store, and preprocess it for every
        registered spanner.

        Atomic: if any step fails — including a preprocess failure for one
        of several registered spanners — the staged SLP nodes, the document
        entry, and any partially computed matrices are all rolled back."""
        if not text:
            raise SLPError("documents must be non-empty")
        with obs.tracer().span("db.add_document", document=name, chars=len(text)):
            try:
                with self.transaction():
                    node = rebalance(self.slp, repair_node(self.slp, text))
                    self._db.add_node(name, node)
                    for evaluator in self._spanners.values():
                        evaluator.preprocess(self.slp, node, budget)
                    self._journal_record("A", name, text)
            except _BUDGET_ERRORS as exc:
                if obs.enabled():
                    _budget_event("add_document", exc, budget)
                raise

    def documents(self) -> list[str]:
        return self._db.names()

    def document_length(self, name: str) -> int:
        return self.slp.length(self._db.node(name))

    def document_text(self, name: str, limit: int = 10_000_000, budget=None) -> str:
        """Decompress (guarded) — for debugging and small documents.

        The *limit* guard raises :class:`~repro.errors.SLPError`; a
        :class:`~repro.util.Budget` with ``max_bytes`` additionally raises
        :class:`~repro.errors.MemoryLimitError` (the decompression-bomb
        guard, since SLP documents can be exponentially long)."""
        node = self._db.node(name)
        if budget is not None:
            budget.charge_bytes(
                self.slp.length(node), what=f"decompressing document {name!r}"
            )
        return self._db.document(name, limit)

    # ------------------------------------------------------------------
    # spanners
    # ------------------------------------------------------------------
    def register_spanner(self, name: str, spanner, budget=None) -> None:
        """Register a spanner (regex-formula string, vset-automaton, or
        RegularSpanner) and preprocess all stored documents for it.

        Atomic: a preprocess failure on the n-th stored document leaves no
        half-registered spanner and no orphan matrices."""
        if name in self._spanners:
            raise SchemaError(f"spanner {name!r} already registered")
        evaluator = evaluator_for(spanner)
        with obs.tracer().span("db.register_spanner", spanner=name):
            try:
                with self.transaction():
                    for _, node in self._db.documents():
                        evaluator.preprocess(self.slp, node, budget)
                    self._spanners[name] = evaluator
                    if isinstance(spanner, str):
                        self._spanner_sources[name] = spanner
            except _BUDGET_ERRORS as exc:
                if obs.enabled():
                    _budget_event("register_spanner", exc, budget)
                raise

    def spanners(self) -> list[str]:
        return sorted(self._spanners)

    def _evaluator(self, spanner: str) -> SLPSpannerEvaluator:
        try:
            return self._spanners[spanner]
        except KeyError:
            raise SchemaError(f"no spanner named {spanner!r}") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, spanner: str, document: str, budget=None) -> Iterator[SpanTuple]:
        """Stream ``⟦M⟧(D)`` from the compressed form (O(log |D|) delay).

        With a :class:`~repro.util.Budget`, enumeration over pathological
        (e.g. exponential-length) documents terminates at the deadline or
        step limit with a clean typed error.  With :mod:`repro.obs`
        enabled, the stream runs inside a ``db.query`` span and budget
        exhaustion is recorded as a ``db.budget_exceeded`` event."""
        evaluator = self._evaluator(spanner)
        stream = evaluator.enumerate(self.slp, self._db.node(document), budget)
        if not obs.enabled():
            yield from stream
            return
        produced = 0
        with obs.tracer().span("db.query", spanner=spanner, document=document) as span:
            try:
                for tup in stream:
                    produced += 1
                    yield tup
            except _BUDGET_ERRORS as exc:
                _budget_event("query", exc, budget)
                raise
            finally:
                span.attrs["tuples"] = produced

    def evaluate(self, spanner: str, document: str, budget=None) -> SpanRelation:
        evaluator = self._evaluator(spanner)
        return evaluator.evaluate(self.slp, self._db.node(document), budget)

    def query_decompressed(self, spanner: str, document: str, budget=None) -> SpanRelation:
        """Evaluate *spanner* on the **decompressed** text of *document*.

        The graceful-degradation path of :mod:`repro.serve`: when the
        circuit breaker around the compressed evaluator is open, queries
        fall back here — same results (asserted by the differential fuzz
        suite), worse latency, service up.  It shares nothing with the
        compressed path except the compiled automaton: no SLP matrices are
        read or written, so a fault or poisoned cache on the compressed
        side cannot leak into degraded answers.

        The budget's ``max_bytes`` guard is charged for the decompression
        (SLP documents can be exponentially long) and its step/deadline
        allowances govern the text-side dynamic program."""
        evaluator = self._evaluator(spanner)
        node = self._db.node(document)
        if budget is not None:
            budget.charge_bytes(
                self.slp.length(node),
                what=f"decompressing document {document!r} for degraded evaluation",
            )
        with obs.tracer().span(
            "db.query_decompressed", spanner=spanner, document=document
        ) as span:
            try:
                text = self._db.document(document)
                relation = evaluator.evaluate_text(text, budget)
                if obs.enabled():
                    span.attrs["tuples"] = len(relation)
                    obs.metrics().counter("db.query_decompressed").inc()
                return relation
            except _BUDGET_ERRORS as exc:
                if obs.enabled():
                    _budget_event("query_decompressed", exc, budget)
                raise

    def is_nonempty(self, spanner: str, document: str, budget=None) -> bool:
        evaluator = self._evaluator(spanner)
        return evaluator.is_nonempty(self.slp, self._db.node(document), budget)

    def document_node(self, name: str) -> int:
        """The SLP root node of a stored document (for evaluator reuse by
        the query layer and other engine-level callers)."""
        return self._db.node(name)

    def query_expr(
        self, expression: str, document: str | None = None, budget=None
    ) -> SpanRelation:
        """Evaluate a :mod:`repro.query` algebra expression on this store.

        One-shot convenience over :class:`repro.query.executor.QuerySession`
        (which is what the REPL and :mod:`repro.serve` keep alive between
        statements to accumulate bindings and planner statistics); the
        compiled subplans still land in the shared plan cache, so repeated
        one-shot calls of the same expression stay warm."""
        from repro.query.executor import QuerySession

        with obs.tracer().span(
            "db.query_expr", expression=expression, document=document
        ) as span:
            try:
                session = QuerySession(self, budget=budget)
                relation = session.evaluate(expression, document, budget)
                if obs.enabled():
                    span.attrs["tuples"] = len(relation)
                return relation
            except _BUDGET_ERRORS as exc:
                if obs.enabled():
                    _budget_event("query_expr", exc, budget)
                raise

    def query_bulk(self, spanner: str, documents, *, budget=None) -> dict:
        """Evaluate *spanner* on many stored documents at once.

        One spanner lookup, one ``db.query_bulk`` span and one shared
        :class:`~repro.util.Budget` cover the whole batch.  There is no
        preprocessing left to spread over workers: :meth:`add_document`,
        :meth:`edit` and :meth:`register_spanner` preprocess and seal
        every stored root for every registered spanner, so each document
        here only enumerates.

        Returns ``{document: SpanRelation}`` in input order, identical to
        calling :meth:`evaluate` per document (the differential test suite
        asserts this)."""
        names = list(documents)
        evaluator = self._evaluator(spanner)
        with obs.tracer().span("db.query_bulk", spanner=spanner, documents=len(names)):
            try:
                relations = {
                    name: evaluator.evaluate(self.slp, self._db.node(name), budget)
                    for name in names
                }
            except _BUDGET_ERRORS as exc:
                if obs.enabled():
                    _budget_event("query_bulk", exc, budget)
                raise
            if obs.enabled():
                obs.metrics().counter("db.query_bulk").inc()
            return relations

    # ------------------------------------------------------------------
    # editing (the dynamic setting of [40])
    # ------------------------------------------------------------------
    def edit(self, new_name: str, expression: CDE, budget=None) -> int:
        """Apply a CDE-expression, store the result as *new_name*, and
        update every registered spanner's structures for the fresh nodes.

        Returns the total number of fresh node-matrix computations across
        all spanners (the measurable O(k·log d) update cost).  Atomic: a
        failure at any point — CDE application, catalog insert, or matrix
        update for any spanner — rolls the store back to its prior state."""
        with obs.tracer().span("db.edit", document=new_name) as span:
            try:
                with self.transaction():
                    node = apply_cde(expression, self._db, budget)
                    self._db.add_node(new_name, node)
                    fresh = 0
                    for evaluator in self._spanners.values():
                        fresh += evaluator.preprocess(self.slp, node, budget)
                    self._journal_record("E", new_name, format_cde(expression))
                    if obs.enabled():
                        span.attrs["fresh_matrices"] = fresh
                        obs.metrics().counter("db.edit.fresh_matrices").inc(fresh)
                    return fresh
            except _BUDGET_ERRORS as exc:
                if obs.enabled():
                    _budget_event("edit", exc, budget)
                raise

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the store *in compressed form* as an atomic, checksummed
        snapshot, and reset the attached edit journal.

        Write protocol: snapshot to ``path + ".tmp"`` and fsync; demote any
        existing snapshot to ``path + ".bak"``; rename the fresh snapshot
        into place (atomic on POSIX) and fsync the containing directory so
        the rename survives power loss; truncate the journal.  A crash at
        any point leaves either the old or the new snapshot loadable — torn
        writes are detected by checksum and :meth:`open` falls back to the
        ``.bak`` copy.  A successful save also re-arms a journal poisoned
        by an earlier failed append.

        Raises :class:`~repro.errors.TransactionError` inside an open
        :meth:`transaction`: the snapshot would capture uncommitted staged
        state that a later rollback could not undo on disk.

        Registered spanners are code, not data — re-register after load.
        """
        from repro.slp.serialize import dump_snapshot

        if self._txn:
            raise TransactionError(
                "save() inside an open transaction would snapshot "
                "uncommitted state; commit or roll back first"
            )
        with obs.tracer().span("db.save", path=path):
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as stream:
                dump_snapshot(self._db, stream)
                stream.flush()
                os.fsync(stream.fileno())
            if os.path.exists(path):
                os.replace(path, path + ".bak")
            os.replace(tmp, path)
            _fsync_dir(path)
            self._journal_path = path + ".journal"
            self._reset_journal()
            self._journal_poisoned = False
            if obs.enabled():
                obs.metrics().counter("db.saves").inc()

    def _reset_journal(self) -> None:
        from repro.slp.serialize import JOURNAL_MAGIC

        assert self._journal_path is not None
        with open(self._journal_path, "w", encoding="utf-8") as handle:
            handle.write(JOURNAL_MAGIC + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_dir(self._journal_path)

    @classmethod
    def open(cls, path: str) -> "SpannerDB":
        """Open (or create) a persistent store, recovering committed state.

        Recovery procedure:

        1. load the snapshot at *path*; if it is torn or corrupt
           (checksum mismatch), fall back to ``path + ".bak"``;
        2. replay the edit journal ``path + ".journal"`` batch by batch,
           applying only batches sealed by an intact commit marker (a
           crash mid-append loses the in-flight batch whole — never a
           prefix of a transaction, never earlier commits) — and stopping
           at the first record that no longer applies (after a fall back
           to the older ``.bak`` snapshot, tail records may reference
           documents that only the torn snapshot contained: replay is
           best-effort);
        3. if anything was replayed or the journal was torn, checkpoint:
           write a fresh snapshot and truncate the journal.

        The returned store is *attached*: every committed mutation is
        appended to the journal (fsync'd), so a later :meth:`open` after a
        crash recovers it.  Spanners are code, not data — re-register them.
        """
        from repro.slp.serialize import read_journal

        with obs.tracer().span("db.open", path=path) as span:
            store = cls()
            database, used_fallback = cls._load_snapshot_with_fallback(path)
            if database is not None:
                store._db = database

            journal_path = path + ".journal"
            records: list[list[str]] = []
            clean = True
            if os.path.exists(journal_path):
                with open(journal_path, "r", encoding="utf-8") as stream:
                    records, clean = read_journal(stream)
                replayed = []
                for record in records:
                    try:
                        store._apply_journal_record(record)
                    except JournalError:
                        # best-effort: everything past an inapplicable record
                        # is untrusted (see step 2 above)
                        clean = False
                        break
                    replayed.append(record)
                records = replayed

            store._journal_path = journal_path
            store._recovery = {
                "replayed_records": len(records),
                "journal_clean": clean,
                "used_fallback_snapshot": used_fallback,
            }
            if obs.enabled():
                registry = obs.metrics()
                registry.counter("db.recovery.replayed_records").inc(len(records))
                if not clean:
                    registry.counter("db.recovery.torn_journals").inc()
                if used_fallback:
                    registry.counter("db.recovery.fallback_snapshots").inc()
                span.attrs.update(store._recovery)
            if records or not clean or used_fallback:
                # checkpoint the recovered state and truncate the torn journal
                store.save(path)
            elif not os.path.exists(journal_path):
                store._reset_journal()
            return store

    @staticmethod
    def _load_snapshot_with_fallback(path: str):
        """(database, used_fallback) — or (None, False) for a fresh store."""
        from repro.slp.serialize import load_database

        primary_error: SpanlibError | None = None
        for candidate, is_fallback in ((path, False), (path + ".bak", True)):
            if not os.path.exists(candidate):
                continue
            try:
                with open(candidate, "r", encoding="utf-8") as stream:
                    return load_database(stream), is_fallback
            except SpanlibError as exc:
                if primary_error is None:
                    primary_error = exc
        if primary_error is not None:
            raise PersistenceError(
                f"no loadable snapshot for {path!r} "
                f"(primary and fallback both unreadable: {primary_error})"
            )
        return None, False

    def _apply_journal_record(self, record: list[str]) -> None:
        """Replay one committed mutation during recovery.

        Idempotent with respect to the snapshot: records whose target
        document already exists are skipped (a crash between snapshot
        rotation and journal truncation in :meth:`save` leaves already
        applied records behind)."""
        kind = record[0] if record else ""
        try:
            if kind == "A" and len(record) == 3:
                if record[1] not in self._db:
                    self.add_document(record[1], record[2])
            elif kind == "E" and len(record) == 3:
                if record[1] not in self._db:
                    self.edit(record[1], parse_cde(record[2]))
            else:
                raise JournalError(f"unknown journal record {record!r}")
        except JournalError:
            raise
        except SpanlibError as exc:
            raise JournalError(
                f"journal record {record!r} cannot be replayed: {exc}"
            ) from exc

    @classmethod
    def load(cls, path: str) -> "SpannerDB":
        """Load a snapshot written by :meth:`save` (either format version),
        *without* attaching the journal — a read-only-style load kept for
        backwards compatibility; prefer :meth:`open`."""
        from repro.slp.serialize import load_database

        with open(path, "r", encoding="utf-8") as stream:
            database = load_database(stream)
        store = cls()
        store._db = database
        return store

    # ------------------------------------------------------------------
    def _journal_records(self) -> int | None:
        """Number of record lines in the attached journal (``None`` when
        not persistent or the journal file is missing)."""
        if self._journal_path is None or not os.path.exists(self._journal_path):
            return None
        with open(self._journal_path, "r", encoding="utf-8") as handle:
            # first line is the magic header; the rest are records/markers
            return max(0, sum(1 for _ in handle) - 1)

    def stats(self) -> dict:
        """Arena, index, persistence, and live-metrics statistics.

        Diagnostic enough to answer "why is this store big / slow": the
        SLP arena footprint in bytes, per-spanner evaluator-cache entry
        counts / resident bytes / sealed-root counts (each O(1) via the
        per-arena index — no cache scans), the journal backlog since the
        last checkpoint, the last recovery's replay stats, and — when
        :mod:`repro.obs` is enabled — a snapshot of the live metrics
        registry."""
        nodes = {name: node for name, node in self._db.documents()}
        # evaluators may be shared across stores via the plan cache, so
        # counts are scoped to this store's arena
        per_spanner = {
            name: evaluator.arena_cache_stats(self.slp.serial)
            for name, evaluator in self._spanners.items()
        }
        return {
            "documents": len(nodes),
            "spanners": len(self._spanners),
            "total_characters": sum(self.slp.length(n) for n in nodes.values()),
            "slp_nodes": self._db.size(),
            "slp_arena_bytes": self.slp.arena_bytes(),
            "cached_matrices": {
                name: stats["entries"] for name, stats in per_spanner.items()
            },
            "spanner_caches": per_spanner,
            "evaluator_cache_entries": sum(
                stats["entries"] for stats in per_spanner.values()
            ),
            "evaluator_cache_bytes": sum(
                stats["bytes"] for stats in per_spanner.values()
            ),
            "plan_cache": plan_cache().stats(),
            "journal": self._journal_path,
            "journal_records": self._journal_records(),
            "recovery": self._recovery,
            "open_transactions": len(self._txn),
            "observability_enabled": obs.enabled(),
            "metrics": obs.metrics().snapshot() if obs.enabled() else None,
        }
