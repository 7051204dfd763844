"""The four benchmark workloads.

Each workload drives one public surface of ``repro`` closed loop (every
caller waits for its reply) on inputs made from the run's seed:

* ``serve_reads``  — warm reads through :class:`SpannerService` (2 clients);
* ``ingest_edit``  — CDE edits and document adds with read-backs;
* ``algebra_mix``  — warm and cold :mod:`repro.query` expressions;
* ``feed_tail``    — a log fed through :class:`StreamSession` in 4-line chunks.

A workload builds its state in :meth:`Workload.setup` (phase by phase,
through a :class:`~calib.SetupClock`), runs one closed-loop batch per
:meth:`Workload.batch` call, checks its recorded answers against an
independent oracle in :meth:`Workload.check` (outside the timed region)
and releases everything in :meth:`Workload.teardown`.
"""

from __future__ import annotations

import gc
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.db import SpannerDB
from repro.kernels.plan import plan_cache
from repro.query import evaluate_query_naive
from repro.serve import ServeConfig, SpannerService, StreamSession, StreamSessionConfig
from repro.slp.cde import Concat, Delete, Doc, Extract, Insert, eval_cde
from repro.util import log_document

BODY = r"[^;\n]"
ANY = f"({BODY}|;|\n)*"
#: the registered regex spanners (whole-document patterns, so each is
#: padded with ANY on both sides)
SPANNERS = {
    # every record: ~40 tuples per 1.5 KB document (the aux read)
    "record": f"{ANY}!level{{INFO|WARN|ERROR}} user=!user{{[a-z]+}}"
    f" code=!code{{[0-9]+}}( {BODY}*)?;{ANY}",
    # selective reads: a few tuples per document
    "errors": f"{ANY}ERROR user=!user{{[a-z]+}} code=!code{{[0-9]+}}( {BODY}*)?;{ANY}",
    "err_eve": f"{ANY}ERROR user=eve code=!code{{[0-9]+}}( {BODY}*)?;{ANY}",
    "timeout": f"{ANY}WARN user=!user{{[a-z]+}} code={BODY}* timeout;{ANY}",
}
SELECTIVE = ("err_eve", "timeout", "errors")
#: the spanner fed through the stream: ERROR records with a 5xx code
STREAM_SPANNER = (
    f"{ANY}ERROR user=!user{{[a-z]+}} code=!code{{5[0-9][0-9]}}( {BODY}*)?;{ANY}"
)
#: the log lines STREAM_SPANNER matches (used only to lay out the feed)
STREAM_LINE = re.compile(r"ERROR user=[a-z]+ code=5[0-9][0-9][ ;]")


#: what :meth:`Workload._timed` returns for a request that raised
FAILED = object()


@dataclass
class Sample:
    """One completed (or failed) operation, timed by the client."""

    seconds: float
    primary: bool = False
    aux: bool = False
    ok: bool = True
    #: (queue_ns, exec_ns) of a request served by SpannerService
    serve: tuple[int, int] | None = None
    #: the session-measured time of a stream window
    window_ns: int | None = None


def _documents(rng: random.Random, count: int, lines: int) -> dict[str, str]:
    return {
        f"d{i}": log_document(lines, seed=rng.randrange(1 << 30)) for i in range(count)
    }


class Workload:
    """Shared shape of the workloads (see the module docstring)."""

    name = ""
    clients = 1
    workers = 0
    #: a run makes ``--seconds`` times this many batches, whatever the
    #: host's or the program's speed; set so that the measured phase
    #: takes about ``--seconds`` on a 2-vCPU host with calib_ms ≈ 2.5
    batches_per_s = 1.0

    def __init__(self, seed: int, scale: float = 1.0, tamper: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        #: corrupt one recorded answer, so the self-test can prove that a
        #: wrong answer reaches ok_frac
        self.tamper = tamper
        #: arena + evaluator-cache bytes per stored character, at the end
        #: of set-up
        self.footprint = 0.0
        self.services: list[SpannerService] = []
        self.sessions: list[StreamSession] = []

    def _n(self, full: int, least: int = 1) -> int:
        return max(least, round(full * self.scale))

    def setup(self, clock) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed housekeeping before a batch (nothing by default)."""

    def batch(self) -> list[Sample]:
        raise NotImplementedError

    def check(self) -> int:
        """Wrong answers among the recorded ones."""
        raise NotImplementedError

    def service_stats(self) -> dict:
        totals: dict[str, int] = {}
        for service in self.services:
            for key in ("retries", "failed", "shed", "degraded"):
                totals[key] = totals.get(key, 0) + service.stats()[key]
        return totals

    def teardown(self) -> None:
        errors = []
        for service in self.services:
            try:
                service.stop()
            except Exception as exc:  # noqa: BLE001 - stop the rest, then report
                errors.append(exc)
        for session in self.sessions:
            session.close()
        self.services = []
        self.sessions = []
        if errors:
            raise errors[0]

    def _timed(self, fn, *args):
        """Run one request; (result, seconds), or (FAILED, seconds) if it raised."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # noqa: BLE001 - a failed request is a counted outcome
            return FAILED, time.perf_counter() - start
        return result, time.perf_counter() - start


def _store_footprint(db: SpannerDB) -> float:
    stats = db.stats()
    total = stats["slp_arena_bytes"] + stats["evaluator_cache_bytes"]
    return total / stats["total_characters"]


class _ServedStore(Workload):
    """A SpannerDB with the registered spanners behind a SpannerService."""

    documents = 16
    lines = 43

    def _build(self, clock, rng: random.Random) -> None:
        self.texts = _documents(rng, self._n(self.documents, 2), self.lines)
        db = clock.phase(SpannerDB)
        for name, source in SPANNERS.items():
            clock.phase(db.register_spanner, name, source)
        names = list(self.texts)
        for start in range(0, len(names), 4):
            clock.phase(self._add_group, db, names[start:start + 4])
        self.db = db
        self.service = clock.phase(self._start_service)
        self.services.append(self.service)

    def _add_group(self, db: SpannerDB, names: list[str]) -> None:
        for name in names:
            db.add_document(name, self.texts[name])

    def _start_service(self) -> SpannerService:
        return SpannerService(
            self.db, ServeConfig(workers=self.workers, seed=self.seed)
        ).start()


class ServeReads(_ServedStore):
    """Warm reads: every root sealed at set-up, zero preprocessing."""

    name = "serve_reads"
    clients = 2
    workers = 2
    batches_per_s = 7.2
    #: each client's batch: one aux read at a client-specific position,
    #: primaries round-robin over the selective spanners
    ops_per_client = 12

    def setup(self, clock) -> None:
        rng = random.Random(self.seed)
        self._build(clock, rng)
        clock.phase(self._seal)
        clock.phase(self._warm)
        self.footprint = _store_footprint(self.db)
        self.first: dict[tuple[str, str], frozenset] = {}
        self.ops_done: dict[tuple[str, str], int] = {}
        self.mismatched: dict[tuple[str, str], int] = {}
        self.lock = threading.Lock()
        self.rngs = [random.Random(f"{self.seed}/client{i}") for i in range(self.clients)]
        self.turns = [0] * self.clients
        self.pool = ThreadPoolExecutor(self.clients, thread_name_prefix="bench-client")

    def _seal(self) -> None:
        for name, source in SPANNERS.items():
            evaluator = plan_cache().get_or_compile(source).evaluator
            for doc in self.texts:
                node = self.db.document_node(doc)
                if not evaluator.is_sealed(self.db.slp, node):
                    evaluator.seal_subtree(self.db.slp, node)

    def _warm(self) -> None:
        self.service.query("record", next(iter(self.texts)))
        for index, doc in enumerate(self.texts):
            self.service.query(SELECTIVE[index % len(SELECTIVE)], doc)

    def _client(self, index: int) -> list[Sample]:
        rng = self.rngs[index]
        docs = list(self.texts)
        samples = []
        aux_at = index * self.ops_per_client // self.clients
        for position in range(self.ops_per_client):
            aux = position == aux_at
            self.turns[index] += not aux
            spanner = "record" if aux else SELECTIVE[self.turns[index] % len(SELECTIVE)]
            key = (spanner, rng.choice(docs))
            result, seconds = self._timed(self.service.query, *key)
            if result is FAILED:
                samples.append(Sample(seconds, primary=not aux, aux=aux, ok=False))
                continue
            samples.append(
                Sample(
                    seconds,
                    primary=not aux,
                    aux=aux,
                    serve=(result.queue_ns, result.exec_ns),
                    ok=self._record(key, frozenset(result.tuples)),
                )
            )
        return samples

    def _record(self, key, answer: frozenset) -> bool:
        with self.lock:
            self.ops_done[key] = self.ops_done.get(key, 0) + 1
            if self.first.setdefault(key, answer) == answer:
                return True
            self.mismatched[key] = self.mismatched.get(key, 0) + 1
            return False

    def batch(self) -> list[Sample]:
        futures = [self.pool.submit(self._client, i) for i in range(self.clients)]
        samples: list[Sample] = []
        for future in futures:
            samples.extend(future.result())
        return samples

    def check(self) -> int:
        if self.tamper and self.first:
            key = min(self.first)
            self.first[key] = self.first[key] | {("tampered",)}
        wrong = 0
        for key, answer in sorted(self.first.items()):
            if answer != frozenset(self.db.query_decompressed(*key)):
                # the ops that agreed with a wrong first answer are wrong
                # too (the disagreeing ones already failed in the run)
                wrong += self.ops_done[key] - self.mismatched.get(key, 0)
        return wrong

    def teardown(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self.pool = None
        super().teardown()


class IngestEdit(_ServedStore):
    """CDE edits and document adds, each followed by a read-back."""

    name = "ingest_edit"
    workers = 1
    batches_per_s = 13.0
    documents = 12
    #: every fifth op adds a document, the rest are edits
    ops_per_batch = 5
    add_every = 5
    warm_ops = 20
    add_lines = 12
    check_share = 0.125

    def setup(self, clock) -> None:
        rng = random.Random(self.seed)
        self._build(clock, rng)
        self.base = list(self.texts)
        self.count = 0
        self.checks: list[tuple[str, str, str, frozenset]] = []
        warm = random.Random(f"{self.seed}/warm")
        clock.phase(self._run_ops, warm, self._n(self.warm_ops, 2), [])
        self.footprint = _store_footprint(self.db)
        self.rng = random.Random(f"{self.seed}/ops")

    def _edit_expression(self, rng: random.Random):
        a, b = rng.sample(self.base, 2)
        text = self.texts[a]
        i = rng.randint(1, len(text) - 200)
        j = i + rng.randint(40, 199)
        kind = self.count % 4
        if kind == 0:
            return Extract(Doc(a), i, j)
        if kind == 1:
            return Delete(Doc(a), i, j)
        if kind == 2:
            k = rng.randint(1, len(self.texts[b]) + 1)
            return Insert(Doc(b), Extract(Doc(a), i, j), k)
        return Concat(Extract(Doc(a), i, j), Doc(b))

    def _run_ops(self, rng: random.Random, count: int, samples: list) -> list[Sample]:
        for _ in range(count):
            self.count += 1
            if self.count % self.add_every == 0:
                name = f"a{self.count}"
                text = log_document(self.add_lines, seed=rng.randrange(1 << 30))
                result, seconds = self._timed(self.service.add_document, name, text)
                ok = result is not FAILED
                samples.append(Sample(seconds, aux=True, ok=ok))
                expected = text
            else:
                name = f"e{self.count}"
                expression = self._edit_expression(rng)
                result, seconds = self._timed(self.service.edit, name, expression)
                ok = result is not FAILED
                samples.append(Sample(seconds, primary=True, ok=ok))
                expected = expression
            if not ok:
                continue
            spanner = SELECTIVE[self.count % len(SELECTIVE)]
            result, seconds = self._timed(self.service.query, spanner, name)
            if result is FAILED:
                samples.append(Sample(seconds, ok=False))
                continue
            samples.append(Sample(seconds, serve=(result.queue_ns, result.exec_ns)))
            if rng.random() < self.check_share:
                self.checks.append((name, expected, spanner, frozenset(result.tuples)))
        return samples

    def batch(self) -> list[Sample]:
        return self._run_ops(self.rng, self.ops_per_batch, [])

    def check(self) -> int:
        if self.tamper and self.checks:
            name, expected, spanner, answer = self.checks[0]
            self.checks[0] = (name, expected, spanner, answer | {("tampered",)})
        wrong = 0
        for name, expected, spanner, answer in self.checks:
            text = expected if isinstance(expected, str) else eval_cde(expected, self.texts)
            stored_ok = self.db.document_text(name) == text
            answer_ok = answer == frozenset(self.db.query_decompressed(spanner, name))
            wrong += (not stored_ok) + (not answer_ok)
        return wrong


class AlgebraMix(_ServedStore):
    """Warm (plan-cache hit) and cold (compile) algebra expressions."""

    name = "algebra_mix"
    workers = 1
    batches_per_s = 34.0
    documents = 8
    lines = 24
    #: three cold expressions in every twenty ops (15 %), at fixed places
    ops_per_batch = 5
    cold_at = (3, 10, 16)
    pattern = 20
    naive_cold_checks = 12
    #: the warm family over the registered atoms
    FAMILY = (
        "π_{code}(err_eve)",
        "errors ⋈ err_eve",
        "π_{user}(timeout) ∪ π_{user}(errors)",
        "π_{user}(errors) \\ π_{user}(timeout)",
        "π_{user}(record) \\ π_{user}(errors)",
    )

    def setup(self, clock) -> None:
        rng = random.Random(self.seed)
        self._build(clock, rng)
        for expression in self.FAMILY:
            clock.phase(self._warm, expression)
        self.footprint = _store_footprint(self.db)
        self.rng = random.Random(f"{self.seed}/ops")
        codes = list(range(100, 1000))
        self.rng.shuffle(codes)
        self.cold_codes = codes
        self.first: dict[tuple[str, str], frozenset] = {}
        self.mismatches = 0
        self.cold_count = 0
        self.count = 0

    def _warm(self, expression: str) -> None:
        for doc in self.texts:
            self.service.query_expression(expression, doc)

    def batch(self) -> list[Sample]:
        rng = self.rng
        docs = list(self.texts)
        samples = []
        for _ in range(self.ops_per_batch):
            self.count += 1
            cold = self.count % self.pattern in self.cold_at
            if cold:
                code = self.cold_codes[self.cold_count % len(self.cold_codes)]
                self.cold_count += 1
                expression = f"'(.|\\n)*user=!user{{[a-z]+}} code={code}(.|\\n)*'"
            else:
                expression = self.FAMILY[(self.count - self.cold_count) % len(self.FAMILY)]
            key = (expression, rng.choice(docs))
            result, seconds = self._timed(self.service.query_expression, *key)
            if result is FAILED:
                samples.append(Sample(seconds, primary=not cold, aux=cold, ok=False))
                continue
            answer = frozenset(result.tuples)
            first = self.first.setdefault(key, answer)
            ok = first == answer
            self.mismatches += not ok
            samples.append(
                Sample(
                    seconds,
                    primary=not cold,
                    aux=cold,
                    ok=ok,
                    serve=(result.queue_ns, result.exec_ns),
                )
            )
        return samples

    def _expected(self, expression: str, doc: str) -> frozenset:
        return frozenset(evaluate_query_naive(expression, self.texts[doc], db=self.db))

    def check(self) -> int:
        if self.tamper and self.first:
            key = next(iter(self.first))
            self.first[key] = self.first[key] | {("tampered",)}
        # once per distinct warm expression (on its first document), plus
        # a seeded sample of the cold ones — each cold one is distinct
        seen: set[str] = set()
        warm_keys, cold_keys = [], []
        for key in self.first:
            if key[0] in seen:
                continue
            seen.add(key[0])
            (warm_keys if key[0] in self.FAMILY else cold_keys).append(key)
        sample = random.Random(f"{self.seed}/check").sample(
            cold_keys, min(len(cold_keys), self.naive_cold_checks)
        )
        wrong = self.mismatches
        for key in warm_keys + sample:
            wrong += self.first[key] != self._expected(*key)
        return wrong


class FeedTail(Workload):
    """A seeded log fed through StreamSession in 4-line chunks.

    The feed runs in episodes of a fixed length (a backlog fed in one
    chunk, then ``windows`` 4-line windows), so a window's cost — which
    grows with the feed — depends on its position in the episode, not on
    how fast the host let the run get.  Every ``match_every``-th line is
    one the spanner matches and the seed picks the lines, so the frontier
    grows alike in every episode and for every seed."""

    name = "feed_tail"
    backlog_lines = 100
    windows = 100
    chunk_lines = 4
    windows_per_batch = 8
    batches_per_s = 7.0
    warm_batches = 2
    match_every = 15

    def setup(self, clock) -> None:
        self.rng = random.Random(self.seed)
        self.pools: tuple[list[str], list[str]] = ([], [])
        self.episodes: list[tuple[str, frozenset]] = []
        self.evaluator = clock.phase(
            lambda: plan_cache().get_or_compile(STREAM_SPANNER).evaluator
        )
        self.episode = None
        # a throwaway episode warms the kernels and char tables
        clock.phase(self._start_episode)
        for _ in range(self.warm_batches):
            clock.phase(self.batch)
        clock.phase(self._drop_episode)
        clock.phase(self._start_episode)
        self.footprint = self._stream_footprint()

    def _stream_footprint(self) -> float:
        session = self.episode["session"]
        stream = session.stats()["stream"]
        # stats() reports the arena as a node count; its bytes come from
        # the stream's own SLP, as SpannerDB.stats() reports them
        arena = session._stream.slp.arena_bytes()
        return (arena + stream["cache_bytes"]) / stream["document_chars"]

    def _start_episode(self) -> None:
        windows = self._n(self.windows, 4)
        rows = self._rows(self.backlog_lines + windows * self.chunk_lines)
        session = StreamSession(STREAM_SPANNER, StreamSessionConfig(queue_limit=8))
        session.start()
        self.sessions.append(session)
        results = session.results()
        backlog = "".join(rows[: self.backlog_lines])
        session.feed(backlog)
        next(results)
        step = self.chunk_lines
        chunks = [
            "".join(rows[k: k + step]) for k in range(self.backlog_lines, len(rows), step)
        ]
        self.episode = {
            "session": session,
            "results": results,
            "chunks": chunks,
            "next": 0,
            "fed": [backlog],
        }

    def _rows(self, count: int) -> list[str]:
        matching, other = self.pools
        rows = []
        while len(rows) < count:
            pool = matching if len(rows) % self.match_every == 0 else other
            while not pool:
                text = log_document(64, seed=self.rng.randrange(1 << 30))
                for line in text.splitlines(keepends=True):
                    (matching if STREAM_LINE.match(line) else other).append(line)
            rows.append(pool.pop())
        return rows

    def _drop_episode(self) -> None:
        session = self.episode["session"]
        session.close()
        self.sessions.remove(session)
        self.episode = None

    def _end_episode(self) -> None:
        episode = self.episode
        self._drop_episode()
        frontier = frozenset(episode["session"].frontier())
        self.episodes.append(("".join(episode["fed"]), frontier))
        # free the episode's arena (and the evaluator's caches for it)
        # now, not whenever the collector next runs
        gc.collect()

    def prepare(self) -> None:
        episode = self.episode
        if episode is not None and episode["next"] >= len(episode["chunks"]):
            self._end_episode()
        if self.episode is None:
            self._start_episode()

    def batch(self) -> list[Sample]:
        episode = self.episode
        chunks = episode["chunks"]
        late = len(chunks) - len(chunks) // 4
        session, results = episode["session"], episode["results"]
        samples = []
        stop = min(len(chunks), episode["next"] + self.windows_per_batch)
        for index in range(episode["next"], stop):
            chunk = chunks[index]
            start = time.perf_counter()
            session.feed(chunk)
            window = next(results)
            seconds = time.perf_counter() - start
            episode["fed"].append(chunk)
            samples.append(
                Sample(
                    seconds,
                    primary=True,
                    aux=index >= late,
                    ok=not window.overrun,
                    window_ns=window.window_ns,
                )
            )
        episode["next"] = stop
        return samples

    def check(self) -> int:
        if self.episode is not None:
            self._end_episode()
        if self.tamper and self.episodes:
            text, frontier = self.episodes[0]
            self.episodes[0] = (text, frontier | {("tampered",)})
        wrong = 0
        for text, frontier in self.episodes:
            wrong += frontier != frozenset(self.evaluator.evaluate_text(text))
        return wrong


WORKLOADS = {
    cls.name: cls for cls in (ServeReads, IngestEdit, AlgebraMix, FeedTail)
}
