"""Seeded multi-threaded chaos runs through the serving layer.

Each run drives concurrent client threads (queries), a writer thread
(mutations, including an aborted transaction), and a seeded
:class:`~repro.util.ChaosInjector` firing faults and delays inside the
compressed evaluator — and asserts the service's end-to-end contract:

* **zero incorrect tuples** — every completed query matches an
  uncompressed reference evaluation of the document's creation-time text
  (documents are immutable once added, so the oracle is stable);
* **zero hangs** — every ticket resolves within a generous timeout and
  ``stop()`` joins every worker;
* **honest accounting** — every degraded answer is flagged on its result
  and counted in :meth:`SpannerService.stats`;
* **typed failures only** — nothing escapes as a bare exception.

The default lane runs a dozen seeds (the CI chaos smoke); the
``slow_fuzz`` lane runs 200+ seeded rounds for the acceptance bar.
"""

import random
import threading

import pytest

from repro import RegularSpanner, SpannerDB
from repro.errors import (
    DeadlineExceededError,
    EvaluationLimitError,
    OverloadedError,
    SpanlibError,
)
from repro.serve import ServeConfig, SpannerService
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.util import ChaosInjector

DOCS = {
    "d1": "ababbab",
    "d2": "bbaab",
    "d3": "abab" * 8,
    "d4": "b" * 12,
}
SPANNERS = {
    "single": "(a|b)*!x{b}(a|b)*",
    "pair": "(a|b)*!x{ab}(a|b)*",
    "two": "(a|b)*!x{a}(a|b)*!y{b}(a|b)*",
}

_ORACLE: dict[tuple[str, str], list[str]] = {}


def oracle(spanner: str, document: str) -> list[str]:
    """Reference answer from the uncompressed pipeline, cached."""
    key = (spanner, document)
    if key not in _ORACLE:
        reference = RegularSpanner.from_regex(SPANNERS[spanner])
        _ORACLE[key] = sorted(map(str, reference.enumerate(DOCS[document])))
    return _ORACLE[key]


def build_store() -> SpannerDB:
    db = SpannerDB()
    for name, text in DOCS.items():
        db.add_document(name, text)
    for name, pattern in SPANNERS.items():
        db.register_spanner(name, pattern)
    return db


def run_chaos(
    seed: int,
    error_rate: float = 0.2,
    delay_rate: float = 0.1,
    client_threads: int = 3,
    queries_per_thread: int = 8,
    writer_rounds: int = 3,
    starve_rate: float = 0.1,
) -> dict:
    """One seeded chaos round; returns the service stats for assertions."""
    db = build_store()
    injector = ChaosInjector(seed)
    config = ServeConfig(
        workers=3,
        queue_limit=256,
        retry_max_attempts=3,
        breaker_failure_threshold=3,
        breaker_reset_after=0.02,
        breaker_half_open_probes=1,
        seed=seed,
    )
    service = SpannerService(db, config)
    violations: list[str] = []
    hangs: list[str] = []
    degraded_seen = [0]
    completed_seen = [0]
    lock = threading.Lock()

    def client(thread_index: int) -> None:
        rng = random.Random(seed * 1009 + thread_index)
        spanner_names = sorted(SPANNERS)
        doc_names = sorted(DOCS)
        for _ in range(queries_per_thread):
            spanner = rng.choice(spanner_names)
            document = rng.choice(doc_names)
            # occasionally starve the budget to exercise the limit path
            max_steps = 1 if rng.random() < starve_rate else None
            try:
                ticket = service.submit(spanner, document, max_steps=max_steps)
            except OverloadedError:
                continue  # shed is a legal answer under load
            try:
                result = ticket.result(timeout=30)
            except DeadlineExceededError as exc:
                if "still in flight" in str(exc):
                    with lock:
                        hangs.append(f"{spanner}/{document}: {exc}")
                continue
            except SpanlibError:
                continue  # typed failure (fault, budget, breaker) is legal
            got = sorted(map(str, result.tuples))
            if got != oracle(spanner, document):
                with lock:
                    violations.append(
                        f"{spanner}/{document} (degraded={result.degraded}): "
                        f"{got} != {oracle(spanner, document)}"
                    )
            with lock:
                completed_seen[0] += 1
                if result.degraded:
                    degraded_seen[0] += 1

    def writer() -> None:
        for index in range(writer_rounds):
            name = f"w{seed}_{index}"
            try:
                service.add_document(name, "abba" * (index + 1))
            except SpanlibError:
                pass  # injected fault: the mutation rolled back
            try:
                with service.transaction() as txn_db:
                    txn_db.add_document(f"aborted{seed}_{index}", "bb")
                    raise SpanlibError("deliberate abort")
            except SpanlibError:
                pass

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(client_threads)
    ]
    threads.append(threading.Thread(target=writer))
    with injector.chaos(
        SLPSpannerEvaluator, "enumerate", site="enumerate",
        error_rate=error_rate, delay_rate=delay_rate,
    ), injector.chaos(
        SLPSpannerEvaluator, "preprocess", site="preprocess",
        error_rate=error_rate / 2, delay_rate=delay_rate,
    ):
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            hangs.extend(
                f"thread {t.name} never finished" for t in threads if t.is_alive()
            )
        # `with service` returned: stop() joined every worker — no hangs

    assert not violations, violations
    assert not hangs, hangs
    stats = service.stats()
    # every degraded answer we observed is flagged in the service's books
    assert stats["degraded"] == degraded_seen[0]
    assert stats["completed"] >= completed_seen[0]
    # rolled-back state never became visible
    for name in db.documents():
        assert not name.startswith("aborted"), name
    return stats


def run_bulk_chaos(
    seed: int,
    error_rate: float = 0.3,
    delay_rate: float = 0.1,
    client_threads: int = 2,
    batches_per_thread: int = 6,
) -> dict:
    """One seeded chaos round through the *bulk* lane.

    Concurrent clients drive :meth:`SpannerService.submit_bulk` while
    the injector fires faults inside the evaluator.  The batch contract under
    chaos: a batch resolves to either a complete, correct
    ``BulkQueryResult`` — every requested document present, every tuple
    matching the oracle — or one typed error.  Never a torn batch, never
    an untyped escape, and every degraded batch is counted."""
    db = build_store()
    injector = ChaosInjector(seed)
    service = SpannerService(
        db,
        ServeConfig(
            workers=3,
            queue_limit=256,
            retry_max_attempts=3,
            breaker_failure_threshold=3,
            breaker_reset_after=0.02,
            breaker_half_open_probes=1,
            seed=seed,
        ),
    )
    violations: list[str] = []
    hangs: list[str] = []
    degraded_seen = [0]
    completed_seen = [0]
    lock = threading.Lock()

    def client(thread_index: int) -> None:
        rng = random.Random(seed * 2003 + thread_index)
        spanner_names = sorted(SPANNERS)
        doc_names = sorted(DOCS)
        for _ in range(batches_per_thread):
            spanner = rng.choice(spanner_names)
            documents = rng.sample(doc_names, k=rng.randint(1, len(doc_names)))
            try:
                ticket = service.submit_bulk(spanner, documents)
            except OverloadedError:
                continue  # shed is a legal answer under load
            try:
                result = ticket.result(timeout=30)
            except DeadlineExceededError as exc:
                if "still in flight" in str(exc):
                    with lock:
                        hangs.append(f"{spanner}/{documents}: {exc}")
                continue
            except SpanlibError:
                continue  # typed failure is legal; anything else escapes
            # a batch that resolves must not be torn: every requested
            # document answered, and answered correctly
            if sorted(result.results) != sorted(documents):
                with lock:
                    violations.append(
                        f"torn batch {spanner}/{documents}: "
                        f"answered {sorted(result.results)}"
                    )
                continue
            for document in documents:
                got = sorted(map(str, result.results[document]))
                if got != oracle(spanner, document):
                    with lock:
                        violations.append(
                            f"{spanner}/{document} (degraded="
                            f"{result.degraded}): {got} != "
                            f"{oracle(spanner, document)}"
                        )
            with lock:
                completed_seen[0] += 1
                if result.degraded:
                    degraded_seen[0] += 1

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(client_threads)
    ]
    with injector.chaos(
        SLPSpannerEvaluator, "enumerate", site="enumerate",
        error_rate=error_rate, delay_rate=delay_rate,
    ), injector.chaos(
        SLPSpannerEvaluator, "preprocess", site="preprocess",
        error_rate=error_rate / 2, delay_rate=delay_rate,
    ):
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            hangs.extend(
                f"thread {t.name} never finished" for t in threads if t.is_alive()
            )

    assert not violations, violations
    assert not hangs, hangs
    stats = service.stats()
    # breaker/degradation parity: the books match what clients observed
    assert stats["degraded"] == degraded_seen[0]
    assert stats["completed"] >= completed_seen[0]
    return stats


class TestChaosSmoke:
    """The fast CI lane: a dozen seeds across fault intensities."""

    @pytest.mark.parametrize("seed", range(6))
    def test_moderate_faults(self, seed):
        run_chaos(seed, error_rate=0.2, delay_rate=0.1)

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_heavy_faults(self, seed):
        stats = run_chaos(seed, error_rate=0.5, delay_rate=0.2)
        assert stats["failed"] + stats["completed"] == stats["submitted"]

    def test_fault_free_round_stays_clean(self):
        stats = run_chaos(999, error_rate=0.0, delay_rate=0.0, starve_rate=0.0)
        assert stats["degraded"] == 0
        assert stats["failed"] == 0
        assert stats["breaker"]["times_opened"] == 0

    def test_budget_starvation_alone_can_trip_the_breaker(self):
        """Step-limit failures are transient (a warmer cache may succeed),
        so like real-world timeouts they count toward the breaker — and
        healthy queries then *degrade* rather than fail."""
        stats = run_chaos(998, error_rate=0.0, delay_rate=0.0, starve_rate=0.5)
        assert stats["breaker"]["times_opened"] >= 1
        assert stats["degraded"] >= 1

    @pytest.mark.parametrize("seed", range(40, 44))
    def test_bulk_lane_under_faults(self, seed):
        """The bulk contract holds at a 30% evaluator fault rate."""
        stats = run_bulk_chaos(seed, error_rate=0.3, delay_rate=0.1)
        assert stats["failed"] + stats["completed"] == stats["submitted"]

    def test_bulk_lane_fault_free_round_stays_clean(self):
        stats = run_bulk_chaos(997, error_rate=0.0, delay_rate=0.0)
        assert stats["failed"] == 0
        assert stats["degraded"] == 0
        assert stats["breaker"]["times_opened"] == 0

    def test_journal_chaos_keeps_persistence_consistent(self, tmp_path):
        """Faults in the journal append under concurrent load: committed
        documents survive reopen, failed mutations vanish entirely."""
        path = str(tmp_path / "store.slpdb")
        db = build_store()
        db.save(path)
        injector = ChaosInjector(31)
        service = SpannerService(db, ServeConfig(workers=2, seed=31))
        added: list[str] = []
        with injector.chaos(
            SpannerDB, "_journal_write", site="journal", error_rate=0.4
        ):
            with service:
                for index in range(8):
                    name = f"j{index}"
                    try:
                        service.add_document(name, "ab" * (index + 1))
                    except SpanlibError:
                        continue
                    added.append(name)
                    result = service.query("single", name, timeout=30)
                    assert [str(t) for t in result.tuples]  # has the b's
        # a failed append poisons the journal until the next save; a clean
        # save must always be possible and capture exactly committed state
        db.save(path)
        recovered = SpannerDB.open(path)
        assert recovered.documents() == db.documents()
        for name in added:
            assert recovered.document_text(name) == db.document_text(name)


@pytest.mark.slow_fuzz
class TestChaosAcceptance:
    """The acceptance bar: 200+ seeded concurrent rounds with injected
    faults — zero incorrect tuples, zero hangs, honest degradation."""

    def test_two_hundred_seeded_rounds(self):
        degraded_total = 0
        completed_total = 0
        for seed in range(100, 300):
            rate = (0.1, 0.3, 0.5)[seed % 3]
            stats = run_chaos(
                seed,
                error_rate=rate,
                delay_rate=0.1,
                client_threads=2,
                queries_per_thread=5,
                writer_rounds=2,
            )
            degraded_total += stats["degraded"]
            completed_total += stats["completed"]
        assert completed_total > 0
        # with these rates, degradation must actually have been exercised
        assert degraded_total > 0
