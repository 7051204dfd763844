"""Tests for cross-process observability (ISSUE 7).

The contract under test, end to end:

* **harvest exactness** — the worker-side ``HarvestState.collect`` →
  parent-side ``Metrics.merge`` round trip is *exact* for counters and
  histograms (property-tested: any split of a workload across workers
  and harvest boundaries yields the same totals as a single-process
  run), and last-writer-wins *per worker label* for gauges;
* **trace stitching** — a process-backend ``document_matrices`` under
  tracing leaves per-process JSONL files that all carry the request's
  trace id, and ``stitch`` re-assembles them into one ordered tree;
* **crash flight recorder** — a SIGKILLed worker's last trace records
  survive in the parent-owned shm ring and surface on the
  ``worker.crash`` event, with the crash cause typed in ``stats()``;
* **reset resilience** — ``obs.configure(reset=True)`` with live pool
  workers must not strand subsequently harvested telemetry;
* **export surface** — the Prometheus text exposition and the
  ``obs stitch`` / ``metrics --format`` CLI actions.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel.api as parallel_api
from repro import obs
from repro.__main__ import main
from repro.db import SpannerDB
from repro.errors import DeadlineExceededError
from repro.obs import TraceContext, export_prometheus
from repro.obs.harvest import HarvestState
from repro.obs.metrics import Metrics, qualify
from repro.obs.stitch import load_records, render_tree, stitch
from repro.parallel import (
    ProcCall,
    ProcPool,
    configure_pool,
    document_matrices,
    flight,
    live_segments,
    shutdown_pool,
)
from repro.parallel.shm import SegmentRegistry
from repro.serve import ServeConfig, SpannerService
from repro.util import Deadline, WorkerChaos

ECHO = "repro.parallel.procpool:_task_echo"
SLEEP = "repro.parallel.procpool:_task_sleep_ms"
TELEMETRY = "tests.test_obs_cross_process:_task_record_telemetry"

NAMES = ("alpha", "beta", "gamma")
PATTERN = "(a|b)*!x{ab}(a|b)*"


def _task_record_telemetry():
    """Worker-side probe: touch one instrument of each kind."""
    registry = obs.metrics()
    registry.counter("test.worker.tasks").inc()
    registry.histogram("test.worker.latency_ns").record(2048)
    registry.gauge("test.worker.value").set(41)
    return "ok"


@pytest.fixture(autouse=True)
def _clean_slate():
    """Observability off and empty around every test; no pool, breaker,
    or shm segment may leak across tests (the leak oracle from
    test_procpool applies here too — crash tests included)."""
    obs.configure(enabled=False, reset=True)
    with parallel_api._breaker_lock:
        parallel_api._breaker = None
    yield
    shutdown_pool()
    obs.configure(enabled=False, reset=True)
    assert live_segments() == []
    with parallel_api._breaker_lock:
        parallel_api._breaker = None


# ----------------------------------------------------------------------
# harvest → merge exactness (the property that makes cross-process
# totals trustworthy)
# ----------------------------------------------------------------------
class TestMergeExactness:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(NAMES), st.integers(1, 1 << 20)),
                max_size=20,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_counter_round_trip_is_exact(self, per_worker):
        """Counters split across workers and harvest boundaries merge to
        exactly the single-process totals."""
        parent = Metrics()
        expected: dict = {}
        for worker_id, ops in enumerate(per_worker):
            registry, state = Metrics(), HarvestState()
            for position, (name, increment) in enumerate(ops):
                registry.counter(name).inc(increment)
                expected[name] = expected.get(name, 0) + increment
                if position % 2 == 1:  # harvest mid-stream, not just at the end
                    delta = state.collect(registry)
                    if delta:
                        parent.merge(delta, labels={"worker": worker_id})
            delta = state.collect(registry)
            if delta:
                parent.merge(delta, labels={"worker": worker_id})
        assert parent.snapshot()["counters"] == expected

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 1 << 40), max_size=25),
            min_size=1,
            max_size=3,
        )
    )
    def test_histogram_round_trip_is_exact(self, per_worker):
        """Power-of-two buckets are alignment-free: merged per-worker
        histograms equal one histogram that saw every sample."""
        anchor = Metrics()
        parent = Metrics()
        for worker_id, samples in enumerate(per_worker):
            registry, state = Metrics(), HarvestState()
            for position, sample in enumerate(samples):
                registry.histogram("lat").record(sample)
                anchor.histogram("lat").record(sample)
                if position % 3 == 2:
                    delta = state.collect(registry)
                    if delta:
                        parent.merge(delta, labels={"worker": worker_id})
            delta = state.collect(registry)
            if delta:
                parent.merge(delta, labels={"worker": worker_id})
        merged = parent._histograms.get("lat")
        truth = anchor._histograms.get("lat")
        if truth is None:
            assert merged is None or merged.count == 0
        else:
            assert merged.counts == truth.counts
            assert merged.total == truth.total

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "counters": st.dictionaries(
                        st.sampled_from(NAMES), st.integers(1, 1000), max_size=3
                    ),
                    "gauges": st.dictionaries(
                        st.sampled_from(NAMES), st.integers(0, 1000), max_size=2
                    ),
                    "histograms": st.dictionaries(
                        st.sampled_from(NAMES),
                        st.fixed_dictionaries(
                            {
                                "counts": st.dictionaries(
                                    st.integers(0, 63),
                                    st.integers(1, 100),
                                    max_size=4,
                                ),
                                "sum": st.integers(0, 10**9),
                            }
                        ),
                        max_size=2,
                    ),
                }
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_merge_order_does_not_matter(self, deltas):
        """Merging per-worker deltas is commutative (each worker's gauges
        land under its own label, so nothing is order-dependent)."""
        forward, backward = Metrics(), Metrics()
        for worker_id, delta in enumerate(deltas):
            forward.merge(delta, labels={"worker": worker_id})
        for worker_id, delta in reversed(list(enumerate(deltas))):
            backward.merge(delta, labels={"worker": worker_id})
        assert forward.snapshot() == backward.snapshot()

    def test_gauges_are_last_writer_per_worker_label(self):
        registry = Metrics()
        registry.merge({"gauges": {"depth": 3}}, labels={"worker": 1})
        registry.merge({"gauges": {"depth": 9}}, labels={"worker": 2})
        registry.merge({"gauges": {"depth": 5}}, labels={"worker": 1})
        gauges = registry.snapshot()["gauges"]
        assert gauges == {'depth{worker="1"}': 5, 'depth{worker="2"}': 9}
        assert qualify("depth", {"worker": 1}) == 'depth{worker="1"}'


class TestHarvestState:
    def test_quiet_registry_yields_none(self):
        registry, state = Metrics(), HarvestState()
        registry.counter("hits").inc()
        assert state.collect(registry) is not None
        assert state.collect(registry) is None  # nothing changed since

    def test_worker_side_reset_ships_full_current_value(self):
        """A value below the baseline (the worker's registry was reset)
        must ship as the full current value, never a negative delta."""
        registry, state = Metrics(), HarvestState()
        registry.counter("hits").inc(10)
        registry.histogram("lat").record(100)
        state.collect(registry)
        registry.reset()
        registry.counter("hits").inc(3)
        registry.histogram("lat").record(7)
        delta = state.collect(registry)
        assert delta["counters"]["hits"] == 3
        assert delta["histograms"]["lat"]["sum"] == 7

    def test_concurrent_merges_stay_exact(self):
        """The hammer: merge runs under the registry lock, so concurrent
        harvest folds (e.g. from serve worker threads finishing process
        batches) lose nothing."""
        registry = Metrics()
        threads, per_thread = 8, 200

        def hammer(worker_id):
            for _ in range(per_thread):
                registry.merge(
                    {
                        "counters": {"hits": 1},
                        "gauges": {"depth": worker_id},
                        "histograms": {"lat": {"counts": {3: 1}, "sum": 5}},
                    },
                    labels={"worker": worker_id},
                )

        pool = [
            threading.Thread(target=hammer, args=(worker_id,))
            for worker_id in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == threads * per_thread
        assert snapshot["histograms"]["lat"]["count"] == threads * per_thread
        assert snapshot["histograms"]["lat"]["sum"] == 5 * threads * per_thread
        assert len(snapshot["gauges"]) == threads  # one per worker label


# ----------------------------------------------------------------------
# trace-context propagation and stitching
# ----------------------------------------------------------------------
class TestCrossProcessTracing:
    def _build_db(self):
        db = SpannerDB()
        for name, text in (("one", "abba" * 4), ("two", "bb"), ("three", "ab" * 9)):
            db.add_document(name, text)
        db.register_spanner("s", "(a|b)*!x{ab}(a|b)*")
        return db

    def test_process_fold_stitches_into_one_tree(self, tmp_path):
        """The acceptance scenario: a process-backend
        ``document_matrices`` under a file sink leaves parent + per-worker
        trace files sharing the call's trace id, and ``stitch`` renders a
        single tree with the worker spans nested inside it."""
        configure_pool(workers=2)
        sink = tmp_path / "trace.jsonl"
        obs.configure(enabled=True, reset=True, sink=str(sink))
        document_matrices(PATTERN, "ab" * 300, backend="process", shards=3)
        obs.configure(enabled=False)  # flush + detach the parent sink

        files = sorted(tmp_path.glob("trace.jsonl*"))
        assert len(files) >= 2, "expected the parent sink plus worker sinks"
        records = load_records([str(path) for path in files])
        traces = {r["trace"] for r in records if r.get("trace")}
        assert len(traces) == 1, f"one request must mean one trace id: {traces}"
        trace_id = traces.pop()

        roots = stitch(records, trace=trace_id)
        assert len(roots) == 1
        assert roots[0]["record"]["name"] == "parallel.document_matrices"
        rendered = render_tree(roots)
        assert "proc.task" in rendered
        worker_procs = {
            r["proc"] for r in records if r.get("proc", "main") != "main"
        }
        assert worker_procs, "worker processes must have contributed records"
        # every worker record hangs off the request tree, none are orphans
        assert "~ " not in rendered
        # and each task nests under the batch that dispatched it
        [run] = [r for r in records if r.get("name") == "parallel.proc.run"]
        tasks = [r for r in records if r.get("name") == "proc.task"]
        assert len(tasks) == 3
        for task in tasks:
            assert (task.get("parent_proc"), task.get("parent")) == (
                run.get("proc", "main"),
                run["id"],
            )

    def test_untraced_entry_points_mint_a_fallback_trace(self):
        """``document_matrices`` is the fallback admission point: with no
        context active it mints one, so worker records are still
        stitchable."""
        configure_pool(workers=2)
        obs.configure(enabled=True, reset=True)
        document_matrices(PATTERN, "ab" * 300, backend="process", shards=2)
        records = obs.tracer().records()
        folds = [r for r in records if r.get("name") == "parallel.document_matrices"]
        assert folds and all(r.get("trace") for r in folds)

    def test_service_admission_mints_the_trace(self):
        obs.configure(enabled=True, reset=True)
        db = self._build_db()
        with SpannerService(db, ServeConfig(workers=2)) as service:
            result = service.query_bulk("s", ["one", "three"], timeout=60)
            stats = service.stats()
        assert sorted(result.results) == ["one", "three"]
        assert "process_pool" not in stats  # the service never reaches the pool
        traces = {
            r.get("trace") for r in obs.tracer().records() if r.get("trace")
        }
        assert len(traces) == 1  # one admission, one trace id

    def test_child_context_reroots_at_the_open_span(self):
        obs.configure(enabled=True, reset=True)
        ctx = obs.new_trace()
        assert isinstance(ctx, TraceContext)
        with obs.use_context(ctx):
            with obs.tracer().span("outer"):
                child = obs.child_context()
                assert child.trace_id == ctx.trace_id
                assert child.parent_span_id == obs.tracer().current_span_id()
        assert obs.current_context() is None

    def test_stitch_promotes_orphans_to_annotated_roots(self):
        records = [
            {"type": "span", "name": "root", "proc": "main", "id": 1,
             "t0_ns": 0, "dur_ns": 90, "trace": "t1"},
            {"type": "span", "name": "task", "proc": "w1", "id": 1,
             "parent": 1, "parent_proc": "main", "t0_ns": 10, "dur_ns": 5,
             "trace": "t1"},
            {"type": "span", "name": "lost", "proc": "w2", "id": 9,
             "parent": 77, "t0_ns": 20, "dur_ns": 1, "trace": "t1"},
        ]
        roots = stitch(records, trace="t1")
        by_name = {node["record"]["name"]: node for node in roots}
        assert set(by_name) == {"root", "lost"}
        assert by_name["lost"]["orphan"]
        assert [c["record"]["name"] for c in by_name["root"]["children"]] == ["task"]
        rendered = render_tree(roots)
        assert "~ lost (w2)" in rendered
        assert "\n  task (w1)" in rendered  # indented under the root


# ----------------------------------------------------------------------
# the flight recorder and typed crash causes
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_roundtrip_keeps_the_last_slots(self):
        with SegmentRegistry() as registry:
            ring = flight.create_ring(registry, slots=4, slot_size=256)
            writer = flight.FlightWriter(ring.name)
            for seq in range(6):
                writer.write({"name": "event", "seq": seq})
            writer.close()
            salvaged = flight.salvage(ring)
            assert [r["seq"] for r in salvaged] == [2, 3, 4, 5]
        assert live_segments() == []

    def test_oversized_record_sheds_attrs_before_dropping(self):
        with SegmentRegistry() as registry:
            ring = flight.create_ring(registry, slots=2, slot_size=128)
            writer = flight.FlightWriter(ring.name)
            writer.write({"name": "big", "attrs": {"blob": "x" * 500}})
            writer.close()
            salvaged = flight.salvage(ring)
            assert [r["name"] for r in salvaged] == ["big"]
            assert "attrs" not in salvaged[0]

    def test_torn_slot_is_skipped_not_misread(self):
        with SegmentRegistry() as registry:
            ring = flight.create_ring(registry, slots=4, slot_size=64)
            writer = flight.FlightWriter(ring.name)
            for seq in range(3):
                writer.write({"seq": seq})
            writer.close()
            # corrupt the middle slot's payload in place (a mid-write kill)
            offset = flight._HEADER.size + 1 * (flight._LENGTH.size + 64)
            (length,) = flight._LENGTH.unpack_from(ring.buf, offset)
            start = offset + flight._LENGTH.size
            ring.buf[start : start + length] = b"\xff" * length
            salvaged = flight.salvage(ring)
            assert [r["seq"] for r in salvaged] == [0, 2]
        assert live_segments() == []

    def test_sigkilled_worker_leaves_a_salvaged_crash_event(self):
        """The acceptance scenario: under a seeded SIGKILL schedule the
        batch still answers exactly, and every ``worker.crash`` event
        carries the victim's salvaged last records — including the
        ``proc.task.recv`` breadcrumb emitted before the kill fired."""
        obs.configure(enabled=True, reset=True)
        chaos = WorkerChaos(seed=0, kill_rate=0.3)
        pool = ProcPool(workers=2, chaos=chaos, task_retries=3, crash_tolerance=100)
        try:
            assert pool.run([ProcCall(ECHO, (i,)) for i in range(4)]) == [0, 1, 2, 3]
            stats = pool.stats()
        finally:
            pool.shutdown()
        assert stats["crashes"] >= 1
        assert stats["crash_sigkill"] == stats["crashes"]
        crash_events = [
            r for r in obs.tracer().records() if r.get("name") == "worker.crash"
        ]
        assert len(crash_events) == stats["crashes"]
        for event in crash_events:
            attrs = event["attrs"]
            assert attrs["cause"] == "sigkill"
            assert attrs["pid"] > 0
            salvaged_names = [r.get("name") for r in attrs["salvaged"]]
            assert "proc.task.recv" in salvaged_names
        counters = obs.metrics().snapshot()["counters"]
        assert counters["parallel.proc.crashes"] == stats["crashes"]
        assert counters["parallel.proc.crashes.sigkill"] == stats["crashes"]

    def test_stall_kill_is_typed_as_stall(self):
        obs.configure(enabled=True, reset=True)
        chaos = WorkerChaos(seed=11, stall_rate=0.3, stall_seconds=5.0)
        pool = ProcPool(workers=2, chaos=chaos, stall_timeout=0.4,
                        task_retries=4, crash_tolerance=100)
        try:
            assert pool.run([ProcCall(ECHO, (i,)) for i in range(10)]) == list(range(10))
            stats = pool.stats()
        finally:
            pool.shutdown()
        assert stats["crash_stall"] >= 1
        assert stats["crash_stall"] == stats["stalls"]
        causes = {
            r["attrs"]["cause"]
            for r in obs.tracer().records()
            if r.get("name") == "worker.crash"
        }
        assert "stall" in causes

    def test_deadline_kill_is_typed_without_counting_as_a_crash(self):
        """A deadline kill is the supervisor keeping its latency promise,
        not a worker fault: it lands under ``crash_deadline`` only, so
        the legacy ``crashes`` count still means 'workers died on us'."""
        obs.configure(enabled=True, reset=True)
        pool = ProcPool(workers=1)
        try:
            with pytest.raises(DeadlineExceededError):
                pool.run([ProcCall(SLEEP, (5000,))], deadline=Deadline.after(0.3))
            stats = pool.stats()
        finally:
            pool.shutdown()
        assert stats["crash_deadline"] == 1
        assert stats["crashes"] == 0
        causes = [
            r["attrs"]["cause"]
            for r in obs.tracer().records()
            if r.get("name") == "worker.crash"
        ]
        assert causes == ["deadline"]

    def test_dead_at_dispatch_is_typed(self):
        pool = ProcPool(workers=1)
        try:
            assert pool.run([ProcCall(ECHO, (0,))]) == [0]
            team = pool._checkout(1)
            try:
                [worker] = team
                worker.conn.close()  # deterministic OSError at dispatch
                results = pool._supervise(team, [ProcCall(ECHO, (7,))], None)
            finally:
                pool._checkin(team)
            assert results == [7]
            stats = pool.stats()
        finally:
            pool.shutdown()
        assert stats["crash_dead_at_dispatch"] == 1
        assert stats["crashes"] == 1


# ----------------------------------------------------------------------
# reset resilience (the ISSUE 7 bug fix)
# ----------------------------------------------------------------------
class TestResetResilience:
    def test_merge_after_reset_recreates_instruments(self):
        registry = Metrics()
        delta = {
            "counters": {"hits": 2},
            "gauges": {"depth": 4},
            "histograms": {"lat": {"counts": {3: 1}, "sum": 5}},
        }
        registry.merge(delta, labels={"worker": 0})
        registry.reset()
        registry.merge(delta, labels={"worker": 0})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == 2
        assert snapshot["gauges"]['depth{worker="0"}'] == 4
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_reset_with_live_workers_does_not_strand_harvests(self):
        """``obs.configure(reset=True)`` between batches on a warm pool:
        the next batch's harvests must land in full (lazily re-created
        instruments), not vanish against stale instrument handles."""
        obs.configure(enabled=True, reset=True)
        pool = ProcPool(workers=1)
        try:
            assert pool.run([ProcCall(TELEMETRY)]) == ["ok"]
            assert obs.metrics().snapshot()["counters"]["test.worker.tasks"] == 1
            obs.configure(reset=True)  # live worker keeps its baselines
            assert "test.worker.tasks" not in obs.metrics().snapshot()["counters"]
            assert pool.run([ProcCall(TELEMETRY)]) == ["ok"]
        finally:
            pool.shutdown()
        snapshot = obs.metrics().snapshot()
        # only the post-reset batch's delta: the worker's baseline tracking
        # is unaffected by the parent-side reset
        assert snapshot["counters"]["test.worker.tasks"] == 1
        assert snapshot["histograms"]["test.worker.latency_ns"]["count"] == 1
        assert [
            key for key in snapshot["gauges"] if key.startswith("test.worker.value{")
        ], "the worker's gauge must reappear under its worker label"


# ----------------------------------------------------------------------
# export surfaces: Prometheus text and the CLI
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_exposition_format(self):
        registry = Metrics()
        registry.counter("db.query_bulk").inc(3)
        registry.merge({"gauges": {"pool.depth": 7}}, labels={"worker": 2})
        registry.histogram("lat.ns").record(5)   # bucket 3, upper bound 8
        registry.histogram("lat.ns").record(100)  # bucket 7, upper bound 128
        text = export_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE db_query_bulk_total counter" in lines
        assert "db_query_bulk_total 3" in lines
        assert 'pool_depth{worker="2"} 7' in lines
        assert 'lat_ns_bucket{le="8"} 1' in lines
        assert 'lat_ns_bucket{le="128"} 2' in lines
        assert 'lat_ns_bucket{le="+Inf"} 2' in lines
        assert "lat_ns_sum 105" in lines
        assert "lat_ns_count 2" in lines
        assert text.endswith("\n")

    def test_empty_registry_exports_empty(self):
        assert export_prometheus(Metrics()) == ""

    def test_cli_metrics_prom_format(self, tmp_path, capsys):
        store = str(tmp_path / "store.slpdb")
        assert main(["db", store, "add", "d", "aabab"]) == 0
        trace = str(tmp_path / "out.jsonl")
        assert main(
            ["db", store, "bulk", "(a|b)*!x{ab}(a|b)*", "d", "--trace", trace]
        ) == 0
        capsys.readouterr()
        assert main(["db", store, "metrics", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE db_query_bulk_total counter" in out
        assert "db_query_bulk_total 1" in out


class TestStitchCLI:
    def _write_records(self, path):
        path.write_text(
            "\n".join(
                [
                    '{"type": "span", "name": "root", "proc": "main", "id": 1,'
                    ' "t0_ns": 0, "dur_ns": 90, "trace": "t1"}',
                    '{"type": "span", "name": "task", "proc": "w1", "id": 1,'
                    ' "parent": 1, "parent_proc": "main", "t0_ns": 10,'
                    ' "dur_ns": 5, "trace": "t1"}',
                    "not json at all",
                ]
            )
            + "\n",
            encoding="utf-8",
        )

    def test_stitch_renders_one_tree_per_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_records(path)
        assert main(["obs", "stitch", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace t1\n")
        assert "root (main)" in out
        assert "\n  task (w1)" in out  # nested under the root

    def test_stitch_unknown_trace_is_an_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_records(path)
        with pytest.raises(SystemExit, match="no records"):
            main(["obs", "stitch", str(path), "--trace", "nope"])

    def test_stitch_requires_files(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["obs", "stitch"])
