"""Tests for repro.obs: tracer, metrics, delay profiler, the
instrumentation threaded through the engine, the request trace context,
and the Prometheus export."""

import io
import json

import pytest

from repro import Budget, SpannerDB, obs
from repro.__main__ import main
from repro.errors import EvaluationLimitError, MemoryLimitError
from repro.obs import (
    Counter,
    DelayProfiler,
    Gauge,
    Histogram,
    Metrics,
    Tracer,
    export_prometheus,
)
from repro.serve import ServeConfig, SpannerService


@pytest.fixture(autouse=True)
def _obs_reset():
    """Leave the global observability state as each test found it: off."""
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=False, reset=True)


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        counter, gauge = Counter(), Gauge()
        counter.inc()
        counter.inc(41)
        gauge.set(7)
        gauge.set(3)
        assert counter.value == 42
        assert gauge.value == 3

    def test_histogram_buckets_and_percentiles(self):
        hist = Histogram()
        for value in [100, 100, 100, 100, 100, 100, 100, 100, 100, 10_000]:
            hist.record(value)
        assert hist.count == 10
        assert hist.total == 10_900
        # 100 has bit_length 7 → bucket upper bound 128; the p99 sample
        # 10_000 has bit_length 14 → upper bound 16384
        assert hist.percentile(50) == 128.0
        assert hist.percentile(99) == 16384.0
        assert hist.min == 64.0 and hist.max == 16384.0
        assert hist.percentile(50) <= 2 * 100  # never more than 2x truth

    def test_histogram_empty_and_zero(self):
        hist = Histogram()
        assert hist.percentile(50) == 0.0
        assert hist.count == 0 and hist.min is None and hist.max is None
        hist.record(0)
        hist.record(-5)  # clamps
        assert hist.count == 2
        assert hist.percentile(99) == 0.0

    def test_registry_get_or_create_and_snapshot(self):
        registry = Metrics()
        registry.counter("a").inc(2)
        assert registry.counter("a").value == 2  # same instrument back
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(300)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # must be JSON-serialisable as-is
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        span_a = tracer.span("x", k=1)
        span_b = tracer.span("y")
        assert span_a is span_b  # the shared null span: no allocation
        with span_a:
            pass
        assert tracer.records() == []

    def test_nesting_parent_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.event("tick", n=1)
        records = tracer.records()
        names = [r["name"] for r in records]
        # inner closes first, then the event is recorded, then outer closes
        assert names == ["inner", "tick", "outer"]
        inner, tick, outer = records
        assert inner["parent"] == outer["id"]
        assert tick["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["dur_ns"] >= 0 and outer["dur_ns"] >= inner["dur_ns"]

    def test_span_records_error(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record["error"] == "ValueError"

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True, sink=path)
        with tracer.span("a", doc="d1"):
            tracer.event("e", detail=[1, 2])
        tracer.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == ["event", "span"]
        assert records[1]["attrs"] == {"doc": "d1"}
        assert records[0]["parent"] == records[1]["id"]

    def test_filelike_sink(self):
        sink = io.StringIO()
        tracer = Tracer(enabled=True, sink=sink)
        with tracer.span("s"):
            pass
        assert json.loads(sink.getvalue())["name"] == "s"

    def test_in_memory_cap_drops_and_counts(self):
        tracer = Tracer(enabled=True, max_records=2)
        for i in range(4):
            tracer.event("e", i=i)
        assert len(tracer.records()) == 2
        assert tracer.dropped == 2


# ----------------------------------------------------------------------
# delay profiler
# ----------------------------------------------------------------------
class TestDelayProfiler:
    def test_drain_counts_every_item(self):
        profiler = DelayProfiler(keep_samples=True)
        items = profiler.drain(iter(range(100)))
        assert items == list(range(100))
        assert profiler.histogram.count == 100
        assert len(profiler.samples_ns) == 100
        assert all(s >= 0 for s in profiler.samples_ns)
        assert profiler.report()["count"] == 100

    def test_wrap_is_lazy_and_records(self):
        profiler = DelayProfiler()
        wrapped = profiler.wrap(iter("abc"))
        assert profiler.histogram.count == 0  # nothing consumed yet
        assert list(wrapped) == ["a", "b", "c"]
        assert profiler.histogram.count == 3

    def test_shared_registry_histogram(self):
        registry = Metrics()
        profiler = DelayProfiler(registry.histogram("x.delay_ns"))
        profiler.drain(iter(range(5)))
        assert registry.histogram("x.delay_ns").count == 5


# ----------------------------------------------------------------------
# global configuration
# ----------------------------------------------------------------------
class TestConfigure:
    def test_default_off(self):
        assert not obs.enabled()
        assert obs.tracer().span("x") is obs.tracer().span("y")

    def test_enable_disable_and_reset(self):
        obs.configure(enabled=True)
        assert obs.enabled() and obs.tracer().enabled
        obs.metrics().counter("c").inc()
        with obs.tracer().span("s"):
            pass
        obs.configure(enabled=False)
        assert not obs.enabled()
        # state survives disable, reset clears it
        assert obs.metrics().counter("c").value == 1
        obs.configure(reset=True)
        assert obs.metrics().snapshot()["counters"] == {}
        assert obs.tracer().records() == []


# ----------------------------------------------------------------------
# engine instrumentation
# ----------------------------------------------------------------------
def _store_with_data() -> SpannerDB:
    db = SpannerDB()
    db.add_document("logs", "aabab" * 20)
    db.register_spanner("m", "(a|b)*!x{ab}(a|b)*")
    return db


class TestInstrumentation:
    def test_query_span_and_delay_histogram(self):
        db = _store_with_data()
        obs.configure(enabled=True)
        tuples = list(db.query("m", "logs"))
        assert tuples
        names = [r["name"] for r in obs.tracer().records()]
        assert "db.query" in names and "slp.eval.enumerate" in names
        query_span = next(r for r in obs.tracer().records() if r["name"] == "db.query")
        assert query_span["attrs"]["tuples"] == len(tuples)
        snap = obs.metrics().snapshot()
        assert snap["histograms"]["slp.eval.delay_ns"]["count"] == len(tuples)

    def test_evaluator_cache_counters(self):
        db = _store_with_data()
        obs.configure(enabled=True)
        list(db.query("m", "logs"))  # warm store: everything preprocessed
        hits = obs.metrics().counter("slp.eval.cache_hits").value
        misses = obs.metrics().counter("slp.eval.cache_misses").value
        assert hits > 0 and misses == 0
        db.add_document("fresh", "ababab")
        assert obs.metrics().counter("slp.eval.cache_misses").value > 0

    def test_journal_append_latency_recorded(self, tmp_path):
        path = str(tmp_path / "s.slpdb")
        db = SpannerDB()
        db.save(path)
        obs.configure(enabled=True)
        db.add_document("d", "abcabc")
        snap = obs.metrics().snapshot()
        assert snap["histograms"]["db.journal.append_ns"]["count"] >= 1
        assert snap["counters"]["db.journal.appends"] >= 1

    def test_recovery_stats_in_metrics_and_stats(self, tmp_path):
        path = str(tmp_path / "s.slpdb")
        db = SpannerDB()
        db.save(path)
        db.add_document("d", "abcabc")  # journaled, not yet checkpointed
        obs.configure(enabled=True)
        recovered = SpannerDB.open(path)
        assert recovered.document_text("d") == "abcabc"
        assert obs.metrics().counter("db.recovery.replayed_records").value == 1
        stats = recovered.stats()
        assert stats["recovery"]["replayed_records"] == 1
        assert stats["recovery"]["journal_clean"] is True

    def test_budget_exceeded_event(self):
        db = _store_with_data()
        obs.configure(enabled=True)
        with pytest.raises(EvaluationLimitError):
            list(db.query("m", "logs", Budget(max_steps=1)))
        assert obs.metrics().counter("db.budget_exceeded").value == 1
        events = [r for r in obs.tracer().records() if r["type"] == "event"]
        assert any(
            e["name"] == "db.budget_exceeded"
            and e["attrs"]["error"] == "EvaluationLimitError"
            for e in events
        )

    def test_memory_limit_event_on_text(self):
        db = _store_with_data()
        obs.configure(enabled=True)
        with pytest.raises(MemoryLimitError):
            db.document_text("logs", budget=Budget(max_bytes=5))
        assert obs.metrics().counter("budget.bytes_charged").value > 0

    def test_budget_steps_gauge_published(self):
        db = _store_with_data()
        obs.configure(enabled=True)
        budget = Budget(max_steps=10**6, check_interval=8)
        list(db.query("m", "logs", budget))
        assert obs.metrics().gauge("budget.steps").value > 0

    def test_stats_extended_fields(self):
        db = _store_with_data()
        stats = db.stats()
        assert stats["slp_arena_bytes"] > 0
        assert stats["evaluator_cache_entries"] == stats["cached_matrices"]["m"] > 0
        assert stats["journal_records"] is None  # not persistent
        assert stats["metrics"] is None  # observability off
        obs.configure(enabled=True)
        list(db.query("m", "logs"))
        live = db.stats()
        assert live["observability_enabled"] is True
        assert live["metrics"]["histograms"]["slp.eval.delay_ns"]["count"] > 0

    def test_disabled_leaves_no_trace(self):
        db = _store_with_data()
        list(db.query("m", "logs"))
        assert obs.tracer().records() == []
        assert obs.metrics().snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# request trace context
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_service_admission_mints_the_trace(self):
        obs.configure(enabled=True, reset=True)
        db = SpannerDB()
        for name, text in (("one", "abba" * 4), ("two", "bb"), ("three", "ab" * 9)):
            db.add_document(name, text)
        db.register_spanner("s", "(a|b)*!x{ab}(a|b)*")
        with SpannerService(db, ServeConfig(workers=2)) as service:
            result = service.query_bulk("s", ["one", "three"], timeout=60)
            stats = service.stats()
        assert sorted(result.results) == ["one", "three"]
        assert "process_pool" not in stats  # the service never reaches the pool
        traces = {
            r.get("trace") for r in obs.tracer().records() if r.get("trace")
        }
        assert len(traces) == 1  # one admission, one trace id


# ----------------------------------------------------------------------
# Prometheus export
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_exposition_format(self):
        registry = Metrics()
        registry.counter("db.query_bulk").inc(3)
        registry.gauge("pool.depth").set(7)
        registry.histogram("lat.ns").record(5)   # bucket 3, upper bound 8
        registry.histogram("lat.ns").record(100)  # bucket 7, upper bound 128
        text = export_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE db_query_bulk_total counter" in lines
        assert "db_query_bulk_total 3" in lines
        assert "# TYPE pool_depth gauge" in lines
        assert "pool_depth 7" in lines
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
