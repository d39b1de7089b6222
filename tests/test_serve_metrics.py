"""Metrics-layer tests: instruments, collectors, Prometheus rendering,
and ``engine_samples`` reading a live engine's own counters."""

import threading
from pathlib import Path

import pytest

from repro.api import SaberSession
from repro.core.engine import SaberConfig, SaberEngine
from repro.gpu.accelerator import AcceleratorDevice
from repro.io import PushSource
from repro.metrics import Counter, Gauge, Histogram, MetricsRegistry, engine_samples
from repro.relational.schema import Schema
from repro.workloads.synthetic import TUPLE_SIZE, SyntheticSource, agg_query, select_query

SCHEMA = Schema.parse("timestamp:long, value:float", name="s")
GOLDEN = Path(__file__).parent / "data" / "metrics_golden.txt"

#: monotonic ``_total`` series the parent exposed as ``gauge`` only
#: because callbacks existed on Gauge alone; they are counters now.
RETYPED = (
    "saber_buffer_shed_tuples_total",
    "saber_ingress_dropped_tuples_total",
    "saber_accel_tasks_total",
    "saber_accel_bytes_total",
    "saber_accel_transfer_seconds_total",
    "saber_accel_kernel_seconds_total",
    "saber_hls_matrix_refreshes_total",
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help")
        counter.inc(tenant="a")
        counter.inc(2.0, tenant="a")
        counter.inc(5.0, tenant="b")
        assert counter.value(tenant="a") == 3.0
        assert counter.value(tenant="b") == 5.0
        assert counter.value(tenant="missing") == 0.0
        assert counter.total() == 8.0

    def test_render(self):
        counter = Counter("c_total", "things counted")
        counter.inc(3, tenant="a", query="q")
        lines = counter.render()
        assert "# HELP c_total things counted" in lines
        assert "# TYPE c_total counter" in lines
        assert 'c_total{query="q",tenant="a"} 3' in lines

    def test_thread_safety(self):
        counter = Counter("c_total", "")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc(tenant="t") for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value(tenant="t") == 8000


class TestGauge:
    def test_set_add(self):
        gauge = Gauge("g", "")
        gauge.set(4.0, stream="s")
        gauge.add(-1.5, stream="s")
        assert gauge.value(stream="s") == 2.5
        assert gauge.value(stream="other") == 0.0
        assert 'g{stream="s"} 2.5' in gauge.render()


class TestHistogram:
    def test_observe_count_sum(self):
        hist = Histogram("h_seconds", "", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, query="q")
        assert hist.count(query="q") == 3
        assert hist.sum(query="q") == pytest.approx(5.55)

    def test_cumulative_buckets_and_inf(self):
        hist = Histogram("h_seconds", "", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, query="q")
        lines = hist.render()
        assert 'h_seconds_bucket{query="q",le="0.1"} 1' in lines
        assert 'h_seconds_bucket{query="q",le="1"} 2' in lines
        assert 'h_seconds_bucket{query="q",le="+Inf"} 3' in lines
        assert 'h_seconds_count{query="q"} 3' in lines

    def test_quantile_estimate(self):
        hist = Histogram("h", "", buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(5.0)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.999) == 10.0
        assert Histogram("empty", "").quantile(0.5) == 0.0


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a_total")

    def test_render_is_sorted_and_terminated(self):
        registry = MetricsRegistry()
        registry.counter("z_total", "z").inc()
        registry.gauge("a_depth", "a").set(1)
        text = registry.render()
        assert text.endswith("\n")
        assert text.index("a_depth") < text.index("z_total")

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(tenant='we"ird\nname')
        assert 'tenant="we\\"ird\\nname"' in registry.render()


class TestCollectors:
    """Scrape-time reads: samples merge with instruments, vanish on
    unregistration, and a failing collector cannot break the scrape."""

    def test_samples_merge_into_every_read_path(self):
        registry = MetricsRegistry()
        registry.counter("pushed_total", "pushed").inc(2, tenant="a")
        depth = {"value": 7}
        registry.register_collector(
            lambda: [
                ("depth", "gauge", "queue depth", {"stream": "s"}, depth["value"]),
                ("pushed_total", "counter", "pushed", {"tenant": "b"}, 5),
            ]
        )
        assert registry.value("depth", stream="s") == 7
        depth["value"] = 11  # read at scrape time, not at registration
        assert registry.value("depth", stream="s") == 11
        assert registry.value("depth", stream="missing") == 0.0
        assert registry.total("pushed_total") == 7
        assert registry.snapshot()["pushed_total"] == {
            (("tenant", "a"),): 2.0,
            (("tenant", "b"),): 5,
        }
        assert registry.render() == (
            "# HELP depth queue depth\n"
            "# TYPE depth gauge\n"
            'depth{stream="s"} 11\n'
            "# HELP pushed_total pushed\n"
            "# TYPE pushed_total counter\n"
            'pushed_total{tenant="a"} 2\n'
            'pushed_total{tenant="b"} 5\n'
        )

    def test_histogram_sample_renders_like_the_instrument(self):
        hist = Histogram("h_seconds", "latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, query="q")
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [
                ("h_seconds", "histogram", "latency", dict(key), sample)
                for key, sample in hist.samples().items()
            ]
        )
        assert registry.render().splitlines() == hist.render()
        assert registry.value("h_seconds", query="q")["count"] == 3

    def test_unregistered_collector_takes_its_series_with_it(self):
        registry = MetricsRegistry()
        token = registry.register_collector(lambda: [("up", "gauge", "", {"t": "a"}, 1)])
        assert 'up{t="a"} 1' in registry.render()
        registry.unregister_collector(token)
        registry.unregister_collector(token)  # idempotent
        assert registry.render() == "\n"
        assert registry.snapshot() == {}

    def test_raising_collector_leaves_every_other_series(self):
        registry = MetricsRegistry()
        registry.counter("pushed_total", "").inc(3)

        def half_way():
            yield ("partial", "gauge", "", {}, 1)
            raise RuntimeError("owner went away mid-scrape")

        registry.register_collector(half_way)
        registry.register_collector(lambda: [("healthy", "gauge", "", {}, 2)])
        text = registry.render()
        assert "pushed_total 3" in text
        assert "healthy 2" in text
        # All or nothing: the failing collector contributes no sample.
        assert "partial" not in text
        assert registry.value("healthy") == 2


class TestEngineSamples:
    """``engine_samples`` reads real engine activity off the engine's own
    attributes — nothing is attached to the hot path."""

    def run_session(self, registry, tenant="t", rows=512, register_first=True):
        session = SaberSession(
            execution="threads",
            cpu_workers=2,
            use_gpu=False,
            collect_output=False,
            task_size_bytes=1 << 10,
        )
        collect = lambda: engine_samples(session.engine, tenant=tenant)  # noqa: E731
        if register_first:
            registry.register_collector(collect)
        source = PushSource(SCHEMA)
        session.register_stream("s", source)
        handle = session.sql(
            "select timestamp, sum(value) as total from s [rows 64 slide 64]",
            name="q",
        )
        session.start()
        session.push("s", [{"timestamp": i, "value": 1.0} for i in range(rows)])
        source.close()
        consumed = sum(
            int(chunk.data["total"].sum()) for chunk in handle.results()
        )
        session.stop()
        session.close()
        if not register_first:
            registry.register_collector(collect)
        return consumed

    def test_hot_path_series_populate(self):
        registry = MetricsRegistry()
        consumed = self.run_session(registry)
        assert consumed == 512
        cell = {"tenant": "t", "query": "q", "processor": "CPU"}
        assert registry.value("saber_tasks_completed_total", **cell) > 0
        assert registry.value("saber_task_tuples_total", **cell) == 512
        assert registry.value("saber_task_bytes_total", **cell) == 512 * 12
        per_query = {"tenant": "t", "query": "q"}
        dispatched = registry.value("saber_tasks_dispatched_total", **per_query)
        assert dispatched == registry.value("saber_tasks_completed_total", **cell)
        assert registry.value("saber_dispatched_bytes_total", **per_query) == 512 * 12
        chunks = registry.value("saber_result_chunks_total", **per_query)
        assert chunks > 0
        assert registry.value("saber_result_rows_total", **per_query) == 512 // 64
        latency = registry.value("saber_result_latency_seconds", **per_query)
        # One observation per chunk emitted by a task; the EOS flush
        # emits the tail chunk (if any) without a latency sample.
        assert chunks - 1 <= latency["count"] <= chunks
        assert latency["sum"] >= 0.0

    def test_two_tenants_share_one_registry(self):
        registry = MetricsRegistry()
        self.run_session(registry, tenant="a", rows=128)
        self.run_session(registry, tenant="b", rows=64)
        cell = {"query": "q", "processor": "CPU"}
        assert registry.value("saber_task_tuples_total", tenant="a", **cell) == 128
        assert registry.value("saber_task_tuples_total", tenant="b", **cell) == 64

    def test_queries_submitted_after_registration_appear(self):
        # The serve admission order: the collector is registered at
        # admit, queries are submitted later — engine.runs is walked at
        # scrape time, so there is no wiring step to miss.
        registry = MetricsRegistry()
        consumed = self.run_session(registry, tenant="late")
        assert consumed == 512
        assert registry.value("saber_tasks_dispatched_total", tenant="late", query="q") > 0

    def test_collector_registered_after_the_run_reads_the_same_numbers(self):
        early, late = MetricsRegistry(), MetricsRegistry()
        self.run_session(early, register_first=True)
        self.run_session(late, register_first=False)
        drop = "saber_result_latency_seconds"  # wall-clock sums differ
        assert {n: s for n, s in early.snapshot().items() if n != drop} == {
            n: s for n, s in late.snapshot().items() if n != drop
        }


def _golden_engine():
    """The run ``tests/data/metrics_golden.txt`` was rendered from — on
    the parent commit, through the old pushed-instrument bundle attached
    between the two ``add_query`` calls.  Virtual time, so the latency
    sums and HLS matrix cells are deterministic; an idle accelerator is
    hung on the sim engine after the run (the GPGPU slot runs tasks
    through whatever device is hung there) so the ``saber_accel_*``
    families carry series as well."""
    engine = SaberEngine(
        SaberConfig(
            execution="sim",
            cpu_workers=1,
            task_size_bytes=1024 * TUPLE_SIZE,
            matrix_refresh_seconds=0.0,
        )
    )
    engine.add_query(select_query(4, pass_rate=0.5), [SyntheticSource(seed=3)])
    engine.add_query(agg_query(["sum", "count"]), [SyntheticSource(seed=4)])
    engine.run(tasks_per_query=24)
    engine.accelerator = AcceleratorDevice()
    return engine


def test_exposition_matches_the_parent_commit_byte_for_byte():
    engine = _golden_engine()
    registry = MetricsRegistry()
    registry.register_collector(lambda: engine_samples(engine, tenant="golden"))
    golden = GOLDEN.read_text().splitlines()
    rendered = registry.render().splitlines()
    assert len(rendered) == len(golden)
    changed = [(old, new) for old, new in zip(golden, rendered) if old != new]
    # Every sample line and every HELP line is identical; the only
    # differences are the seven callback "gauges" now typed as counters.
    assert changed == [
        (f"# TYPE {name} gauge", f"# TYPE {name} counter")
        for name in sorted(RETYPED)
        if f"# TYPE {name} gauge" in golden
    ]
    assert len(changed) == len(RETYPED) - 1  # ingress_dropped is a serve-layer series
