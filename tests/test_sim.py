"""Unit tests for the event loop and virtual-time measurements."""

import pytest

from repro.core.executor_sim import EventLoop
from repro.errors import SimulationError
from repro.metrics import RECORDS_KEPT, Measurements, TaskRecord


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.run()
        assert fired == ["a", "b"]
        assert loop.now == 2.0

    def test_ties_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for name in "abc":
            loop.schedule(1.0, lambda n=name: fired.append(n))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []

        def first():
            fired.append(1)
            loop.schedule(0.5, lambda: fired.append(2))

        loop.schedule(1.0, first)
        loop.run()
        assert fired == [1, 2]
        assert loop.now == 1.5

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(0.5, lambda: None)

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, lambda: fired.append("x"))
        EventLoop.cancel(event)
        loop.run()
        assert fired == []

    def test_run_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(5.0, lambda: fired.append(2))
        loop.run(until=2.0)
        assert fired == [1]
        assert loop.now == 2.0

    def test_event_budget(self):
        loop = EventLoop()

        def recurse():
            loop.schedule(0.0, recurse)

        loop.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)


def record(query="q", proc="CPU", created=0.0, completed=1.0, size=100, tuples=10):
    return TaskRecord(query, proc, created, completed, size, tuples)


class TestMeasurements:
    def test_throughput_bytes(self):
        m = Measurements()
        for i in range(10):
            m.record_task(record(created=float(i), completed=float(i + 1)))
        # steady state excludes the warmup fraction but rates stay equal
        assert m.throughput_bytes(warmup_fraction=0.2) == pytest.approx(100.0, rel=0.3)

    def test_throughput_needs_two_records(self):
        m = Measurements()
        m.record_task(record())
        assert m.throughput_bytes() == 0.0

    def test_processor_share(self):
        m = Measurements()
        for i in range(8):
            m.record_task(
                record(proc="CPU" if i % 2 else "GPGPU", completed=float(i + 1))
            )
        shares = m.processor_share(warmup_fraction=0.0)
        assert shares["CPU"] == pytest.approx(0.5)
        assert shares["GPGPU"] == pytest.approx(0.5)

    def test_query_throughput_filters(self):
        m = Measurements()
        for i in range(6):
            m.record_task(record(query="a" if i % 2 else "b", completed=float(i + 1)))
        assert m.query_throughput_bytes("a", warmup_fraction=0.0) > 0

    def test_latency_stats(self):
        m = Measurements()
        for query, lat in [("a", 0.1), ("b", 0.2), ("a", 0.3)]:
            m.record_latency(query, emit_time=1.0 + lat, data_time=1.0)
        assert m.latency_mean() == pytest.approx(0.2)
        assert m.latency.count(query="a") == 2
        assert m.latency.sum(query="b") == pytest.approx(0.2)

    def test_throughput_series_buckets(self):
        m = Measurements()
        for i in range(10):
            m.record_task(record(completed=0.5 + i))
        times, series = m.throughput_series(bucket_seconds=1.0)
        assert len(times) == len(series)
        assert series[0] == pytest.approx(100.0)

    def test_throughput_series_by_processor(self):
        m = Measurements()
        m.record_task(record(proc="GPGPU", completed=0.5))
        m.record_task(record(proc="CPU", completed=0.5))
        __, gpu = m.throughput_series(1.0, processor="GPGPU")
        __, total = m.throughput_series(1.0)
        assert gpu[0] == pytest.approx(total[0] / 2)

    def test_empty_measurements(self):
        m = Measurements()
        assert m.latency_mean() == 0.0
        assert m.processor_share() == {}
        t, s = m.throughput_series(1.0)
        assert len(t) == 0 and len(s) == 0

    def test_records_are_bounded_and_totals_stay_exact(self):
        m = Measurements()
        n = 200_000
        for i in range(n):
            m.record_task(
                record(
                    query="a" if i % 4 else "b",
                    proc="CPU" if i % 2 else "GPGPU",
                    completed=float(i + 1),
                    size=100 + i % 3,
                    tuples=10,
                )
            )
        assert len(m.records) == RECORDS_KEPT == 65536
        assert m.records[0].completed == float(n - RECORDS_KEPT + 1)  # most recent kept
        totals = m.task_totals()
        assert set(totals) == {("a", "CPU"), ("a", "GPGPU"), ("b", "GPGPU")}
        assert sum(tasks for tasks, __, __ in totals.values()) == n
        assert sum(nbytes for __, nbytes, __ in totals.values()) == sum(
            100 + i % 3 for i in range(n)
        )
        assert sum(tuples for __, __, tuples in totals.values()) == 10 * n
        assert totals["b", "GPGPU"][0] == n // 4
        # The derived metrics still answer, over the retained window.
        assert m.throughput_bytes() == pytest.approx(101.0, rel=0.01)
        shares = m.processor_share()
        assert shares["CPU"] == pytest.approx(0.5, abs=0.01)
        times, series = m.throughput_series(bucket_seconds=10_000.0)
        assert len(times) == len(series) and series[-1] > 0
        assert series[0] == 0.0  # the evicted prefix is no longer in the series
