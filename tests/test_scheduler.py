"""Unit tests for HLS (Alg. 1), FCFS, Static and the throughput matrix."""

import pytest
from hypothesis import given, strategies as st

from repro.core.query import Query
from repro.core.scheduler import (
    CPU,
    FALLBACK_BACKLOG,
    GPU,
    PROCESSORS,
    FcfsScheduler,
    HlsScheduler,
    SchedulerState,
    StaticScheduler,
    ThroughputMatrix,
)
from repro.core.task import QueryTask
from repro.errors import SchedulingError
from repro.operators.projection import identity_projection
from repro.relational.schema import Schema
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:int")


def make_query(name):
    return Query(name, identity_projection(SCHEMA), [WindowDefinition.rows(8)])


def task(query, task_id=0):
    return QueryTask(query, task_id, [], created_at=0.0, size_bytes=1024)


@pytest.fixture
def queries():
    return {name: make_query(name) for name in ("q1", "q2", "q3")}


class TestThroughputMatrix:
    def test_initial_uniform(self):
        m = ThroughputMatrix(initial=100.0)
        assert m.value("q", CPU) == 100.0
        assert m.value("q", GPU) == 100.0
        assert m.preferred("q") == CPU  # tie goes to the first column

    def test_refresh_applies_sample_mean(self):
        m = ThroughputMatrix(refresh_seconds=1.0)
        m.observe("q", CPU, 10.0)
        m.observe("q", CPU, 30.0)
        assert m.maybe_refresh(2.0)
        assert m.value("q", CPU) == pytest.approx(20.0)

    def test_refresh_respects_period(self):
        m = ThroughputMatrix(refresh_seconds=1.0)
        m.observe("q", CPU, 10.0)
        assert m.maybe_refresh(2.0)
        m.observe("q", CPU, 50.0)
        assert not m.maybe_refresh(2.5)  # within the period
        assert m.maybe_refresh(3.5)
        assert m.value("q", CPU) == pytest.approx(50.0)

    def test_rows_without_samples_keep_value(self):
        m = ThroughputMatrix(refresh_seconds=1.0)
        m.observe("q", CPU, 10.0)
        m.maybe_refresh(2.0)
        m.maybe_refresh(4.0)
        assert m.value("q", CPU) == pytest.approx(10.0)

    def test_preferred_follows_larger_entry(self):
        m = ThroughputMatrix(refresh_seconds=0.0)
        m.observe("q", GPU, 50.0)
        m.observe("q", CPU, 10.0)
        m.maybe_refresh(1.0)
        assert m.preferred("q") == GPU

    def test_non_positive_samples_ignored(self):
        m = ThroughputMatrix(refresh_seconds=0.0)
        m.observe("q", CPU, 0.0)
        m.maybe_refresh(1.0)
        assert m.value("q", CPU) == m.initial


def matrix_with(values, refresh=0.0):
    """Build a refreshed matrix from {(query, proc): tasks_per_sec}."""
    m = ThroughputMatrix(refresh_seconds=refresh)
    for (q, p), v in values.items():
        m.observe(q, p, v)
    m.maybe_refresh(1.0)
    return m


class TestHls:
    def test_preferred_processor_takes_head(self, queries):
        # Fig. 5: q2 prefers GPGPU; a GPGPU worker takes the head.
        m = matrix_with({
            ("q1", CPU): 50, ("q1", GPU): 20,
            ("q2", CPU): 5, ("q2", GPU): 15,
            ("q3", CPU): 20, ("q3", GPU): 30,
        })
        hls = HlsScheduler(m, switch_threshold=100)
        queue = [task(queries["q2"], i) for i in range(3)]
        assert hls.select(queue, GPU) == 0

    def test_figure5_style_lookahead(self, queries):
        # Fig. 5's matrix: the CPU worker walks past GPGPU-preferred
        # tasks, accumulating the GPGPU's outstanding delay, until a task
        # whose CPU execution time is below that delay.  (Note: the
        # paper's prose example skips v3 as well, which contradicts its
        # own Alg. 1 line 6 — we implement the algorithm literally, under
        # which the accumulated delay of 2/15 already exceeds q3's CPU
        # task time of 1/20 at position 2.)
        m = matrix_with({
            ("q1", CPU): 50, ("q1", GPU): 20,
            ("q2", CPU): 5, ("q2", GPU): 15,
            ("q3", CPU): 20, ("q3", GPU): 30,
        })
        hls = HlsScheduler(m, switch_threshold=100)
        queue = [
            task(queries["q2"], 1),
            task(queries["q2"], 2),
            task(queries["q3"], 3),
            task(queries["q2"], 4),
            task(queries["q1"], 5),
        ]
        assert hls.select(queue, CPU) == 2

    def test_cpu_takes_gpu_preferred_task_when_delay_large(self, queries):
        m = matrix_with({("q2", CPU): 5, ("q2", GPU): 15})
        hls = HlsScheduler(m, switch_threshold=100)
        queue = [task(queries["q2"], i) for i in range(5)]
        # delay reaches 1/15*k >= 1/5 at k=3 skipped tasks -> index 3.
        assert hls.select(queue, CPU) == 3

    def test_switch_threshold_forces_other_processor(self, queries):
        m = matrix_with({("q2", CPU): 5, ("q2", GPU): 15})
        hls = HlsScheduler(m, switch_threshold=2, strict_lookahead=True)
        queue = [task(queries["q2"], i) for i in range(10)]
        assert hls.select(queue, GPU) == 0
        assert hls.select(queue, GPU) == 0
        # Threshold reached: the GPGPU may not take a third consecutive
        # task; the CPU can now take the head (count >= st) and the
        # counter resets.
        assert hls.select(queue, GPU) is None
        assert hls.select(queue, CPU) == 0
        assert hls.state.count("q2", GPU) == 0

    def test_line12_fallback_keeps_workers_busy(self, queries):
        # The same blocked-GPGPU situation with the default (paper line
        # 12) behaviour: the worker receives the final queued task.
        m = matrix_with({("q2", CPU): 5, ("q2", GPU): 15})
        hls = HlsScheduler(m, switch_threshold=2)
        queue = [task(queries["q2"], i) for i in range(10)]
        assert hls.select(queue, GPU) == 0
        assert hls.select(queue, GPU) == 0
        assert hls.select(queue, GPU) == len(queue) - 1

    def test_device_turn_survives_cpu_polls_below_the_fallback_backlog(self, queries):
        """After st CPU tasks only the device may take the next one: a CPU
        poll with fewer queued tasks than the line-12 fallback needs
        returns None and keeps the count, so the turn waits for the device."""
        hls = HlsScheduler(ThroughputMatrix(), switch_threshold=3)  # ties prefer the CPU
        queue = [task(queries["q1"], i) for i in range(FALLBACK_BACKLOG - 1)]
        for __ in range(3):
            assert hls.select(queue, CPU) == 0
        for __ in range(5):
            assert hls.select(queue, CPU) is None
        assert hls.state.count("q1", CPU) == 3
        assert hls.select(queue, GPU) == 0
        assert (hls.state.count("q1", CPU), hls.state.count("q1", GPU)) == (0, 1)

    def test_fallback_at_the_backlog_takes_the_device_turn(self, queries):
        """At ``FALLBACK_BACKLOG`` queued tasks a CPU poll takes the last one
        and resets its own count: the device's turn is gone."""
        hls = HlsScheduler(ThroughputMatrix(), switch_threshold=3)
        queue = [task(queries["q1"], i) for i in range(FALLBACK_BACKLOG)]
        for __ in range(3):
            assert hls.select(queue, CPU) == 0
        assert hls.select(queue, CPU) == len(queue) - 1
        assert hls.state.count("q1", CPU) == 1

    @given(
        rates=st.lists(st.one_of(st.none(), st.floats(1e-3, 1e6)), min_size=6, max_size=6),
        counts=st.lists(st.integers(0, 7), min_size=6, max_size=6),
        threshold=st.integers(1, 6),
        names=st.lists(st.sampled_from(["q1", "q2", "q3"]), min_size=1, max_size=6),
        strict=st.booleans(),
    )
    def test_exactly_one_processor_takes_the_head(self, rates, counts, threshold, names, strict):
        """At position 0 the delay is 0, so line 6 admits exactly one
        processor: the preferred one below the threshold, else the other.
        The executors claim only through ``select``, and rely on this to
        never strand a queued task."""
        keys = [(q, p) for q in ("q1", "q2", "q3") for p in PROCESSORS]
        picks = {}
        for processor in PROCESSORS:
            m = ThroughputMatrix(refresh_seconds=0.0)
            for key, rate in zip(keys, rates):
                if rate is not None:
                    m.observe(*key, rate)
            m.maybe_refresh(1.0)
            hls = HlsScheduler(m, switch_threshold=threshold, strict_lookahead=strict)
            hls.state.counts = dict(zip(keys, counts))
            queue = [task(make_query(name), i) for i, name in enumerate(names)]
            picks[processor] = hls.select(queue, processor)
        assert [pick == 0 for pick in picks.values()].count(True) == 1, picks

    def test_returns_none_on_empty_queue(self, queries):
        hls = HlsScheduler(ThroughputMatrix())
        assert hls.select([], CPU) is None

    def test_unknown_processor_rejected(self, queries):
        hls = HlsScheduler(ThroughputMatrix())
        with pytest.raises(SchedulingError):
            hls.select([task(queries["q1"])], "TPU")

    def test_invalid_switch_threshold(self):
        with pytest.raises(SchedulingError):
            HlsScheduler(ThroughputMatrix(), switch_threshold=0)

    def test_task_finished_feeds_matrix(self, queries):
        m = ThroughputMatrix(refresh_seconds=0.0)
        hls = HlsScheduler(m)
        hls.task_finished(task(queries["q1"]), CPU, 123.0, now=1.0)
        assert m.value("q1", CPU) == pytest.approx(123.0)


class TestFcfsAndStatic:
    def test_fcfs_takes_head(self, queries):
        s = FcfsScheduler()
        queue = [task(queries["q1"], 0), task(queries["q2"], 1)]
        assert s.select(queue, CPU) == 0
        assert s.select(queue, GPU) == 0
        assert s.select([], CPU) is None

    def test_static_routes_by_assignment(self, queries):
        s = StaticScheduler({"q1": GPU, "q2": CPU})
        queue = [task(queries["q1"], 0), task(queries["q2"], 1)]
        assert s.select(queue, CPU) == 1
        assert s.select(queue, GPU) == 0

    def test_static_none_when_no_match(self, queries):
        s = StaticScheduler({"q1": GPU})
        assert s.select([task(queries["q1"])], CPU) is None

    def test_static_unknown_query_raises(self, queries):
        s = StaticScheduler({"q1": GPU})
        with pytest.raises(SchedulingError):
            s.select([task(queries["q2"])], GPU)

    def test_static_invalid_processor_rejected(self):
        with pytest.raises(SchedulingError):
            StaticScheduler({"q": "TPU"})


class TestSchedulerState:
    def test_count_increment_reset(self):
        s = SchedulerState()
        assert s.count("q", CPU) == 0
        s.increment("q", CPU)
        s.increment("q", CPU)
        assert s.count("q", CPU) == 2
        s.reset("q", CPU)
        assert s.count("q", CPU) == 0
