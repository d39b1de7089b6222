"""Application-query oracle checks at engine level (time windows)."""

import numpy as np
import pytest

import reference
from repro.core.engine import SaberConfig, SaberEngine
from repro.windows.definition import WindowDefinition
from repro.workloads.cluster_monitoring import ClusterMonitoringSource, cm1_query
from repro.workloads.linearroad import LinearRoadSource, lrb3_query
from repro.workloads.smartgrid import SmartGridSource, sg1_query


def test_cm1_grouped_time_window_oracle():
    """CM1's per-category sums match naive evaluation of every window."""
    tasks, task_tuples = 10, 512
    query = cm1_query()
    tuple_size = query.input_schemas[0].tuple_size
    engine = SaberEngine(
        SaberConfig(task_size_bytes=task_tuples * tuple_size, cpu_workers=3)
    )
    engine.add_query(query, [ClusterMonitoringSource(seed=9, tuples_per_second=32)])
    report = engine.run(tasks_per_query=tasks)
    out = report.outputs[query.name]
    data = reference.collect(
        ClusterMonitoringSource(seed=9, tuples_per_second=32),
        tasks * task_tuples, task_tuples,
    )
    expected = reference.grouped_aggregate(
        WindowDefinition.time(60, 1), data, ["category"], "cpu", "sum"
    )
    assert len(out) == len(expected)
    for i, (ts, key, value) in enumerate(expected):
        assert int(out.column("category")[i]) == key[0]
        assert out.column("totalCpu")[i] == pytest.approx(value, rel=1e-5)


def test_sg1_global_average_oracle():
    tasks, task_tuples = 16, 1024
    query = sg1_query()
    tuple_size = query.input_schemas[0].tuple_size
    engine = SaberEngine(
        SaberConfig(task_size_bytes=task_tuples * tuple_size, cpu_workers=3)
    )
    engine.add_query(query, [SmartGridSource(seed=4, tuples_per_second=3)])
    report = engine.run(tasks_per_query=tasks)
    out = report.outputs[query.name]
    data = reference.collect(
        SmartGridSource(seed=4, tuples_per_second=3),
        tasks * task_tuples, task_tuples,
    )
    expected = reference.sliding_aggregate(
        WindowDefinition.time(3600, 1), data, "value", "avg"
    )
    assert len(out) == len(expected)
    for i, (__, value) in enumerate(expected):
        assert out.column("globalAvgLoad")[i] == pytest.approx(value, rel=1e-5)


def test_lrb3_having_filters_congested_segments_only():
    tasks, task_tuples = 10, 1024
    engine = SaberEngine(SaberConfig(task_size_bytes=task_tuples * 32, cpu_workers=3))
    query = lrb3_query()
    engine.add_query(query, [LinearRoadSource(seed=6, tuples_per_second=24)])
    report = engine.run(tasks_per_query=tasks)
    out = report.outputs[query.name]
    assert out is not None and len(out)
    # Every emitted row satisfies HAVING...
    speeds = np.asarray(out.column("avgSpeed"))
    assert (speeds < 40.0).all()
    # ...and at least one fast (highway, direction, segment) group was
    # filtered out: recompute one closed window naively.
    data = reference.collect(
        LinearRoadSource(seed=6, tuples_per_second=24),
        tasks * task_tuples, task_tuples,
    )
    window = WindowDefinition.time(300, 1)
    groups = reference.grouped_aggregate(
        data=data, window=window,
        group_columns=["highway", "direction"], column="speed", function="avg",
    )
    assert any(value >= 40.0 for __, __, value in groups)
