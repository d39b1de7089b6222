"""Application-query oracle checks at engine level (time windows)."""

import numpy as np

import reference
from repro.core.engine import SaberConfig, SaberEngine
from repro.windows.definition import WindowDefinition
from repro.workloads.cluster_monitoring import ClusterMonitoringSource, cm1_query
from repro.workloads.linearroad import LinearRoadSource, lrb3_query
from repro.workloads.smartgrid import SmartGridSource, sg1_query


def run_against_oracle(query, source, tasks, task_tuples):
    """The engine's flushed output bytes and the fragment-aware oracle's
    (``reference.grouped_by_window``) over the same task cut."""
    tuple_size = query.input_schemas[0].tuple_size
    engine = SaberEngine(
        SaberConfig(task_size_bytes=task_tuples * tuple_size, cpu_workers=3)
    )
    engine.add_query(query, [source()])
    out = engine.run(tasks_per_query=tasks, flush=True).outputs[query.name]
    data = reference.collect(source(), tasks * task_tuples, task_tuples)
    cut = reference.cut_tasks(data, query.windows[0], task_tuples)
    chunks, __ = reference.grouped_by_window(query.operator, cut)
    assert out is not None and len(out)
    return out.data.tobytes(), b"".join(chunks)


def test_cm1_grouped_time_window_oracle():
    """CM1's per-category sums are bitwise the oracle's, window by window."""
    produced, expected = run_against_oracle(
        cm1_query(), lambda: ClusterMonitoringSource(seed=9, tuples_per_second=32),
        tasks=10, task_tuples=512,
    )
    assert produced == expected


def test_sg1_global_average_oracle():
    produced, expected = run_against_oracle(
        sg1_query(), lambda: SmartGridSource(seed=4, tuples_per_second=3),
        tasks=16, task_tuples=1024,
    )
    assert produced == expected


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
