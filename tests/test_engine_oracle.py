"""Oracle tests: engine output must equal naive per-window evaluation.

The central correctness claim of the hybrid model is that batching —
the task size, the fragment decomposition, out-of-order completion and
cross-task assembly — is *invisible* to query semantics.  These tests run
the full engine at awkward task sizes (not aligned with window
boundaries) and compare against first-principles reference evaluation.

The synthetic float attribute is uniform float32 — multiples of 2**-24 —
so every float64 sum of it is exact, however the engine splits a window
into fragments: the outputs must equal a sequential fold per window bit
for bit (``np.array_equal``, never a tolerance).
"""

import numpy as np
import pytest

import reference
from repro.core.engine import SaberConfig, SaberEngine
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.groupby import GroupedAggregation
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import (
    SYNTHETIC_SCHEMA,
    SyntheticSource,
    TUPLE_SIZE,
    select_query,
)
from repro.core.query import Query


def assert_rows_equal(out, column, expected):
    """``out``'s timestamps and float32 ``column`` are exactly ``expected``'s
    ``(last timestamp, value)`` pairs."""
    timestamps, values = zip(*expected)
    assert np.array_equal(out.timestamps, timestamps)
    assert np.array_equal(out.column(column), np.asarray(values, dtype=np.float32))


def run_engine(query, seed, task_tuples, n_tasks, cpu_workers=3):
    engine = SaberEngine(
        SaberConfig(
            task_size_bytes=task_tuples * TUPLE_SIZE,
            cpu_workers=cpu_workers,
            queue_capacity=8,
        )
    )
    engine.add_query(query, [SyntheticSource(seed=seed)])
    report = engine.run(tasks_per_query=n_tasks)
    data = reference.collect(
        SyntheticSource(seed=seed), task_tuples * n_tasks, task_tuples
    )
    return report.outputs[query.name], data


@pytest.mark.parametrize("task_tuples", [100, 256, 777])
@pytest.mark.parametrize(
    "window", [WindowDefinition.rows(256, 64), WindowDefinition.rows(100, 100),
               WindowDefinition.rows(512, 32)]
)
def test_sliding_sum_oracle(task_tuples, window):
    op = GroupedAggregation(SYNTHETIC_SCHEMA, [], [AggregateSpec("sum", "a1", "s")])
    query = Query(f"agg_{task_tuples}_{window.size}", op, [window])
    out, data = run_engine(query, seed=3, task_tuples=task_tuples, n_tasks=12)
    expected = reference.sliding_aggregate(window, data, "a1", "sum")
    assert out is not None
    assert_rows_equal(out, "s", expected)


@pytest.mark.parametrize("function", ["min", "max", "avg", "count"])
def test_all_aggregate_functions_oracle(function):
    window = WindowDefinition.rows(200, 75)
    column = None if function == "count" else "a1"
    op = GroupedAggregation(SYNTHETIC_SCHEMA, [], [AggregateSpec(function, column, "v")])
    query = Query(f"agg_{function}", op, [window])
    out, data = run_engine(query, seed=5, task_tuples=333, n_tasks=10)
    expected = reference.sliding_aggregate(window, data, "a1", function)
    assert_rows_equal(out, "v", expected)


def test_selection_oracle():
    query = select_query(3, pass_rate=0.5)
    out, data = run_engine(query, seed=7, task_tuples=500, n_tasks=8)
    mask = query.operator.predicate.evaluate(data)
    expected = data.filter(mask)
    assert np.array_equal(out.data, expected.data)


def test_groupby_oracle():
    window = WindowDefinition.rows(300, 150)
    op = GroupedAggregation(
        SYNTHETIC_SCHEMA, ["a2"], [AggregateSpec("sum", "a1", "total")]
    )
    query = Query("gb_oracle", op, [window])
    engine = SaberEngine(
        SaberConfig(task_size_bytes=250 * TUPLE_SIZE, cpu_workers=3)
    )
    engine.add_query(query, [SyntheticSource(seed=11, groups=5)])
    report = engine.run(tasks_per_query=10)
    out = report.outputs[query.name]
    data = reference.collect(SyntheticSource(seed=11, groups=5), 2500, 250)
    expected = reference.grouped_aggregate(window, data, ["a2"], "a1", "sum")
    assert np.array_equal(out.column("a2"), [key[0] for __, key, __ in expected])
    assert_rows_equal(out, "total", [(ts, value) for ts, __, value in expected])


def test_time_window_aggregation_oracle():
    window = WindowDefinition.time(3, 1)
    op = GroupedAggregation(SYNTHETIC_SCHEMA, [], [AggregateSpec("sum", "a1", "s")])
    query = Query("agg_time", op, [window])
    engine = SaberEngine(SaberConfig(task_size_bytes=700 * TUPLE_SIZE, cpu_workers=3))
    # 128 tuples per logical second.
    engine.add_query(query, [SyntheticSource(seed=13, tuples_per_second=128)])
    report = engine.run(tasks_per_query=10)
    out = report.outputs[query.name]
    data = reference.collect(
        SyntheticSource(seed=13, tuples_per_second=128), 7000, 700
    )
    expected = reference.sliding_aggregate(window, data, "a1", "sum")
    assert_rows_equal(out, "s", expected)


def test_join_oracle_small():
    from repro.operators.join import ThetaJoin
    from repro.relational.expressions import col

    window = WindowDefinition.rows(32, 32)
    op = ThetaJoin(
        SYNTHETIC_SCHEMA.rename("L"),
        SYNTHETIC_SCHEMA.rename("R"),
        col("a3") < col("r_a3"),
    )
    query = Query("join_oracle", op, [window, window])
    engine = SaberEngine(SaberConfig(task_size_bytes=100 * TUPLE_SIZE, cpu_workers=3))
    engine.add_query(query, [SyntheticSource(seed=17), SyntheticSource(seed=18)])
    report = engine.run(tasks_per_query=8)
    out = report.outputs[query.name]
    left = reference.collect(SyntheticSource(seed=17), 400, 50)
    right = reference.collect(SyntheticSource(seed=18), 400, 50)
    expected = reference.window_join(
        window, left, right,
        predicate=lambda lhs, rhs: lhs["a3"] < rhs["a3"],
        combine=lambda lhs, rhs: (lhs["timestamp"], lhs["a3"], rhs["a3"]),
    )
    assert len(out) == len(expected)
    got = sorted(zip(out.timestamps.tolist(), out.column("a3").tolist(),
                     out.column("r_a3").tolist()))
    assert got == sorted(expected)


def test_gpu_and_cpu_paths_agree_end_to_end():
    """The same run with GPGPU disabled must produce identical output."""
    def run(use_gpu):
        query = select_query(16, pass_rate=0.3)
        engine = SaberEngine(
            SaberConfig(
                task_size_bytes=400 * TUPLE_SIZE,
                cpu_workers=3,
                use_gpu=use_gpu,
            )
        )
        engine.add_query(query, [SyntheticSource(seed=23)])
        return engine.run(tasks_per_query=10).outputs[query.name]

    assert np.array_equal(run(True).data, run(False).data)
