"""A windowed query's output bytes do not depend on where tasks are cut.

The dispatcher cuts tasks by size, whatever the windows are (§4.3), so a
window may lie inside one task or span several.  Each windowed operator
— GROUP-BY, ungrouped aggregation, DISTINCT, a UDF, the θ-join (equi
and pure θ), and σ / π composed over them — must emit the same bytes
either way: here the same finite streams run through the engine with
window-aligned, 96-tuple and 160-tuple tasks, over tumbling and sliding,
count and time windows, and two streams at unequal rates.

The second half bounds what a task ships: a slide-1 task's run holds its
boundary rows once, so its pickle grows with the task's rows, not with
its windows' total length.
"""

import pickle

import numpy as np
import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.io.memory import MemorySource
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.compose import FilteredWindows, ProjectedWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import Projection
from repro.operators.udf import WindowUdf
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_windows
from repro.windows.definition import WindowDefinition

LEFT = Schema.with_timestamp("k:int, u:long, f:float", name="L")
RIGHT = Schema.with_timestamp("k:int, w:long, g:float", name="R")
TUPLES = 640


def stream(schema, seed, n, rate=1):
    """Few keys, so equalities hit and groups repeat; ``-0.0``, ``0.0``
    and NaN floats, so DISTINCT meets rows that compare equal but differ
    in bytes.  ``rate`` tuples share each time unit."""
    rng = np.random.default_rng(seed)
    floats = np.array([0.0, -0.0, 1.5, np.nan, 2.0], dtype=np.float32)
    columns = {
        "timestamp": (np.cumsum(rng.integers(0, 3, n)) // rate).astype(np.int64),
        schema.attribute_names[1]: rng.integers(-3, 4, n).astype(np.int32),
        schema.attribute_names[2]: rng.integers(0, 50, n),
        schema.attribute_names[3]: floats[rng.integers(0, len(floats), n)],
    }
    return TupleBatch.from_columns(schema, **columns)


def summary_udf():
    """Two inputs in, one row per window: both sides' counts and sums."""
    out = Schema.parse("n_left:long, n_right:long, s:long")

    def summary(windows):
        left, right = windows
        return TupleBatch.from_columns(
            out,
            n_left=np.array([len(left)], dtype=np.int64),
            n_right=np.array([len(right)], dtype=np.int64),
            s=np.array([int(np.sum(left.column("u"))) - int(np.sum(right.column("w")))]),
        )

    return WindowUdf([LEFT, RIGHT], out, summary)


def grouped():
    specs = [AggregateSpec("count", None, "n"), AggregateSpec("sum", "f", "s"),
             AggregateSpec("max", "u", "m"), AggregateSpec("max", "f", "fm")]
    return GroupedAggregation(LEFT, ["k"], specs)


def ungrouped():
    specs = [AggregateSpec("avg", "u", "a"), AggregateSpec("min", "u"), AggregateSpec("min", "f")]
    return GroupedAggregation(LEFT, [], specs)


def distinct():
    return DistinctProjection(LEFT, [("k", col("k")), ("f", col("f"))])


def projected_aggregate():
    projection = Projection(
        LEFT, [("timestamp", col("timestamp")), ("k", col("k")), ("x", col("u") * 3 - col("k"))],
        output_types={"k": "int"},
    )
    return ProjectedWindows(
        projection, GroupedAggregation(projection.output_schema, ["k"], [AggregateSpec("sum", "x")])
    )


#: name -> (operator factory, inputs); two-input operators read LEFT ⋈ RIGHT.
OPERATORS = {
    "groupby": (grouped, 1),
    "aggregate": (ungrouped, 1),
    "distinct": (distinct, 1),
    "udf": (summary_udf, 2),
    "join-equi": (lambda: ThetaJoin(LEFT, RIGHT, col("k").eq(col("r_k")) & (col("u") < col("w"))), 2),
    "join-theta": (lambda: ThetaJoin(LEFT, RIGHT, col("u") * 2 < col("w")), 2),
    "filter-groupby": (lambda: FilteredWindows(col("u") < 30, grouped()), 1),
    "filter-distinct": (lambda: FilteredWindows(col("k") > -2, distinct()), 1),
    "filter-project-aggregate": (
        lambda: FilteredWindows(col("f") < 2.0, projected_aggregate()), 1,
    ),
}

#: name -> (window, the task size in tuples that aligns with it)
WINDOWS = {
    "count-tumbling": (WindowDefinition.rows(64, 64), 64),
    "count-sliding": (WindowDefinition.rows(64, 16), 64),
    "time-sliding": (WindowDefinition.time(40, 10), 40),
}


def emitted(name, window, task_tuples, rates=(1, 1), execution="sim"):
    """The query's whole output over the finite streams, as raw bytes."""
    make, arity = OPERATORS[name]
    schemas = [LEFT, RIGHT][:arity]
    sources = [
        MemorySource(schema, stream(schema, 7 + side, TUPLES * rates[side], rates[side]))
        for side, schema in enumerate(schemas)
    ]
    query = Query(
        "q", make(), [window] * arity, input_rates=[float(r) for r in rates[:arity]]
    )
    engine = SaberEngine(
        SaberConfig(
            execution=execution,
            task_size_bytes=sum(
                task_tuples * rate * schema.tuple_size for rate, schema in zip(rates, schemas)
            ),
            cpu_workers=2,
        )
    )
    engine.add_query(query, sources)
    try:
        out = engine.run(tasks_per_query=TUPLES // task_tuples + 2, flush=True).outputs["q"]
    finally:
        engine.shutdown()
    assert out is not None and len(out) >= TUPLES // 64
    return out.data.tobytes()


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_output_bytes_do_not_depend_on_the_task_cut(name, window):
    definition, aligned = WINDOWS[window]
    expected = emitted(name, definition, aligned)
    for task_tuples in (96, 160):
        assert emitted(name, definition, task_tuples) == expected, task_tuples


@pytest.mark.parametrize("name", ["udf", "join-equi", "join-theta"])
@pytest.mark.parametrize("window", ["count-sliding", "time-sliding"])
def test_streams_at_unequal_rates(name, window):
    """The right stream delivers three tuples per left one; tasks are cut
    by size, in proportion, and windows still pair by id."""
    definition, aligned = WINDOWS[window]
    expected = emitted(name, definition, aligned, rates=(1, 3))
    for task_tuples in (96, 160):
        assert emitted(name, definition, task_tuples, rates=(1, 3)) == expected, task_tuples


@pytest.mark.parametrize("name", ["distinct", "udf", "join-equi"])
def test_threads_cut_anywhere_equal_sim_aligned(name):
    definition, aligned = WINDOWS["count-sliding"]
    expected = emitted(name, definition, aligned)
    assert emitted(name, definition, 96, execution="threads") == expected


def test_distinct_keeps_the_first_of_equal_rows_in_stream_order():
    """``0.0`` and ``-0.0`` compare equal: a window keeps whichever its
    stream holds first, and every NaN row."""
    schema = Schema.with_timestamp("f:float")
    values = np.array([-0.0, 0.0, np.nan, 1.0, np.nan, 0.0] * 6, dtype=np.float32)
    data = TupleBatch.from_columns(schema, timestamp=np.arange(36), f=values)
    op = DistinctProjection(schema, [("f", col("f"))])
    window = WindowDefinition.rows(36, 36)
    whole = op.process_batch([StreamSlice(data, assign_windows(window, 0, 36), 0)]).complete
    assert [str(v) for v in whole.column("f")] == ["-0.0", "1.0"] + ["nan"] * 12
    parts = [
        op.process_batch([StreamSlice(data.slice(a, b), assign_windows(window, a, b), a)])
        for a, b in ((0, 1), (1, 20), (20, 36))
    ]
    rows, __ = op.assemble_windows(np.array([0]), [part.partials for part in parts])
    assert rows.data.tobytes() == whole.data.tobytes()


# -- what a slide-1 task ships ---------------------------------------------------------


def slide_one_task(name, size):
    """One 512-tuple-per-input task of ω(size, 1), mid-stream."""
    make, arity = OPERATORS[name]
    window = WindowDefinition.rows(size, 1)
    slices = [
        StreamSlice(stream(schema, 3 + side, 512), assign_windows(window, 1024, 1536), 1024)
        for side, schema in enumerate([LEFT, RIGHT][:arity])
    ]
    return make().process_batch(slices), sum(s.batch.size_bytes for s in slices)


@pytest.mark.parametrize("size", [32, 256])
@pytest.mark.parametrize("name", ["distinct", "udf", "join-equi", "join-theta"])
def test_a_slide_one_run_is_linear_in_the_task_rows(name, size):
    result, input_bytes = slide_one_task(name, size)
    run = result.partials
    # Every window reaching past the task boundary, on either end.
    assert len(run) == 2 * (size - 1)
    shipped = len(pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL))
    assert shipped <= 2 * input_bytes + 64 * len(run)
