"""Unit tests for DISTINCT projection, UDFs and WHERE composition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.operators.base import StreamSlice
from repro.operators.compose import FilteredWindows
from repro.operators.distinct import DistinctProjection, distinct_rows
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.groupby import GroupedAggregation
from repro.operators.udf import WindowUdf, partition_join
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float, k:int")


def batch(start, stop, seed=0):
    idx = np.arange(start, stop)
    rng = np.random.default_rng(seed)
    __ = rng  # deterministic values below keep oracle checks simple
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=idx.astype(np.int64),
        v=(idx % 5).astype(np.float32),
        k=(idx % 3).astype(np.int32),
    )


def assemble_first(op, *results):
    """Window 0 assembled across the tasks' runs."""
    assert all(result.partials.ids[0] == 0 for result in results)
    rows, __ = op.assemble_windows(np.array([0]), [result.partials for result in results])
    return rows


def sl(data, window, start=0):
    ws = assign_count_windows(window, start, start + len(data))
    return StreamSlice(data, ws, start)


class TestDistinct:
    def test_distinct_per_complete_window(self):
        op = DistinctProjection(SCHEMA, [("k", col("k"))])
        w = WindowDefinition.rows(6, 6)
        result = op.process_batch([sl(batch(0, 6), w)])
        assert len(result.complete) == 3  # k in {0,1,2}

    def test_cross_task_union(self):
        op = DistinctProjection(SCHEMA, [("k", col("k"))])
        w = WindowDefinition.rows(6, 6)
        r1 = op.process_batch([sl(batch(0, 4), w)])
        r2 = op.process_batch([sl(batch(4, 6), w, start=4)])
        rows = assemble_first(op, r1, r2)
        assert rows.column("k").tolist() == [0, 1, 2]

    def test_duplicates_removed_across_tasks(self):
        op = DistinctProjection(SCHEMA, [("k", col("k"))])
        w = WindowDefinition.rows(12, 12)
        r1 = op.process_batch([sl(batch(0, 6), w)])
        r2 = op.process_batch([sl(batch(6, 12), w, start=6)])
        assert len(assemble_first(op, r1, r2)) == 3


FLOATS = np.array([0.0, -0.0, 1.5, np.nan, -2.0], dtype=np.float32)
PAIR = np.dtype([("k", np.int32), ("f", np.float32)])


@given(
    values=st.lists(st.tuples(st.integers(0, 3), st.integers(0, len(FLOATS) - 1)), max_size=60),
    ranges=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=5),
)
def test_distinct_rows_keep_the_first_of_equal_rows(values, ranges):
    """Per range, a row is kept unless an earlier kept row equals it field
    by field (``-0.0 == 0.0``, NaN equals nothing); the kept rows come out
    sorted, ties in stream order."""
    rows = np.array([(k, FLOATS[f]) for k, f in values], dtype=PAIR)
    ranges = [tuple(sorted(min(x, len(rows)) for x in pair)) for pair in ranges]
    starts = np.array([a for a, __ in ranges], dtype=np.int64)
    stops = np.array([b for __, b in ranges], dtype=np.int64)
    got, counts = distinct_rows(rows, starts, stops)
    expected = []
    for a, b in ranges:
        kept = []
        for row in rows[a:b]:
            if not any(row["k"] == other["k"] and row["f"] == other["f"] for other in kept):
                kept.append(row)
        kept = np.array(kept, dtype=PAIR)
        expected.append(kept[np.argsort(kept, kind="stable")])
    assert counts.tolist() == [len(rows) for rows in expected]
    assert got.tobytes() == b"".join(rows.tobytes() for rows in expected)


class TestFilteredWindows:
    def test_filter_then_aggregate(self):
        inner = GroupedAggregation(SCHEMA, [], [AggregateSpec("count", None, "n")])
        op = FilteredWindows(col("k").eq(0), inner)
        w = WindowDefinition.rows(6, 6)
        result = op.process_batch([sl(batch(0, 12), w)])
        assert np.allclose(result.complete.column("n"), [2.0, 2.0])
        assert result.stats["selectivity"] == pytest.approx(1 / 3)

    def test_fragment_remapping_preserves_window_contents(self):
        inner = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v", "s")])
        op = FilteredWindows(col("v") < 3, inner)
        w = WindowDefinition.rows(5, 5)
        result = op.process_batch([sl(batch(0, 10), w)])
        # window 0 rows v = 0,1,2,3,4 -> filtered 0,1,2 -> sum 3
        # window 1 rows v = 0,1,2,3,4 -> same
        assert np.allclose(result.complete.column("s"), [3.0, 3.0])

    def test_assembly_delegates_to_inner(self):
        inner = GroupedAggregation(SCHEMA, [], [AggregateSpec("count", None, "n")])
        op = FilteredWindows(col("k").eq(1), inner)
        w = WindowDefinition.rows(10, 10)
        r1 = op.process_batch([sl(batch(0, 6), w)])
        r2 = op.process_batch([sl(batch(6, 10), w, start=6)])
        rows, __ = op.assemble_windows(np.array([0]), [r1.partials, r2.partials])
        idx = np.arange(10)
        assert rows.column("n")[0] == (idx % 3 == 1).sum()

    def test_output_schema_is_inner(self):
        inner = GroupedAggregation(SCHEMA, [], [AggregateSpec("count", None, "n")])
        op = FilteredWindows(col("k").eq(0), inner)
        assert op.output_schema is inner.output_schema

    def test_cost_profile_combines(self):
        inner = GroupedAggregation(SCHEMA, [], [AggregateSpec("count", None)])
        op = FilteredWindows((col("k") < 1) & (col("v") < 2), inner)
        profile = op.cost_profile()
        assert profile.kind == "aggregation"
        assert profile.predicate_count == 2


class TestUdf:
    def make_udf(self):
        out_schema = Schema.parse("n:long")

        def count_window(windows):
            return TupleBatch.from_columns(
                out_schema, n=np.array([len(windows[0])], dtype=np.int64)
            )

        return WindowUdf([SCHEMA], out_schema, count_window)

    def test_complete_window_applies_function(self):
        op = self.make_udf()
        w = WindowDefinition.rows(4, 4)
        result = op.process_batch([sl(batch(0, 8), w)])
        assert np.array_equal(result.complete.column("n"), [4, 4])

    def test_cross_task_buffering(self):
        op = self.make_udf()
        w = WindowDefinition.rows(8, 8)
        r1 = op.process_batch([sl(batch(0, 5), w)])
        r2 = op.process_batch([sl(batch(5, 8), w, start=5)])
        assert r2.partials.done.tolist() == [[True]]
        assert assemble_first(op, r1, r2).column("n")[0] == 8

    def test_partition_join(self):
        out_schema = Schema.parse("k:long, total:double")

        def combine(parts):
            k = int(np.asarray(parts[0].column("k"))[0])
            total = float(
                np.asarray(parts[0].column("v")).sum()
                + np.asarray(parts[1].column("v")).sum()
            )
            return TupleBatch.from_columns(
                out_schema,
                k=np.array([k], dtype=np.int64),
                total=np.array([total], dtype=np.float64),
            )

        op = partition_join([SCHEMA, SCHEMA], "k", out_schema, combine)
        w = WindowDefinition.rows(6, 6)
        result = op.process_batch(
            [sl(batch(0, 6), w), sl(batch(0, 6, seed=1), w)]
        )
        out = result.complete
        assert sorted(out.column("k").tolist()) == [0, 1, 2]
