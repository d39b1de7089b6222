"""Unit tests for DISTINCT projection, UDFs and WHERE composition."""

import numpy as np
import pytest

from repro.operators.base import StreamSlice
from repro.operators.compose import FilteredWindows
from repro.operators.distinct import DistinctProjection
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


def first_payload(result):
    """Window 0's payload: the first entry of the task's run."""
    assert result.partials.ids[0] == 0
    return result.partials.columns[0]


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
        merged = op.merge_partials(first_payload(r1), first_payload(r2))
        rows = op.finalize_window(0, merged)
        assert sorted(rows.column("k").tolist()) == [0, 1, 2]

    def test_duplicates_removed_in_merge(self):
        op = DistinctProjection(SCHEMA, [("k", col("k"))])
        w = WindowDefinition.rows(12, 12)
        r1 = op.process_batch([sl(batch(0, 6), w)])
        r2 = op.process_batch([sl(batch(6, 12), w, start=6)])
        merged = op.merge_partials(first_payload(r1), first_payload(r2))
        assert len(op.finalize_window(0, merged)) == 3


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
        merged = op.merge_partials(first_payload(r1), first_payload(r2))
        assert op.window_ready(merged)
        assert op.finalize_window(0, merged).column("n")[0] == 8

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
