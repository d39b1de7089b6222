"""Unit tests for GROUP-BY aggregation, HAVING and derived keys."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.groupby import GroupedAggregation
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float, g:int, h:int")


def batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=idx.astype(np.int64),
        v=idx.astype(np.float32),
        g=(idx % 3).astype(np.int32),
        h=(idx % 2).astype(np.int32),
    )


def run_window(op, window, start, stop):
    ws = assign_count_windows(window, start, stop)
    return op.process_batch([StreamSlice(batch(start, stop), ws, start)])


class TestGrouping:
    def test_single_key_sums(self):
        op = GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("sum", "v")])
        w = WindowDefinition.rows(6, 6)
        out = run_window(op, w, 0, 6).complete
        # groups: g=0 -> rows 0,3; g=1 -> 1,4; g=2 -> 2,5
        assert np.array_equal(out.column("g"), [0, 1, 2])
        assert np.allclose(out.column("sum_v"), [3.0, 5.0, 7.0])
        assert np.array_equal(out.timestamps, [5, 5, 5])

    def test_composite_key(self):
        op = GroupedAggregation(SCHEMA, ["g", "h"], [AggregateSpec("count", None)])
        w = WindowDefinition.rows(12, 12)
        out = run_window(op, w, 0, 12).complete
        # 6 (g,h) combinations, 2 rows each
        assert len(out) == 6
        assert np.allclose(out.column("count_star"), [2.0] * 6)

    def test_rows_sorted_by_group_key(self):
        op = GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("count", None)])
        w = WindowDefinition.rows(6, 6)
        out = run_window(op, w, 0, 6).complete
        assert list(out.column("g")) == sorted(out.column("g"))

    def test_multiple_windows_emit_in_window_order(self):
        op = GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("count", None)])
        w = WindowDefinition.rows(3, 3)
        out = run_window(op, w, 0, 9).complete
        assert list(out.timestamps) == [2, 2, 2, 5, 5, 5, 8, 8, 8]

    def test_validation(self):
        # No keys is ungrouped aggregation (one group), not an error.
        assert GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")]).group_columns == []
        with pytest.raises(QueryError):
            GroupedAggregation(SCHEMA, ["nope"], [AggregateSpec("sum", "v")])
        with pytest.raises(QueryError):
            GroupedAggregation(SCHEMA, ["g"], [])
        with pytest.raises(QueryError):
            GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("sum", "zz")])


class TestHaving:
    def test_having_filters_output_rows(self):
        op = GroupedAggregation(
            SCHEMA,
            ["g"],
            [AggregateSpec("sum", "v", "total")],
            having=col("total") > 4.0,
        )
        w = WindowDefinition.rows(6, 6)
        out = run_window(op, w, 0, 6).complete
        assert np.array_equal(out.column("g"), [1, 2])

    def test_having_unknown_column_rejected(self):
        with pytest.raises(QueryError):
            GroupedAggregation(
                SCHEMA,
                ["g"],
                [AggregateSpec("sum", "v", "total")],
                having=col("bogus") > 1.0,
            )


class TestDerivedKeys:
    def test_derived_group_column(self):
        op = GroupedAggregation(
            SCHEMA,
            ["bucket"],
            [AggregateSpec("count", None)],
            derived_columns={"bucket": (col("v") / 4, "int")},
        )
        w = WindowDefinition.rows(8, 8)
        out = run_window(op, w, 0, 8).complete
        assert np.array_equal(out.column("bucket"), [0, 1])
        assert np.allclose(out.column("count_star"), [4.0, 4.0])

    def test_derived_key_in_output_schema(self):
        op = GroupedAggregation(
            SCHEMA,
            ["bucket"],
            [AggregateSpec("count", None)],
            derived_columns={"bucket": (col("v") / 4, "int")},
        )
        assert op.output_schema.attribute("bucket").type_name == "int"


class TestAssembly:
    def test_cross_task_merge(self):
        op = GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("sum", "v")])
        w = WindowDefinition.rows(8, 8)
        r1 = run_window(op, w, 0, 5)
        r2 = run_window(op, w, 5, 8)
        rows, __ = op.assemble_windows(np.array([0]), [r1.partials, r2.partials])
        by_group = dict(zip(rows.column("g").tolist(), rows.column("sum_v").tolist()))
        idx = np.arange(8)
        for g in range(3):
            assert by_group[g] == pytest.approx(idx[idx % 3 == g].sum())

    def test_merge_with_disjoint_groups(self):
        op = GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("count", None)])
        w = WindowDefinition.rows(8, 8)
        r1 = run_window(op, w, 0, 2)   # groups 0,1 only
        r2 = run_window(op, w, 2, 8)
        rows, __ = op.assemble_windows(np.array([0]), [r1.partials, r2.partials])
        assert len(rows) == 3

    def test_finalize_empty_returns_none(self):
        from repro.operators.base import PartialRun

        op = GroupedAggregation(SCHEMA, ["g"], [AggregateSpec("count", None)])
        rows, offsets = op.assemble_windows(np.array([0]), [PartialRun()])
        assert rows is None and offsets.tolist() == [0, 0]

    def test_having_applies_to_assembled_windows_too(self):
        op = GroupedAggregation(
            SCHEMA,
            ["g"],
            [AggregateSpec("sum", "v", "total")],
            having=col("total") > 8.0,
        )
        w = WindowDefinition.rows(8, 8)
        r1 = run_window(op, w, 0, 5)
        r2 = run_window(op, w, 5, 8)
        rows, __ = op.assemble_windows(np.array([0]), [r1.partials, r2.partials])
        assert (np.asarray(rows.column("total")) > 8.0).all()
