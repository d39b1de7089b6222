"""Unit tests for ungrouped windowed aggregation (GroupedAggregation over no keys)."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.operators.aggregate_functions import Accumulator, AggregateSpec
from repro.operators.groupby import GroupedAggregation, GroupedWindowAccumulator
from repro.operators.base import StreamSlice
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float")


def batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=idx.astype(np.int64),
        v=idx.astype(np.float32),
    )


def run_window(op, window, start, stop):
    ws = assign_count_windows(window, start, stop)
    return op.process_batch([StreamSlice(batch(start, stop), ws, start)])


class TestAggregateSpec:
    def test_alias_defaults(self):
        assert AggregateSpec("sum", "v").alias == "sum_v"
        assert AggregateSpec("count", None).alias == "count_star"

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError):
            AggregateSpec("median", "v")

    def test_count_without_column_allowed(self):
        AggregateSpec("count", None)

    def test_sum_requires_column(self):
        with pytest.raises(QueryError):
            AggregateSpec("sum", None)

    def test_finalize_empty_count_is_zero(self):
        assert AggregateSpec("count", None).finalize(Accumulator()) == 0

    def test_finalize_empty_avg_is_nan(self):
        assert np.isnan(AggregateSpec("avg", "v").finalize(Accumulator()))


class TestAccumulator:
    def test_of_and_merge(self):
        a = Accumulator.of(np.array([1.0, 2.0]))
        b = Accumulator.of(np.array([5.0]))
        m = a.merge(b)
        assert m.total == 8.0 and m.count == 3.0
        assert m.minimum == 1.0 and m.maximum == 5.0

    def test_empty(self):
        a = Accumulator.of(np.array([]))
        assert a.count == 0 and a.minimum == np.inf


class TestCompleteWindows:
    def test_tumbling_sums(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        w = WindowDefinition.rows(4, 4)
        result = run_window(op, w, 0, 12)
        out = result.complete
        assert np.allclose(out.column("sum_v"), [6.0, 22.0, 38.0])
        assert np.array_equal(out.timestamps, [3, 7, 11])

    def test_sliding_all_functions(self):
        specs = [
            AggregateSpec("sum", "v"),
            AggregateSpec("count", None),
            AggregateSpec("avg", "v"),
            AggregateSpec("min", "v"),
            AggregateSpec("max", "v"),
        ]
        op = GroupedAggregation(SCHEMA, [], specs)
        w = WindowDefinition.rows(4, 2)
        out = run_window(op, w, 0, 10).complete
        # Complete windows: [0,4), [2,6), [4,8), [6,10)
        assert np.allclose(out.column("sum_v"), [6, 14, 22, 30])
        assert np.allclose(out.column("count_star"), [4, 4, 4, 4])
        assert np.allclose(out.column("avg_v"), [1.5, 3.5, 5.5, 7.5])
        assert np.allclose(out.column("min_v"), [0, 2, 4, 6])
        assert np.allclose(out.column("max_v"), [3, 5, 7, 9])

    def test_output_schema(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("avg", "v", "m")])
        assert op.output_schema.attribute_names == ("timestamp", "m")

    def test_unknown_column_rejected(self):
        with pytest.raises(QueryError):
            GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "nope")])

    def test_no_specs_rejected(self):
        with pytest.raises(QueryError):
            GroupedAggregation(SCHEMA, [], [])


class TestFragmentsAndAssembly:
    def test_partials_for_boundary_windows(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        w = WindowDefinition.rows(8, 4)
        result = run_window(op, w, 0, 10)
        # Window 0 [0,8) complete; window 1 [4,12) opening; window 2 [8,16) opening.
        assert len(result.complete) == 1
        assert set(result.partials) == {1, 2}
        assert result.closed_ids == []

    def test_cross_task_merge_equals_single_task(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v"), AggregateSpec("max", "v")])
        w = WindowDefinition.rows(8, 4)
        r1 = run_window(op, w, 0, 6)
        r2 = run_window(op, w, 6, 14)
        merged = op.merge_partials(r1.partials[0], r2.partials[0])
        rows = op.finalize_window(0, merged)
        assert rows.column("sum_v")[0] == pytest.approx(sum(range(8)))
        assert rows.column("max_v")[0] == 7.0
        assert rows.timestamps[0] == 7

    def test_closed_ids_on_closing_fragment(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        w = WindowDefinition.rows(8, 4)
        r2 = run_window(op, w, 6, 14)
        assert 0 in r2.closed_ids

    def test_finalize_empty_payload_returns_none(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        assert op.finalize_window(0, GroupedWindowAccumulator()) is None

    def test_merge_is_associative(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v"), AggregateSpec("min", "v")])
        w = WindowDefinition.rows(12, 12)
        parts = [run_window(op, w, a, b).partials[0] for a, b in [(0, 4), (4, 8), (8, 11)]]
        left = op.merge_partials(op.merge_partials(parts[0], parts[1]), parts[2])
        right = op.merge_partials(parts[0], op.merge_partials(parts[1], parts[2]))
        a = op.finalize_window(0, left)
        b = op.finalize_window(0, right)
        assert np.allclose(a.column("sum_v"), b.column("sum_v"))
        assert np.allclose(a.column("min_v"), b.column("min_v"))

    def test_empty_window_set(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        from repro.windows.assigner import WindowSet

        result = op.process_batch([StreamSlice(batch(0, 4), WindowSet.empty(), 0)])
        assert len(result.complete) == 0
