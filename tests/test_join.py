"""Unit tests for the windowed θ-join and its assembly decomposition."""

import numpy as np
import pytest

from reference import join_pairs
from repro.errors import QueryError
from repro.operators.base import StreamSlice
from repro.operators.join import ThetaJoin
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

LEFT = Schema.with_timestamp("x:int", name="L")
RIGHT = Schema.with_timestamp("y:int", name="R")


def left_batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        LEFT, timestamp=idx.astype(np.int64), x=idx.astype(np.int32)
    )


def right_batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        RIGHT, timestamp=idx.astype(np.int64), y=(idx * 2).astype(np.int32)
    )


def slices(window, l0, l1, r0, r1):
    return [
        StreamSlice(left_batch(l0, l1), assign_count_windows(window, l0, l1), l0),
        StreamSlice(right_batch(r0, r1), assign_count_windows(window, r0, r1), r0),
    ]


class TestBasics:
    def test_output_schema_concat(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        assert op.output_schema.attribute_names == (
            "timestamp", "x", "r_timestamp", "y",
        )

    def test_unknown_predicate_column_rejected(self):
        with pytest.raises(QueryError):
            ThetaJoin(LEFT, RIGHT, col("zzz") < 1)

    def test_join_pairs_cross_product(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        out = join_pairs(op, left_batch(0, 3), right_batch(0, 3))
        expected = [(x, y) for x in range(3) for y in [0, 2, 4] if x < y]
        got = sorted(zip(out.column("x").tolist(), out.column("y").tolist()))
        assert got == sorted(expected)

    def test_empty_side_yields_empty(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        out = join_pairs(op, left_batch(0, 0), right_batch(0, 3))
        assert len(out) == 0


class TestWindowedJoin:
    def test_complete_tumbling_windows(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        w = WindowDefinition.rows(4, 4)
        result = op.process_batch(slices(w, 0, 8, 0, 8))
        # Windows 0 and 1 both complete: all matches local.
        assert len(result.partials) == 0
        out = result.complete
        for x, y in zip(out.column("x"), out.column("y")):
            assert x < y
        # Window alignment: pairs only within the same window id.
        assert all(
            (x // 4) == (y // 2 // 4)
            for x, y in zip(out.column("x"), out.column("y"))
        )

    def test_pair_count_stats(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        w = WindowDefinition.rows(4, 4)
        result = op.process_batch(slices(w, 0, 8, 0, 8))
        assert result.stats["pairs"] == 32.0  # 2 windows * 4*4

    def test_cross_task_assembly_matches_single_task(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        w = WindowDefinition.rows(8, 8)
        # Single task reference:
        whole = op.process_batch(slices(w, 0, 8, 0, 8)).complete
        # Split into two tasks at row 5:
        r1 = op.process_batch(slices(w, 0, 5, 0, 5))
        r2 = op.process_batch(slices(w, 5, 8, 5, 8))
        rows, offsets = op.assemble_windows(np.array([0]), [r1.partials, r2.partials])
        # The whole window is joined at once: the bytes of the one-task join.
        assert rows.data.tobytes() == whole.data.tobytes()
        assert offsets.tolist() == [0, len(whole)]

    def test_done_flags_per_side(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        w = WindowDefinition.rows(8, 8)
        r1 = op.process_batch(slices(w, 0, 5, 0, 5))
        r2 = op.process_batch(slices(w, 5, 8, 5, 8))
        assert r1.partials.ids.tolist() == [0] == r2.partials.ids.tolist()
        assert r1.partials.done.tolist() == [[False], [False]]
        assert r2.partials.done.tolist() == [[True], [True]]

    def test_selectivity_stat(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        w = WindowDefinition.rows(4, 4)
        result = op.process_batch(slices(w, 0, 4, 0, 4))
        assert 0.0 < result.stats["selectivity"] < 1.0

    def test_mismatched_input_count_raises(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") < col("y"))
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            op.process_batch([slices(WindowDefinition.rows(4), 0, 4, 0, 4)[0]])

    def test_sliding_windows_pair_by_id(self):
        op = ThetaJoin(LEFT, RIGHT, col("x") >= 0)
        w = WindowDefinition.rows(4, 2)
        result = op.process_batch(slices(w, 0, 8, 0, 8))
        # Complete windows 0,1,2; boundary windows have partials.
        assert len(result.partials) > 0
        out = result.complete
        assert len(out) == 3 * 16  # 3 complete windows, full cross products
