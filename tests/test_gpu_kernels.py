"""GPGPU kernels must produce exactly the CPU operators' results."""

import numpy as np
import pytest

from repro.gpu.kernels import gpu_kernel, gpu_selection
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.selection import Selection
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float, k:int")


def batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(n, dtype=np.int64),
        v=rng.random(n, dtype=np.float32),
        k=rng.integers(0, 8, n).astype(np.int32),
    )


def windowed(data, window):
    return [StreamSlice(data, assign_count_windows(window, 0, len(data)), 0)]


class TestKernelEquivalence:
    def test_selection_kernel_matches_cpu(self):
        op = Selection(SCHEMA, (col("v") < 0.5) & (col("k") < 6))
        data = batch(500)
        slices = [StreamSlice(data, assign_count_windows(WindowDefinition.rows(64), 0, 500), 0)]
        cpu = op.process_batch(slices)
        gpu = gpu_selection(op, slices)
        assert np.array_equal(cpu.complete.data, gpu.complete.data)
        assert cpu.stats["selectivity"] == pytest.approx(gpu.stats["selectivity"])

    def test_join_kernel_matches_cpu(self):
        """GPGPU slot ≡ CPU slot, bitwise, on sliding windows, boundary
        partials included."""
        left = Schema.with_timestamp("x:int", name="L")
        right = Schema.with_timestamp("y:int", name="R")
        rng = np.random.default_rng(5)
        lb = TupleBatch.from_columns(
            left, timestamp=np.arange(64, dtype=np.int64),
            x=rng.integers(0, 100, 64).astype(np.int32),
        )
        rb = TupleBatch.from_columns(
            right, timestamp=np.arange(64, dtype=np.int64),
            y=rng.integers(0, 100, 64).astype(np.int32),
        )
        w = WindowDefinition.rows(16, 4)
        slices = [
            StreamSlice(lb, assign_count_windows(w, 32, 96), 32),
            StreamSlice(rb, assign_count_windows(w, 32, 96), 32),
        ]
        for predicate in (col("x") < col("y"), (col("x") % 7).eq(col("y") % 7)):
            op = ThetaJoin(left, right, predicate)
            cpu = op.process_batch(slices)
            gpu = gpu_kernel(op, slices)
            assert len(cpu.complete) and cpu.complete.data.tobytes() == gpu.complete.data.tobytes()
            assert len(cpu.partials) == 6
            assert cpu.partials.ids.tolist() == gpu.partials.ids.tolist()
            assert cpu.partials.done.tolist() == gpu.partials.done.tolist()
            for side, other in zip(cpu.partials.sides, gpu.partials.sides):
                assert side.rows.tobytes() == other.rows.tobytes()
                assert side.spans.tolist() == other.spans.tolist()
            assert cpu.stats == gpu.stats

    def test_aggregation_path_matches(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v"), AggregateSpec("max", "v")])
        data = batch(512)
        slices = windowed(data, WindowDefinition.rows(128, 32))
        cpu = op.process_batch(slices)
        gpu = gpu_kernel(op, slices)
        assert np.allclose(
            cpu.complete.column("sum_v"), gpu.complete.column("sum_v")
        )

    def test_groupby_path_matches(self):
        op = GroupedAggregation(SCHEMA, ["k"], [AggregateSpec("avg", "v")])
        data = batch(256)
        slices = windowed(data, WindowDefinition.rows(64, 64))
        cpu = op.process_batch(slices)
        gpu = gpu_kernel(op, slices)
        assert np.allclose(
            cpu.complete.column("avg_v"), gpu.complete.column("avg_v")
        )
