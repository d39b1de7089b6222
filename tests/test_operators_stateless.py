"""Unit tests for projection and selection (stateless operators)."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.gpu.kernels import gpu_selection
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.groupby import GroupedAggregation
from repro.operators.base import StreamSlice
from repro.operators.compose import FilteredWindows
from repro.operators.projection import Projection, identity_projection
from repro.operators.selection import Selection
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import WindowSet, assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("a:float, b:int")


def batch(n=16):
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(n, dtype=np.int64),
        a=np.arange(n, dtype=np.float32),
        b=(np.arange(n) % 4).astype(np.int32),
    )


def run(op, data):
    return op.process_batch([StreamSlice(data, WindowSet.empty(), 0)])


class TestProjection:
    def test_column_forwarding(self):
        op = Projection(SCHEMA, [("timestamp", col("timestamp")), ("b", col("b"))])
        out = run(op, batch()).complete
        assert out.schema.attribute_names == ("timestamp", "b")
        assert np.array_equal(out.column("b"), np.arange(16) % 4)

    def test_arithmetic_projection(self):
        op = Projection(SCHEMA, [("double_a", col("a") * 2)], {"double_a": "float"})
        out = run(op, batch()).complete
        assert np.allclose(out.column("double_a"), np.arange(16) * 2)

    def test_type_inference_single_reference(self):
        op = Projection(SCHEMA, [("b", col("b"))])
        assert op.output_schema.attribute("b").type_name == "int"

    def test_type_inference_multi_reference_defaults_float(self):
        op = Projection(SCHEMA, [("x", col("a") + col("b"))])
        assert op.output_schema.attribute("x").type_name == "float"

    def test_empty_columns_rejected(self):
        with pytest.raises(QueryError):
            Projection(SCHEMA, [])

    def test_cost_profile_counts_operations(self):
        expr = ((col("a") + 1) * 2) + 3
        op = Projection(SCHEMA, [("x", expr)])
        assert op.cost_profile().ops_per_tuple == 3
        assert op.cost_profile().kind == "projection"

    def test_identity_projection(self):
        op = identity_projection(SCHEMA)
        out = run(op, batch(4)).complete
        assert np.array_equal(out.data, batch(4).data)

    def test_no_partials(self):
        result = run(Projection(SCHEMA, [("b", col("b"))]), batch())
        assert len(result.partials) == 0


class TestSelection:
    def test_filtering(self):
        op = Selection(SCHEMA, col("b").eq(0))
        result = run(op, batch())
        assert np.array_equal(result.complete.timestamps, [0, 4, 8, 12])
        assert result.stats["selectivity"] == pytest.approx(0.25)

    def test_output_schema_unchanged(self):
        op = Selection(SCHEMA, col("a") < 5)
        assert op.output_schema is SCHEMA

    def test_unknown_column_rejected(self):
        with pytest.raises(QueryError):
            Selection(SCHEMA, col("zz") < 5)

    def test_empty_batch_selectivity_zero(self):
        op = Selection(SCHEMA, col("a") < 5)
        result = run(op, batch(0))
        assert result.stats["selectivity"] == 0.0
        assert len(result.complete) == 0

    def test_cost_profile_has_predicate_tree(self):
        p = (col("a") < 5) & (col("b") < 2)
        op = Selection(SCHEMA, p)
        assert op.cost_profile().predicate_count == 2

    def test_custom_cpu_evals_fn(self):
        op = Selection(SCHEMA, col("a") < 5, cpu_evals_fn=lambda s: 1 + s * 10)
        profile = op.cost_profile()
        assert profile.cpu_predicate_evaluations(0.5) == pytest.approx(6.0)

    def test_default_cpu_evals_is_all_atoms(self):
        p = (col("a") < 5) & (col("b") < 2)
        profile = Selection(SCHEMA, p).cost_profile()
        assert profile.cpu_predicate_evaluations(0.1) == 2.0


class TestSelectivityIsTheSurvivorShare:
    """Every σ reports the survivor count over n: the same float as the
    mask's mean, and 0.0 for an empty batch."""

    KERNELS = {
        "selection": lambda p, s: Selection(SCHEMA, p).process_batch(s),
        "gpu_selection": lambda p, s: gpu_selection(Selection(SCHEMA, p), s),
        "filtered_windows": lambda p, s: FilteredWindows(
            p, GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "a")])
        ).process_batch(s),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize(
        "n, predicate",
        [
            (0, col("a") < 5),
            (16, col("a") < 0),                        # all false
            (16, col("a") >= 0),                       # all true
            (7, col("b").eq(1)),                       # 2 of 7: not a dyadic fraction
            (16_387, (col("a") % 3).eq(0) | col("b").eq(2)),
        ],
        ids=["empty", "all-false", "all-true", "two-of-seven", "large"],
    )
    def test_bitwise_equal_to_the_mask_mean(self, kernel, n, predicate):
        data = batch(n)
        slices = [StreamSlice(data, assign_count_windows(WindowDefinition.rows(4), 0, n), 0)]
        mask = predicate.evaluate(data)
        expected = float(mask.mean()) if n else 0.0
        got = self.KERNELS[kernel](predicate, slices).stats["selectivity"]
        assert type(got) is float
        assert got.hex() == expected.hex()
