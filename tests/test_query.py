"""Unit tests for query construction and validation."""

import pytest

from repro.core.query import Query, StreamFunction, default_stream_function
from repro.errors import QueryError
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import identity_projection
from repro.operators.selection import Selection
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float")


class TestStreamFunctionDefaults:
    def test_projection_defaults_to_istream(self):
        q = Query("p", identity_projection(SCHEMA), [WindowDefinition.rows(4)])
        assert q.stream_function is StreamFunction.ISTREAM

    def test_selection_defaults_to_istream(self):
        op = Selection(SCHEMA, col("v") < 1)
        assert default_stream_function(op) is StreamFunction.ISTREAM

    def test_aggregation_defaults_to_rstream(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        q = Query("a", op, [WindowDefinition.rows(4)])
        assert q.stream_function is StreamFunction.RSTREAM

    def test_explicit_stream_function_respected(self):
        q = Query(
            "p",
            identity_projection(SCHEMA),
            [WindowDefinition.rows(4)],
            stream_function=StreamFunction.RSTREAM,
        )
        assert q.stream_function is StreamFunction.RSTREAM


class TestValidation:
    def test_window_count_must_match_arity(self):
        with pytest.raises(QueryError):
            Query("bad", identity_projection(SCHEMA), [])
        op = ThetaJoin(SCHEMA.rename("L"), SCHEMA.rename("R"), col("v") < col("r_v"))
        with pytest.raises(QueryError):
            Query("bad", op, [WindowDefinition.rows(4)])

    def test_unbounded_window_requires_stateless(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        with pytest.raises(QueryError):
            Query("bad", op, [None])

    def test_unbounded_ok_for_projection(self):
        Query("ok", identity_projection(SCHEMA), [None])

    def test_input_rates_must_match_arity(self):
        with pytest.raises(QueryError):
            Query(
                "bad",
                identity_projection(SCHEMA),
                [WindowDefinition.rows(4)],
                input_rates=[1.0, 2.0],
            )


class TestIntrospection:
    def test_input_schemas_single(self):
        q = Query("p", identity_projection(SCHEMA), [WindowDefinition.rows(4)])
        assert q.input_schemas == [SCHEMA]
        assert q.arity == 1

    def test_input_schemas_join(self):
        left, right = SCHEMA.rename("L"), SCHEMA.rename("R")
        op = ThetaJoin(left, right, col("v") < col("r_v"))
        q = Query("j", op, [WindowDefinition.rows(4)] * 2)
        assert q.input_schemas == [left, right]
        assert q.arity == 2

    def test_query_ids_unique(self):
        a = Query("a", identity_projection(SCHEMA), [WindowDefinition.rows(4)])
        b = Query("b", identity_projection(SCHEMA), [WindowDefinition.rows(4)])
        assert a.query_id != b.query_id

    def test_output_schema_delegates(self):
        op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v", "s")])
        q = Query("a", op, [WindowDefinition.rows(4)])
        assert "s" in q.output_schema
