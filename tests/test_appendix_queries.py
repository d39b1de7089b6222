"""Parse the paper's Appendix A benchmark queries (verbatim CQL).

The query strings below are copied from Appendix A (modulo whitespace).
Constructs outside the supported subset — LRB2's ``partition by`` window
and SG3's/LRB4's nested subqueries — are exercised through their
programmatic equivalents in ``repro.workloads`` instead, and the parser
must reject them loudly rather than mis-parse.
"""

import pytest

from repro.core.cql import compile_statement
from repro.errors import CQLSyntaxError
from repro.operators.aggregation import Aggregation
from repro.operators.compose import FilteredWindows
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import Projection
from repro.workloads.cluster_monitoring import TASK_EVENTS_SCHEMA
from repro.workloads.linearroad import POS_SPEED_SCHEMA
from repro.workloads.smartgrid import (
    GLOBAL_LOAD_SCHEMA,
    LOCAL_LOAD_SCHEMA,
    SMART_GRID_SCHEMA,
)

SCHEMAS = {
    "TaskEvents": TASK_EVENTS_SCHEMA,
    "SmartGridStr": SMART_GRID_SCHEMA,
    "SegSpeedStr": POS_SPEED_SCHEMA,
    "LocalLoadStr": LOCAL_LOAD_SCHEMA,
    "GlobalLoadStr": GLOBAL_LOAD_SCHEMA,
}


class TestClusterMonitoring:
    def test_cm1(self):
        q = compile_statement(
            """
            select timestamp, category, sum(cpu) as totalCpu
            from TaskEvents [range 60 slide 1]
            group by category
            """,
            SCHEMAS, name="CM1",
        )
        assert isinstance(q.operator, GroupedAggregation)
        assert q.operator.group_columns == ["category"]
        assert q.windows[0].size == 60 and q.windows[0].slide == 1

    def test_cm2(self):
        q = compile_statement(
            """
            select timestamp, jobId, avg(cpu) as avgCpu
            from TaskEvents [range 60 slide 1]
            where eventType == 1
            group by jobId
            """,
            SCHEMAS, name="CM2",
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, GroupedAggregation)


class TestSmartGrid:
    def test_sg1(self):
        q = compile_statement(
            """
            select timestamp, avg(value) as globalAvgLoad
            from SmartGridStr [range 3600 slide 1]
            """,
            SCHEMAS, name="SG1",
        )
        assert isinstance(q.operator, Aggregation)
        assert q.windows[0].size == 3600

    def test_sg2(self):
        q = compile_statement(
            """
            select timestamp, plug, household, house,
                   avg(value) as localAvgLoad
            from SmartGridStr [range 3600 slide 1]
            group by plug, household, house
            """,
            SCHEMAS, name="SG2",
        )
        assert q.operator.group_columns == ["plug", "household", "house"]

    def test_sg3_join_core(self):
        # The inner join of SG3 (the outer count(*) is a chained query).
        q = compile_statement(
            """
            select timestamp, plug, household, house
            from LocalLoadStr [range 1 slide 1] as L,
                 GlobalLoadStr [range 1 slide 1] as G
            where L.house == G.house and L.localAvgLoad > G.globalAvgLoad
            """,
            SCHEMAS, name="SG3",
        )
        assert isinstance(q.operator, ThetaJoin)
        assert q.operator.predicate.predicate_count() == 2


class TestLinearRoad:
    def test_lrb1(self):
        q = compile_statement(
            """
            select timestamp, vehicle, speed, highway, lane, direction,
                   (position / 5280) as segment
            from SegSpeedStr [range unbounded]
            """,
            SCHEMAS, name="LRB1",
        )
        assert isinstance(q.operator, Projection)
        assert q.windows == [None]
        assert "segment" in q.operator.output_schema

    def test_lrb3(self):
        q = compile_statement(
            """
            select timestamp, highway, direction, lane,
                   avg(speed) as avgSpeed
            from SegSpeedStr [range 300 slide 1]
            group by highway, direction, lane
            having avgSpeed < 40.0
            """,
            SCHEMAS, name="LRB3",
        )
        assert q.operator.having is not None

    def test_lrb4_inner(self):
        q = compile_statement(
            """
            select timestamp, highway, direction, vehicle, count(*)
            from SegSpeedStr [range 30 slide 1]
            group by highway, direction, vehicle
            """,
            SCHEMAS, name="LRB4",
        )
        assert isinstance(q.operator, GroupedAggregation)
        assert q.operator.specs[0].function == "count"


class TestUnsupportedConstructs:
    def test_partition_window_rejected(self):
        # LRB2's [partition by vehicle rows 1] window is out of the
        # subset; the workload implements it programmatically.
        with pytest.raises(CQLSyntaxError):
            compile_statement(
                "select distinct timestamp, vehicle from "
                "SegSpeedStr [partition by vehicle rows 1]",
                SCHEMAS,
            )

    def test_nested_subquery_rejected(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement(
                "select timestamp, house, count(*) from "
                "(select timestamp from SegSpeedStr [range 1 slide 1]) as R "
                "group by house",
                SCHEMAS,
            )
