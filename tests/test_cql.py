"""Unit tests for the CQL-subset parser."""

import numpy as np
import pytest

from repro.core.cql import compile_statement
from repro.errors import CQLSyntaxError
from repro.operators.aggregation import Aggregation
from repro.operators.compose import FilteredWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import Projection
from repro.operators.selection import Selection
from repro.relational.schema import Schema

TASK_EVENTS = Schema.with_timestamp(
    "jobId:long, eventType:int, category:int, cpu:float", name="TaskEvents"
)
SCHEMAS = {"TaskEvents": TASK_EVENTS, "S": TASK_EVENTS}


class TestSingleStream:
    def test_cm1_style_group_by(self):
        q = compile_statement(
            "select timestamp, category, sum(cpu) as totalCpu "
            "from TaskEvents [range 60 slide 1] group by category",
            SCHEMAS,
            name="CM1",
        )
        assert isinstance(q.operator, GroupedAggregation)
        assert q.windows[0].is_time_based
        assert q.windows[0].size == 60 and q.windows[0].slide == 1
        assert "totalCpu" in q.operator.output_schema

    def test_cm2_style_where_plus_group_by(self):
        q = compile_statement(
            "select timestamp, jobId, avg(cpu) as avgCpu "
            "from TaskEvents [range 60 slide 1] "
            "where eventType == 1 group by jobId",
            SCHEMAS,
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, GroupedAggregation)

    def test_plain_aggregation(self):
        q = compile_statement(
            "select timestamp, avg(cpu) from S [range 3600 slide 1]", SCHEMAS
        )
        assert isinstance(q.operator, Aggregation)

    def test_having(self):
        q = compile_statement(
            "select timestamp, category, avg(cpu) as a "
            "from S [range 300 slide 1] group by category having a < 40.0",
            SCHEMAS,
        )
        assert q.operator.having is not None

    def test_projection_with_arithmetic(self):
        q = compile_statement(
            "select timestamp, cpu * 2 + 1 as load from S [rows 1024]", SCHEMAS
        )
        assert isinstance(q.operator, Projection)
        assert q.operator.cost_profile().ops_per_tuple == 2

    def test_selection_whole_tuple(self):
        q = compile_statement(
            "select timestamp, jobId, eventType, category, cpu "
            "from S [rows 64 slide 16] where eventType == 2",
            SCHEMAS,
        )
        assert isinstance(q.operator, Selection)
        assert q.windows[0].is_count_based and q.windows[0].slide == 16

    def test_filtered_projection(self):
        q = compile_statement(
            "select timestamp, cpu from S [rows 64] where eventType == 2",
            SCHEMAS,
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, Projection)

    def test_distinct(self):
        q = compile_statement(
            "select distinct category from S [range 30 slide 1]", SCHEMAS
        )
        assert isinstance(q.operator, DistinctProjection)

    def test_unbounded_window(self):
        q = compile_statement("select timestamp, cpu from S [range unbounded]", SCHEMAS)
        assert q.windows == [None]

    def test_count_star(self):
        q = compile_statement(
            "select timestamp, category, count(*) as n "
            "from S [range 30 slide 1] group by category",
            SCHEMAS,
        )
        assert q.operator.specs[0].function == "count"


class TestJoin:
    def test_two_stream_join(self):
        q = compile_statement(
            "select timestamp, cpu from S [range 1 slide 1] as L, "
            "TaskEvents [range 1 slide 1] as G "
            "where L.category == G.category and L.cpu > G.cpu",
            SCHEMAS,
        )
        assert isinstance(q.operator, ThetaJoin)
        assert len(q.windows) == 2

    def test_join_without_predicate_rejected(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement(
                "select timestamp from S [range 1], TaskEvents [range 1]",
                SCHEMAS,
            )


class TestErrors:
    def test_unknown_stream(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement("select timestamp from Nope [rows 4]", SCHEMAS)

    def test_missing_window_clause(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement("select timestamp from S", SCHEMAS)

    def test_garbage_input(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement("insert into S values (1)", SCHEMAS)

    def test_trailing_tokens(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement("select timestamp from S [rows 4] limit 5", SCHEMAS)

    def test_having_without_group_by(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement(
                "select timestamp, avg(cpu) as a from S [rows 4] having a > 1",
                SCHEMAS,
            )

    def test_untokenizable(self):
        with pytest.raises(CQLSyntaxError):
            compile_statement("select @#$ from S [rows 4]", SCHEMAS)

    def test_unknown_stream_names_the_stream(self):
        with pytest.raises(CQLSyntaxError, match="unknown stream 'Nope'"):
            compile_statement("select timestamp from Nope [rows 4]", SCHEMAS)

    def test_join_without_where_names_the_requirement(self):
        with pytest.raises(CQLSyntaxError, match="join query needs a WHERE"):
            compile_statement(
                "select timestamp from S [range 1], TaskEvents [range 1]",
                SCHEMAS,
            )

    def test_having_without_group_by_message(self):
        with pytest.raises(CQLSyntaxError, match="HAVING without GROUP BY"):
            compile_statement(
                "select timestamp, avg(cpu) as a from S [rows 4] having a > 1",
                SCHEMAS,
            )

    def test_having_without_any_aggregate(self):
        with pytest.raises(CQLSyntaxError, match="HAVING without GROUP BY"):
            compile_statement("select timestamp from S [rows 4] having cpu > 1", SCHEMAS)

    def test_trailing_input_names_the_token(self):
        with pytest.raises(CQLSyntaxError, match="trailing input at 'limit'"):
            compile_statement("select timestamp from S [rows 4] limit 5", SCHEMAS)

    def test_expect_message_quotes_the_offending_token(self):
        # Regression: both branches of the expect() error are formatted
        # deliberately — real tokens repr'd, end-of-input as prose.
        with pytest.raises(CQLSyntaxError, match="expected 'select', got 'insert'"):
            compile_statement("insert into S values (1)", SCHEMAS)

    def test_expect_message_marks_end_of_query(self):
        with pytest.raises(CQLSyntaxError, match="got end of query$"):
            compile_statement("select timestamp from", SCHEMAS)

    def test_unknown_where_column_is_a_cql_error(self):
        with pytest.raises(CQLSyntaxError, match="unknown column"):
            compile_statement("select timestamp from S [rows 4] where nope > 1", SCHEMAS)


class TestDistinctWhere:
    """Regression: SELECT DISTINCT used to drop the WHERE clause."""

    def test_distinct_keeps_where_clause(self):
        q = compile_statement(
            "select distinct category from S [range 30 slide 1] "
            "where eventType == 2",
            SCHEMAS,
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, DistinctProjection)

    def test_distinct_where_filters_rows_end_to_end(self):
        from repro.operators.base import StreamSlice
        from repro.relational.tuples import TupleBatch
        from repro.windows.assigner import assign_windows
        from repro.windows.definition import WindowDefinition

        batch = TupleBatch.from_columns(
            TASK_EVENTS,
            timestamp=np.arange(8, dtype=np.int64),
            jobId=np.zeros(8, dtype=np.int64),
            eventType=np.array([2, 1, 2, 1, 2, 1, 2, 1], dtype=np.int32),
            category=np.array([5, 6, 5, 6, 7, 7, 5, 5], dtype=np.int32),
            cpu=np.zeros(8, dtype=np.float32),
        )
        q = compile_statement(
            "select distinct category from S [rows 8 slide 8] "
            "where eventType == 2",
            SCHEMAS,
        )
        windows = assign_windows(WindowDefinition.rows(8, 8), 0, 8)
        result = q.operator.process_batch([StreamSlice(batch, windows, 0)])
        # Only eventType == 2 rows survive: categories {5, 7}, not 6.
        assert sorted(result.complete.column("category").tolist()) == [5, 7]


class TestEndToEnd:
    def test_parsed_query_runs(self):
        from repro.core.engine import SaberConfig, SaberEngine
        from repro.workloads.cluster_monitoring import ClusterMonitoringSource, TASK_EVENTS_SCHEMA

        q = compile_statement(
            "select timestamp, category, sum(cpu) as totalCpu "
            "from TaskEvents [range 10 slide 2] group by category",
            {"TaskEvents": TASK_EVENTS_SCHEMA},
            name="cm1_cql",
        )
        engine = SaberEngine(SaberConfig(task_size_bytes=48 * 1024, cpu_workers=3))
        engine.add_query(q, [ClusterMonitoringSource(seed=2, tuples_per_second=512)])
        report = engine.run(tasks_per_query=10)
        assert report.output_rows["cm1_cql"] > 0
