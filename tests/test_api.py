"""Unit tests for the public API: the Stream builder and SaberSession.

The builder must (a) compile to exactly the operator graphs the old
hand-wired queries produced and (b) reject invalid plans *at build time*
with :class:`BuilderError`.  The session must resolve sources, run
incrementally over both backends, stream per-query results, and enforce
its lifecycle.
"""

import threading

import numpy as np
import pytest

from repro.api import SaberSession, Stream, agg
from repro.api.session import ChunkBacklog
from repro.errors import BuilderError, QueryError, SaberError, SessionError
from repro.operators.compose import FilteredWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import Projection
from repro.operators.selection import Selection
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.workloads.synthetic import SYNTHETIC_SCHEMA, TUPLE_SIZE, SyntheticSource

SCHEMA = Schema.with_timestamp(
    "jobId:long, eventType:int, category:int, cpu:float", name="TaskEvents"
)


def plan():
    return Stream.named("TaskEvents", SCHEMA)


# -- builder: compilation ------------------------------------------------------


class TestBuilderCompilation:
    def test_group_by_compiles_to_grouped_aggregation(self):
        q = (
            plan()
            .window(time=60, slide=1)
            .group_by("category", agg.sum("cpu", "totalCpu"))
            .build("CM1")
        )
        assert isinstance(q.operator, GroupedAggregation)
        assert q.windows[0].is_time_based and q.windows[0].slide == 1
        assert "totalCpu" in q.operator.output_schema
        assert q.name == "CM1"

    def test_where_wraps_aggregation_in_filtered_windows(self):
        q = (
            plan()
            .window(time=60, slide=1)
            .where(col("eventType").eq(1))
            .group_by("jobId", agg.avg("cpu"))
            .build()
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, GroupedAggregation)

    def test_aggregate_without_keys(self):
        q = plan().window(time=3600, slide=1).aggregate(agg.avg("cpu")).build()
        assert isinstance(q.operator, GroupedAggregation)
        assert q.operator.group_columns == []

    def test_bare_where_compiles_to_selection(self):
        q = plan().window(rows=1024).where(col("cpu") > 0.5).build()
        assert isinstance(q.operator, Selection)

    def test_identity_select_with_where_is_selection(self):
        q = (
            plan()
            .window(rows=64, slide=16)
            .select("timestamp", "jobId", "eventType", "category", "cpu")
            .where(col("eventType").eq(2))
            .build()
        )
        assert isinstance(q.operator, Selection)

    def test_projecting_select_with_where_is_filtered_projection(self):
        q = (
            plan()
            .window(rows=64)
            .select("timestamp", "cpu")
            .where(col("eventType").eq(2))
            .build()
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, Projection)

    def test_select_forms_and_schema_inference(self):
        q = (
            plan()
            .unbounded()
            .select(
                "timestamp",
                ("halfCpu", col("cpu") / 2),
                ("bucket", col("jobId") % 16, "int"),
                doubled=col("cpu") * 2,
            )
            .build()
        )
        out = q.operator.output_schema
        assert out.attribute_names == ("timestamp", "halfCpu", "bucket", "doubled")
        assert out.attribute("bucket").type_name == "int"
        assert out.attribute("halfCpu").type_name == "float"

    def test_distinct_select(self):
        q = (
            plan()
            .window(time=30, slide=1)
            .select("category")
            .distinct()
            .build()
        )
        assert isinstance(q.operator, DistinctProjection)

    def test_distinct_with_where_filters_inside_windows(self):
        q = (
            plan()
            .window(time=30, slide=1)
            .where(col("eventType").eq(2))
            .select("category")
            .distinct()
            .build()
        )
        assert isinstance(q.operator, FilteredWindows)
        assert isinstance(q.operator.inner, DistinctProjection)

    def test_derived_group_key(self):
        q = (
            plan()
            .window(time=300, slide=1)
            .group_by("category", agg.avg("cpu", "a"), bucket=(col("jobId") % 8, "int"))
            .having(col("a") < 40.0)
            .build()
        )
        op = q.operator
        assert op.group_columns == ["category", "bucket"]
        assert op.having is not None

    def test_having_calls_and_combine(self):
        # Like where(): chaining must narrow, not replace.
        q = (
            plan()
            .window(time=300, slide=1)
            .group_by("category", agg.avg("cpu", "a"), agg.count(alias="n"))
            .having(col("a") < 40.0)
            .having(col("n") > 5)
            .build()
        )
        having = q.operator.having
        assert having.references() == {"a", "n"}

    def test_join_compiles_to_theta_join(self):
        left = plan().window(time=1, slide=1)
        right = Stream.named("Other", SCHEMA.rename("Other")).window(time=1, slide=1)
        q = left.join(right, on=col("cpu") > col("r_cpu"), rates=(4.0, 1.0)).build("J")
        assert isinstance(q.operator, ThetaJoin)
        assert len(q.windows) == 2
        assert q.input_rates == [4.0, 1.0]

    def test_output_schema_inferred_before_build(self):
        s = plan().window(time=60, slide=1).group_by("category", agg.sum("cpu", "t"))
        assert s.output_schema.attribute_names == ("timestamp", "category", "t")

    def test_plans_are_immutable_and_reusable(self):
        base = plan().window(rows=128)
        a = base.where(col("cpu") > 0.5).build("a")
        b = base.select("timestamp", "cpu").build("b")
        assert isinstance(a.operator, Selection)
        assert isinstance(b.operator, Projection)

    def test_source_binding_recorded_on_query(self):
        source = SyntheticSource(seed=1)
        q = Stream.source(source).window(rows=64).where(col("a1") > 0.5).build()
        assert q.bound_sources == [source]


# -- builder: validation errors ------------------------------------------------


class TestBuilderValidation:
    def test_where_unknown_column(self):
        with pytest.raises(BuilderError, match="unknown column"):
            plan().where(col("nope") > 1)

    def test_select_unknown_column(self):
        with pytest.raises(BuilderError, match="unknown column"):
            plan().select("nope")

    def test_select_expression_unknown_column(self):
        with pytest.raises(BuilderError, match="unknown column"):
            plan().select(("x", col("nope") + 1))

    def test_group_by_unknown_key(self):
        with pytest.raises(BuilderError, match="unknown column"):
            plan().group_by("nope", agg.sum("cpu"))

    def test_group_by_without_aggregates(self):
        with pytest.raises(BuilderError, match="agg"):
            plan().window(rows=64).group_by("category").build()

    def test_having_without_group_by(self):
        with pytest.raises(BuilderError, match="group_by"):
            (
                plan()
                .window(rows=64)
                .aggregate(agg.avg("cpu", "a"))
                .having(col("a") > 1)
                .build()
            )

    def test_distinct_with_aggregates(self):
        with pytest.raises(BuilderError, match="distinct"):
            (
                plan()
                .window(rows=64)
                .select("category")
                .distinct()
                .aggregate(agg.avg("cpu"))
                .build()
            )

    def test_window_set_twice(self):
        with pytest.raises(BuilderError, match="already set"):
            plan().window(rows=64).window(time=60)

    def test_window_needs_exactly_one_mode(self):
        with pytest.raises(BuilderError, match="exactly one"):
            plan().window(time=60, rows=64)
        with pytest.raises(BuilderError, match="exactly one"):
            plan().window()

    def test_stateful_plan_requires_window(self):
        with pytest.raises(BuilderError, match="window"):
            plan().group_by("category", agg.sum("cpu")).build()

    def test_stateless_plan_requires_explicit_window_choice(self):
        with pytest.raises(BuilderError, match="unbounded"):
            plan().select("timestamp", "cpu").build()

    def test_unbounded_rejects_stateful_plan(self):
        with pytest.raises(BuilderError, match="stateless"):
            plan().unbounded().aggregate(agg.sum("cpu")).build()

    def test_join_requires_windows_both_sides(self):
        left = plan().window(time=1, slide=1)
        right = Stream.named("Other", SCHEMA.rename("Other"))
        with pytest.raises(BuilderError, match="window"):
            left.join(right, on=col("cpu") > col("r_cpu"))

    def test_join_predicate_unknown_column(self):
        left = plan().window(time=1, slide=1)
        right = Stream.named("Other", SCHEMA.rename("Other")).window(time=1, slide=1)
        with pytest.raises(BuilderError, match="unknown column"):
            left.join(right, on=col("cpu") > col("missing"))

    def test_empty_plan(self):
        with pytest.raises(BuilderError, match="empty plan"):
            plan().window(rows=64).build()

    def test_source_without_schema(self):
        with pytest.raises(BuilderError, match="schema"):
            Stream.source(object())

    def test_source_without_next_tuples(self):
        class SchemaOnly:
            schema = SCHEMA

        with pytest.raises(BuilderError, match="next_tuples"):
            Stream.source(SchemaOnly())

    def test_builder_errors_are_query_and_saber_errors(self):
        with pytest.raises(QueryError):
            plan().where(col("nope") > 1)
        with pytest.raises(SaberError):
            plan().where(col("nope") > 1)


# -- session -------------------------------------------------------------------


def session_config(**overrides):
    defaults = dict(
        task_size_bytes=300 * TUPLE_SIZE,
        cpu_workers=3,
        queue_capacity=8,
    )
    defaults.update(overrides)
    return defaults


def agg_plan(source):
    return (
        Stream.source(source)
        .window(rows=200, slide=100)
        .aggregate(agg.sum("a1", "s"))
    )


class TestSession:
    def test_sql_end_to_end(self):
        with SaberSession(**session_config()) as session:
            session.register_stream("Syn", SyntheticSource(seed=5))
            handle = session.sql(
                "select timestamp, a2, sum(a1) as total "
                "from Syn [rows 256 slide 64] group by a2",
                name="totals",
            )
            report = session.run(tasks_per_query=8)
            assert handle.output_rows > 0
            assert report.output_rows["totals"] == handle.output_rows
            out = handle.output()
            assert "total" in out.schema

    def test_sql_unknown_stream(self):
        from repro.errors import CQLSyntaxError

        with SaberSession(**session_config()) as session:
            session.register_stream("Syn", SyntheticSource(seed=5))
            with pytest.raises(CQLSyntaxError, match="unknown stream"):
                session.sql("select timestamp from Nope [rows 4]")

    def test_submit_resolves_bound_sources(self):
        with SaberSession(**session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.run(tasks_per_query=4)
            assert handle.output_rows > 0

    def test_submit_stream_plan_directly(self):
        with SaberSession(**session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)), name="agg")
            session.run(tasks_per_query=4)
            assert handle.name == "agg"
            assert handle.output_rows > 0

    def test_submit_resolves_registry_by_plan_stream_name(self):
        # Regression: built queries must resolve under the Stream.named
        # name even when it differs from the schema's name (LRB's FROM
        # clause is SegSpeedStr over the PosSpeedStr schema).
        from repro.workloads.linearroad import LinearRoadSource, lrb1_query

        with SaberSession(**session_config()) as session:
            session.register_stream(
                "SegSpeedStr", LinearRoadSource(seed=2, tuples_per_second=128)
            )
            handle = session.submit(lrb1_query())
            session.run(tasks_per_query=3)
            assert handle.output_rows > 0

    def test_submit_resolves_registry_by_schema_name(self):
        q = (
            Stream.named("Syn", SYNTHETIC_SCHEMA)
            .window(rows=128)
            .where(col("a1") > 0.5)
            .build("sel")
        )
        with SaberSession(**session_config()) as session:
            session.register_stream("Syn", SyntheticSource(seed=9))
            handle = session.submit(q)
            session.run(tasks_per_query=4)
            assert handle.output_rows > 0

    def test_submit_without_resolvable_source(self):
        q = agg_plan(SyntheticSource(seed=3)).build()
        q.bound_sources = None
        with SaberSession(**session_config()) as session:
            with pytest.raises(SessionError, match="unknown stream"):
                session.submit(q)

    def test_submit_after_run_rejected(self):
        with SaberSession(**session_config()) as session:
            session.submit(agg_plan(SyntheticSource(seed=3)).build("a"))
            session.run(tasks_per_query=2)
            with pytest.raises(SessionError, match="submit"):
                session.submit(agg_plan(SyntheticSource(seed=4)).build("b"))

    def test_duplicate_query_name_rejected(self):
        with SaberSession(**session_config()) as session:
            session.submit(agg_plan(SyntheticSource(seed=3)).build("a"))
            with pytest.raises(SessionError, match="duplicate"):
                session.submit(agg_plan(SyntheticSource(seed=4)).build("a"))

    def test_run_without_queries_rejected(self):
        with SaberSession(**session_config()) as session:
            with pytest.raises(SessionError, match="no queries"):
                session.run(tasks_per_query=2)

    def test_config_object_and_kwargs_are_exclusive(self):
        from repro.core.engine import SaberConfig

        with pytest.raises(SessionError):
            SaberSession(SaberConfig(), cpu_workers=2)

    def test_drain_is_terminal(self):
        # Flushing open windows is end-of-stream: running further would
        # re-emit the flushed window ids from their tail fragments.
        with SaberSession(**session_config()) as session:
            session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.run(tasks_per_query=2)
            session.stop(drain=True)
            with pytest.raises(SessionError, match="drained"):
                session.run(tasks_per_query=2)

    def test_self_join_rejects_shared_registered_source(self):
        with SaberSession(**session_config()) as session:
            session.register_stream("Syn", SyntheticSource(seed=5))
            with pytest.raises(SessionError, match="same registered source"):
                session.sql(
                    "select timestamp from Syn [rows 4], Syn [rows 4] "
                    "where a1 > r_a1"
                )

    def test_simulation_only_sql_needs_no_sources(self):
        # execute_data=False discards sources, so sql() must not resolve
        # (or distinct-check) them — a sim-only self-join is legitimate.
        from repro.core.engine import SaberConfig

        config = SaberConfig(execute_data=False, collect_output=False)
        with SaberSession(config) as session:
            session.register_stream("Syn", SyntheticSource(seed=5))
            handle = session.sql(
                "select timestamp from Syn [rows 64], Syn [rows 64] "
                "where a1 > r_a1"
            )
            assert handle.query.arity == 2

    def test_threads_incremental_runs_keep_a_monotonic_clock(self):
        # Each incremental threads run must continue the engine clock, so
        # cumulative measurements span the combined processing time
        # instead of overlaying every run onto [0, T].
        with SaberSession(execution="threads", **session_config()) as session:
            session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.run(tasks_per_query=4)
            first = max(r.completed for r in session.engine.measurements.records)
            session.run(tasks_per_query=4)
            later = [
                r.completed
                for r in list(session.engine.measurements.records)[4:]
            ]
            assert min(later) > first

    def test_incremental_runs_accumulate(self):
        with SaberSession(**session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.run(tasks_per_query=4)
            first_tasks, first_rows = handle.tasks_completed, handle.output_rows
            session.run(tasks_per_query=4)
            assert first_tasks == 4
            assert handle.tasks_completed == 8
            assert handle.output_rows > first_rows

    def test_results_iterates_all_chunks(self):
        with SaberSession(**session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.run(tasks_per_query=6)
            chunks = list(handle.results())
            assert chunks
            total = sum(len(c) for c in chunks)
            assert total == handle.output_rows

    def test_results_releases_consumed_chunks(self):
        # Regression: unbounded streaming must not accumulate output in
        # the handle — results() is a consuming, deliver-once iterator.
        with SaberSession(**session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.run(tasks_per_query=6)
            first = list(handle.results())
            assert first and not len(handle.backlog)
            assert list(handle.results()) == []

    def test_sinks_receive_full_rows_without_output_collection(self):
        # collect_output governs retention, not delivery: the streaming
        # mode (collect_output=False + sinks) must still see every row
        # while the engine retains nothing.
        seen = []
        with SaberSession(collect_output=False, **session_config()) as session:
            handle = session.submit(
                agg_plan(SyntheticSource(seed=3)).build("agg"),
                sink=lambda rows: seen.append(len(rows)),
            )
            session.run(tasks_per_query=6)
            assert sum(seen) == handle.output_rows > 0
            stage = session.engine.runs[0].result_stage
            assert stage.emitted == []           # nothing retained
            assert handle.output() is None       # retention was off

    def test_submit_honors_name_for_built_queries(self):
        with SaberSession(**session_config()) as session:
            a = session.submit(
                agg_plan(SyntheticSource(seed=3)).build("agg"), name="run-a"
            )
            b = session.submit(
                agg_plan(SyntheticSource(seed=4)).build("agg"), name="run-b"
            )
            session.run(tasks_per_query=2)
            assert (a.name, b.name) == ("run-a", "run-b")
            assert a.output_rows > 0 and b.output_rows > 0

    def test_sink_takes_over_buffering(self):
        with SaberSession(**session_config()) as session:
            handle = session.submit(
                agg_plan(SyntheticSource(seed=3)).build("agg"),
                sink=lambda rows: None,
            )
            session.run(tasks_per_query=6)
            assert not len(handle.backlog)       # sinks consumed everything
            assert handle.output_rows > 0        # engine-side output intact

    def test_unconsumed_backlog_is_bounded(self):
        # A backlog keeps at most its cap; the oldest entries are dropped
        # and counted, so an unconsumed long-lived run stays bounded.
        backlog = ChunkBacklog(2)
        for window, rows in ((0, "a"), (None, "b"), (2, "c"), (None, "d")):
            backlog.append(window, rows)
        assert len(backlog) == 2 and backlog.dropped == 2
        assert backlog.drain(8, timeout=0.0) == [(2, "c"), (None, "d")]
        assert backlog.drain(8, timeout=0.0) == [] and not backlog.exhausted
        backlog.close()
        assert backlog.exhausted and list(backlog) == []
        with pytest.raises(SessionError, match="max_buffered"):
            ChunkBacklog(0)

    def test_drain_waits_past_the_platform_timeout_cap(self):
        backlog = ChunkBacklog()
        threading.Timer(0.05, backlog.append, (None, "late")).start()
        assert backlog.drain(1, timeout=1e12) == [(None, "late")]

    def test_sql_caps_the_handle_backlog(self):
        with SaberSession(**session_config()) as session:
            session.register_stream("Syn", SyntheticSource(seed=3))
            handle = session.sql(
                "select timestamp, a2, sum(a1) as total from Syn "
                "[rows 64 slide 64] group by a2",
                max_buffered=2,
            )
            session.run(tasks_per_query=6)
            assert handle.dropped_chunks > 0 and len(handle.backlog) == 2
            assert len(handle.drain(8, timeout=0.0)) == 2

    def test_results_auto_runs_idle_session(self):
        with SaberSession(tasks_per_query=4, **session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            chunks = list(handle.results())      # triggers the default run
            assert chunks and handle.tasks_completed == 4

    def test_sink_callback_sees_every_row(self):
        seen = []
        with SaberSession(**session_config()) as session:
            handle = session.submit(
                agg_plan(SyntheticSource(seed=3)).build("agg"),
                sink=lambda rows: seen.append(len(rows)),
            )
            session.run(tasks_per_query=6)
            assert sum(seen) == handle.output_rows

    def test_closed_session_rejects_work(self):
        session = SaberSession(**session_config())
        session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
        session.close()
        with pytest.raises(SessionError, match="closed"):
            session.run(tasks_per_query=2)


class TestSessionBackgroundRuns:
    @pytest.mark.parametrize("execution", ["sim", "threads"])
    def test_start_stop_drains_in_flight_work(self, execution):
        with SaberSession(execution=execution, **session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.start()                      # unbounded background run
            consumed = 0
            for __ in handle.results():
                consumed += 1
                if consumed >= 3:
                    break
            report = session.stop()
            assert consumed >= 3
            assert report is not None
            # Cooperative stop: every dispatched task completed.
            run = session.engine.runs[0]
            assert run.tasks_completed == run.tasks_dispatched > 0

    def test_stop_with_drain_flushes_open_windows(self):
        # A 1000-row window over 4 × 250-row tasks never closes within the
        # run; drain=True finalises it.
        source = SyntheticSource(seed=3)
        q = (
            Stream.source(source)
            .window(rows=1000, slide=1000)
            .aggregate(agg.sum("a1", "s"))
            .build("agg")
        )
        with SaberSession(
            task_size_bytes=250 * TUPLE_SIZE, cpu_workers=2
        ) as session:
            handle = session.submit(q)
            session.run(tasks_per_query=3)
            assert handle.output_rows == 0
            report = session.stop(drain=True)
            assert handle.output_rows == 1
            assert report.output_rows["agg"] == 1

    def test_background_run_streams_incrementally(self):
        with SaberSession(execution="threads", **session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            arrived = threading.Event()
            handle.add_sink(lambda rows: arrived.set())
            session.start(tasks_per_query=12)
            assert arrived.wait(timeout=30.0)    # results flow mid-run
            report = session.wait(timeout=60.0)  # bounded run completes
            assert report is not None
            assert handle.tasks_completed == 12

    def test_stop_halts_a_blocking_run_in_another_thread(self):
        # stop() keys off the run state, not the background-thread handle,
        # so it also lands on a blocking run() driven from another thread.
        with SaberSession(execution="threads", **session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            runner = threading.Thread(
                target=lambda: session.run(tasks_per_query=1 << 30), daemon=True
            )
            runner.start()
            while handle.tasks_completed < 2:    # run is demonstrably live
                pass
            session.stop()
            runner.join(timeout=60.0)
            assert not runner.is_alive()
            run = session.engine.runs[0]
            assert run.tasks_completed == run.tasks_dispatched < (1 << 30)

    def test_stop_ignores_stale_thread_from_a_finished_background_run(self):
        # A background run that completed on its own must not leave a
        # dead thread handle that satisfies a stop() aimed at a later
        # blocking run driven from another thread.
        with SaberSession(execution="threads", **session_config()) as session:
            handle = session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.start(tasks_per_query=3)
            assert session.wait(timeout=60.0) is not None
            runner = threading.Thread(
                target=lambda: session.run(tasks_per_query=1 << 30), daemon=True
            )
            runner.start()
            while handle.tasks_completed < 5:     # second run demonstrably live
                pass
            session.stop()                        # must land on the live run
            runner.join(timeout=60.0)
            assert not runner.is_alive()
            run = session.engine.runs[0]
            assert run.tasks_completed == run.tasks_dispatched < (1 << 30)

    def test_unreaped_background_failure_surfaces_on_next_run(self):
        class ExplodingSource:
            schema = SYNTHETIC_SCHEMA

            def __init__(self):
                self._inner = SyntheticSource(seed=1)
                self._served = 0

            def next_tuples(self, count):
                self._served += count
                if self._served > 600:
                    raise RuntimeError("source exploded")
                return self._inner.next_tuples(count)

        with SaberSession(**session_config()) as session:
            session.submit(
                Stream.source(ExplodingSource())
                .window(rows=100)
                .where(col("a1") > 0)
                .build("bad")
            )
            session.start(tasks_per_query=50)
            assert session._run_done.wait(timeout=60.0)
            # The failure must not be silently discarded by the next run.
            with pytest.raises(RuntimeError, match="source exploded"):
                session.run(tasks_per_query=2)

    def test_double_start_rejected(self):
        with SaberSession(**session_config()) as session:
            session.submit(agg_plan(SyntheticSource(seed=3)).build("agg"))
            session.start(tasks_per_query=100)
            try:
                with pytest.raises(SessionError, match="already active"):
                    session.run(tasks_per_query=2)
            finally:
                session.stop()


class TestSessionBackendEquivalence:
    def test_sql_query_identical_across_backends(self):
        def run(execution):
            with SaberSession(execution=execution, **session_config()) as session:
                session.register_stream("Syn", SyntheticSource(seed=11))
                handle = session.sql(
                    "select timestamp, a2, sum(a1) as total "
                    "from Syn [rows 256 slide 64] group by a2",
                    name="totals",
                )
                session.run(tasks_per_query=8)
                return handle.output()

        sim, threads = run("sim"), run("threads")
        assert np.array_equal(sim.data, threads.data)
