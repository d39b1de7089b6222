"""Composed operators run in one pass: which chains compose, and
bitwise equivalence with the materialising oracle.

``FilteredWindows`` / ``ProjectedWindows`` hand their inner operator
lazily gathered / projected columns instead of an intermediate
``TupleBatch``.  That must be invisible: identical complete rows,
partial payloads, closed window ids and stats to running every stage
materialised (``tests/reference.py::process_materialised``).
"""

import pickle

import numpy as np
import pytest

from reference import process_materialised
from repro.api import SaberSession, Stream, agg
from repro.core.engine import SaberConfig, SaberEngine
from repro.core.fusion import fuse_operator
from repro.errors import BuilderError, QueryError
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.compose import FilteredWindows, ProjectedWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import Projection
from repro.operators.selection import Selection
from repro.operators.udf import WindowUdf, partition_join
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import (
    SYNTHETIC_SCHEMA,
    SyntheticSource,
    select_project_query,
)

SCHEMA = Schema.with_timestamp("v:float, k:int, w:int")


def batch(start, stop, seed=3):
    idx = np.arange(start, stop)
    rng = np.random.default_rng(seed + start)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=idx.astype(np.int64),
        v=rng.random(stop - start).astype(np.float32),
        k=(idx % 3).astype(np.int32),
        w=rng.integers(0, 50, size=stop - start).astype(np.int32),
    )


def sl(data, window, start=0):
    ws = assign_count_windows(window, start, start + len(data))
    return StreamSlice(data, ws, start)


def chains(predicate=None):
    """(label, composed chain) pairs covering every shape the builder emits."""
    predicate = predicate if predicate is not None else col("k").eq(1) | (col("w") < 25)
    projection = Projection(
        SCHEMA,
        [("timestamp", col("timestamp")), ("scaled", col("v") * 3.0 + 1.0)],
        output_types={"scaled": "float"},
    )
    aggregation = GroupedAggregation(
        projection.output_schema,
        [],
        [AggregateSpec("sum", "scaled"), AggregateSpec("min", "scaled")],
    )
    return [
        (
            "filter-project",
            FilteredWindows(predicate, Projection(SCHEMA, [("v", col("v")), ("k", col("k"))])),
        ),
        (
            "filter-distinct",
            FilteredWindows(predicate, DistinctProjection(SCHEMA, [("k", col("k"))])),
        ),
        (
            "filter-aggregate",
            FilteredWindows(
                predicate,
                GroupedAggregation(
                    SCHEMA, [], [AggregateSpec("avg", "v"), AggregateSpec("max", "v")]
                ),
            ),
        ),
        (
            "filter-groupby",
            FilteredWindows(
                predicate,
                GroupedAggregation(SCHEMA, ["k"], [AggregateSpec("sum", "v")]),
            ),
        ),
        ("project-aggregate", ProjectedWindows(projection, aggregation)),
        (
            "filter-project-aggregate",
            FilteredWindows(predicate, ProjectedWindows(projection, aggregation)),
        ),
    ]


LABELS = [label for label, __ in chains()]


def stages(chain):
    """(predicate or None, projection or None, terminal) of a chain."""
    predicate = projection = None
    if isinstance(chain, FilteredWindows):
        predicate, chain = chain.predicate, chain.inner
    if isinstance(chain, ProjectedWindows):
        projection, chain = chain.projection, chain.inner
    return predicate, projection, chain


def assert_same_result(a, b):
    """Bitwise: complete rows, the run and stats."""
    assert (a.complete is None) == (b.complete is None)
    if a.complete is not None:
        assert a.complete.schema.attribute_names == b.complete.schema.attribute_names
        assert a.complete.data.tobytes() == b.complete.data.tobytes()
    assert pickle.dumps(a.partials) == pickle.dumps(b.partials)
    assert a.stats == b.stats


def udf_with_arity_one():
    out = Schema.parse("n:long")
    return WindowUdf(
        [SCHEMA],
        out,
        lambda windows: TupleBatch.from_columns(
            out, n=np.array([len(windows[0])], dtype=np.int64)
        ),
    )


class TestEligibility:
    """Both composers take only inner operators that read columns."""

    def test_bare_operators_decline(self):
        selection = Selection(SCHEMA, col("k").eq(0))
        aggregation = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v")])
        with pytest.raises(QueryError, match="not Selection"):
            FilteredWindows(col("w") < 5, selection)
        with pytest.raises(QueryError, match="not Selection"):
            ProjectedWindows(
                Projection(SCHEMA, [(n, col(n)) for n in SCHEMA.attribute_names]), selection
            )
        # Two predicates are one conjunction, not a chain of composers.
        with pytest.raises(QueryError, match="not FilteredWindows"):
            FilteredWindows(col("w") < 5, FilteredWindows(col("k").eq(0), aggregation))

    def test_joins_decline(self):
        join = ThetaJoin(SCHEMA, SCHEMA.rename("R"), col("k").eq(col("r_k")))
        with pytest.raises(QueryError, match="not ThetaJoin"):
            FilteredWindows(col("k").eq(0), join)

    def test_multi_input_udfs_decline(self):
        out = Schema.parse("n:long")
        udf = partition_join(
            [SCHEMA, SCHEMA], "k", out, lambda parts: TupleBatch.empty(out)
        )
        assert udf.arity == 2
        with pytest.raises(QueryError, match="not WindowUdf"):
            FilteredWindows(col("k").eq(0), udf)

    def test_filtered_udf_declines(self):
        # Arity-1 UDFs slice raw fragment rows, which the lazy column
        # views cannot serve: refused when the chain is built.
        with pytest.raises(QueryError, match="not WindowUdf"):
            FilteredWindows(col("k").eq(0), udf_with_arity_one())

    @pytest.mark.parametrize(
        "projection",
        [
            Selection(SYNTHETIC_SCHEMA, col("a5") < 16384),
            DistinctProjection(
                SYNTHETIC_SCHEMA, [(n, col(n)) for n in SYNTHETIC_SCHEMA.attribute_names]
            ),
        ],
        ids=["Selection", "DistinctProjection"],
    )
    def test_projection_that_drops_rows_is_rejected(self, projection):
        # Fragment bounds carry over unchanged only for a 1:1 projection;
        # this used to build and die in the first task with an IndexError.
        with pytest.raises(QueryError, match="1:1 Projection"):
            ProjectedWindows(
                projection, GroupedAggregation(SYNTHETIC_SCHEMA, [], [AggregateSpec("count", None)])
            )

    @pytest.mark.parametrize("label,chain", chains(), ids=LABELS)
    def test_compose_chains_fuse(self, label, chain, monkeypatch):
        # The terminal operator reads lazy columns, never an
        # intermediate TupleBatch: no stage boundary is materialised.
        predicate, __, terminal = stages(chain)
        seen = []
        run_terminal = terminal.process_batch

        def spy(inputs):
            seen.append(inputs[0].batch)
            return run_terminal(inputs)

        monkeypatch.setattr(terminal, "process_batch", spy)
        data = batch(0, 64)
        chain.process_batch([sl(data, WindowDefinition.rows(16, 4))])
        assert len(seen) == 1 and not isinstance(seen[0], TupleBatch)
        survivors = int(predicate.evaluate(data).sum()) if predicate is not None else len(data)
        assert len(seen[0]) == survivors
        assert chain.output_schema is terminal.output_schema

    def test_fused_cost_profile_is_one_unit(self):
        # One profile for the whole chain: the predicate tree, summed
        # arithmetic, the terminal's aggregate shape.
        for label, chain in chains():
            predicate, projection, terminal = stages(chain)
            profile, inner = chain.cost_profile(), terminal.cost_profile()
            ops = inner.ops_per_tuple
            if projection is not None:
                ops += projection.cost_profile().ops_per_tuple
            assert profile.kind == inner.kind, label
            assert profile.ops_per_tuple == ops, label
            assert profile.predicate_tree is (predicate or inner.predicate_tree), label
            assert profile.aggregate_count == inner.aggregate_count, label
            assert profile.has_group_by == inner.has_group_by, label


class TestBitwiseEquivalence:
    """Same slices through the one-pass chain and the materialising
    oracle: identical complete rows, partials, closed ids and stats."""

    @pytest.mark.parametrize("label,chain", chains(), ids=LABELS)
    def test_single_task(self, label, chain):
        w = WindowDefinition.rows(16, 4)
        for start, stop in [(0, 64), (64, 100)]:
            a = process_materialised(chain, [sl(batch(start, stop), w, start)])
            b = chain.process_batch([sl(batch(start, stop), w, start)])
            assert_same_result(a, b)

    @pytest.mark.parametrize("label,chain", chains(), ids=LABELS)
    def test_cross_task_assembly(self, label, chain):
        w = WindowDefinition.rows(24, 24)
        a1 = process_materialised(chain, [sl(batch(0, 15), w)])
        a2 = process_materialised(chain, [sl(batch(15, 24), w, start=15)])
        b1 = chain.process_batch([sl(batch(0, 15), w)])
        b2 = chain.process_batch([sl(batch(15, 24), w, start=15)])
        assert_same_result(a1, b1)
        assert_same_result(a2, b2)
        if not len(a1.partials):
            # Stateless terminals (π) emit per tuple: no window payloads.
            assert label == "filter-project"
            return
        window = np.array([0])
        rows_a, __ = chain.assemble_windows(window, [a1.partials, a2.partials])
        rows_b, __ = chain.assemble_windows(window, [b1.partials, b2.partials])
        assert rows_a is not None and rows_b is not None
        assert rows_a.data.tobytes() == rows_b.data.tobytes()

    def test_empty_batch(self):
        for label, chain in chains():
            w = WindowDefinition.rows(8, 8)
            a = process_materialised(chain, [sl(batch(0, 0), w)])
            b = chain.process_batch([sl(batch(0, 0), w)])
            assert_same_result(a, b)

    def test_nothing_survives_the_predicate(self):
        for label, chain in chains(predicate=col("w") < -1):
            if not isinstance(chain, FilteredWindows):
                continue
            w = WindowDefinition.rows(8, 8)
            a = process_materialised(chain, [sl(batch(0, 32), w)])
            b = chain.process_batch([sl(batch(0, 32), w)])
            assert_same_result(a, b)
            assert b.stats["selectivity"] == 0.0, label


def test_add_query_leaves_the_query_untouched():
    query = select_project_query(3)
    before = dict(vars(query))
    engine = SaberEngine(SaberConfig(task_size_bytes=8 << 10, cpu_workers=2))
    engine.add_query(query, [SyntheticSource(seed=1)])
    engine.run(tasks_per_query=2)
    assert vars(query) == before


def test_benchmark_stubs_run_the_operator_as_is():
    # The traced saberbench pass still calls these two names.
    query = select_project_query(3)
    assert fuse_operator(query.operator) is None
    assert query.execution_operator is query.operator


class TestBuilderProjectedAggregation:
    def test_select_aggregate_compiles_to_projected_windows(self):
        plan = (
            Stream.named("Syn", SYNTHETIC_SCHEMA)
            .window(rows=128, slide=32)
            .select(("scaled", col("a1") * 2.0))
            .aggregate(agg.sum("scaled", "total"))
        )
        query = plan.build("pi-alpha")
        assert isinstance(query.operator, ProjectedWindows)
        assert isinstance(query.operator.inner, GroupedAggregation)
        assert query.operator.inner.group_columns == []
        assert query.operator.output_schema.attribute_names == ("timestamp", "total")

    def test_where_select_aggregate_compiles_to_full_chain(self):
        plan = (
            Stream.named("Syn", SYNTHETIC_SCHEMA)
            .window(rows=128, slide=32)
            .where(col("a3") < 1000)
            .select(("scaled", col("a1") * 2.0))
            .aggregate(agg.max("scaled", "peak"))
        )
        operator = plan.build("spa").operator
        assert isinstance(operator, FilteredWindows)
        assert isinstance(operator.inner, ProjectedWindows)
        assert isinstance(operator.inner.inner, GroupedAggregation)
        assert operator.inner.inner.group_columns == []

    def test_aggregate_over_unprojected_column_rejected(self):
        plan = (
            Stream.named("Syn", SYNTHETIC_SCHEMA)
            .window(rows=128, slide=32)
            .select(("scaled", col("a1") * 2.0))
        )
        with pytest.raises(BuilderError):
            plan.aggregate(agg.sum("nope", "total"))
        # Referencing a raw input column the select list drops fails at
        # build: the aggregation consumes the *projected* schema.
        with pytest.raises(BuilderError):
            plan.aggregate(agg.sum("a1", "total")).build("bad")

    def test_grouped_plans_keep_rejecting_computed_select_items(self):
        plan = (
            Stream.named("Syn", SYNTHETIC_SCHEMA)
            .window(rows=128, slide=32)
            .select(("scaled", col("a1") * 2.0))
            .group_by("a2", agg.sum("a1", "total"))
        )
        with pytest.raises(BuilderError):
            plan.build("bad")

    def test_builder_chain_matches_hand_built(self):
        plan = (
            Stream.named("Syn", SYNTHETIC_SCHEMA)
            .window(rows=256, slide=64)
            .where(col("a5") < 32768)
            .select(("scaled", col("a1") * 2.0 + 1.0), ("scaled2", col("a1") * 2.0 + 2.0))
            .aggregate(agg.sum("scaled", "total"), agg.min("scaled2", "low"))
        )
        source = SyntheticSource(seed=9)
        with SaberSession(
            SaberConfig(task_size_bytes=8 << 10, cpu_workers=2, collect_output=True)
        ) as session:
            handle = session.submit(plan, sources=[source], name="chain")
            session.run(tasks_per_query=5)
            out = handle.output()
        assert out is not None and len(out)
        assert out.schema.attribute_names == ("timestamp", "total", "low")
