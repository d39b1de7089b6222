"""Synthetic workload (Table 1, "Syn").

32-byte tuples: a 64-bit timestamp plus six 32-bit attributes drawn from
a uniform distribution (the first attribute a float for aggregation and
projection queries, the rest integers).  Query generators produce the
paper's parameterised operators:

* ``proj_query(m)``        — PROJ_m: project m attributes (with optional
  extra arithmetic expressions per attribute, PROJ6*'s 100);
* ``select_query(n)``      — SELECT_n: conjunction of n predicates;
* ``agg_query(f)``         — AGG_f for f ∈ {avg, sum, ...};
* ``groupby_query(o)``     — AGG with GROUP-BY over o groups;
* ``join_query(r)``        — JOIN_r: θ-join with r predicates.
"""

from __future__ import annotations

import numpy as np

from ..core.query import Query
from ..errors import int_range, non_negative_int, positive_int, tuple_rate
from ..io.base import GeneratorSource
from ..operators.aggregate_functions import AggregateSpec
from ..operators.compose import FilteredWindows, ProjectedWindows
from ..operators.groupby import GroupedAggregation
from ..operators.join import ThetaJoin
from ..operators.projection import Projection
from ..operators.selection import Selection
from ..relational.expressions import Expression, Predicate, col, conjunction
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from ..windows.definition import WindowDefinition

#: 8-byte timestamp + float + 5 ints = 32 bytes, the paper's tuple layout.
SYNTHETIC_SCHEMA = Schema.with_timestamp(
    "a1:float, a2:int, a3:int, a4:int, a5:int, a6:int", name="Syn"
)

TUPLE_SIZE = SYNTHETIC_SCHEMA.tuple_size  # 32 bytes

#: integer attributes are uniform over [0, VALUE_RANGE).
VALUE_RANGE = 1 << 16


class SyntheticSource(GeneratorSource):
    """Uniform stream of 32-byte tuples (a connector-SPI source).

    ``tuples_per_second`` fixes the logical-time density: timestamps
    advance one unit per ``tuples_per_second`` tuples (used by time-based
    windows; count-based queries ignore it).  Unbounded by default;
    ``limit`` makes the stream finite (it ends with
    :class:`~repro.errors.EndOfStream` after that many tuples).
    """

    def __init__(
        self,
        schema: Schema = SYNTHETIC_SCHEMA,
        seed: int = 1,
        tuples_per_second: int = 1024,
        groups: int = 64,
        limit: "int | None" = None,
    ) -> None:
        super().__init__(schema, limit=limit)
        self._rng = np.random.default_rng(non_negative_int(seed, "seed"))
        self._position = 0
        self._tuples_per_second = tuple_rate(tuples_per_second, "tuples_per_second")
        self._groups = groups

    def generate(self, count: int) -> TupleBatch:
        start = self._position
        self._position += count
        indices = np.arange(start, start + count, dtype=np.int64)
        columns = {"timestamp": indices // self._tuples_per_second}
        for attr in self.schema.attributes[1:]:
            if attr.type_name == "float":
                columns[attr.name] = self._rng.random(count, dtype=np.float32)
            else:
                high = self._groups if attr.name == "a2" else VALUE_RANGE
                columns[attr.name] = self._rng.integers(
                    0, high, size=count, dtype=np.int64
                ).astype(np.int32)
        return TupleBatch.from_columns(self.schema, **columns)


def _window(size_bytes: int, slide_bytes: int) -> WindowDefinition:
    """ω(size, slide) expressed in bytes, as the paper writes ω32KB,32KB."""
    return WindowDefinition.rows(
        max(1, size_bytes // TUPLE_SIZE), max(1, slide_bytes // TUPLE_SIZE)
    )


def _fragments_per_task(window: "WindowDefinition | None", tuples: int) -> float:
    """Expected window fragments in a task of ``tuples`` rows."""
    if window is None:
        return 0.0
    if window.is_count_based:
        return tuples / window.slide + window.size / window.slide
    return float(tuples)  # time-based density is source-specific


def _stateless_stat_model(
    window: "WindowDefinition | None",
    selectivity: float,
    output_tuple_size: int,
):
    """Analytic per-task statistics for projection/selection queries."""

    def model(tuples: int) -> "dict[str, float]":
        return {
            "selectivity": selectivity,
            "fragments": _fragments_per_task(window, tuples),
            "output_bytes": selectivity * tuples * output_tuple_size,
        }

    return model


def _aggregation_stat_model(
    window: WindowDefinition, output_row_size: int, groups: float = 1.0
):
    def model(tuples: int) -> "dict[str, float]":
        fragments = _fragments_per_task(window, tuples)
        return {
            "selectivity": 1.0,
            "fragments": fragments,
            "groups": groups,
            "output_bytes": fragments * groups * output_row_size,
        }

    return model


def _join_stat_model(window: WindowDefinition, selectivity: float, out_size: int):
    def model(tuples: int) -> "dict[str, float]":
        per_stream = tuples / 2.0
        windows = per_stream / window.slide
        pairs = windows * float(window.size) * float(window.size)
        return {
            "selectivity": selectivity,
            "fragments": windows,
            "pairs": pairs,
            "output_bytes": selectivity * pairs * out_size,
        }

    return model


def proj_query(
    m: int,
    window: "WindowDefinition | None" = None,
    expressions_per_attribute: int = 1,
    name: "str | None" = None,
) -> Query:
    """PROJ_m, optionally PROJ_m* with extra arithmetic per attribute."""
    int_range(1, 6)(m, "m", ValueError)
    columns: list[tuple[str, Expression]] = [("timestamp", col("timestamp"))]
    attrs = ["a1", "a2", "a3", "a4", "a5", "a6"][:m]
    for attr in attrs:
        expr: Expression = col(attr)
        for k in range(expressions_per_attribute):
            expr = expr + (k + 1)
        columns.append((attr, expr))
    operator = Projection(
        SYNTHETIC_SCHEMA, columns, output_types={a: "float" for a in attrs}
    )
    w = window or _window(32 << 10, 32 << 10)
    return Query(
        name=name or f"PROJ{m}",
        operator=operator,
        windows=[w],
        stat_model=_stateless_stat_model(w, 1.0, operator.output_schema.tuple_size),
    )


def select_query(
    n: int,
    window: "WindowDefinition | None" = None,
    pass_rate: float = 0.5,
    name: "str | None" = None,
) -> Query:
    """SELECT_n: a conjunction of n predicates.

    The first n-1 conjuncts are always true (value < VALUE_RANGE), the
    last passes a ``pass_rate`` fraction — so a short-circuiting CPU
    still evaluates all n atoms (the Fig. 10a regime) while the output
    selectivity stays controllable.
    """
    positive_int(n, "n", ValueError)
    attrs = ["a3", "a4", "a5", "a6"]
    predicates: list[Predicate] = [
        col(attrs[k % len(attrs)]) < VALUE_RANGE + k for k in range(n - 1)
    ]
    # The final conjunct passes a pass_rate fraction of the uniform a5.
    predicates.append(_pass_rate_predicate(pass_rate))
    operator = Selection(
        SYNTHETIC_SCHEMA,
        conjunction(predicates),
        cpu_evals_fn=lambda __sel, n=n: float(n),
    )
    w = window or _window(32 << 10, 32 << 10)
    return Query(
        name=name or f"SELECT{n}",
        operator=operator,
        windows=[w],
        stat_model=_stateless_stat_model(w, pass_rate, TUPLE_SIZE),
    )


def agg_query(
    functions: "str | list[str]" = "avg",
    window: "WindowDefinition | None" = None,
    name: "str | None" = None,
) -> Query:
    """AGG_f over the float attribute (AGG* passes all five functions)."""
    if isinstance(functions, str):
        functions = [functions]
    specs = [
        AggregateSpec(fn, None if fn == "count" else "a1") for fn in functions
    ]
    operator = GroupedAggregation(SYNTHETIC_SCHEMA, [], specs)
    label = name or f"AGG{'_'.join(functions)}"
    w = window or _window(32 << 10, 32 << 10)
    return Query(
        name=label,
        operator=operator,
        windows=[w],
        stat_model=_aggregation_stat_model(w, operator.output_schema.tuple_size),
    )


def groupby_query(
    groups: int,
    functions: "str | list[str]" = "cnt",
    window: "WindowDefinition | None" = None,
    name: "str | None" = None,
) -> Query:
    """GROUP-BY_o: grouped aggregation over ``groups`` distinct keys.

    The source bounds attribute ``a2`` to the group count, so ``groups``
    both parameterises the query label and the actual key cardinality.
    """
    if isinstance(functions, str):
        functions = [functions]
    mapping = {"cnt": "count", "count": "count", "sum": "sum", "avg": "avg"}
    specs = [
        AggregateSpec(mapping.get(fn, fn), None if mapping.get(fn, fn) == "count" else "a1")
        for fn in functions
    ]
    operator = GroupedAggregation(SYNTHETIC_SCHEMA, ["a2"], specs)
    w = window or _window(32 << 10, 32 << 10)
    return Query(
        name=name or f"GROUP-BY{groups}",
        operator=operator,
        windows=[w],
        stat_model=_aggregation_stat_model(
            w, operator.output_schema.tuple_size, groups=float(groups)
        ),
    )


def _pass_rate_predicate(pass_rate: float) -> Predicate:
    """``a5 < threshold``: passes a ``pass_rate`` fraction of tuples."""
    return col("a5") < int(VALUE_RANGE * pass_rate)


def select_project_query(
    m: int,
    pass_rate: float = 0.5,
    window: "WindowDefinition | None" = None,
    name: "str | None" = None,
) -> Query:
    """σ∘π: WHERE plus PROJ_m in one operator chain.

    Compiles to ``FilteredWindows(σ, Projection)``, which runs both
    stages in one pass: the projection reads gathered survivor columns,
    with no intermediate batch.  The stateless-heavy shape of Table 1's
    projection/selection mixes.
    """
    int_range(1, 6)(m, "m", ValueError)
    attrs = ["a1", "a2", "a3", "a4", "a5", "a6"][:m]
    columns: "list[tuple[str, Expression]]" = [("timestamp", col("timestamp"))]
    columns += [(a, col(a)) for a in attrs]
    projection = Projection(
        SYNTHETIC_SCHEMA, columns, output_types={a: "float" for a in attrs}
    )
    operator = FilteredWindows(_pass_rate_predicate(pass_rate), projection)
    w = window or _window(32 << 10, 32 << 10)
    return Query(
        name=name or f"SEL-PROJ{m}",
        operator=operator,
        windows=[w],
        stat_model=_stateless_stat_model(
            w, pass_rate, projection.output_schema.tuple_size
        ),
    )


def spa_query(
    functions: "str | list[str]" = "sum",
    pass_rate: float = 0.5,
    expressions_per_attribute: int = 2,
    window: "WindowDefinition | None" = None,
    name: "str | None" = None,
) -> Query:
    """σ∘π∘α: selection, projection and windowed aggregation chained.

    Survivors of the WHERE are projected through arithmetic expressions
    and the aggregates consume the *computed* column — the full
    three-stage chain (``FilteredWindows(σ, ProjectedWindows(π, α))``),
    run in one pass over lazily gathered and projected columns.
    """
    if isinstance(functions, str):
        functions = [functions]
    expr: Expression = col("a1")
    for k in range(expressions_per_attribute):
        expr = expr * 2.0 + (k + 1)
    projection = Projection(
        SYNTHETIC_SCHEMA,
        [("timestamp", col("timestamp")), ("scaled", expr)],
        output_types={"scaled": "float"},
    )
    specs = [
        AggregateSpec(fn, None if fn == "count" else "scaled") for fn in functions
    ]
    aggregation = GroupedAggregation(projection.output_schema, [], specs)
    operator = FilteredWindows(
        _pass_rate_predicate(pass_rate), ProjectedWindows(projection, aggregation)
    )
    w = window or _window(32 << 10, 32 << 10)
    return Query(
        name=name or f"SPA{'_'.join(functions)}",
        operator=operator,
        windows=[w],
        stat_model=_aggregation_stat_model(w, aggregation.output_schema.tuple_size),
    )


def join_query(
    r: int,
    window: "WindowDefinition | None" = None,
    name: "str | None" = None,
) -> Query:
    """JOIN_r: θ-join of two synthetic streams with r predicates."""
    positive_int(r, "r", ValueError)
    left = SYNTHETIC_SCHEMA.rename("SynL")
    right = SYNTHETIC_SCHEMA.rename("SynR")
    attrs = ["a2", "a3", "a4", "a5", "a6"]
    predicates: list[Predicate] = []
    # First predicate selective (~1% of pairs match, like the paper's §6.2
    # join), the rest always true so the pair-evaluation cost scales with
    # r as in Fig. 10b.
    predicates.append((col("a3") % 100).eq(col("r_a3") % 100))
    for k in range(r - 1):
        attr = attrs[k % len(attrs)]
        predicates.append(col(attr) < VALUE_RANGE + k)
    operator = ThetaJoin(left, right, conjunction(predicates))
    w = window or _window(4 << 10, 4 << 10)
    return Query(
        name=name or f"JOIN{r}",
        operator=operator,
        windows=[w, w],
        stat_model=_join_stat_model(w, 0.01, operator.output_schema.tuple_size),
    )


def window_bytes(size_bytes: int, slide_bytes: int) -> WindowDefinition:
    """Public alias of the byte-denominated window helper."""
    return _window(size_bytes, slide_bytes)
