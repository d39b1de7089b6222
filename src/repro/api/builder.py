"""Fluent, typed query builder: the one public way to express queries.

:class:`Stream` is an immutable plan; every chain step returns a new
plan, validates its arguments against the known input schema *at that
step*, and :meth:`Stream.build` compiles the plan into the engine's
:class:`~repro.core.query.Query` / operator graph (§2.4's window-based
continuous queries)::

    from repro.api import Stream, agg, col

    cm1 = (
        Stream.named("TaskEvents", TASK_EVENTS_SCHEMA)
        .window(time=60, slide=1)
        .group_by("category", agg.sum("cpu", "totalCpu"))
        .build("CM1")
    )

Plan → operator mapping (mirrors the CQL subset; see ``docs/api.md``):

========================================  =====================================
plan shape                                compiled operator
========================================  =====================================
``where`` only / identity ``select``      ``Selection``
``select`` expressions                    ``Projection`` (wrapped in
                                          ``FilteredWindows`` under ``where``)
``select(...).distinct()``                ``DistinctProjection`` (idem)
``aggregate(...)``                        ``GroupedAggregation`` over no
                                          keys (idem)
``select(...).aggregate(...)``            ``ProjectedWindows`` — aggregates
                                          over the *projected* columns (idem)
``group_by(keys..., aggs...)``            ``GroupedAggregation`` (idem)
``a.join(b, on=...)``                     ``ThetaJoin``
========================================  =====================================

Compose chains (``FilteredWindows`` / ``ProjectedWindows``) run all
their stages in one pass over the task's batch, with no intermediate
batch between them (:mod:`repro.operators.compose`).

Validation that the old ad-hoc ``Query`` wiring deferred to run time —
unknown columns, HAVING without GROUP BY, missing windows, window/arity
mismatches — happens here at build time and raises
:class:`~repro.errors.BuilderError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..errors import BuilderError
from ..operators.aggregate_functions import AggregateSpec
from ..operators.base import Operator
from ..operators.compose import FilteredWindows, ProjectedWindows
from ..operators.distinct import DistinctProjection
from ..operators.groupby import GroupedAggregation
from ..operators.join import ThetaJoin
from ..operators.projection import Projection
from ..operators.selection import Selection
from ..relational.expressions import Column, Expression, Predicate, col
from ..relational.schema import Schema
from ..windows.definition import WindowDefinition
from ..core.query import Query

__all__ = ["Stream", "col"]

#: one projected output column: (name, expression, explicit type or None).
_SelectItem = "tuple[str, Expression, str | None]"


@dataclass(frozen=True)
class _Input:
    """One input stream of a plan."""

    name: str
    schema: Schema
    source: Any = None
    window: "WindowDefinition | None" = None
    unbounded: bool = False

    @property
    def windowed(self) -> bool:
        """Whether this input carries a window (or is explicitly unbounded)."""
        return self.window is not None or self.unbounded


def _check_references(
    what: str, references: "set[str]", schema: Schema, extra: "set[str] | None" = None
) -> None:
    known = set(schema.attribute_names) | (extra or set())
    unknown = sorted(references - known)
    if unknown:
        raise BuilderError(
            f"{what} references unknown column(s) {unknown}; "
            f"stream {schema.name!r} has {sorted(schema.attribute_names)}"
        )


@dataclass(frozen=True)
class Stream:
    """An immutable fluent query plan over one (or, after ``join``, two)
    windowed input streams.

    Construct with :meth:`Stream.source` (source in hand) or
    :meth:`Stream.named` (schema only; a
    :class:`~repro.api.SaberSession` binds the source by stream name at
    submit time).
    """

    _inputs: "tuple[_Input, ...]"
    _join_on: "Predicate | None" = None
    _right_prefix: str = "r_"
    _rates: "tuple[float, ...] | None" = None
    _where: "Predicate | None" = None
    _cpu_evals_fn: "Callable[[float], float] | None" = None
    _select: "tuple[tuple[str, Expression, str | None], ...]" = ()
    _distinct: bool = False
    _group_keys: "tuple[str, ...]" = ()
    _derived: "tuple[tuple[str, tuple[Expression, str]], ...]" = field(default=())
    _aggregates: "tuple[AggregateSpec, ...]" = ()
    _having: "Predicate | None" = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def source(
        cls, source: Any, name: "str | None" = None, schema: "Schema | None" = None
    ) -> "Stream":
        """Plan over a bound source (anything satisfying the connector
        SPI's pull side: ``schema`` + ``next_tuples``, see
        :mod:`repro.io`); the schema is taken from the source unless
        overridden.  The SPI check happens *here*, at plan construction,
        so a bad source fails before anything is submitted."""
        schema = schema if schema is not None else getattr(source, "schema", None)
        if not isinstance(schema, Schema):
            raise BuilderError(
                "Stream.source needs a source with a .schema attribute "
                "(or an explicit schema=)"
            )
        if not callable(getattr(source, "next_tuples", None)):
            raise BuilderError(
                f"Stream.source: {type(source).__name__!r} has no callable "
                ".next_tuples(count) — it does not satisfy the source SPI "
                "(wrap push-only endpoints in a repro.io ingress source)"
            )
        return cls(_inputs=(_Input(name or schema.name, schema, source),))

    @classmethod
    def named(cls, name: str, schema: Schema) -> "Stream":
        """Plan over a named stream; the source is bound later (e.g. via
        ``SaberSession.register_stream``)."""
        if not isinstance(schema, Schema):
            raise BuilderError(f"Stream.named needs a Schema, got {type(schema).__name__}")
        return cls(_inputs=(_Input(name, schema, None),))

    # -- introspection --------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """Input schema the next chain step validates against."""
        if self.is_join:
            return self._join_output_schema()
        return self._inputs[0].schema

    @property
    def is_join(self) -> bool:
        """Whether the plan joins two input streams."""
        return len(self._inputs) == 2

    @property
    def stream_names(self) -> "list[str]":
        """FROM-clause stream names, for session source resolution."""
        return [inp.name for inp in self._inputs]

    @property
    def bound_sources(self) -> "list[Any | None]":
        """Sources bound via :meth:`source` (``None`` where unbound)."""
        return [inp.source for inp in self._inputs]

    @property
    def output_schema(self) -> Schema:
        """Schema of the compiled query's output stream (build-time
        schema inference)."""
        return self._compile_operator().output_schema

    def _join_output_schema(self) -> Schema:
        left, right = self._inputs
        return left.schema.concat(right.schema, other_prefix=self._right_prefix)

    # -- windows --------------------------------------------------------------

    def window(
        self,
        *,
        time: "int | None" = None,
        rows: "int | None" = None,
        slide: "int | None" = None,
    ) -> "Stream":
        """ω(size, slide): exactly one of ``time=`` (RANGE) or ``rows=``
        (ROWS); ``slide`` defaults to tumbling."""
        if self.is_join:
            raise BuilderError("set windows on each side before .join()")
        if (time is None) == (rows is None):
            raise BuilderError("window() takes exactly one of time= or rows=")
        if self._inputs[0].windowed:
            raise BuilderError("window already set for this stream")
        definition = (
            WindowDefinition.time(time, slide)
            if time is not None
            else WindowDefinition.rows(rows, slide)
        )
        return replace(self, _inputs=(replace(self._inputs[0], window=definition),))

    def unbounded(self) -> "Stream":
        """``[range unbounded]``: valid only for stateless (selection /
        projection) plans — enforced at build."""
        if self.is_join:
            raise BuilderError("a join needs bounded windows on both sides")
        if self._inputs[0].windowed:
            raise BuilderError("window already set for this stream")
        return replace(self, _inputs=(replace(self._inputs[0], unbounded=True),))

    # -- relational steps -----------------------------------------------------

    def where(
        self,
        predicate: Predicate,
        cpu_evals_fn: "Callable[[float], float] | None" = None,
    ) -> "Stream":
        """σ: filter tuples before any projection/aggregation.

        ``cpu_evals_fn`` optionally maps measured selectivity to the
        number of predicate atoms a short-circuiting CPU evaluates (the
        Fig. 16 cost-model hook); it applies only when the plan compiles
        to a bare ``Selection``.
        """
        if self.is_join:
            raise BuilderError(
                "where() after join() is not supported; put the predicate in "
                "join(..., on=...)"
            )
        if not isinstance(predicate, Predicate):
            raise BuilderError(f"where() needs a Predicate, got {type(predicate).__name__}")
        _check_references("where() predicate", predicate.references(), self.schema)
        combined = predicate if self._where is None else (self._where & predicate)
        return replace(self, _where=combined, _cpu_evals_fn=cpu_evals_fn or self._cpu_evals_fn)

    def select(self, *items: Any, **named: Any) -> "Stream":
        """π: choose output columns.

        ``items`` may be column names (``"cpu"``), ``(name, expression)``
        pairs, or ``(name, expression, type_name)`` triples for an
        explicit output type; keyword arguments are ``name=expression``
        shorthand.  Expressions are validated against the input schema
        immediately.
        """
        if self.is_join:
            raise BuilderError("select() after join() is not supported in this subset")
        out: "list[tuple[str, Expression, str | None]]" = list(self._select)
        for item in items:
            if isinstance(item, str):
                _check_references(f"select({item!r})", {item}, self.schema)
                out.append((item, col(item), None))
            elif isinstance(item, tuple) and len(item) in (2, 3):
                name, expr = item[0], item[1]
                type_name = item[2] if len(item) == 3 else None
                if not isinstance(expr, Expression):
                    raise BuilderError(
                        f"select item {name!r} needs an Expression, got "
                        f"{type(expr).__name__}"
                    )
                _check_references(f"select item {name!r}", expr.references(), self.schema)
                out.append((name, expr, type_name))
            else:
                raise BuilderError(
                    "select() items are column names, (name, expr) pairs or "
                    f"(name, expr, type) triples; got {item!r}"
                )
        for name, expr in named.items():
            expr = col(expr) if isinstance(expr, str) else expr
            if not isinstance(expr, Expression):
                raise BuilderError(
                    f"select item {name!r} needs an Expression, got {type(expr).__name__}"
                )
            _check_references(f"select item {name!r}", expr.references(), self.schema)
            out.append((name, expr, None))
        if not out:
            raise BuilderError("select() needs at least one item")
        return replace(self, _select=tuple(out))

    def distinct(self) -> "Stream":
        """Per-window duplicate elimination over the selected columns."""
        return replace(self, _distinct=True)

    def group_by(self, *args: Any, **derived: Any) -> "Stream":
        """γ: GROUP-BY keys plus aggregates in one step.

        Positional ``args`` are key column names (``str``) or
        :class:`AggregateSpec` values (from :mod:`repro.api.agg`);
        keyword arguments declare *derived* integer keys as
        ``name=(expression, type_name)`` — e.g. LRB3's
        ``segment=(col("position") / 5280, "int")``.
        """
        keys: "list[str]" = list(self._group_keys)
        specs: "list[AggregateSpec]" = list(self._aggregates)
        derived_out = dict(self._derived)
        for arg in args:
            if isinstance(arg, AggregateSpec):
                specs.append(arg)
            elif isinstance(arg, str):
                keys.append(arg)
            else:
                raise BuilderError(
                    "group_by() takes key names and agg.* specs; got "
                    f"{arg!r}"
                )
        for name, spec in derived.items():
            if (
                not isinstance(spec, tuple)
                or len(spec) != 2
                or not isinstance(spec[0], Expression)
                or not isinstance(spec[1], str)
            ):
                raise BuilderError(
                    f"derived key {name!r} must be (expression, type_name)"
                )
            _check_references(f"derived key {name!r}", spec[0].references(), self.schema)
            derived_out[name] = spec
        derived_names = set(derived_out)
        for key in keys:
            if key not in derived_names:
                _check_references(f"group_by key {key!r}", {key}, self.schema)
        keys += [n for n in derived_out if n not in keys]
        if not keys:
            raise BuilderError("group_by() needs at least one key column")
        return replace(
            self,
            _group_keys=tuple(keys),
            _derived=tuple(derived_out.items()),
            _aggregates=tuple(specs),
        )

    def aggregate(self, *specs: AggregateSpec) -> "Stream":
        """α: window aggregates without grouping (``agg.*`` specs).

        With ``select(...)`` expressions in the plan, aggregates may
        reference the *projected* column names (the plan compiles to a
        π∘α :class:`ProjectedWindows` chain); otherwise they reference
        the input schema.
        """
        selected = {name for name, __, __ in self._select}
        for spec in specs:
            if not isinstance(spec, AggregateSpec):
                raise BuilderError(
                    f"aggregate() takes agg.* specs, got {spec!r}"
                )
            if spec.column is not None:
                _check_references(
                    f"aggregate {spec.function}({spec.column})",
                    {spec.column},
                    self.schema,
                    extra=selected,
                )
        if not specs:
            raise BuilderError("aggregate() needs at least one agg.* spec")
        return replace(self, _aggregates=self._aggregates + tuple(specs))

    def having(self, predicate: Predicate) -> "Stream":
        """HAVING over the aggregated output (requires ``group_by``).

        Chained calls AND-combine, like :meth:`where`.
        """
        if not isinstance(predicate, Predicate):
            raise BuilderError(f"having() needs a Predicate, got {type(predicate).__name__}")
        combined = predicate if self._having is None else (self._having & predicate)
        return replace(self, _having=combined)

    def join(
        self,
        other: "Stream",
        on: Predicate,
        right_prefix: str = "r_",
        rates: "tuple[float, float] | list[float] | None" = None,
    ) -> "Stream":
        """θ-join with another windowed stream.

        ``on`` references left columns by name and right columns by their
        (possibly ``right_prefix``-ed) name in the concatenated output
        schema.  ``rates`` optionally gives the streams' relative tuple
        rates so the dispatcher keeps their windows aligned (SG3).
        """
        if self.is_join or other.is_join:
            raise BuilderError("only two-stream joins are supported")
        if not self._is_bare() or not other._is_bare():
            raise BuilderError(
                "join() combines bare windowed streams; apply where/select/"
                "group_by to the join's output via a follow-up query instead"
            )
        if not isinstance(on, Predicate):
            raise BuilderError("join() needs an on= predicate")
        for side, label in ((self, "left"), (other, "right")):
            inp = side._inputs[0]
            if inp.window is None:
                raise BuilderError(
                    f"join() {label} stream {inp.name!r} needs a bounded "
                    ".window(...) before joining"
                )
        left, right = self._inputs[0], other._inputs[0]
        joined = replace(
            self,
            _inputs=(left, right),
            _join_on=on,
            _right_prefix=right_prefix,
            _rates=tuple(float(r) for r in rates) if rates is not None else None,
        )
        _check_references("join on= predicate", on.references(), joined._join_output_schema())
        if joined._rates is not None and len(joined._rates) != 2:
            raise BuilderError("rates= must give one rate per joined stream")
        return joined

    def _is_bare(self) -> bool:
        """No relational steps applied yet (windowing only)."""
        return not (
            self._where
            or self._select
            or self._distinct
            or self._group_keys
            or self._aggregates
            or self._having is not None
        )

    # -- compilation ----------------------------------------------------------

    def _compile_operator(self) -> Operator:
        if self.is_join:
            left, right = self._inputs
            return ThetaJoin(
                left.schema, right.schema, self._join_on, right_prefix=self._right_prefix
            )
        schema = self._inputs[0].schema
        if self._aggregates:
            if self._distinct:
                raise BuilderError("distinct() cannot be combined with aggregates")
            computed = [
                name
                for name, __, __ in self._select
                if name != "timestamp" and name not in self._group_keys
            ]
            if computed and not self._group_keys:
                # π∘α: aggregates run over the projected columns.
                return self._compile_projected_aggregation(schema)
            for name, expr, __ in self._select:
                if name != "timestamp" and name not in self._group_keys:
                    raise BuilderError(
                        f"select item {name!r} is neither 'timestamp' nor a "
                        "group_by key; grouped queries emit timestamp, "
                        "keys and aggregates only (use derived keys for "
                        "computed grouping columns)"
                    )
            if self._having is not None and not self._group_keys:
                raise BuilderError("having() requires group_by()")
            inner: Operator = GroupedAggregation(
                schema,
                list(self._group_keys),
                list(self._aggregates),
                having=self._having,
                derived_columns=dict(self._derived) or None,
            )
            return FilteredWindows(self._where, inner) if self._where else inner
        if self._having is not None:
            raise BuilderError("having() requires group_by() with aggregates")
        if self._group_keys:
            raise BuilderError("group_by() needs at least one agg.* spec")
        if self._distinct:
            if not self._select:
                raise BuilderError("distinct() requires select() items")
            if any(t is not None for __, __, t in self._select):
                raise BuilderError(
                    "distinct() does not support explicit output types"
                )
            inner = DistinctProjection(
                schema, [(name, expr) for name, expr, __ in self._select]
            )
            # WHERE composes with distinct exactly like with aggregation:
            # filter inside the window, then de-duplicate survivors.
            return FilteredWindows(self._where, inner) if self._where else inner
        if self._select:
            if self._where is not None and self._is_identity_select(schema):
                return Selection(schema, self._where, cpu_evals_fn=self._cpu_evals_fn)
            types = {name: t for name, __, t in self._select if t is not None}
            projection = Projection(
                schema,
                [(name, expr) for name, expr, __ in self._select],
                output_types=types or None,
            )
            if self._where is not None:
                return FilteredWindows(self._where, projection)
            return projection
        if self._where is not None:
            return Selection(schema, self._where, cpu_evals_fn=self._cpu_evals_fn)
        raise BuilderError(
            "empty plan: add where()/select()/aggregate()/group_by()/join()"
        )

    def _compile_projected_aggregation(self, schema: Schema) -> Operator:
        """``select(expressions...).aggregate(...)`` → π∘α chain.

        The aggregates consume the *projected* columns; ``timestamp`` is
        carried through automatically (windowed aggregation needs the
        time column) unless the select list already produces one.
        """
        items = list(self._select)
        if not any(name == "timestamp" for name, __, __ in items):
            items.insert(0, ("timestamp", col("timestamp"), None))
        types = {name: t for name, __, t in items if t is not None}
        projection = Projection(
            schema,
            [(name, expr) for name, expr, __ in items],
            output_types=types or None,
        )
        projected = projection.output_schema
        for spec in self._aggregates:
            if spec.column is not None and spec.column not in projected:
                raise BuilderError(
                    f"aggregate {spec.function}({spec.column}) references a "
                    "column the select() list does not produce; projected "
                    f"columns are {sorted(projected.attribute_names)}"
                )
        inner: Operator = ProjectedWindows(
            projection, GroupedAggregation(projected, [], list(self._aggregates))
        )
        return FilteredWindows(self._where, inner) if self._where else inner

    def _is_identity_select(self, schema: Schema) -> bool:
        """Whole-tuple select: compile to σ instead of σ∘π."""
        if len(self._select) != len(schema.attribute_names):
            return False
        for (name, expr, type_name), attr in zip(self._select, schema.attribute_names):
            if type_name is not None:
                return False
            if not isinstance(expr, Column) or expr.name != name or name != attr:
                return False
        return True

    def build(self, name: str = "query") -> Query:
        """Compile and validate the plan into a runnable :class:`Query`."""
        operator = self._compile_operator()
        stateless = operator.cost_profile().kind in ("projection", "selection")
        windows: "list[WindowDefinition | None]" = []
        for inp in self._inputs:
            if inp.window is None and not inp.unbounded:
                if stateless:
                    raise BuilderError(
                        f"stream {inp.name!r} has no window: call "
                        ".window(time=... | rows=...) or .unbounded()"
                    )
                raise BuilderError(
                    f"stream {inp.name!r} has no window and the plan is "
                    "stateful: call .window(time=... | rows=...)"
                )
            if inp.unbounded and not stateless:
                raise BuilderError(
                    f"stream {inp.name!r} is unbounded but the plan "
                    "aggregates/joins; unbounded windows need a stateless plan"
                )
            windows.append(inp.window)
        bound = [inp.source for inp in self._inputs]
        return Query(
            name=name,
            operator=operator,
            windows=windows,
            input_rates=list(self._rates) if self._rates is not None else None,
            bound_sources=bound if any(b is not None for b in bound) else None,
            stream_names=[inp.name for inp in self._inputs],
        )
