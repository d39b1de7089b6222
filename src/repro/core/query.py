"""Window-based continuous queries (§2.4).

A query ties together, per input stream, a window function; an operator
function (decomposed into batch + assembly functions, §3); and a
relation-to-stream function.  The paper's default combinations apply:
IStream for projection/selection (per-tuple output), RStream for
aggregation and joins (per-window output).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..errors import QueryError
from ..operators.base import Operator
from ..relational.schema import Schema
from ..windows.definition import WindowDefinition

_query_ids = itertools.count()


class StreamFunction(enum.Enum):
    """Relation-to-stream functions (§2.4)."""

    RSTREAM = "rstream"
    ISTREAM = "istream"


def default_stream_function(operator: Operator) -> StreamFunction:
    """The paper's default operator/stream-function combinations."""
    kind = operator.cost_profile().kind
    if kind in ("projection", "selection"):
        return StreamFunction.ISTREAM
    return StreamFunction.RSTREAM


@dataclass
class Query:
    """A continuous query over one or more windowed input streams.

    ``windows[i]`` may be ``None`` for an unbounded window (the paper's
    LRB1 uses ``[range unbounded]``), in which case the operator must be
    stateless (projection/selection).

    ``stat_model`` optionally predicts per-task statistics
    (selectivity, join pairs, fragments, output bytes) for simulation-only
    engine runs that skip real data execution.
    """

    name: str
    operator: Operator
    windows: "list[WindowDefinition | None]"
    stream_function: "StreamFunction | None" = None
    stat_model: "Callable[[int], dict[str, float]] | None" = None
    #: relative tuple rates of the input streams; the dispatcher splits a
    #: task's byte budget proportionally so that the streams' windows stay
    #: aligned (SG3's local/global streams differ by the plug count).
    input_rates: "list[float] | None" = None
    #: per-input sources bound at build time (``Stream.source``); a
    #: :class:`~repro.api.SaberSession` uses these when ``submit`` gets no
    #: explicit sources.  ``None`` entries resolve against the session's
    #: stream registry.
    bound_sources: "list | None" = field(default=None, repr=False, compare=False)
    #: per-input stream names recorded at build time (``Stream.named``);
    #: the session registry resolves unbound inputs by these, falling back
    #: to the input schemas' names when absent (hand-built queries).
    stream_names: "list[str] | None" = field(default=None, repr=False, compare=False)
    #: route *every* window through the result stage's assembly path
    #: (window fragments fully inside one task — COMPLETE — are
    #: classified CLOSING instead of taking the complete-batch fast
    #: path).  The total output is unchanged, only chunk boundaries
    #: move; what this buys is a window id on every emitted window,
    #: which the cluster's ordered merge stage needs
    #: (:meth:`~repro.core.result_stage.ResultStage.on_window`).  Shard
    #: sessions set it; single-engine runs keep the fast path.
    force_assembly: bool = field(default=False, repr=False, compare=False)
    query_id: int = field(default_factory=lambda: next(_query_ids))

    def __post_init__(self) -> None:
        if len(self.windows) != self.operator.arity:
            raise QueryError(
                f"query {self.name!r}: {len(self.windows)} window definitions "
                f"for an arity-{self.operator.arity} operator"
            )
        if self.input_rates is not None and len(self.input_rates) != self.operator.arity:
            raise QueryError(f"query {self.name!r}: input_rates must match operator arity")
        stateless = self.operator.cost_profile().kind in ("projection", "selection")
        if any(w is None for w in self.windows) and not stateless:
            raise QueryError(
                f"query {self.name!r}: unbounded windows require a "
                "stateless operator"
            )
        if self.stream_function is None:
            self.stream_function = default_stream_function(self.operator)

    @property
    def input_schemas(self) -> "list[Schema]":
        operator = self.operator
        if hasattr(operator, "input_schemas"):
            return list(operator.input_schemas)
        if operator.arity == 2:
            return [operator.left_schema, operator.right_schema]
        return [operator.input_schema]

    @property
    def output_schema(self) -> Schema:
        return self.operator.output_schema

    @property
    def arity(self) -> int:
        return self.operator.arity

    @property
    def execution_operator(self) -> Operator:
        """Compatibility stub: the operator, as the engine runs it.

        Read only by ``benchmarks/saberbench/tracing.py``; delete it
        when that file is next edited.
        """
        return self.operator
