"""Projection operator π (§5.3).

Stateless: the batch operator function is one scan over the stream batch,
evaluating each output expression per tuple.  Under the default IStream
combination (§2.4), every tuple contributes exactly one output tuple the
first time it enters a window, so the output is simply the transformed
batch in arrival order — window fragments never need to be materialised.
This is why projection/selection throughput is independent of the window
slide (Fig. 11a).
"""

from __future__ import annotations

from ..errors import QueryError
from ..relational.expressions import Expression
from ..relational.schema import Attribute, Schema
from ..relational.tuples import TupleBatch
from .base import BatchResult, CostProfile, Operator, StreamSlice


class Projection(Operator):
    """π over named output expressions.

    ``columns`` maps output attribute names to expressions (plain column
    references or arithmetic).  The paper's PROJ_m queries project *m*
    attributes; PROJ6* additionally applies 100 arithmetic expressions per
    attribute — both shapes are expressible here and drive the cost model
    through :meth:`cost_profile`.
    """

    def __init__(
        self,
        input_schema: Schema,
        columns: "list[tuple[str, Expression]]",
        output_types: "dict[str, str] | None" = None,
    ) -> None:
        super().__init__(input_schema)
        if not columns:
            raise QueryError("projection needs at least one output column")
        self._columns = list(columns)
        types = output_types or {}
        attributes = []
        for name, expr in self._columns:
            if name in types:
                type_name = types[name]
            else:
                refs = expr.references()
                if len(refs) == 1:
                    type_name = input_schema.attribute(next(iter(refs))).type_name
                else:
                    type_name = "float"
            attributes.append(Attribute(name, type_name))
        self._output_schema = Schema(tuple(attributes), name=f"{input_schema.name}_pi")

    @property
    def output_schema(self) -> Schema:
        return self._output_schema

    def cost_profile(self) -> CostProfile:
        ops = sum(expr.operation_count() for __, expr in self._columns)
        return CostProfile(kind="projection", ops_per_tuple=float(ops))

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch = slice_.batch
        out = TupleBatch.from_columns(
            self._output_schema,
            **{name: expr.evaluate(batch) for name, expr in self._columns},
        )
        return BatchResult(complete=out, stats={"selectivity": 1.0})


def identity_projection(schema: Schema) -> Projection:
    """π that forwards every attribute unchanged (direct byte forwarding)."""
    from ..relational.expressions import col

    return Projection(schema, [(name, col(name)) for name in schema.attribute_names])
