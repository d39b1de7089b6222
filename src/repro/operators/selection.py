"""Selection operator σ (§5.3).

Stateless, like projection: a single scan evaluating the predicate per
tuple, forwarding the byte representation of selected tuples.  The CPU
implementation short-circuits compound predicates; the GPGPU kernel
evaluates every atomic comparison for every tuple (SIMD lanes cannot
diverge) and compacts survivors with a prefix-sum — the asymmetry that
powers the Fig. 16 adaptivity experiment.
"""

from __future__ import annotations

from ..errors import QueryError
from ..relational.expressions import Predicate
from ..relational.schema import Schema
from .base import BatchResult, CostProfile, Operator, StreamSlice


class Selection(Operator):
    """σ with an arbitrary compound predicate."""

    def __init__(
        self,
        input_schema: Schema,
        predicate: Predicate,
        cpu_evals_fn=None,
    ) -> None:
        super().__init__(input_schema)
        unknown = predicate.references() - set(input_schema.attribute_names)
        if unknown:
            raise QueryError(f"selection predicate references unknown columns {sorted(unknown)}")
        self.predicate = predicate
        self._cpu_evals_fn = cpu_evals_fn

    @property
    def output_schema(self) -> Schema:
        return self.input_schema

    def cost_profile(self) -> CostProfile:
        return CostProfile(
            kind="selection",
            predicate_tree=self.predicate,
            cpu_evals_fn=self._cpu_evals_fn,
        )

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch = slice_.batch
        mask = self.predicate.evaluate(batch)
        out = batch.filter(mask)
        selectivity = len(out) / len(batch) if len(batch) else 0.0
        return BatchResult(complete=out, stats={"selectivity": selectivity})
