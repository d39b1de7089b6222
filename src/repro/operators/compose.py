"""Operator composition: WHERE / SELECT + windowed aggregation in one task.

Queries like CM2 (``where eventType == 1 ... group by jobId``) filter
tuples *within* each window before aggregating.  :class:`FilteredWindows`
composes a selection predicate with any window-based operator in a single
batch pass: the predicate produces a survivor mask, fragment boundaries
are remapped onto the compacted batch with a prefix sum over the mask
(the same scan used by the GPGPU selection kernel), and the inner
operator runs on the filtered fragments.  :class:`ProjectedWindows`
composes a projection the same way (1:1, so fragment boundaries are
unchanged), which is how ``select(...)`` expressions feed a windowed
aggregation.  Assembly is delegated entirely to the inner operator, so
cross-task window semantics are unchanged.

Both composers *materialise* the intermediate compacted/projected
``TupleBatch`` between the stages (reported as
``CostProfile.materialized_intermediates``); the query-fusion layer
(:mod:`repro.core.fusion`) compiles eligible chains into one
single-pass kernel that skips the intermediates while reusing the exact
prefix-sum remap below.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import QueryError
from ..relational.expressions import Predicate
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from ..windows.assigner import WindowSet
from .base import BatchResult, CostProfile, Operator, StreamSlice


class FilteredWindows(Operator):
    """σ applied inside windows, feeding an inner window operator."""

    def __init__(self, predicate: Predicate, inner: Operator) -> None:
        super().__init__(inner.input_schema)
        if inner.arity != 1:
            raise QueryError("FilteredWindows composes single-input operators")
        unknown = predicate.references() - set(inner.input_schema.attribute_names)
        if unknown:
            raise QueryError(
                f"filter predicate references unknown columns {sorted(unknown)}"
            )
        self.predicate = predicate
        self.inner = inner

    @property
    def output_schema(self) -> Schema:
        return self.inner.output_schema

    def cost_profile(self) -> CostProfile:
        inner = self.inner.cost_profile()
        return CostProfile(
            kind=inner.kind,
            ops_per_tuple=inner.ops_per_tuple,
            predicate_tree=self.predicate,
            aggregate_count=inner.aggregate_count,
            has_group_by=inner.has_group_by,
            join_predicate_count=inner.join_predicate_count,
            # The compacted survivor batch handed to the inner operator.
            materialized_intermediates=1 + inner.materialized_intermediates,
        )

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch, windows = slice_.batch, slice_.windows
        mask = self.predicate.evaluate(batch)
        survivors = batch.filter(mask)
        # Remap fragment boundaries onto the compacted batch: position i in
        # the original batch lands at prefix[i] survivors in the output.
        prefix = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(mask, out=prefix[1:])
        remapped = WindowSet(
            window_ids=windows.window_ids,
            starts=prefix[windows.starts],
            ends=prefix[windows.ends],
            states=windows.states,
        )
        inner_slice = StreamSlice(survivors, remapped, slice_.global_start)
        result = self.inner.process_batch([inner_slice])
        selectivity = float(mask.mean()) if len(batch) else 0.0
        result.stats["selectivity"] = selectivity
        return result

    def merge_partials(self, first: Any, second: Any) -> Any:
        return self.inner.merge_partials(first, second)

    def finalize_window(self, window_id: int, payload: Any) -> "TupleBatch | None":
        return self.inner.finalize_window(window_id, payload)

    def assemble_windows(
        self, ready: "list[tuple[int, list[Any]]]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        return self.inner.assemble_windows(ready)

    def window_ready(self, payload: Any) -> "bool | None":
        return self.inner.window_ready(payload)


class ProjectedWindows(Operator):
    """π applied inside windows, feeding an inner window operator.

    Projection is 1:1 per tuple, so fragment boundaries carry over
    unchanged — only the tuple *contents* are rewritten before the inner
    operator (typically an aggregation over computed columns) runs.  The
    projected schema must match the inner operator's input schema
    attribute-for-attribute.
    """

    def __init__(self, projection: Operator, inner: Operator) -> None:
        super().__init__(projection.input_schema)
        if inner.arity != 1:
            raise QueryError("ProjectedWindows composes single-input operators")
        produced = projection.output_schema.attribute_names
        expected = inner.input_schema.attribute_names
        if (
            tuple(produced) != tuple(expected)
            or projection.output_schema.dtype != inner.input_schema.dtype
        ):
            raise QueryError(
                f"projection produces columns {list(produced)} but the inner "
                f"operator expects {list(expected)} (names and types must match)"
            )
        self.projection = projection
        self.inner = inner

    @property
    def output_schema(self) -> Schema:
        return self.inner.output_schema

    def cost_profile(self) -> CostProfile:
        proj = self.projection.cost_profile()
        inner = self.inner.cost_profile()
        return CostProfile(
            kind=inner.kind,
            ops_per_tuple=proj.ops_per_tuple + inner.ops_per_tuple,
            predicate_tree=inner.predicate_tree,
            aggregate_count=inner.aggregate_count,
            has_group_by=inner.has_group_by,
            join_predicate_count=inner.join_predicate_count,
            # The projected batch handed to the inner operator.
            materialized_intermediates=1 + inner.materialized_intermediates,
        )

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        projected = self.projection.process_batch(inputs).complete
        inner_slice = StreamSlice(projected, slice_.windows, slice_.global_start)
        return self.inner.process_batch([inner_slice])

    def merge_partials(self, first: Any, second: Any) -> Any:
        return self.inner.merge_partials(first, second)

    def finalize_window(self, window_id: int, payload: Any) -> "TupleBatch | None":
        return self.inner.finalize_window(window_id, payload)

    def assemble_windows(
        self, ready: "list[tuple[int, list[Any]]]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        return self.inner.assemble_windows(ready)

    def window_ready(self, payload: Any) -> "bool | None":
        return self.inner.window_ready(payload)
