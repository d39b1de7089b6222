"""Operator composition: WHERE / SELECT + a windowed operator in one pass.

SABER runs one batch operator function per query task (§3): selection,
projection and windowed aggregation execute in a single pass over the
stream batch, with no intermediate batch handed between stages.  The
composers here are that single pass.

:class:`FilteredWindows` (σ inside windows — CM2's ``where eventType ==
1 ... group by jobId``) evaluates the predicate mask once, takes the
survivor indices from it (the GPGPU selection kernel's compaction),
remaps every window fragment boundary onto the survivor ranks by a
binary search of those indices, and hands the inner operator a lazily
*gathered* batch: a survivor column is copied out only when the inner
operator reads it.  Only the mask and the gather scale with the batch:
the remap is one binary search per fragment bound and the selectivity
the survivor count over the batch length.
:class:`ProjectedWindows` (π feeding an aggregation, how ``select(...)``
expressions reach ``aggregate``) is 1:1, so fragment boundaries carry
over unchanged and the inner operator reads lazily *evaluated* projected
columns.  Assembly is delegated entirely to the inner operator, so
cross-task window semantics are the inner operator's own.

The lazy batches serve ``column``/``timestamps``/``len`` only, so both
composers accept only inner operators that read a batch that way —
``Projection``, ``DistinctProjection``, ``GroupedAggregation`` and
:class:`ProjectedWindows`; joins, UDFs that slice raw fragment rows and
selections raise :class:`QueryError` at construction.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import QueryError
from ..relational.expressions import Expression, Predicate
from ..relational.schema import TIMESTAMP_ATTRIBUTE, Schema
from ..relational.tuples import TupleBatch
from ..windows.assigner import WindowSet
from .base import BatchResult, CostProfile, Operator, PartialRun, StreamSlice
from .distinct import DistinctProjection
from .groupby import GroupedAggregation
from .projection import Projection

#: bare operators whose batch functions read columns, timestamps and
#: ``len`` only — never raw rows — and so run on the lazy batches below.
_COLUMN_READERS = (Projection, DistinctProjection, GroupedAggregation)


class _GatheredBatch:
    """Duck-typed ``TupleBatch``: the survivor rows, gathered per column.

    Columns are gathered from the source batch on first touch and
    cached, so an inner aggregation reading two columns never pays for
    the other attributes.  ``data[mask][name]`` and
    ``data[name][indices]`` select the same elements, which keeps the
    output bitwise-identical to filtering the whole batch first.
    """

    __slots__ = ("schema", "_batch", "_indices", "_cache")

    def __init__(self, batch: Any, indices: np.ndarray) -> None:
        self.schema = batch.schema
        self._batch = batch
        self._indices = indices
        self._cache: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._indices)

    def column(self, name: str) -> np.ndarray:
        cached = self._cache.get(name)
        if cached is None:
            cached = np.asarray(self._batch.column(name))[self._indices]
            self._cache[name] = cached
        return cached

    @property
    def timestamps(self) -> np.ndarray:
        return self.column(TIMESTAMP_ATTRIBUTE)


class _ProjectedBatch:
    """Duck-typed ``TupleBatch``: projected columns, evaluated lazily.

    Each output column is computed on first touch by evaluating its
    expression against the upstream (possibly gathered) batch and cast
    to the projected attribute's dtype with the same assignment cast
    ``TupleBatch.from_columns`` performs — bitwise-identical values,
    no full-width structured array.
    """

    __slots__ = ("schema", "_base", "_columns", "_cache")

    def __init__(self, schema: Schema, columns: "dict[str, Expression]", base: Any) -> None:
        self.schema = schema
        self._base = base
        self._columns = columns
        self._cache: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._base)

    def column(self, name: str) -> np.ndarray:
        cached = self._cache.get(name)
        if cached is None:
            value = self._columns[name].evaluate(self._base)
            cached = np.empty(len(self._base), dtype=self.schema.attribute(name).dtype)
            cached[...] = value
            self._cache[name] = cached
        return cached

    @property
    def timestamps(self) -> np.ndarray:
        return self.column(TIMESTAMP_ATTRIBUTE)


def _require_column_reader(composer: str, inner: Operator) -> None:
    if not isinstance(inner, (*_COLUMN_READERS, ProjectedWindows)):
        raise QueryError(
            f"{composer} composes Projection, DistinctProjection, "
            f"GroupedAggregation or ProjectedWindows, not {type(inner).__name__}"
        )


class _Composed(Operator):
    """Shared shape of the composers: the inner operator owns assembly."""

    inner: Operator

    @property
    def output_schema(self) -> Schema:
        return self.inner.output_schema

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        return self.inner.assemble_windows(ready, runs)


class FilteredWindows(_Composed):
    """σ applied inside windows, feeding an inner window operator."""

    def __init__(self, predicate: Predicate, inner: Operator) -> None:
        super().__init__(inner.input_schema)
        _require_column_reader("FilteredWindows", inner)
        unknown = predicate.references() - set(inner.input_schema.attribute_names)
        if unknown:
            raise QueryError(
                f"filter predicate references unknown columns {sorted(unknown)}"
            )
        self.predicate = predicate
        self.inner = inner

    def cost_profile(self) -> CostProfile:
        inner = self.inner.cost_profile()
        return CostProfile(
            kind=inner.kind,
            ops_per_tuple=inner.ops_per_tuple,
            predicate_tree=self.predicate,
            aggregate_count=inner.aggregate_count,
            has_group_by=inner.has_group_by,
        )

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch, windows = slice_.batch, slice_.windows
        mask = self.predicate.evaluate(batch)
        indices = np.flatnonzero(mask)
        # Survivor ranks: position i of the batch lands at the number of
        # survivors before it, a binary search of the sorted indices.
        remapped = WindowSet(
            window_ids=windows.window_ids,
            starts=np.searchsorted(indices, windows.starts),
            ends=np.searchsorted(indices, windows.ends),
            states=windows.states,
        )
        survivors = _GatheredBatch(batch, indices)
        selectivity = len(indices) / len(mask) if len(mask) else 0.0
        result = self.inner.process_batch(
            [StreamSlice(survivors, remapped, slice_.global_start)]
        )
        result.stats["selectivity"] = selectivity
        return result


class ProjectedWindows(_Composed):
    """π applied inside windows, feeding an inner window operator.

    Projection is 1:1 per tuple, so fragment boundaries carry over
    unchanged — only the tuple *contents* are rewritten before the inner
    operator (typically an aggregation over computed columns) runs.  The
    projection must be a :class:`Projection` (a selection or a distinct
    projection drops rows, which would leave the fragments pointing past
    the end of the batch), and its schema must match the inner
    operator's input schema attribute-for-attribute.
    """

    def __init__(self, projection: Operator, inner: Operator) -> None:
        super().__init__(projection.input_schema)
        if not isinstance(projection, Projection):
            raise QueryError(
                "ProjectedWindows needs a 1:1 Projection, not "
                f"{type(projection).__name__}"
            )
        _require_column_reader("ProjectedWindows", inner)
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
        self._columns = dict(projection._columns)

    def cost_profile(self) -> CostProfile:
        inner = self.inner.cost_profile()
        return CostProfile(
            kind=inner.kind,
            ops_per_tuple=self.projection.cost_profile().ops_per_tuple + inner.ops_per_tuple,
            predicate_tree=inner.predicate_tree,
            aggregate_count=inner.aggregate_count,
            has_group_by=inner.has_group_by,
        )

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        projected = _ProjectedBatch(self.projection.output_schema, self._columns, slice_.batch)
        return self.inner.process_batch(
            [StreamSlice(projected, slice_.windows, slice_.global_start)]
        )
