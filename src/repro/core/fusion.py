"""Query fusion: one single-pass kernel per eligible operator chain.

SABER's performance rests on generating a *single fused function* per
query — selection, projection and windowed aggregation execute in one
pass over a stream batch instead of as separate operators handing off
materialised intermediates (§3; the same insight drives the
code-generating columnar engines in the related work).  The unfused
reproduction walks a :class:`~repro.operators.compose.FilteredWindows` /
:class:`~repro.operators.compose.ProjectedWindows` chain that compacts
survivors into a full-width intermediate ``TupleBatch`` at every stage
boundary; :func:`fuse_operator` compiles such a chain into a
:class:`FusedKernel` that performs

1. **predicate mask** — one vectorised evaluation over the raw batch;
2. **fragment remap** — window fragment boundaries are remapped onto the
   survivor ranks with a single prefix sum over the mask (exactly the
   scan :class:`FilteredWindows` uses, and the GPGPU selection kernel's
   compaction scan);
3. **projection column selection** — output expressions evaluate
   lazily against *gathered survivor columns*; only columns an
   expression actually references are ever touched;
4. **fragment-range aggregation** — the terminal operator's incremental
   batch function runs directly on the lazy columns,

with **no intermediate TupleBatch materialisation** between the stages.
Outputs are bitwise-identical to the unfused chain: the same values flow
through the same numpy kernels in the same order — only the intermediate
full-width gathers disappear.  ``cost_profile`` accordingly reports
``materialized_intermediates=0`` where the unfused chain reports one per
stage boundary, which is how the calibrated CPU model (and through it
HLS) sees the fused kernel as one unit.

Eligibility (:func:`fuse_operator` returns ``None`` otherwise):

* ``FilteredWindows(σ, inner)`` and ``ProjectedWindows(π, inner)``
  chains over **single-input** terminals (projection, distinct,
  aggregation, grouped aggregation) — including the three-stage
  ``σ∘π∘α`` shape;
* bare operators (``Selection``, ``Projection``, ``Aggregation`` …) are
  already single-pass: nothing to fuse;
* joins and other multi-input operators decline cleanly (their inputs
  cannot share one scan), as does anything unknown.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..operators.aggregation import Aggregation
from ..operators.base import BatchResult, CostProfile, Operator, StreamSlice
from ..operators.compose import FilteredWindows, ProjectedWindows
from ..operators.distinct import DistinctProjection
from ..operators.groupby import GroupedAggregation
from ..operators.projection import Projection
from ..relational.expressions import Predicate
from ..relational.schema import TIMESTAMP_ATTRIBUTE, Schema
from ..windows.assigner import WindowSet

__all__ = ["FusedKernel", "fuse_operator", "fusion_eligible"]

#: terminal operators whose batch functions are proven against the lazy
#: column views (they read columns/timestamps/len only, never raw rows).
#: Everything else — joins, UDFs that slice raw fragments, unknown
#: user operators — declines fusion cleanly.
_FUSABLE_TERMINALS = (Projection, DistinctProjection, Aggregation, GroupedAggregation)


class _GatheredBatch:
    """Duck-typed ``TupleBatch``: survivor rows, gathered per column.

    Stands in for the compacted intermediate batch of an unfused σ
    stage.  Columns are gathered from the source batch on first touch
    and cached, so a downstream aggregation reading two columns never
    pays for the other attributes the unfused path would copy.
    ``data[mask][name]`` and ``data[name][indices]`` select the same
    elements, which is what keeps the fused output bitwise-identical.
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

    Stands in for the materialised output batch of an unfused π stage.
    Each output column is computed on first touch by evaluating its
    expression against the upstream (possibly gathered) batch and cast
    to the projected attribute's dtype with the same assignment cast
    ``TupleBatch.from_columns`` performs — bitwise-identical values,
    no full-width structured array.
    """

    __slots__ = ("schema", "_base", "_columns", "_cache")

    def __init__(self, schema: Schema, columns: "list[tuple[str, Any]]", base: Any) -> None:
        self.schema = schema
        self._base = base
        self._columns = dict(columns)
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


class FusedKernel(Operator):
    """One single-pass kernel compiled from a σ?/π?/terminal chain.

    Built by :func:`fuse_operator`; not meant to be constructed by
    hand.  The kernel owns the whole chain's semantics: its
    ``cost_profile`` presents the chain as one unit (so schedulers and
    the hardware models never see the stages separately) and its
    assembly hooks delegate to the terminal operator, so cross-task
    window state is exchangeable with the unfused chain's.
    """

    def __init__(
        self,
        source_schema: Schema,
        predicate: "Predicate | None",
        projection: "Any | None",
        terminal: Operator,
    ) -> None:
        super().__init__(source_schema)
        self.predicate = predicate
        self.projection = projection
        self.terminal = terminal

    @property
    def output_schema(self) -> Schema:
        return self.terminal.output_schema

    def cost_profile(self) -> CostProfile:
        terminal = self.terminal.cost_profile()
        ops = terminal.ops_per_tuple
        if self.projection is not None:
            ops += self.projection.cost_profile().ops_per_tuple
        return CostProfile(
            kind=terminal.kind,
            ops_per_tuple=ops,
            predicate_tree=self.predicate or terminal.predicate_tree,
            aggregate_count=terminal.aggregate_count,
            has_group_by=terminal.has_group_by,
            join_predicate_count=terminal.join_predicate_count,
            materialized_intermediates=0,  # the point of fusing
        )

    # -- batch operator function ------------------------------------------

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch, windows = slice_.batch, slice_.windows
        selectivity = None
        if self.predicate is not None:
            mask = self.predicate.evaluate(batch)
            # Survivor ranks: position i of the original batch lands at
            # prefix[i] survivors — one scan remaps every fragment.
            prefix = np.zeros(len(batch) + 1, dtype=np.int64)
            np.cumsum(mask, out=prefix[1:])
            windows = WindowSet(
                window_ids=windows.window_ids,
                starts=prefix[windows.starts],
                ends=prefix[windows.ends],
                states=windows.states,
            )
            batch = _GatheredBatch(batch, np.nonzero(mask)[0])
            selectivity = float(mask.mean()) if len(mask) else 0.0
        if self.projection is not None:
            batch = _ProjectedBatch(
                self.projection.output_schema, self.projection._columns, batch
            )
        result = self.terminal.process_batch([StreamSlice(batch, windows, slice_.global_start)])
        if selectivity is not None:
            result.stats["selectivity"] = selectivity
        return result

    # -- assembly operator function ---------------------------------------

    def merge_partials(self, first: Any, second: Any) -> Any:
        return self.terminal.merge_partials(first, second)

    def finalize_window(self, window_id: int, payload: Any) -> Any:
        return self.terminal.finalize_window(window_id, payload)

    def assemble_windows(self, ready: "list[tuple[int, list[Any]]]") -> Any:
        return self.terminal.assemble_windows(ready)

    def window_ready(self, payload: Any) -> "bool | None":
        return self.terminal.window_ready(payload)


def fusion_eligible(operator: Operator) -> bool:
    """Whether :func:`fuse_operator` would compile ``operator``."""
    return fuse_operator(operator) is not None


def fuse_operator(operator: Operator) -> "FusedKernel | None":
    """Compile an operator chain into a :class:`FusedKernel`.

    Returns ``None`` when there is nothing to fuse: bare operators are
    already single-pass, and joins / multi-input operators (arity != 1)
    cannot share one scan across their inputs.  Composition is
    recognised one predicate and one projection deep — exactly the
    shapes the builder emits (``where`` → ``FilteredWindows``,
    ``select`` + aggregate → ``ProjectedWindows``).
    """
    predicate = None
    projection = None
    inner = operator
    if isinstance(inner, FilteredWindows):
        predicate = inner.predicate
        inner = inner.inner
    if isinstance(inner, ProjectedWindows):
        projection = inner.projection
        inner = inner.inner
    if inner is operator:
        return None  # bare operator: already a single pass
    if inner.arity != 1 or not isinstance(inner, _FUSABLE_TERMINALS):
        return None  # joins / UDFs / unknown terminals: decline cleanly
    if projection is not None and not isinstance(projection, Projection):
        return None  # projection stage is not expression-based
    return FusedKernel(operator.input_schema, predicate, projection, inner)
