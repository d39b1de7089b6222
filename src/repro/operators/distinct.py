"""DISTINCT projection per window (used by LRB2).

``SELECT DISTINCT ...`` over a windowed stream emits, per window, the set
of distinct projected rows.  Fragments contribute their local distinct
sets; assembly is a set union, so the decomposition is associative and
commutative like the paper's count/max examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..relational.expressions import Expression
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from ..windows.assigner import FragmentState
from .base import BatchResult, CostProfile, Operator, PartialRun, StreamSlice
from .projection import Projection


@dataclass
class DistinctPartial:
    """Distinct projected rows of one window across fragments."""

    rows: np.ndarray  # structured array in the output schema


class DistinctProjection(Operator):
    """π_distinct: per-window duplicate elimination after projection."""

    def __init__(
        self,
        input_schema: Schema,
        columns: "list[tuple[str, Expression]]",
    ) -> None:
        super().__init__(input_schema)
        self._projection = Projection(input_schema, columns)

    @property
    def output_schema(self) -> Schema:
        return self._projection.output_schema

    def cost_profile(self) -> CostProfile:
        inner = self._projection.cost_profile()
        # Duplicate elimination hashes each projected tuple once.
        return CostProfile(
            kind="aggregation",
            ops_per_tuple=inner.ops_per_tuple,
            has_group_by=True,
            aggregate_count=1,
        )

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        projected = self._projection.process_batch(inputs).complete
        windows = slice_.windows
        chunks: list[TupleBatch] = []
        ids: list[int] = []
        payloads: list[DistinctPartial] = []
        closed: list[int] = []
        for idx in range(len(windows)):
            start, stop = int(windows.starts[idx]), int(windows.ends[idx])
            state = int(windows.states[idx])
            wid = int(windows.window_ids[idx])
            rows = np.unique(projected.data[start:stop])
            if state == int(FragmentState.COMPLETE):
                if len(rows):
                    chunks.append(TupleBatch(self.output_schema, rows))
            else:
                ids.append(wid)
                payloads.append(DistinctPartial(rows=rows))
                if state == int(FragmentState.CLOSING):
                    closed.append(wid)
        complete = TupleBatch.concat(chunks) if chunks else TupleBatch.empty(self.output_schema)
        stats = {
            "selectivity": 1.0,
            "fragments": float(len(windows)),
            "tuples": float(len(slice_.batch)),
        }
        return BatchResult(
            complete=complete,
            partials=PartialRun(np.asarray(ids, dtype=np.int64), payloads),
            closed_ids=np.asarray(closed, dtype=np.int64),
            stats=stats,
        )

    def merge_partials(self, first: DistinctPartial, second: DistinctPartial) -> DistinctPartial:
        both = TupleBatch.concat(
            [TupleBatch(self.output_schema, first.rows), TupleBatch(self.output_schema, second.rows)]
        )
        return DistinctPartial(rows=np.unique(both.data))

    def finalize_window(self, window_id: int, payload: DistinctPartial) -> "TupleBatch | None":
        if len(payload.rows) == 0:
            return None
        return TupleBatch(self.output_schema, payload.rows)
