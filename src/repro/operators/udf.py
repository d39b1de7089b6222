"""User-defined operator functions (§2.4).

A :class:`WindowUdf` wraps a per-window Python function
``f(windows: list[TupleBatch]) -> TupleBatch`` (one input batch per
stream).  The generic fragment decomposition retains raw fragment tuples
as the partial payload and applies the function once all fragments of a
window are present — always correct, at the cost of buffering, which is
the price the paper notes for functions without cheaper decompositions.

:func:`partition_join` builds the paper's example n-ary partition-join UDF:
it partitions every input window on a key column and joins corresponding
partitions — behaviour that a standard θ-join cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ExecutionError
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from ..windows.assigner import FragmentState
from .base import BatchResult, CostProfile, Operator, PartialRun, StreamSlice


@dataclass
class UdfPartial:
    """Raw fragments of one window, per input stream."""

    fragments: "list[TupleBatch]"
    done: "list[bool]"


class WindowUdf(Operator):
    """Operator defined by an arbitrary per-window function."""

    requires_merged_ready = True

    def __init__(
        self,
        input_schemas: "list[Schema]",
        output_schema: Schema,
        function: "Callable[[list[TupleBatch]], TupleBatch]",
        ops_per_tuple: float = 8.0,
    ) -> None:
        if not input_schemas:
            raise ExecutionError("a UDF needs at least one input schema")
        super().__init__(input_schemas[0])
        self.input_schemas = list(input_schemas)
        self.arity = len(input_schemas)
        self._output_schema = output_schema
        self._function = function
        self._ops_per_tuple = ops_per_tuple

    @property
    def output_schema(self) -> Schema:
        return self._output_schema

    def cost_profile(self) -> CostProfile:
        return CostProfile(kind="udf", ops_per_tuple=self._ops_per_tuple)

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        if len(inputs) != self.arity:
            raise ExecutionError(
                f"UDF expects {self.arity} input(s), got {len(inputs)}"
            )
        indexes = [
            {int(w): i for i, w in enumerate(s.windows.window_ids)} for s in inputs
        ]
        window_ids = sorted(set().union(*[set(ix) for ix in indexes]))
        chunks: list[TupleBatch] = []
        ids: list[int] = []
        payloads: list[UdfPartial] = []
        closed: list[int] = []
        for wid in window_ids:
            fragments: list[TupleBatch] = []
            done: list[bool] = []
            local: list[bool] = []
            for s, index in zip(inputs, indexes):
                idx = index.get(wid)
                if idx is None:
                    fragments.append(TupleBatch.empty(s.batch.schema))
                    done.append(False)
                    local.append(False)
                    continue
                start, stop = int(s.windows.starts[idx]), int(s.windows.ends[idx])
                state = int(s.windows.states[idx])
                fragments.append(s.batch.slice(start, stop))
                done.append(
                    state in (int(FragmentState.COMPLETE), int(FragmentState.CLOSING))
                )
                local.append(state == int(FragmentState.COMPLETE))
            if all(local):
                result = self._function(fragments)
                if len(result):
                    chunks.append(result)
            else:
                ids.append(wid)
                payloads.append(UdfPartial(fragments=fragments, done=done))
                if all(done):
                    closed.append(wid)
        complete = (
            TupleBatch.concat(chunks)
            if chunks
            else TupleBatch.empty(self._output_schema)
        )
        stats = {
            "selectivity": 1.0,
            "tuples": float(sum(len(s.batch) for s in inputs)),
            "fragments": float(len(window_ids)),
        }
        return BatchResult(
            complete=complete,
            partials=PartialRun(np.asarray(ids, dtype=np.int64), payloads),
            closed_ids=np.asarray(closed, dtype=np.int64),
            stats=stats,
        )

    def merge_partials(self, first: UdfPartial, second: UdfPartial) -> UdfPartial:
        fragments = [
            TupleBatch.concat([a, b]) for a, b in zip(first.fragments, second.fragments)
        ]
        done = [a or b for a, b in zip(first.done, second.done)]
        return UdfPartial(fragments=fragments, done=done)

    def finalize_window(self, window_id: int, payload: UdfPartial) -> "TupleBatch | None":
        result = self._function(payload.fragments)
        return result if len(result) else None

    def window_ready(self, payload: UdfPartial) -> bool:
        return all(payload.done)


def partition_join(
    schemas: "list[Schema]", key: str, output_schema: Schema,
    combine: "Callable[[list[TupleBatch]], TupleBatch]",
) -> WindowUdf:
    """n-ary partition join (§2.4's UDF example).

    Partitions each input window on ``key`` and applies ``combine`` to the
    per-partition batches (one per stream); partitions missing from any
    stream are skipped.
    """

    def function(windows: "list[TupleBatch]") -> TupleBatch:
        keys = [np.unique(np.asarray(w.column(key))) for w in windows if len(w)]
        if len(keys) < len(windows):
            return TupleBatch.empty(output_schema)
        shared = keys[0]
        for other in keys[1:]:
            shared = np.intersect1d(shared, other)
        chunks = []
        for value in shared:
            parts = [w.filter(np.asarray(w.column(key)) == value) for w in windows]
            result = combine(parts)
            if len(result):
                chunks.append(result)
        if not chunks:
            return TupleBatch.empty(output_schema)
        return TupleBatch.concat(chunks)

    return WindowUdf(schemas, output_schema, function)
