"""User-defined operator functions (§2.4).

A :class:`WindowUdf` wraps a per-window Python function
``f(windows: list[TupleBatch]) -> TupleBatch`` (one input batch per
stream).  The generic fragment decomposition ships a task's raw boundary
rows, once per input, and applies the function once every input has
closed the window, to slices of the window's rows across the pending
runs — always correct, at the cost of buffering, which is the price the
paper notes for functions without cheaper decompositions.

:func:`partition_join` builds the paper's example n-ary partition-join UDF:
it partitions every input window on a key column and joins corresponding
partitions — behaviour that a standard θ-join cannot express.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ExecutionError
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .base import (
    BatchResult,
    CostProfile,
    Operator,
    PartialRun,
    StreamSlice,
    align_windows,
    fragment_run,
    window_rows,
)


class WindowUdf(Operator):
    """Operator defined by an arbitrary per-window function."""

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
        ids, fragments = align_windows(inputs)
        final = np.logical_and.reduce([f.final for f in fragments])
        rows = [s.batch.data for s in inputs]
        complete, __ = self._apply(
            [(data, f.start[final], f.stop[final]) for data, f in zip(rows, fragments)]
        )
        stats = {
            "selectivity": 1.0,
            "tuples": float(sum(len(s.batch) for s in inputs)),
            "fragments": float(len(ids)),
        }
        return BatchResult(
            complete=complete if complete is not None else TupleBatch.empty(self._output_schema),
            partials=fragment_run(ids, ~final, rows, fragments),
            stats=stats,
        )

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        return self._apply([window_rows(ready, runs, side) for side in range(self.arity)])

    def _apply(
        self, sides: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """The function over every window, one call each: window ``i``
        reads ``rows[starts[i]:stops[i]]`` of each ``(rows, starts,
        stops)`` side.  Returns the results in window order and their
        row offsets."""
        count = len(sides[0][1])
        offsets = np.zeros(count + 1, dtype=np.int64)
        chunks: list[TupleBatch] = []
        for i in range(count):
            result = self._function(
                [
                    TupleBatch(schema, rows[starts[i] : stops[i]])
                    for schema, (rows, starts, stops) in zip(self.input_schemas, sides)
                ]
            )
            if len(result):
                chunks.append(result)
                offsets[i + 1] = len(result)
        np.cumsum(offsets, out=offsets)
        if not chunks:
            return None, offsets
        return (TupleBatch.concat(chunks) if len(chunks) > 1 else chunks[0]), offsets


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
