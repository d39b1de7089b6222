"""DISTINCT projection per window (used by LRB2).

``SELECT DISTINCT ...`` over a windowed stream emits, per window, the set
of distinct projected rows, ascending.  One dedup pass serves every
window at once: the (window, row) pairs are sorted stably by window and
then field by field, and a row is kept when it differs from the one
before it.  Of rows that compare equal (``0.0`` and ``-0.0``) the first
in stream order is kept, so a window's bytes do not depend on where
tasks are cut; ``NaN`` equals nothing, so every ``NaN`` row is kept.

A task's boundary windows leave as its projected boundary rows, shipped
once, and assembly runs the same pass over each ready window's rows
across the pending runs.
"""

from __future__ import annotations

import numpy as np

from ..relational.expressions import Expression
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .base import (
    BatchResult,
    CostProfile,
    Operator,
    PartialRun,
    StreamSlice,
    align_windows,
    concat_ranges,
    fragment_run,
    window_rows,
)
from .projection import Projection


def distinct_rows(
    rows: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Distinct rows of every range ``rows[starts[i]:stops[i]]``, ascending,
    range after range, and how many each range keeps."""
    lengths = stops - starts
    segment = np.repeat(np.arange(len(starts)), lengths)
    picked = rows[concat_ranges(starts, lengths)]
    names = rows.dtype.names
    # lexsort's last key is the primary one, and it sorts stably.
    order = np.lexsort([picked[name] for name in reversed(names)] + [segment])
    picked, segment = picked[order], segment[order]
    fresh = np.ones(len(picked), dtype=bool)
    fresh[1:] = segment[1:] != segment[:-1]
    for name in names:
        fresh[1:] |= picked[name][1:] != picked[name][:-1]
    return picked[fresh], np.bincount(segment[fresh], minlength=len(starts))


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
        projected = self._projection.process_batch(inputs).complete.data
        ids, (fragments,) = align_windows(inputs)
        final = np.flatnonzero(fragments.final)
        rows, __ = distinct_rows(projected, fragments.start[final], fragments.stop[final])
        stats = {
            "selectivity": 1.0,
            "fragments": float(len(slice_.windows)),
            "tuples": float(len(slice_.batch)),
        }
        return BatchResult(
            complete=TupleBatch(self.output_schema, rows),
            partials=fragment_run(ids, ~fragments.final, [projected], [fragments]),
            stats=stats,
        )

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        rows, counts = distinct_rows(*window_rows(ready, runs))
        offsets = np.zeros(len(ready) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return (TupleBatch(self.output_schema, rows) if len(rows) else None), offsets
