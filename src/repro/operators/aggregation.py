"""Sliding-window aggregation α (§5.3) with incremental computation.

The batch operator function partitions the stream batch into window
fragments (provided by the window assigner) and computes one partial
aggregate per fragment *incrementally*: a single prefix-sum pass serves
every sum/count/avg fragment in O(1) per fragment, and a sparse table
serves min/max — instead of rescanning ``O(window size)`` tuples per
fragment.  This is the property that keeps CPU aggregation throughput flat
as the window slide shrinks (Fig. 11b).

COMPLETE fragments are final and emitted immediately; OPENING / CLOSING /
PENDING fragments become mergeable :class:`~.aggregate_functions.Accumulator`
payloads which the result stage combines across consecutive query tasks
(the assembly operator function).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ..errors import QueryError
from ..relational.schema import Attribute, Schema, TIMESTAMP_ATTRIBUTE
from ..relational.tuples import TupleBatch
from ..windows.assigner import FragmentState
from ..windows.panes import PrefixRangeAggregator, SparseTableRangeAggregator
from .aggregate_functions import Accumulator, AggregateSpec, finalize
from .base import BatchResult, CostProfile, Operator, StreamSlice


@dataclass
class WindowAccumulator:
    """Partial aggregate of one window across ≥1 fragments."""

    columns: dict[str, Accumulator] = field(default_factory=dict)
    count: float = 0.0
    last_timestamp: int = 0

    def merge(self, other: "WindowAccumulator") -> "WindowAccumulator":
        merged = {name: acc for name, acc in self.columns.items()}
        for name, acc in other.columns.items():
            merged[name] = merged[name].merge(acc) if name in merged else acc
        return WindowAccumulator(
            columns=merged,
            count=self.count + other.count,
            last_timestamp=max(self.last_timestamp, other.last_timestamp),
        )


class Aggregation(Operator):
    """α over one or more aggregate functions (no grouping).

    Output schema: ``timestamp`` (the greatest tuple timestamp in the
    window) followed by one float column per :class:`AggregateSpec`.
    Used with the RStream stream function (§2.4 default).
    """

    def __init__(self, input_schema: Schema, specs: "list[AggregateSpec]") -> None:
        super().__init__(input_schema)
        if not specs:
            raise QueryError("aggregation needs at least one aggregate function")
        for spec in specs:
            if spec.column is not None and spec.column not in input_schema:
                raise QueryError(f"aggregate references unknown column {spec.column!r}")
        self.specs = list(specs)
        attributes = [Attribute(TIMESTAMP_ATTRIBUTE, "long")]
        attributes += [Attribute(s.alias, s.output_type) for s in self.specs]
        self._output_schema = Schema(tuple(attributes), name=f"{input_schema.name}_agg")

    @property
    def output_schema(self) -> Schema:
        return self._output_schema

    def cost_profile(self) -> CostProfile:
        return CostProfile(kind="aggregation", aggregate_count=len(self.specs))

    # -- batch operator function ------------------------------------------

    def _columns_needed(self) -> "tuple[set[str], set[str]]":
        """Columns needing (sums, extrema) structures."""
        sums, extrema = set(), set()
        for spec in self.specs:
            if spec.function in ("sum", "avg"):
                sums.add(spec.column)
            elif spec.function in ("min", "max"):
                extrema.add(spec.column)
        return sums, extrema

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch, windows = slice_.batch, slice_.windows
        m = len(windows)
        if m == 0:
            return BatchResult(complete=TupleBatch.empty(self._output_schema))
        starts, ends = windows.starts, windows.ends
        counts = (ends - starts).astype(np.float64)
        ts = batch.timestamps if len(batch) else np.zeros(0, dtype=np.int64)
        last_ts = np.zeros(m, dtype=np.int64)
        nonempty = ends > starts
        last_ts[nonempty] = ts[ends[nonempty] - 1]

        sum_cols, extrema_cols = self._columns_needed()
        sums: dict[str, np.ndarray] = {}
        mins: dict[str, np.ndarray] = {}
        maxs: dict[str, np.ndarray] = {}
        for name in sum_cols:
            sums[name] = PrefixRangeAggregator(batch.column(name)).query(starts, ends)
        for name in extrema_cols:
            values = batch.column(name)
            mins[name] = SparseTableRangeAggregator(values, "min").query(starts, ends)
            maxs[name] = SparseTableRangeAggregator(values, "max").query(starts, ends)

        # Stand-ins for a column no spec sums / takes extrema of, built
        # once per call rather than once per lookup.
        zeros = np.zeros(m)
        pos_inf = np.full(m, np.inf)
        neg_inf = np.full(m, -np.inf)

        def spec_values(spec: AggregateSpec, sel: np.ndarray) -> np.ndarray:
            total = sums.get(spec.column, zeros)[sel] if spec.column else None
            minimum = mins.get(spec.column, pos_inf)[sel] if spec.column else None
            maximum = maxs.get(spec.column, neg_inf)[sel] if spec.column else None
            return finalize(spec.function, total, counts[sel], minimum, maximum)

        complete_mask = windows.mask(FragmentState.COMPLETE) & nonempty
        out_columns = {TIMESTAMP_ATTRIBUTE: last_ts[complete_mask]}
        for spec in self.specs:
            out_columns[spec.alias] = spec_values(spec, complete_mask)
        complete = TupleBatch.from_columns(self._output_schema, **out_columns)

        partials: dict[int, WindowAccumulator] = {}
        closed: list[int] = []
        boundary = ~windows.mask(FragmentState.COMPLETE)
        # Many boundary windows of a small-slide query share the exact same
        # fragment range (e.g. every PENDING window spans the whole batch);
        # compute one payload per distinct range and share it — safe
        # because merging never mutates payloads.
        shared: dict[tuple[int, int], WindowAccumulator] = {}
        for idx in np.nonzero(boundary)[0]:
            wid = int(windows.window_ids[idx])
            key = (int(starts[idx]), int(ends[idx]))
            payload = shared.get(key)
            if payload is None:
                empty = counts[idx] == 0
                columns = {}
                for name in sum_cols | extrema_cols:
                    # Empty fragments answer NaN from the sparse table
                    # (nothing to emit); the mergeable partial needs the
                    # ±inf identities instead, so a later fragment's
                    # real extremum survives the merge.
                    columns[name] = Accumulator(
                        total=float(sums.get(name, zeros)[idx]),
                        count=counts[idx],
                        minimum=np.inf
                        if empty
                        else float(mins.get(name, pos_inf)[idx]),
                        maximum=-np.inf
                        if empty
                        else float(maxs.get(name, neg_inf)[idx]),
                    )
                payload = WindowAccumulator(
                    columns=columns,
                    count=float(counts[idx]),
                    last_timestamp=int(last_ts[idx]),
                )
                shared[key] = payload
            partials[wid] = payload
            if windows.states[idx] == int(FragmentState.CLOSING):
                closed.append(wid)
        stats = {
            "selectivity": 1.0,
            "fragments": float(m),
            "tuples": float(len(batch)),
        }
        return BatchResult(complete=complete, partials=partials, closed_ids=closed, stats=stats)

    # -- assembly operator function -----------------------------------------

    def merge_partials(
        self, first: WindowAccumulator, second: WindowAccumulator
    ) -> WindowAccumulator:
        return first.merge(second)

    def finalize_window(self, window_id: int, payload: WindowAccumulator) -> "TupleBatch | None":
        return self.assemble_windows([(window_id, [payload])])[0]

    def assemble_windows(
        self, ready: "list[tuple[int, list[WindowAccumulator]]]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """Merge chain per window, then one vectorised finalise and emit."""
        merged = [reduce(WindowAccumulator.merge, payloads) for __, payloads in ready]
        offsets = np.concatenate(([0], np.cumsum([w.count != 0 for w in merged], dtype=np.int64)))
        merged = [w for w in merged if w.count != 0]
        if not merged:
            return None, offsets
        counts = np.array([w.count for w in merged], dtype=np.float64)
        columns = {
            TIMESTAMP_ATTRIBUTE: np.array([w.last_timestamp for w in merged], dtype=np.int64)
        }
        blank = Accumulator()
        for spec in self.specs:
            cells = [w.columns.get(spec.column, blank) for w in merged]
            columns[spec.alias] = finalize(
                spec.function,
                np.array([c.total for c in cells], dtype=np.float64),
                counts,
                np.array([c.minimum for c in cells], dtype=np.float64),
                np.array([c.maximum for c in cells], dtype=np.float64),
            )
        return TupleBatch.from_columns(self._output_schema, **columns), offsets
