"""GROUP-BY aggregation γ with optional HAVING (§5.3).

The batch operator function computes the group tables of *all* window
fragments of a query task in **one segmented pass**: the task's group
keys are encoded once (``np.unique`` over the task's key rows), every
distinct fragment range is laid out fragment-major in tuple order, and
the flat sequence is reduced on ``bin = fragment · G + code`` with
``np.bincount`` (count / sum) and ``ufunc.at`` (min / max, only for
columns an aggregate needs) — the dense equivalent of the paper's
pooled hash tables, without a Python step per window.  ``bincount``
adds sequentially in input order, so every (fragment, group) cell
performs exactly the float additions a per-fragment scan from 0.0
would, in the same order: results are bitwise those of the naive
per-window algorithm (kept as the test oracle in ``tests/reference.py``).
A prefix-sum / pane *difference* would not be — it changes rounding.

The memory shape of the pass is decided from the input: fragments are
processed in blocks of about :data:`_BLOCK_ELEMENTS` flat elements so
transient arrays stay under a megabyte however large ``range / slide``
is; fragments sharing a ``(start, stop)`` range (every PENDING window
of a task) are computed once; a dense ``fragments × groups`` table is
only allocated when it is no larger than the block it reduces (high
key cardinalities rank-compact the occupied cells instead); and
fragments that tile the batch (tumbling windows) skip the gather.

Boundary fragments (OPENING / CLOSING / PENDING) leave the task as
:class:`GroupedWindowAccumulator` payloads — row references into one
columnar :class:`GroupBlock` per task — which the assembly operator
function folds across tasks for all ready windows at once
(:meth:`GroupedAggregation.assemble_windows`).  The GPGPU slot runs this
same implementation (:func:`repro.gpu.kernels.gpu_kernel`).

HAVING re-uses the selection machinery: the predicate is evaluated over
the emitted (timestamp, groups, aggregates) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import QueryError
from ..relational.expressions import Predicate
from ..relational.schema import Attribute, Schema, TIMESTAMP_ATTRIBUTE
from ..relational.tuples import TupleBatch
from ..windows.assigner import FragmentState
from .aggregate_functions import AggregateSpec, finalize
from .base import BatchResult, CostProfile, Operator, StreamSlice, concat_ranges

#: flat (fragment, tuple) elements one pass of the segmented kernel
#: reduces.  Bounds the transient arrays at ~5 live × 128 KiB, which also
#: keeps a block inside a core's L2: measured 10–30 % faster than 32 Ki
#: on slide-1 and tumbling tasks, 5 % slower at range / slide = 2048.
_BLOCK_ELEMENTS = 1 << 14

#: partial aggregates kept per (window, group) cell besides the tuple
#: count, and the aggregate functions that need each.
_ACCUMULATOR_OF = {"sum": "sum", "avg": "sum", "min": "min", "max": "max"}
_FOLDS = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


def _encode_keys(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Distinct rows of ``keys`` in lexicographic order, and every row's rank."""
    if keys.shape[1] == 1:
        distinct, codes = np.unique(keys[:, 0], return_inverse=True)
        return distinct[:, None], codes
    distinct, codes = np.unique(keys, axis=0, return_inverse=True)
    return distinct, codes.ravel()


class _Cells:
    """The occupied (segment, code) cells of a row set, in (segment, code) order.

    Reductions run over a dense ``segments × codes`` table while that is
    no larger than the row set; past it the occupied cells are
    rank-compacted first.  Either way each cell folds its rows
    sequentially in row order, which is what keeps sums bitwise.
    """

    def __init__(
        self, segments: np.ndarray, codes: np.ndarray, n_segments: int, n_codes: int
    ) -> None:
        bins = segments * n_codes + codes
        if n_segments * n_codes <= len(bins):
            self._index, self._size = bins, n_segments * n_codes
            rows = np.bincount(bins, minlength=self._size)
            self._occupied = occupied = np.flatnonzero(rows)
            self.rows = rows[occupied]
        else:
            occupied, self._index = np.unique(bins, return_inverse=True)
            self._size, self._occupied = len(occupied), slice(None)
            self.rows = np.bincount(self._index, minlength=self._size)
        self.segments, self.codes = np.divmod(occupied, n_codes)

    def reduce(self, kind: str, values: np.ndarray) -> np.ndarray:
        """Per-cell ``sum`` / ``min`` / ``max`` of ``values`` (one per row)."""
        if kind == "sum":
            table = np.bincount(self._index, weights=values, minlength=self._size)
        else:
            ufunc, identity = _FOLDS[kind]
            table = np.full(self._size, identity)
            ufunc.at(table, self._index, values)
        return table[self._occupied]


@dataclass
class GroupBlock:
    """Columnar group-table rows: one row per (fragment or window, group).

    ``keys`` is (rows × key columns) int64, ``counts`` the per-row tuple
    counts and ``partials`` maps ``(kind, column)`` — kind one of
    ``sum`` / ``min`` / ``max`` — to one float64 partial per row.  A
    task's boundary fragments share one block (rows fragment-major,
    keys ascending within a fragment), so the processes backend ships
    a handful of arrays per task over its completion queue.
    """

    keys: np.ndarray
    counts: np.ndarray
    partials: "dict[tuple[str, str], np.ndarray]"

    def __len__(self) -> int:
        return len(self.counts)

    def take(self, rows: np.ndarray) -> "GroupBlock":
        return GroupBlock(
            self.keys[rows],
            self.counts[rows],
            {name: column[rows] for name, column in self.partials.items()},
        )

    @classmethod
    def concat(cls, blocks: "list[GroupBlock]") -> "GroupBlock":
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            np.concatenate([b.keys for b in blocks]),
            np.concatenate([b.counts for b in blocks]),
            {
                name: np.concatenate([b.partials[name] for b in blocks])
                for name in blocks[0].partials
            },
        )


@dataclass
class GroupedWindowAccumulator:
    """Partial group table of one window: rows ``[start, stop)`` of a block.

    Payloads are immutable references — windows whose fragments coincide
    share one payload object, and all boundary payloads of a task share
    one :class:`GroupBlock`, which pickle's memo serialises once.  The
    default instance is the empty table.
    """

    block: "GroupBlock | None" = None
    start: int = 0
    stop: int = 0
    last_timestamp: int = 0


class GroupedAggregation(Operator):
    """γ: GROUP-BY over one or more key columns, with aggregates.

    Output schema: ``timestamp``, the group columns (input types), then one
    float column per aggregate.  One output row per (window, group), rows
    of a window sorted by group key for determinism.
    """

    def __init__(
        self,
        input_schema: Schema,
        group_columns: "list[str]",
        specs: "list[AggregateSpec]",
        having: "Predicate | None" = None,
        derived_columns: "dict[str, tuple] | None" = None,
    ) -> None:
        """``derived_columns`` maps extra integer-valued key names to an
        ``(expression, type_name)`` pair evaluated per batch — e.g. LRB3's
        ``segment = position / 5280`` grouping key."""
        super().__init__(input_schema)
        if not group_columns:
            raise QueryError("GROUP-BY needs at least one key column")
        if not specs:
            raise QueryError("GROUP-BY needs at least one aggregate function")
        self.derived_columns = dict(derived_columns or {})
        for name in group_columns:
            if name not in input_schema and name not in self.derived_columns:
                raise QueryError(f"GROUP-BY references unknown column {name!r}")
        for spec in specs:
            if spec.column is not None and spec.column not in input_schema:
                raise QueryError(f"aggregate references unknown column {spec.column!r}")
        self.group_columns = list(group_columns)
        self.specs = list(specs)
        self.having = having
        #: the (kind, column) partials a cell carries — only what a spec needs.
        self._partials = sorted(
            {
                (_ACCUMULATOR_OF[s.function], s.column)
                for s in self.specs
                if s.column is not None and s.function in _ACCUMULATOR_OF
            }
        )
        attributes = [Attribute(TIMESTAMP_ATTRIBUTE, "long")]
        attributes += [
            Attribute(
                name,
                self.derived_columns[name][1]
                if name in self.derived_columns
                else input_schema.attribute(name).type_name,
            )
            for name in self.group_columns
        ]
        attributes += [Attribute(s.alias, s.output_type) for s in self.specs]
        self._output_schema = Schema(
            tuple(attributes), name=f"{input_schema.name}_groupby"
        )
        if having is not None:
            unknown = having.references() - set(self._output_schema.attribute_names)
            if unknown:
                raise QueryError(
                    f"HAVING references columns not in the output: {sorted(unknown)}"
                )

    @property
    def output_schema(self) -> Schema:
        return self._output_schema

    def cost_profile(self) -> CostProfile:
        return CostProfile(
            kind="aggregation",
            aggregate_count=len(self.specs),
            has_group_by=True,
            predicate_tree=self.having,
        )

    # -- grouping helpers ----------------------------------------------------

    def _key_rows(self, batch: TupleBatch) -> np.ndarray:
        """The batch's (tuples × key columns) int64 group keys."""
        keys = np.empty((len(batch), len(self.group_columns)), dtype=np.int64)
        if len(batch):
            for j, name in enumerate(self.group_columns):
                if name in self.derived_columns:
                    keys[:, j] = np.asarray(self.derived_columns[name][0].evaluate(batch))
                else:
                    keys[:, j] = batch.column(name)
        return keys

    def _empty_block(self) -> GroupBlock:
        return GroupBlock(
            np.zeros((0, len(self.group_columns)), dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            {partial: np.zeros(0, dtype=np.float64) for partial in self._partials},
        )

    def _fragment_tables(
        self, batch: TupleBatch, starts: np.ndarray, stops: np.ndarray
    ) -> "tuple[GroupBlock, np.ndarray]":
        """Group tables of batch ranges ``[starts[i], stops[i])`` in one pass.

        Returns the tables as one block — rows fragment-major, keys
        ascending within a fragment — and the row count per fragment.
        """
        lengths = np.maximum(stops - starts, 0)
        offsets = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        if total == 0:
            return self._empty_block(), np.zeros(len(lengths), dtype=np.int64)
        distinct, codes = _encode_keys(self._key_rows(batch))
        values = {
            column: np.asarray(batch.column(column), dtype=np.float64)
            for column in {column for __, column in self._partials}
        }
        cuts = np.searchsorted(offsets, np.arange(0, total, _BLOCK_ELEMENTS))
        cuts = np.append(cuts, len(lengths))
        fragments, group_codes, counts = [], [], []
        partials = {partial: [] for partial in self._partials}
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo == hi:
                continue
            first, last = starts[lo:hi], stops[lo:hi]
            if np.array_equal(first[1:], last[:-1]):
                # The fragments tile a batch range: no gather needed.
                rows = slice(first[0], last[-1])
            else:
                rows = concat_ranges(first, lengths[lo:hi])
            segments = np.repeat(np.arange(hi - lo), lengths[lo:hi])
            cells = _Cells(segments, codes[rows], hi - lo, len(distinct))
            fragments.append(cells.segments + lo)
            group_codes.append(cells.codes)
            counts.append(cells.rows)
            for kind, column in self._partials:
                partials[kind, column].append(cells.reduce(kind, values[column][rows]))
        block = GroupBlock(
            distinct[np.concatenate(group_codes)],
            np.concatenate(counts).astype(np.float64),
            {partial: np.concatenate(chunks) for partial, chunks in partials.items()},
        )
        return block, np.bincount(np.concatenate(fragments), minlength=len(lengths))

    def _emit_rows(
        self, timestamps: np.ndarray, groups: GroupBlock
    ) -> "tuple[TupleBatch, np.ndarray | None]":
        """Output rows of finished group-table rows, and the HAVING mask."""
        columns = {TIMESTAMP_ATTRIBUTE: timestamps}
        for j, name in enumerate(self.group_columns):
            columns[name] = groups.keys[:, j]
        partial = groups.partials.get
        for spec in self.specs:
            columns[spec.alias] = finalize(
                spec.function,
                partial(("sum", spec.column)),
                groups.counts,
                partial(("min", spec.column)),
                partial(("max", spec.column)),
            )
        out = TupleBatch.from_columns(self._output_schema, **columns)
        if self.having is None:
            return out, None
        keep = self.having.evaluate(out)
        return out.filter(keep), keep

    # -- batch operator function ----------------------------------------------

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        slice_ = self._single_input(inputs)
        batch, windows = slice_.batch, slice_.windows
        if len(windows) == 0:
            return BatchResult(complete=TupleBatch.empty(self._output_schema))
        # One table per distinct fragment range: the PENDING windows of a
        # task all span the whole batch, and share one table and payload.
        span = len(batch) + 1
        ranges, fragment = np.unique(windows.starts * span + windows.ends, return_inverse=True)
        starts, stops = np.divmod(ranges, span)
        tables, groups = self._fragment_tables(batch, starts, stops)
        first_row = np.cumsum(groups) - groups
        nonempty = stops > starts
        last_ts = np.zeros(len(ranges), dtype=np.int64)
        if nonempty.any():
            last_ts[nonempty] = np.asarray(batch.timestamps)[stops[nonempty] - 1]

        boundary = windows.states != int(FragmentState.COMPLETE)
        emitted = fragment[~boundary & nonempty[fragment]]
        complete, __ = self._emit_rows(
            np.repeat(last_ts[emitted], groups[emitted]),
            tables.take(concat_ranges(first_row[emitted], groups[emitted])),
        )

        partials: dict[int, GroupedWindowAccumulator] = {}
        shipped = np.unique(fragment[boundary])
        if len(shipped):
            # COMPLETE rows are emitted and dropped; the boundary rows
            # leave as one block that every payload references.
            block = tables.take(concat_ranges(first_row[shipped], groups[shipped]))
            bounds = np.concatenate(([0], np.cumsum(groups[shipped])))
            payloads = [
                GroupedWindowAccumulator(block, int(lo), int(hi), int(ts))
                for lo, hi, ts in zip(bounds[:-1], bounds[1:], last_ts[shipped])
            ]
            slots = np.searchsorted(shipped, fragment[boundary])
            partials = {
                int(wid): payloads[slot]
                for wid, slot in zip(windows.window_ids[boundary], slots)
            }
        closing = windows.window_ids[windows.states == int(FragmentState.CLOSING)]
        stats = {
            "selectivity": 1.0,
            "fragments": float(len(windows)),
            # Tables built, per fragment: a shared payload counts once.
            "groups": float(groups[emitted].sum() + groups[shipped].sum())
            / max(1, len(windows)),
            "tuples": float(len(batch)),
        }
        return BatchResult(
            complete=complete,
            partials=partials,
            closed_ids=[int(wid) for wid in closing],
            stats=stats,
        )

    # -- assembly operator function ---------------------------------------------

    def _fold(
        self, ready: "list[list[GroupedWindowAccumulator]]"
    ) -> "tuple[GroupBlock, np.ndarray]":
        """Left-fold each window's payloads (task order) into one table.

        Returns the merged tables as one block — rows window-major, keys
        ascending within a window — and each row's window position.
        Every (window, group) cell adds its fragments' partials from 0.0
        in task order, which is bitwise the pairwise merge chain.
        """
        parts = [
            (position, payload)
            for position, payloads in enumerate(ready)
            for payload in payloads
            if payload.stop > payload.start
        ]
        if not parts:
            return self._empty_block(), np.zeros(0, dtype=np.int64)
        # Stack the distinct blocks the payloads reference (a window that
        # spans k tasks touches k), then gather every payload's row range.
        blocks = {id(payload.block): payload.block for __, payload in parts}
        base = dict(zip(blocks, accumulate(map(len, blocks.values()), initial=0)))
        window = np.asarray([position for position, __ in parts])
        first = np.asarray([base[id(p.block)] + p.start for __, p in parts])
        length = np.asarray([p.stop - p.start for __, p in parts])
        rows = GroupBlock.concat(list(blocks.values())).take(concat_ranges(first, length))
        distinct, codes = _encode_keys(rows.keys)
        cells = _Cells(np.repeat(window, length), codes, len(ready), len(distinct))
        merged = GroupBlock(
            distinct[cells.codes],
            cells.reduce("sum", rows.counts),
            {
                (kind, column): cells.reduce(kind, values)
                for (kind, column), values in rows.partials.items()
            },
        )
        return merged, cells.segments

    def assemble_windows(
        self, ready: "list[tuple[int, list[GroupedWindowAccumulator]]]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        merged, window = self._fold([payloads for __, payloads in ready])
        last_ts = np.asarray(
            [max(p.last_timestamp for p in payloads) for __, payloads in ready],
            dtype=np.int64,
        )
        rows, keep = self._emit_rows(last_ts[window], merged)
        if keep is not None:
            window = window[keep]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(window, minlength=len(ready)))))
        return (rows if len(rows) else None), offsets

    def merge_partials(
        self, first: GroupedWindowAccumulator, second: GroupedWindowAccumulator
    ) -> GroupedWindowAccumulator:
        merged, __ = self._fold([[first, second]])
        last = max(first.last_timestamp, second.last_timestamp)
        return GroupedWindowAccumulator(merged, 0, len(merged), last)

    def finalize_window(
        self, window_id: int, payload: GroupedWindowAccumulator
    ) -> "TupleBatch | None":
        return self.assemble_windows([(window_id, [payload])])[0]
