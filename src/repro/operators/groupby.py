"""Windowed aggregation γ: GROUP-BY over zero or more keys, with HAVING (§5.3).

One operator serves grouped and ungrouped queries: with no key columns
every tuple falls in the one group, and the output schema is
``timestamp`` plus the aggregates.  Keys are integers — a float or
double key column, read or derived, is a :class:`~repro.errors.QueryError`
at construction — and are coded once per task by
:func:`~repro.operators.base.key_codes`, the coder the θ-join shares:
ranks of the keys' cells in their bounding box, from one presence count
and its prefix sum while the box holds no more cells than there are
rows, ``np.unique`` past it.

The batch operator function computes the group tables of *all* window
fragments of a query task at once, as one :class:`GroupTable`: key rows
plus one float64 ``(1 + P) × cells`` matrix whose row 0 counts each
cell's tuples and whose other rows are the ``P`` partials the specs
need, sums first, then mins, then maxes — so each fold kind is one
contiguous row slice, and every take, fold, pickle and emit touches the
matrix once.  Two paths, picked by the data, fill it:

* **Prefix tables** — the paper's incremental computation.  Per group,
  one ``(n + 1)``-long prefix of counts and of each summed column — the
  rows of one 2-D ``cumsum`` — then every (fragment, group) cell is
  ``T[:, stop] − T[:, start]``: O(1) per cell however long the window.
  min / max read per-group sparse tables (two overlapping power-of-two
  blocks), one fold per level for all of a kind's rows.  The
  ``fragments × groups`` cells are read off without compaction and form
  a *dense* table: every cell, empty ones included, keyed on the task's
  distinct keys.
* **Segmented pass** — every distinct fragment range laid out
  fragment-major in tuple order and reduced on ``bin = fragment · G +
  code`` with ``np.bincount`` (count / sum) and ``ufunc.at`` (min / max),
  in blocks of about :data:`_BLOCK_ELEMENTS` flat elements; fragments
  that tile the batch (tumbling windows) skip the gather, and a dense
  ``fragments × groups`` table is only allocated when it is no larger
  than the block it reduces.  Each block's counts and partials stack
  into matrix columns, and its output is a *sparse* table: the
  non-empty cells, one key row each.

Both paths are bitwise those of the naive per-window algorithm (a
sequential fold per fragment, kept as the test oracle in
``tests/reference.py``).  The segmented pass is so by construction:
``bincount`` adds each cell's values from 0.0 in tuple order.  A prefix
difference is so only under an **exactness certificate**, decided per
task and summed column: every value is finite and a multiple of
``2**(E - 53)``, where ``Σ|v| < 2**E``.  Every partial sum of such values
is then a multiple of ``2**(E - 53)`` below ``2**E`` in magnitude, i.e.
an integer below ``2**53`` times a power of two — exactly representable,
so no prefix, no difference and no sequential fold ever rounds.  Counts
are integers below ``2**53``, exact in float64, and min / max pick an
element (the last of equal ones, as ``ufunc.at`` does), so neither
needs a certificate.  The prefix path runs when every summed column is
certified, its tables hold no more elements than the segmented pass
would reduce (nor than :data:`_TABLE_ELEMENTS`) and its dense cells
are no more than the rows they reduce — ``_Cells``' rule for a dense
table; anything else — NaN / inf, a wide dynamic range, tumbling tasks
whose fragments touch every tuple once, many keys — takes the
segmented pass.

Fragments sharing a ``(start, stop)`` range (every PENDING window of a
task) are computed once.  COMPLETE fragments emit their non-empty cells.
Boundary fragments (OPENING / CLOSING / PENDING) leave the task as one
:class:`~repro.operators.base.PartialRun` whose one side is a
:class:`~repro.operators.base.BoundaryRows`: the task's boundary cells
as one :class:`GroupTable` — dense rows or sparse cells, as the path
left them — plus each window's cell bounds and last timestamp as
columns of one int64 array, with no Python object per window.  The
assembly operator function folds all ready windows across the pending
runs at once (:meth:`GroupedAggregation.assemble_windows`): one
``key_codes`` call over the runs' distinct keys, then one ufunc call per
fold kind and run into one ``(1 + P) × ready × keys`` accumulator.  The
GPGPU slot runs this same implementation; the sim prices it with the
GPGPU cost model (:mod:`repro.hardware.gpu`).

HAVING re-uses the selection machinery: the predicate is evaluated over
the emitted (timestamp, groups, aggregates) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..errors import QueryError
from ..relational.expressions import Predicate
from ..relational.schema import Attribute, Schema, TIMESTAMP_ATTRIBUTE
from ..relational.tuples import TupleBatch
from ..windows.assigner import FragmentState
from .aggregate_functions import AggregateSpec, finalize
from .base import (
    BatchResult,
    BoundaryRows,
    CostProfile,
    Operator,
    PartialRun,
    StreamSlice,
    concat_ranges,
    key_codes,
)

#: flat (fragment, tuple) elements one pass of the segmented kernel
#: reduces.  Bounds the transient arrays at ~5 live × 128 KiB, which also
#: keeps a block inside a core's L2: measured 10–30 % faster than 32 Ki
#: on slide-1 and tumbling tasks, 5 % slower at range / slide = 2048.
_BLOCK_ELEMENTS = 1 << 14

#: elements a task's prefix (or sparse) tables may hold, 8 MiB of
#: float64: past it the blocked segmented pass bounds memory instead.
_TABLE_ELEMENTS = 1 << 20

#: partial aggregates kept per (window, group) cell besides the tuple
#: count, and the aggregate functions that need each.
_ACCUMULATOR_OF = {"sum": "sum", "avg": "sum", "min": "min", "max": "max"}
#: each partial kind's fold and identity, in the kinds' matrix-row order.
_FOLDS = {"sum": (np.add, 0.0), "min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


def _certified(values: np.ndarray) -> bool:
    """Whether every prefix sum of ``values``, and every difference of two,
    is exact: all finite, all multiples of ``2**(E - 53)``, ``Σ|v| < 2**E``.

    ``E`` is one above the computed sum's exponent, which absorbs the
    sum's own rounding.  Scaling by ``2**(52 - exponent)`` is exact
    unless it scales down into underflow, which only a value that is no
    such multiple can suffer — the nonzero count catches one that
    underflows to zero.
    """
    with np.errstate(over="ignore"):
        total = np.abs(values).sum()
    if not np.isfinite(total):
        return False
    exponent = np.frexp(total)[1]
    scaled = np.ldexp(values, 52 - exponent)
    return bool(
        np.array_equal(scaled, np.trunc(scaled))
        and (exponent <= 52 or np.count_nonzero(scaled) == np.count_nonzero(values))
    )


def _range_fold(
    kind: str, rows: np.ndarray, first: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """min / max of ``rows[..., first[i] : first[i] + length[i]]`` for every i.

    A sparse table along the last axis: level ``k`` folds ``2**k``
    consecutive elements, of every row at once, and a range folds the
    two level-``floor(log2(length))`` blocks that cover it.  The levels
    lie end to end in one array, so each block is read by one gather.
    Every length must be positive.
    """
    ufunc = _FOLDS[kind][0]
    depth = np.frexp(length)[1] - 1  # floor(log2), exact for integers
    # Level k holds 2**k - 1 fewer elements than the rows, and lies in
    # table[..., bounds[k] : bounds[k + 1]].
    sizes = rows.shape[-1] + 1 - (1 << np.arange(int(depth.max(initial=0)) + 1))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    table = np.empty(rows.shape[:-1] + (int(bounds[-1]),))
    table[..., : bounds[1]] = rows
    for k in range(1, len(sizes)):
        below, half = table[..., bounds[k - 1] : bounds[k]], 1 << (k - 1)
        ufunc(below[..., :-half], below[..., half:], out=table[..., bounds[k] : bounds[k + 1]])
    at = bounds[depth] + first
    return ufunc(table.take(at, axis=-1), table.take(at + length - (1 << depth), axis=-1))


def _as_slice(index: np.ndarray) -> "np.ndarray | slice":
    """``index`` as a slice when it counts up by one, else itself."""
    first, last = int(index[0]), int(index[-1])
    if last - first == len(index) - 1 and (np.diff(index) == 1).all():
        return slice(first, last + 1)
    return index


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
            with np.errstate(invalid="ignore"):  # a NaN value folds to NaN
                ufunc.at(table, self._index, values)
        return table[self._occupied]


@dataclass
class GroupTable:
    """Group-table cells, one per (fragment or window, group).

    Cell ``c``'s key row is ``keys[c % len(keys)]``, which gives the
    table one of two shapes.  A **dense** table lists the task's
    distinct keys once, ascending, and its cells in rows of one per key,
    in key order; a cell may then be empty (count 0, each partial its
    fold's identity).  A **sparse** table has one key row per cell and
    holds non-empty cells only.  ``matrix`` is float64, ``(1 + P) ×
    cells``: column ``c`` is cell ``c``, row 0 its tuple count and the
    other rows its partials in the operator's order (sums, then mins,
    then maxes).  A task's boundary fragments share one table, so the
    processes backend ships two arrays per task over its completion
    queue.
    """

    keys: np.ndarray
    matrix: np.ndarray

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @property
    def dense(self) -> bool:
        """Whether cells come in rows of one per key (a one-row dense
        table reads the same either way)."""
        return len(self.keys) < len(self)

    def key_rows(self, cells: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Key rows that cover ``cells``, and each cell's row among them."""
        if self.dense:
            return self.keys, cells % len(self.keys)
        return self.keys[cells], np.arange(len(cells))

    def range_cells(self, first: np.ndarray, size: np.ndarray) -> np.ndarray:
        """The cells ``[first[i], first[i] + size[i])``, concatenated."""
        if self.dense:  # whole rows
            return (first[:, None] + np.arange(len(self.keys))).ravel()
        return concat_ranges(first, size)

    def take(self, cells: np.ndarray) -> "GroupTable":
        """The table of ``cells``: any cells of a sparse table, whole rows
        of a dense one."""
        keys = self.keys if self.dense else self.keys[cells]
        return GroupTable(keys, self.matrix.take(cells, axis=1))


class GroupedAggregation(Operator):
    """γ: aggregates per window, grouped by zero or more key columns.

    Output schema: ``timestamp`` (the greatest tuple timestamp in the
    window), the group columns (input types), then one float column per
    aggregate.  One output row per non-empty (window, group), rows of a
    window sorted by group key for determinism; with no group columns,
    one row per non-empty window.
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
        ``segment = position / 5280`` grouping key.  A float or double key,
        read or derived, is a :class:`~repro.errors.QueryError`."""
        super().__init__(input_schema)
        if not specs:
            raise QueryError("aggregation needs at least one aggregate function")
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
        #: the (kind, column) partials a cell carries — only what a spec
        #: needs — in matrix-row order from row 1: sums, mins, maxes.
        self._partials = sorted(
            {
                (_ACCUMULATOR_OF[s.function], s.column)
                for s in self.specs
                if s.column is not None and s.function in _ACCUMULATOR_OF
            },
            key=lambda partial: (list(_FOLDS).index(partial[0]), partial[1]),
        )
        #: (kind, matrix rows) per fold kind present: the count row folds
        #: with the sums, by addition from 0.0.
        kinds = [kind for kind, __ in self._partials] + ["sum"]
        ends = np.cumsum([0] + [kinds.count(kind) for kind in _FOLDS]).tolist()
        self._folds = [
            (kind, slice(a, b)) for kind, a, b in zip(_FOLDS, ends, ends[1:]) if b > a
        ]
        self._identity = np.array([0.0] + [_FOLDS[kind][1] for kind, __ in self._partials])
        keys = [
            Attribute(
                name,
                self.derived_columns[name][1]
                if name in self.derived_columns
                else input_schema.attribute(name).type_name,
            )
            for name in self.group_columns
        ]
        for key in keys:
            # An int64 key matrix would truncate 1.5 and 1.7 into one group.
            if key.dtype.kind == "f":
                raise QueryError(
                    f"GROUP-BY key {key.name!r} is {key.type_name}; group keys must be integers"
                )
        attributes = [Attribute(TIMESTAMP_ATTRIBUTE, "long"), *keys]
        attributes += [Attribute(s.alias, s.output_type) for s in self.specs]
        suffix = "groupby" if self.group_columns else "agg"
        self._output_schema = Schema(
            tuple(attributes), name=f"{input_schema.name}_{suffix}"
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
            has_group_by=bool(self.group_columns),
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

    def _empty_table(self) -> GroupTable:
        return GroupTable(
            np.zeros((0, len(self.group_columns)), dtype=np.int64),
            np.zeros((len(self._identity), 0)),
        )

    def _fragment_tables(
        self, batch: TupleBatch, starts: np.ndarray, stops: np.ndarray
    ) -> "tuple[GroupTable, np.ndarray]":
        """Group tables of batch ranges ``[starts[i], stops[i])`` in one pass.

        Returns the tables as one :class:`GroupTable` — cells range-major,
        keys ascending within a range — and the cell count per range.
        """
        lengths = np.maximum(stops - starts, 0)
        total = int(lengths.sum())
        if total == 0:
            return self._empty_table(), np.zeros(len(lengths), dtype=np.int64)
        distinct, codes = key_codes(self._key_rows(batch))
        columns = {
            column: np.asarray(batch.column(column), dtype=np.float64)
            for column in {column for __, column in self._partials}
        }
        # What each tuple adds to each matrix row: 1 to the count.
        inputs = [1.0] + [columns[column] for __, column in self._partials]
        # The tables hold G × (n + 1) elements, times the sparse tables'
        # levels for min / max, and their dense output ranges × G cells;
        # the segmented pass reduces ``total``.
        extrema = len(self._folds) > 1
        levels = 1 + len(batch).bit_length() if extrema else 1
        tables = len(distinct) * (len(batch) + 1) * levels
        cells = len(distinct) * len(starts)
        if (
            tables <= min(total, _TABLE_ELEMENTS)
            and cells <= total
            and all(_certified(values) for values in inputs[1 : self._folds[0][1].stop])
        ):
            table = self._prefix_tables(distinct, codes, inputs, starts, starts + lengths)
            return table, np.full(len(starts), len(distinct))
        return self._segmented_tables(distinct, codes, inputs, starts, lengths)

    def _prefix_tables(
        self,
        distinct: np.ndarray,
        codes: np.ndarray,
        inputs: "list",
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> GroupTable:
        """:meth:`_fragment_tables` read off per-group prefix and sparse
        tables, as the dense table of every (range, group) cell.

        Row ``r`` of one ``(1 + P) × G(n + 1)`` array holds matrix row
        ``r``'s tables, group ``g``'s in column block ``g``: slot ``i + 1``
        holds tuple ``i``'s input if the tuple is in the group, else the
        identity.  A prefix then also counts the rows before ``g``, which
        every difference cancels exactly: the counts are integers, and the
        sums are certified, so no partial sum of any subset of them
        rounds.  An empty cell's count and sum are ``x − x = +0.0``.
        """
        width = len(codes) + 1
        base = np.arange(len(distinct)) * width
        # Every cell's bounds in the tables, range-major.
        lo = (base + starts[:, None]).ravel()
        hi = (base + stops[:, None]).ravel()
        # With one group every tuple is in it: its slots are one slice.
        slot = codes * width + np.arange(1, width) if len(distinct) > 1 else slice(1, None)
        table = np.empty((len(inputs), len(distinct) * width))
        table[...] = self._identity[:, None]
        for row, values in zip(table, inputs):
            row[slot] = values
        matrix = np.empty((len(inputs), len(lo)))
        for kind, rows in self._folds:
            if kind == "sum":
                # Accumulated from a leading +0.0, no prefix and so no
                # difference is ever -0.0, just as no fold from 0.0 is.
                sums = table[rows]
                np.cumsum(sums, axis=1, out=sums)
                matrix[rows] = sums.take(hi, axis=1) - sums.take(lo, axis=1)
            else:
                # An empty range folds its first slot, inside the table even
                # at the batch end, and reads back as the identity.
                held = hi > lo
                folded = _range_fold(kind, table[rows], lo + held, np.maximum(hi - lo, 1))
                matrix[rows] = np.where(held, folded, _FOLDS[kind][1])
        return GroupTable(distinct, matrix)

    def _segmented_tables(
        self,
        distinct: np.ndarray,
        codes: np.ndarray,
        inputs: "list",
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> "tuple[GroupTable, np.ndarray]":
        """:meth:`_fragment_tables` by one segmented reduction per block,
        as the sparse table of the non-empty cells."""
        stops = starts + lengths
        offsets = np.cumsum(lengths) - lengths
        cuts = np.searchsorted(offsets, np.arange(0, int(lengths.sum()), _BLOCK_ELEMENTS))
        cuts = np.append(cuts, len(lengths))
        fragments, group_codes, blocks = [], [], []
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
            block = np.empty((len(inputs), len(cells.rows)))
            block[0] = cells.rows
            for row, (kind, __) in enumerate(self._partials, 1):
                block[row] = cells.reduce(kind, inputs[row][rows])
            blocks.append(block)
        table = GroupTable(
            distinct[np.concatenate(group_codes)], np.concatenate(blocks, axis=1)
        )
        return table, np.bincount(np.concatenate(fragments), minlength=len(lengths))

    def _emit_rows(
        self, timestamps: np.ndarray, table: GroupTable, cells: np.ndarray
    ) -> "tuple[TupleBatch, np.ndarray | None]":
        """Output rows of ``table``'s finished ``cells``, and the HAVING mask."""
        columns = {TIMESTAMP_ATTRIBUTE: timestamps}
        keys, local = table.key_rows(cells)
        for j, name in enumerate(self.group_columns):
            columns[name] = keys[local, j]
        values = table.matrix.take(cells, axis=1)
        partials = dict(zip(self._partials, values[1:]))
        for spec in self.specs:
            columns[spec.alias] = finalize(
                spec.function,
                partials.get(("sum", spec.column)),
                values[0],
                partials.get(("min", spec.column)),
                partials.get(("max", spec.column)),
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
        # task all span the whole batch, and share one table and its cells.
        span = len(batch) + 1
        ranges, fragment = np.unique(windows.starts * span + windows.ends, return_inverse=True)
        starts, stops = np.divmod(ranges, span)
        tables, size = self._fragment_tables(batch, starts, stops)
        first = np.cumsum(size) - size
        nonempty = stops > starts
        last_ts = np.zeros(len(ranges), dtype=np.int64)
        if nonempty.any():
            last_ts[nonempty] = np.asarray(batch.timestamps)[stops[nonempty] - 1]

        # COMPLETE windows emit their non-empty cells, and drop the rest.
        boundary = windows.states != int(FragmentState.COMPLETE)
        emitted = fragment[~boundary & nonempty[fragment]]
        cells = tables.range_cells(first[emitted], size[emitted])
        held = tables.matrix[0, cells] > 0
        complete, __ = self._emit_rows(
            np.repeat(last_ts[emitted], size[emitted])[held], tables, cells[held]
        )
        groups = np.count_nonzero(held)

        ids = windows.window_ids[boundary]
        partials = PartialRun()
        if len(ids):
            # The boundary windows' cells leave as one table, located per
            # window by cell bounds: ranges shipped, and each window's rank.
            kept = np.zeros(len(ranges), dtype=bool)
            kept[fragment[boundary]] = True
            shipped = np.flatnonzero(kept)
            slot = (np.cumsum(kept) - 1)[fragment[boundary]]
            table = tables.take(tables.range_cells(first[shipped], size[shipped]))
            hi = np.cumsum(size[shipped])
            spans = np.stack((hi - size[shipped], hi, last_ts[shipped]))[:, slot]
            partials = PartialRun(
                ids.astype(np.int64, copy=False),
                (windows.states[boundary] == int(FragmentState.CLOSING))[None],
                (BoundaryRows(table, spans),),
            )
            groups += np.count_nonzero(table.matrix[0])
        stats = {
            "selectivity": 1.0,
            "fragments": float(len(windows)),
            # Non-empty cells built, per fragment: shared cells count once.
            "groups": float(groups) / max(1, len(windows)),
            "tuples": float(len(batch)),
        }
        return BatchResult(complete=complete, partials=partials, stats=stats)

    # -- assembly operator function ---------------------------------------------

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """Fold every ready window's cells across ``runs`` into one table.

        Each run contributes the cells of the ready windows it holds,
        located by one binary search: a dense table one row per window, a
        sparse one each window's cells.  One :func:`key_codes` call maps
        the runs' key rows — a dense table's distinct keys, a sparse
        one's located cells' — into their union, and each run's matrix
        folds into one ``(1 + P) × ready × keys`` accumulator, one ufunc
        call per fold kind, with window and key slices wherever they line
        up.  Every (window, group) cell so folds its fragments' partials
        from 0.0 (from the identity for min / max) in task order — bitwise the pairwise merge chain, since
        an empty dense cell adds ``+0.0`` or the identity, which changes
        no partial.  Every cell with a tuple count above 0 is emitted.
        """
        offsets = np.zeros(len(ready) + 1, dtype=np.int64)
        last_ts = np.full(len(ready), np.iinfo(np.int64).min)
        parts, key_sets = [], []
        for run in runs:
            at, row = run.locate(ready)
            if not len(at):
                continue
            (boundary,) = run.sides
            table = boundary.rows
            lo, hi, ts = boundary.spans[:, row]
            # A run holds a window once, so ``at`` has no repeats.
            last_ts[at] = np.maximum(last_ts[at], ts)
            if table.dense:  # a window is one row
                parts.append((table, _as_slice(at), _as_slice(lo // len(table.keys))))
                key_sets.append(table.keys)
            else:
                cells = concat_ranges(lo, hi - lo)
                parts.append((table, np.repeat(at, hi - lo), cells))
                key_sets.append(table.keys[cells])
        if not parts:
            return None, offsets
        distinct, codes = key_codes(np.concatenate(key_sets))
        folded = np.empty((len(self._identity), len(ready), len(distinct)))
        folded[...] = self._identity[:, None, None]
        coded = 0
        for (table, window, cells), keys in zip(parts, key_sets):
            columns = slice(None)  # a dense run holding every key
            if not (table.dense and len(keys) == len(distinct)):
                columns = codes[coded : coded + len(keys)]
                if table.dense and not isinstance(window, slice):
                    window = window[:, None]
            coded += len(keys)
            aligned = isinstance(window, slice) and isinstance(columns, slice)
            view = (len(folded), -1, len(keys)) if table.dense else (len(folded), -1)
            values = table.matrix.reshape(view)[:, cells]
            # Like ``bincount``, the fold is silent on NaN and inf - inf.
            with np.errstate(invalid="ignore"):
                for kind, rows in self._folds:
                    ufunc, into = _FOLDS[kind][0], (rows, window, columns)
                    if aligned:  # a view: fold in place
                        target = folded[into]
                        ufunc(target, values[rows], out=target)
                    else:
                        folded[into] = ufunc(folded[into], values[rows])
        merged = GroupTable(distinct, folded.reshape(len(folded), -1))
        cells = np.flatnonzero(merged.matrix[0] > 0)
        window = cells // len(distinct)
        rows, keep = self._emit_rows(last_ts[window], merged, cells)
        if keep is not None:
            window = window[keep]
        np.cumsum(np.bincount(window, minlength=len(ready)), out=offsets[1:])
        return (rows if len(rows) else None), offsets
