"""Windowed aggregation γ: GROUP-BY over zero or more keys, with HAVING (§5.3).

One operator serves grouped and ungrouped queries: with no key columns
every tuple falls in the one group, and the output schema is
``timestamp`` plus the aggregates.  Keys are integers — a float or
double key column, read or derived, is a :class:`~repro.errors.QueryError`
at construction — and are coded once per task, and once per assembly,
by :func:`~repro.operators.base.key_codes`, the coder the θ-join shares:
ranks of the keys' cells in their bounding box, from one presence count
and its prefix sum while the box holds no more cells than there are
rows, ``np.unique`` past it.

The batch operator function computes the group tables of *all* window
fragments of a query task at once, on one of two paths the data picks:

* **Prefix tables** — the paper's incremental computation.  Per group,
  one ``(n + 1)``-long prefix table of counts and one of each summed
  column, then every (fragment, group) cell is ``P[g, stop] −
  P[g, start]``: O(1) per cell however long the window.  min / max read
  a per-group sparse table (two overlapping power-of-two blocks).
* **Segmented pass** — every distinct fragment range laid out
  fragment-major in tuple order and reduced on ``bin = fragment · G +
  code`` with ``np.bincount`` (count / sum) and ``ufunc.at`` (min / max),
  in blocks of about :data:`_BLOCK_ELEMENTS` flat elements; fragments
  that tile the batch (tumbling windows) skip the gather, and a dense
  ``fragments × groups`` table is only allocated when it is no larger
  than the block it reduces.

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
are integer prefixes, and min / max pick an element (the last of equal
ones, as ``ufunc.at`` does), so neither needs a certificate.  The
prefix path runs when every summed column is certified and its tables
hold no more elements than the segmented pass would reduce (nor than
:data:`_TABLE_ELEMENTS`); anything else — NaN / inf, a wide dynamic
range, tumbling tasks whose fragments touch every tuple once — takes
the segmented pass.

Fragments sharing a ``(start, stop)`` range (every PENDING window of a
task) are computed once.  Boundary fragments (OPENING / CLOSING /
PENDING) leave the task as one :class:`~repro.operators.base.PartialRun`
whose one side is a :class:`~repro.operators.base.BoundaryRows`: the
task's one columnar :class:`GroupBlock` of boundary rows plus each
window's row bounds and last timestamp as columns of one int64 array,
with no Python object per window.  The assembly operator function folds all ready windows across the pending runs at
once (:meth:`GroupedAggregation.assemble_windows`).  The GPGPU slot runs
this same implementation; the sim prices it with the GPGPU cost model
(:mod:`repro.hardware.gpu`).

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
_FOLDS = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


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
    """min / max of ``rows[first[i] : first[i] + length[i]]`` for every i.

    A sparse table: level ``k`` folds ``2**k`` consecutive rows, and a
    range folds the two level-``floor(log2(length))`` blocks that cover
    it.  Every length must be positive.
    """
    ufunc = _FOLDS[kind][0]
    depth = np.frexp(length)[1] - 1  # floor(log2), exact for integers
    asked = np.bincount(depth) > 0
    out = np.empty(len(first))
    level = rows
    for k in range(len(asked)):
        if k:
            half = 1 << (k - 1)
            level = ufunc(level[:-half], level[half:])
        if asked[k]:
            at = np.flatnonzero(depth == k)
            out[at] = ufunc(level[first[at]], level[first[at] + length[at] - (1 << k)])
    return out


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
        #: the (kind, column) partials a cell carries — only what a spec needs.
        self._partials = sorted(
            {
                (_ACCUMULATOR_OF[s.function], s.column)
                for s in self.specs
                if s.column is not None and s.function in _ACCUMULATOR_OF
            }
        )
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
        total = int(lengths.sum())
        if total == 0:
            return self._empty_block(), np.zeros(len(lengths), dtype=np.int64)
        distinct, codes = key_codes(self._key_rows(batch))
        values = {
            column: np.asarray(batch.column(column), dtype=np.float64)
            for column in {column for __, column in self._partials}
        }
        # The tables hold G × (n + 1) elements, times the sparse tables'
        # levels for min / max; the segmented pass reduces ``total``.
        extrema = any(kind != "sum" for kind, __ in self._partials)
        levels = 1 + len(batch).bit_length() if extrema else 1
        tables = len(distinct) * (len(batch) + 1) * levels
        if tables <= min(total, _TABLE_ELEMENTS) and all(
            _certified(values[column]) for kind, column in self._partials if kind == "sum"
        ):
            return self._prefix_tables(distinct, codes, values, starts, starts + lengths)
        return self._segmented_tables(distinct, codes, values, starts, lengths)

    def _prefix_tables(
        self,
        distinct: np.ndarray,
        codes: np.ndarray,
        values: "dict[str, np.ndarray]",
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> "tuple[GroupBlock, np.ndarray]":
        """:meth:`_fragment_tables` read off per-group prefix and sparse tables.

        Group ``g``'s table is row ``g`` of one flat ``G × (n + 1)``
        array — its slot ``i + 1`` holds tuple ``i`` if the tuple is in
        the group — so each table is built by one 1-D pass.  A prefix
        then also counts the rows before ``g``, which every difference
        cancels exactly: the counts are integers, and the sums are
        certified, so no partial sum of any subset of them rounds.
        """
        width = len(codes) + 1
        base = np.arange(len(distinct)) * width
        if len(distinct) == 1:  # every tuple is in the one group
            slot = slice(1, None)
            rows = (stops - starts)[:, None]
        else:
            slot = codes * width + np.arange(1, width)
            prefix = np.zeros(len(distinct) * width, dtype=np.int64)
            prefix[slot] = 1
            np.cumsum(prefix, out=prefix)
            rows = prefix[base + stops[:, None]] - prefix[base + starts[:, None]]
        # Row-major over (fragment, group): fragment-major, keys ascending.
        fragment, group = np.nonzero(rows)
        lo, hi = base[group] + starts[fragment], base[group] + stops[fragment]
        partials = {}
        for kind, column in self._partials:
            if kind == "sum":
                # Accumulated from a leading +0.0, no prefix and so no
                # difference is ever -0.0, just as no fold from 0.0 is.
                table = np.zeros(len(distinct) * width)
                table[slot] = values[column]
                np.cumsum(table, out=table)
                partials[kind, column] = table[hi] - table[lo]
            else:
                # Other groups' slots hold the fold's identity.
                table = np.full(len(distinct) * width, _FOLDS[kind][1])
                table[slot] = values[column]
                partials[kind, column] = _range_fold(kind, table, lo + 1, hi - lo)
        block = GroupBlock(
            distinct[group], rows[fragment, group].astype(np.float64), partials
        )
        return block, np.bincount(fragment, minlength=len(starts))

    def _segmented_tables(
        self,
        distinct: np.ndarray,
        codes: np.ndarray,
        values: "dict[str, np.ndarray]",
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> "tuple[GroupBlock, np.ndarray]":
        """:meth:`_fragment_tables` by one segmented reduction per block."""
        stops = starts + lengths
        offsets = np.cumsum(lengths) - lengths
        cuts = np.searchsorted(offsets, np.arange(0, int(lengths.sum()), _BLOCK_ELEMENTS))
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
        # task all span the whole batch, and share one table and its rows.
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

        ids = windows.window_ids[boundary]
        shipped, slot = np.unique(fragment[boundary], return_inverse=True)
        partials = PartialRun()
        if len(ids):
            # COMPLETE rows are emitted and dropped; the boundary rows
            # leave as one block, located per window by row bounds.
            block = tables.take(concat_ranges(first_row[shipped], groups[shipped]))
            hi = np.cumsum(groups[shipped])
            spans = np.stack((hi - groups[shipped], hi, last_ts[shipped]))[:, slot]
            partials = PartialRun(
                ids.astype(np.int64, copy=False),
                (windows.states[boundary] == int(FragmentState.CLOSING))[None],
                (BoundaryRows(block, spans),),
            )
        stats = {
            "selectivity": 1.0,
            "fragments": float(len(windows)),
            # Tables built, per fragment: shared rows count once.
            "groups": float(groups[emitted].sum() + groups[shipped].sum())
            / max(1, len(windows)),
            "tuples": float(len(batch)),
        }
        return BatchResult(complete=complete, partials=partials, stats=stats)

    # -- assembly operator function ---------------------------------------------

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """Fold every ready window's rows across ``runs`` into one table.

        Each run contributes the rows of the ready windows it holds,
        located by one binary search; the rows are stacked run by run, so
        every (window, group) cell adds its fragments' partials from 0.0
        in task order — bitwise the pairwise merge chain.
        """
        offsets = np.zeros(len(ready) + 1, dtype=np.int64)
        last_ts = np.full(len(ready), np.iinfo(np.int64).min)
        windows, lengths, blocks = [], [], []
        for run in runs:
            at, row = run.locate(ready)
            if not len(at):
                continue
            (boundary,) = run.sides
            lo, hi, ts = boundary.spans[:, row]
            # A run holds a window once, so ``at`` has no repeats.
            last_ts[at] = np.maximum(last_ts[at], ts)
            windows.append(at)
            lengths.append(hi - lo)
            blocks.append(boundary.rows.take(concat_ranges(lo, hi - lo)))
        if not blocks or not sum(map(len, blocks)):
            return None, offsets
        stacked = GroupBlock.concat(blocks)
        window = np.repeat(np.concatenate(windows), np.concatenate(lengths))
        distinct, codes = key_codes(stacked.keys)
        cells = _Cells(window, codes, len(ready), len(distinct))
        merged = GroupBlock(
            distinct[cells.codes],
            cells.reduce("sum", stacked.counts),
            {
                (kind, column): cells.reduce(kind, values)
                for (kind, column), values in stacked.partials.items()
            },
        )
        rows, keep = self._emit_rows(last_ts[cells.segments], merged)
        window = cells.segments if keep is None else cells.segments[keep]
        np.cumsum(np.bincount(window, minlength=len(ready)), out=offsets[1:])
        return (rows if len(rows) else None), offsets
