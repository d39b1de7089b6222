"""Streaming window θ-join ⋈ (§5.3, Kang et al. [35]).

Two input streams carry their own window definitions; window *i* of the
left stream is joined with window *i* of the right stream (the aligned
window pairs produced by identical window clauses, as in SG3's
``[range 1 slide 1]`` self-join or the synthetic JOIN_r queries).

The batch operator function joins *all* window pairs of a query task in
one pass shaped ``candidates → predicate → compact`` (the count / scan /
compact join of §5.4, [32]): the task's window pairs are laid out as row
segments ``(ls, le, rs, re)``; candidate index pairs are generated in
emission order — window id, then left row, then right row, ascending;
the whole predicate is evaluated over the candidates through a view
that gathers only the columns it reads; and full output rows are
gathered once, for survivors only.  Candidates are

* **all pairs** of each segment, or
* when the predicate's top-level ``And`` chain holds an equality between
  a left-only and a right-only expression of integer (or bool) type,
  only the **key-matched pairs**: both key expressions are evaluated
  once per row and coded into one space of small dense codes
  (:func:`~repro.operators.base.key_codes`, no sort while the keys'
  span is no wider than the task), the right rows are ordered by
  ``(code, row)`` with one radix sort of the codes, and each (window,
  left row) reads its match range off one prefix count over ``codes ×
  (right window boundaries + 1)`` cells.  A table larger than the task's
  rows plus entries (many keys under slide-1 windows) gives way to two
  binary searches per (window, left row) in a sorted ``(code, row)``
  composite.  The key only prunes; the unmodified predicate still
  decides, so there is one join semantics.  Float keys (``NaN != NaN``,
  ``-0.0 == 0.0``) and mixed keys numpy compares as floats take all pairs.

Which generator runs is fixed at construction from the predicate's
shape and the key dtype.  Candidate counts are known before expansion,
so the pass is cut into blocks of about :data:`_BLOCK_PAIRS` candidates
— several small windows per block, a huge window split by left rows —
and transient arrays stay around a MiB whatever the window size.  Rows are
never materialised for a non-matching pair.  The per-window
``repeat × tile`` algorithm this replaced is the test oracle in
``tests/reference.py``; outputs are byte-identical to it.

A task joins only the windows COMPLETE on both inputs.  Any other
window leaves in the task's run as raw rows, each input's boundary rows
shipped once; once both inputs have closed it, assembly joins its full
left and right rows across the pending runs in one kernel call over all
ready windows.  Every window therefore comes out in (left row, right
row) order, whatever the task cut.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ExecutionError, QueryError
from ..relational.expressions import And, Comparison, Expression, Predicate
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
    key_codes,
    window_rows,
)

#: candidate pairs one block of the kernel expands, evaluates and
#: compacts.  A block holds ~5 live int64 index arrays plus the
#: predicate's gathered columns — about 1 MiB at this size, which stays
#: inside a core's L2: measured on the all-pairs path (16 windows of
#: 128 × 128 per task) 8–32 Ki run at 2.3–2.4 ms per task, 64 Ki at
#: 3.4 ms and 256 Ki at 5.0 ms (10 MiB transient); below 8 Ki the
#: per-block Python overhead shows.
_BLOCK_PAIRS = 1 << 14


class _PairColumns:
    """What ``Predicate.evaluate`` asks of a batch — ``column()`` and
    ``len()`` — over (left row, right row) pairs, under the join's
    output names.  A column is gathered from its side on first use;
    without ``rows`` a side's columns are read whole (the key
    expressions, which read one side each).
    """

    def __init__(
        self,
        where: "dict[str, tuple[int, str]]",
        sides: "tuple[np.ndarray, np.ndarray]",
        rows: "tuple[np.ndarray | None, np.ndarray | None]" = (None, None),
        length: int = 0,
    ) -> None:
        self._where, self._sides, self._rows, self._length = where, sides, rows, length
        self._gathered: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        column = self._gathered.get(name)
        if column is None:
            side, source = self._where[name]
            column, rows = self._sides[side][source], self._rows[side]
            if rows is not None:
                column = column[rows]
            self._gathered[name] = column
        return column


def _conjuncts(predicate: Predicate) -> "Iterator[Predicate]":
    """The terms of a predicate's top-level ``And`` chain, left to right."""
    if isinstance(predicate, And):
        yield from _conjuncts(predicate.left)
        yield from _conjuncts(predicate.right)
    else:
        yield predicate


class ThetaJoin(Operator):
    """θ-join of two windowed streams on an arbitrary predicate.

    The predicate references left columns by name and right columns by
    their (possibly prefixed) name in the concatenated output schema.
    """

    arity = 2

    def __init__(
        self,
        left_schema: Schema,
        right_schema: Schema,
        predicate: Predicate,
        right_prefix: str = "r_",
    ) -> None:
        super().__init__(left_schema)
        self.left_schema = left_schema
        self.right_schema = right_schema
        self.right_prefix = right_prefix
        self._output_schema = left_schema.concat(right_schema, other_prefix=right_prefix)
        unknown = predicate.references() - set(self._output_schema.attribute_names)
        if unknown:
            raise QueryError(f"join predicate references unknown columns {sorted(unknown)}")
        self.predicate = predicate
        left_names = left_schema.attribute_names
        #: output name -> (side, input name)
        self._where = {name: (0, name) for name in left_names}
        self._where.update(
            (out, (1, name))
            for out, name in zip(
                self._output_schema.attribute_names[len(left_names):],
                right_schema.attribute_names,
            )
        )
        self._equi = self._equi_key()

    @property
    def output_schema(self) -> Schema:
        return self._output_schema

    def cost_profile(self) -> CostProfile:
        return CostProfile(
            kind="join",
            join_predicate_count=self.predicate.predicate_count(),
        )

    # -- the kernel -------------------------------------------------------------

    def _equi_key(self) -> "tuple[Expression, Expression, np.dtype] | None":
        """(left key, right key, common dtype) that may prune candidates.

        The first ``==`` of the top-level ``And`` chain whose two sides
        read one input each and compare as integers or bools: there
        ``l == r`` is exactly "equal after casting to the common dtype",
        which equal key codes reproduce.
        """
        empty = _PairColumns(
            self._where,
            (
                np.empty(0, dtype=self.left_schema.dtype),
                np.empty(0, dtype=self.right_schema.dtype),
            ),
        )
        left_names = set(self.left_schema.attribute_names)
        right_names = set(self._where) - left_names
        for term in _conjuncts(self.predicate):
            if not (isinstance(term, Comparison) and term.op == "=="):
                continue
            for l_key, r_key in ((term.left, term.right), (term.right, term.left)):
                l_refs, r_refs = l_key.references(), r_key.references()
                if not (l_refs and r_refs and l_refs <= left_names and r_refs <= right_names):
                    continue
                dtype = np.result_type(l_key.evaluate(empty), r_key.evaluate(empty))
                if dtype.kind in "iub":
                    return l_key, r_key, dtype
        return None

    def _probe(
        self,
        left: np.ndarray,
        right: np.ndarray,
        segment: np.ndarray,
        row: np.ndarray,
        rs: np.ndarray,
        re: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Key-matched candidates of each (segment, left row) entry.

        Returns ``(lo, hi, order)``: entry *e* may only match right rows
        ``order[lo[e]:hi[e]]`` — those of ``[rs[s], re[s])``, ``s =
        segment[e]``, whose key equals left row ``row[e]``'s, ascending.

        Both sides' keys share one code space, ``order`` sorts the right
        rows by (code, row), and ``lo`` / ``hi`` are read off a prefix
        count over (code, window boundary) cells: a code's block in
        ``order`` starts after every smaller code's rows, and its rows
        before boundary ``b`` are those left of it.  A table with more
        cells than the task has rows and entries (many keys under many
        boundaries, as on slide-1 windows) is replaced by binary search.
        """
        l_key, r_key, dtype = self._equi
        view = _PairColumns(self._where, (left, right))
        keys = np.concatenate(
            [np.asarray(key.evaluate(view)).astype(dtype, copy=False) for key in (l_key, r_key)]
        )
        # Equality is all a code keeps: a cast that wraps (uint64) or
        # widens (bool) maps distinct keys to distinct int64s.
        distinct, codes = key_codes(keys.astype(np.int64, copy=False)[:, None])
        l_codes, r_codes = codes[: len(left)], codes[len(left):]
        # By (code, row): a stable sort of the codes in their smallest
        # unsigned type, which numpy radix-sorts up to 16 bits.
        order = np.argsort(
            r_codes.astype(np.min_scalar_type(len(distinct) - 1)), kind="stable"
        )
        # rank[p]: the window boundaries (segment starts and stops) at or
        # before right position p, so row r lies after boundary rank[r] - 1.
        rank = np.zeros(len(right) + 1, dtype=np.intp)
        rank[rs] = rank[re] = 1
        np.cumsum(rank, out=rank)
        width = int(rank[-1]) + 1
        if len(distinct) * width > len(left) + len(right) + len(row):
            return self._search_ranges(l_codes[row], r_codes, order, rs[segment], re[segment])
        cells = np.cumsum(
            np.bincount(r_codes * width + rank[:-1], minlength=len(distinct) * width)
        )
        # Rows of code c before boundary b sit in cells up to (c, rank[b] - 1).
        base = l_codes[row] * width - 1
        return cells[base + rank[rs][segment]], cells[base + rank[re][segment]], order

    @staticmethod
    def _search_ranges(
        l_codes: np.ndarray,
        r_codes: np.ndarray,
        order: np.ndarray,
        r_start: np.ndarray,
        r_stop: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """:meth:`_probe`'s ranges by binary search, for tables too large.

        One sorted composite holds (code, row), so the rows of one code
        within a right range are a contiguous run found by two searches.
        """
        stride = len(r_codes) + 1
        composite = r_codes[order] * stride + order
        base = l_codes * stride
        lo = np.searchsorted(composite, base + r_start)
        return lo, np.searchsorted(composite, base + r_stop), order

    def join_segments(
        self,
        left: np.ndarray,
        right: np.ndarray,
        ls: np.ndarray,
        le: np.ndarray,
        rs: np.ndarray,
        re: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Join left rows ``[ls[s], le[s])`` with right rows ``[rs[s], re[s])``
        for every segment *s* in one pass.

        Returns the matching output rows — segment-major, then left row,
        then right row — and the number of rows per segment.  No range
        may be reversed (``le >= ls``, ``re >= rs``).
        """
        n_left = le - ls
        # One entry per (segment, left row); its candidates are a range
        # [lo, hi) of right rows, or of positions in `order` when pruned.
        segment = np.repeat(np.arange(len(ls)), n_left)
        row = concat_ranges(ls, n_left)
        if self._equi is not None and len(row) and len(right):
            lo, hi, order = self._probe(left, right, segment, row, rs, re)
        else:
            lo, hi, order = rs[segment], re[segment], None
        counts = hi - lo
        offsets = np.cumsum(counts) - counts
        cuts = np.searchsorted(offsets, np.arange(0, int(counts.sum()), _BLOCK_PAIRS))
        cuts = np.append(cuts, len(counts))
        kept_entries, kept_rights = [], []
        for start, stop in zip(cuts[:-1], cuts[1:]):
            if start == stop:
                continue
            expand = counts[start:stop]
            entries = np.repeat(np.arange(start, stop), expand)
            rights = concat_ranges(lo[start:stop], expand)
            if order is not None:
                rights = order[rights]
            pairs = _PairColumns(
                self._where, (left, right), (row[entries], rights), len(rights)
            )
            keep = np.flatnonzero(self.predicate.evaluate(pairs))
            kept_entries.append(entries[keep])
            kept_rights.append(rights[keep])
        if not kept_entries:
            return (
                np.empty(0, dtype=self._output_schema.dtype),
                np.zeros(len(ls), dtype=np.int64),
            )
        entries = np.concatenate(kept_entries)
        # Both layouts are packed, so an output row is a left row followed
        # by a right row: survivors are gathered side by side, as opaque rows.
        l_bytes, r_bytes = self.left_schema.row_dtype, self.right_schema.row_dtype
        out = np.empty(len(entries), dtype=[("l", l_bytes), ("r", r_bytes)])
        out["l"] = left.view(l_bytes)[row[entries]]
        out["r"] = right.view(r_bytes)[np.concatenate(kept_rights)]
        matches = np.bincount(segment[entries], minlength=len(ls))
        return out.view(self._output_schema.dtype), matches

    def join_pairs(self, left: TupleBatch, right: TupleBatch) -> TupleBatch:
        """Join of two tuple sequences: the kernel over one segment."""
        zero = np.zeros(1, dtype=np.int64)
        rows, __ = self.join_segments(
            left.data, right.data, zero, zero + len(left), zero, zero + len(right)
        )
        return TupleBatch(self._output_schema, rows)

    # -- batch operator function ------------------------------------------------

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        """The task's windows COMPLETE on both inputs through one pass of
        the kernel; every other window leaves in the run."""
        if len(inputs) != 2:
            raise ExecutionError("ThetaJoin expects exactly two inputs")
        left, right = inputs
        ids, (lw, rw) = align_windows(inputs)
        final = lw.final & rw.final
        joined = np.flatnonzero(final)
        rows, __ = self.join_segments(
            left.batch.data,
            right.batch.data,
            lw.start[joined],
            lw.stop[joined],
            rw.start[joined],
            rw.stop[joined],
        )
        sizes = (lw.stop - lw.start) * (rw.stop - rw.start)
        evaluated = float(sizes[joined].sum())
        return BatchResult(
            complete=TupleBatch(self._output_schema, rows),
            partials=fragment_run(ids, ~final, [left.batch.data, right.batch.data], [lw, rw]),
            stats={
                "selectivity": float(len(rows)) / evaluated if evaluated else 0.0,
                "pairs": float(sizes.sum()),
                "tuples": float(len(left.batch) + len(right.batch)),
                "fragments": float(len(ids)),
            },
        )

    # -- assembly operator function ------------------------------------------------

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """Every ready window's full left and right rows through one
        kernel call."""
        (left, ls, le), (right, rs, re) = (window_rows(ready, runs, side) for side in (0, 1))
        rows, matches = self.join_segments(left, right, ls, le, rs, re)
        offsets = np.zeros(len(ready) + 1, dtype=np.int64)
        np.cumsum(matches, out=offsets[1:])
        return (TupleBatch(self._output_schema, rows) if len(rows) else None), offsets
