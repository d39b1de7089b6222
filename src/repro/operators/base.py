"""Operator API: the f_f / f_b / f_a decomposition of §3.

A query's operator function ``f^q`` is decomposed into

* a **batch operator function** ``f_b`` (:meth:`Operator.process_batch`)
  that processes all window fragments of a stream batch at once, using
  incremental computation where possible;
* an **assembly operator function** ``f_a`` that combines the fragments
  of windows spanning several query tasks.  The result stage calls it
  once per task, as :meth:`Operator.assemble_windows`, with every window
  that became ready and the pending tasks' runs; each windowed operator
  runs its kernel once over all of them.

``process_batch`` returns a :class:`BatchResult`:

* ``complete`` — final output rows for work wholly contained in this task
  (per-tuple IStream output of π/σ, and results of COMPLETE windows);
* ``partials`` — one :class:`PartialRun` holding the boundary windows
  (OPENING / CLOSING / PENDING fragments on some input) that the result
  stage assembles across tasks: arrays only, its length the number of
  boundary windows;
* ``stats`` — measured workload characteristics (selectivity, join pairs,
  group counts) consumed by the hardware cost models and by HLS.

A window is ready once every input has a ``done`` fragment — COMPLETE
or CLOSING — in some pending run; the result stage applies that one
rule to every operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from ..errors import ExecutionError
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from ..relational.expressions import Predicate
from ..windows.assigner import FragmentState, WindowSet


@dataclass
class StreamSlice:
    """One input stream's share of a query task.

    ``global_start`` is the index of the batch's first tuple in the whole
    stream (the dispatcher's start pointer in tuples); the window set was
    computed against it by the execution stage.
    """

    batch: TupleBatch
    windows: WindowSet
    global_start: int = 0


def _no_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _no_done() -> np.ndarray:
    return np.zeros((1, 0), dtype=bool)


@dataclass
class BoundaryRows:
    """One input's boundary rows in a task's run, shipped once.

    ``rows`` is the operator's row table — the input tuples for
    DISTINCT, UDF and the join; for GROUP-BY a
    :class:`~repro.operators.groupby.GroupTable` of group cells — key
    rows plus one ``(1 + P) × cells`` matrix of counts and partials —
    either dense (one row of a cell per task key for every boundary
    range, empty cells included, keyed on the task's sorted distinct
    keys) or sparse (the non-empty cells, one key row each).  ``spans`` is int64 with one
    column per boundary window of the run: window ``i`` owns
    ``rows[spans[0, i]:spans[1, i]]`` — for a dense table exactly one
    row; further span rows are the operator's own (GROUP-BY's last
    timestamps).  Windows whose fragments overlap share rows, so a run
    grows with the task's rows, not with its windows' total length.
    """

    rows: Any
    spans: np.ndarray


def boundary_rows(rows: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> BoundaryRows:
    """The ``rows`` that ranges ``[starts[i], stops[i])`` cover, copied
    once in order, with each range re-based onto the copy."""
    size = len(rows) + 1
    cover = np.bincount(starts, minlength=size) - np.bincount(stops, minlength=size)
    kept = np.cumsum(cover[:-1]) > 0
    rank = np.zeros(size, dtype=np.int64)
    np.cumsum(kept, out=rank[1:])
    return BoundaryRows(rows[kept], np.stack((rank[starts], rank[stops])))


@dataclass
class PartialRun:
    """One task's boundary windows as one columnar run.

    ``ids`` are the task's boundary window ids, ascending int64.
    ``done`` is ``arity × len(run)`` bool: input ``s``'s fragment of
    window ``i`` is COMPLETE or CLOSING here, so no later task holds
    more of that input's rows of it.  ``sides`` holds one
    :class:`BoundaryRows` per input.
    """

    ids: np.ndarray = field(default_factory=_no_ids)
    done: np.ndarray = field(default_factory=_no_done)
    sides: "tuple[BoundaryRows, ...]" = ()

    def __len__(self) -> int:
        return len(self.ids)

    def locate(self, window_ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Where the run holds ascending ``window_ids``: ``(positions in
        window_ids, positions in the run)`` of the windows it holds."""
        if not len(self.ids):
            return _no_ids(), _no_ids()
        at = np.searchsorted(self.ids, window_ids)
        hit = np.flatnonzero(self.ids.take(at, mode="clip") == window_ids)
        return hit, at[hit]


def window_rows(
    ready: np.ndarray, runs: "list[PartialRun]", side: int = 0
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Every ready window's rows of input ``side`` across ``runs``.

    Returns ``(rows, starts, stops)``: window ``i`` owns
    ``rows[starts[i]:stops[i]]``.  The runs' rows are concatenated in
    task order; a window's fragments are consecutive in its stream and
    every one of them is in some pending run, so they meet as one
    range.  A window with no rows on this input has an empty range.
    """
    starts = np.full(len(ready), np.iinfo(np.int64).max)
    stops = np.zeros(len(ready), dtype=np.int64)
    chunks, offset = [], 0
    for run in runs:
        at, row = run.locate(ready)
        if not len(at):
            continue
        boundary = run.sides[side]
        lo, hi = boundary.spans[:2, row] + offset
        held = hi > lo
        at, lo, hi = at[held], lo[held], hi[held]
        starts[at] = np.minimum(starts[at], lo)
        stops[at] = np.maximum(stops[at], hi)
        chunks.append(boundary.rows)
        offset += len(boundary.rows)
    np.minimum(starts, stops, out=starts)
    rows = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return rows, starts, stops


class Fragments(NamedTuple):
    """One input's share of every window of a task, by window slot."""

    start: np.ndarray
    stop: np.ndarray
    #: closes here (COMPLETE / CLOSING)
    done: np.ndarray
    #: COMPLETE locally
    final: np.ndarray

    @classmethod
    def of(cls, windows: WindowSet, slot: np.ndarray, count: int) -> "Fragments":
        """``slot[i]`` is fragment *i*'s place among the task's ``count``
        window ids.  A window with no fragment in this input's batch is
        an empty range and *not* done — its stream may not have reached
        it yet, so the window waits for later tasks.
        """
        # (start, stop, state) by slot, pre-filled with an absent window's.
        table = np.zeros((3, count), dtype=np.int64)
        table[2] = int(FragmentState.PENDING)
        table[:, slot] = windows.starts, windows.ends, windows.states
        start, stop, states = table
        final = states == int(FragmentState.COMPLETE)
        return cls(
            start,
            np.maximum(stop, start),
            final | (states == int(FragmentState.CLOSING)),
            final,
        )


def align_windows(inputs: "list[StreamSlice]") -> "tuple[np.ndarray, list[Fragments]]":
    """The task's window ids over all inputs, ascending, and each
    input's :class:`Fragments` of them."""
    ids, slot = np.unique(
        np.concatenate([s.windows.window_ids for s in inputs]), return_inverse=True
    )
    fragments, at = [], 0
    for s in inputs:
        count = len(s.windows)
        fragments.append(Fragments.of(s.windows, slot[at : at + count], len(ids)))
        at += count
    return ids.astype(np.int64, copy=False), fragments


def fragment_run(
    ids: np.ndarray, boundary: np.ndarray, rows: "list[np.ndarray]", fragments: "list[Fragments]"
) -> PartialRun:
    """The run of windows ``ids[boundary]``: each input's rows shipped
    once (:func:`boundary_rows`) and its done flags."""
    if not boundary.any():
        return PartialRun(ids[:0], np.zeros((len(fragments), 0), dtype=bool))
    return PartialRun(
        ids[boundary],
        np.stack([f.done[boundary] for f in fragments]),
        tuple(
            boundary_rows(data, f.start[boundary], f.stop[boundary])
            for data, f in zip(rows, fragments)
        ),
    )


@dataclass
class BatchResult:
    """Output of a batch operator function for one query task."""

    complete: "TupleBatch | None"
    partials: PartialRun = field(default_factory=PartialRun)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def output_bytes(self) -> int:
        return self.complete.size_bytes if self.complete is not None else 0


@dataclass(frozen=True)
class CostProfile:
    """Operator characteristics consumed by the hardware cost models.

    The models combine these *static* properties with the *measured*
    per-task statistics in :attr:`BatchResult.stats`.

    Attributes:
        kind: operator family (``projection`` | ``selection`` |
            ``aggregation`` | ``join`` | ``udf``).
        ops_per_tuple: arithmetic operations applied to each tuple.
        predicate_tree: the selection predicate, if any — the CPU model
            asks it for short-circuited evaluation counts, the GPGPU model
            charges every atomic comparison (SIMD lanes do not diverge).
        aggregate_count: number of aggregate functions maintained.
        has_group_by: whether a hash table is maintained per fragment.
        join_predicate_count: atomic predicates evaluated per tuple pair.
        cpu_evals_fn: optional map from the *measured* end-to-end
            selectivity to the number of atomic predicates a
            short-circuiting CPU evaluates per tuple.  Workloads set this
            to describe their predicate structure (e.g. the Fig. 16 query
            ``p1 and (p2 or ... or p500)`` evaluates ``1 + sel·499``);
            when absent the CPU conservatively evaluates every atom, like
            the GPGPU's divergence-free SIMD lanes always do.
    """

    kind: str
    ops_per_tuple: float = 0.0
    predicate_tree: "Predicate | None" = None
    aggregate_count: int = 0
    has_group_by: bool = False
    join_predicate_count: int = 0
    cpu_evals_fn: "Callable[[float], float] | None" = None

    @property
    def predicate_count(self) -> int:
        if self.predicate_tree is None:
            return 0
        return self.predicate_tree.predicate_count()

    def cpu_predicate_evaluations(self, selectivity: float) -> float:
        """Predicates evaluated per tuple on the CPU (short-circuiting)."""
        if self.cpu_evals_fn is not None:
            return float(self.cpu_evals_fn(selectivity))
        return float(self.predicate_count)


class Operator:
    """Base class for window-based streaming operators."""

    #: number of input streams the operator consumes.
    arity = 1

    def __init__(self, input_schema: Schema) -> None:
        self.input_schema = input_schema

    @property
    def output_schema(self) -> Schema:
        raise NotImplementedError

    def cost_profile(self) -> CostProfile:
        raise NotImplementedError

    def process_batch(self, inputs: "list[StreamSlice]") -> BatchResult:
        """Batch operator function f_b over one query task's inputs."""
        raise NotImplementedError

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """Batched f_a: assemble every ready window at once.

        ``ready`` holds ascending window ids and ``runs`` the pending
        tasks' runs in task order.  Returns the windows' result rows
        concatenated in ``ready`` order (``None`` when there are none)
        and ``len(ready) + 1`` row offsets — window ``i`` owns rows
        ``[offsets[i], offsets[i + 1])``.  Operators that leave no
        boundary windows never get a call.
        """
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _single_input(self, inputs: "list[StreamSlice]") -> StreamSlice:
        if len(inputs) != self.arity:
            raise ExecutionError(
                f"{type(self).__name__} expects {self.arity} input(s), "
                f"got {len(inputs)}"
            )
        return inputs[0]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for every ``(s, n)`` pair."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def key_codes(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Distinct rows of the (rows × columns) integer ``keys`` in
    lexicographic order, and every row's rank among them.

    While the keys' bounding box — the product of the per-column spans —
    holds no more cells than there are rows, each row is a mixed-radix
    cell of the box and the ranks are one presence count and its prefix
    sum, with no sort.  A wider box falls back to ``np.unique``.  With no
    columns every row is in the one group.
    """
    rows, width = keys.shape
    if width == 0:
        return keys[:1], np.zeros(rows, dtype=np.intp)
    if rows == 0:
        return keys, np.zeros(0, dtype=np.intp)
    lows, highs = keys.min(axis=0), keys.max(axis=0)
    # Python ints: the span of int64 extremes overflows int64.
    spans = [high - low + 1 for low, high in zip(lows.tolist(), highs.tolist())]
    cells = math.prod(spans)
    if cells > rows:
        if width == 1:
            distinct, codes = np.unique(keys[:, 0], return_inverse=True)
            return distinct[:, None], codes
        distinct, codes = np.unique(keys, axis=0, return_inverse=True)
        return distinct, codes.ravel()
    # Inside the box no difference exceeds ``rows``, so nothing overflows.
    cell = keys[:, 0] - lows[0]
    for j in range(1, width):
        cell = cell * spans[j] + (keys[:, j] - lows[j])
    present = np.bincount(cell, minlength=cells) > 0
    rank = np.cumsum(present) - 1
    occupied = np.flatnonzero(present)
    distinct = np.empty((len(occupied), width), dtype=keys.dtype)
    for j in range(width - 1, 0, -1):
        occupied, digit = np.divmod(occupied, spans[j])
        distinct[:, j] = digit + lows[j]
    distinct[:, 0] = occupied + lows[0]
    return distinct, rank[cell]

