"""Operator API: the f_f / f_b / f_a decomposition of §3.

A query's operator function ``f^q`` is decomposed into

* a **batch operator function** ``f_b`` (:meth:`Operator.process_batch`)
  that processes all window fragments of a stream batch at once, using
  incremental computation where possible;
* an **assembly operator function** ``f_a`` that combines the fragment
  results of windows spanning several query tasks.  The result stage
  calls it once per task, as :meth:`Operator.assemble_windows`, with
  every window that became ready and the pending tasks' runs.  The
  default locates each window's payloads and folds them pairwise
  (:meth:`Operator.merge_partials` + :meth:`Operator.finalize_window`);
  :class:`~repro.operators.groupby.GroupedAggregation`, whose run is
  one columnar table, overrides it with one vectorised fold.

``process_batch`` returns a :class:`BatchResult`:

* ``complete`` — final output rows for work wholly contained in this task
  (per-tuple IStream output of π/σ, and results of COMPLETE windows);
* ``partials`` — one :class:`PartialRun` holding the boundary windows
  (OPENING / CLOSING / PENDING fragments) that the result stage merges
  across tasks; its length is the number of boundary windows;
* ``closed_ids`` — ascending int64 ids of the boundary windows whose last
  fragment is in this task, i.e. they can be finalised once all earlier
  partials are merged;
* ``stats`` — measured workload characteristics (selectivity, join pairs,
  group counts) consumed by the hardware cost models and by HLS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
import math
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from ..relational.expressions import Predicate
from ..windows.assigner import WindowSet


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


@dataclass
class PartialRun:
    """One task's boundary-window partials as one columnar run.

    ``ids`` are the task's boundary window ids, ascending int64.
    ``columns`` belongs to the operator that built the run and is aligned
    with ``ids``: a list of per-window payloads for operators that
    assemble pairwise, one table of rows for ``GroupedAggregation``.
    """

    ids: np.ndarray = field(default_factory=_no_ids)
    columns: Any = field(default_factory=list)

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


@dataclass
class BatchResult:
    """Output of a batch operator function for one query task."""

    complete: "TupleBatch | None"
    partials: PartialRun = field(default_factory=PartialRun)
    closed_ids: np.ndarray = field(default_factory=_no_ids)
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

    #: True when :meth:`window_ready` must inspect the *merged* payload
    #: (multi-input operators); the result stage then merges every task's
    #: run into the pending one (:meth:`merge_runs`) instead of deferring
    #: the merge chain to finalisation.
    requires_merged_ready = False

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

    def merge_partials(self, first: Any, second: Any) -> Any:
        """Assembly step f_a over two consecutive tasks' fragment payloads."""
        raise NotImplementedError

    def finalize_window(self, window_id: int, payload: Any) -> "TupleBatch | None":
        """Turn a fully merged payload into the window's result rows."""
        raise NotImplementedError

    def assemble_windows(
        self, ready: np.ndarray, runs: "list[PartialRun]"
    ) -> "tuple[TupleBatch | None, np.ndarray]":
        """Batched f_a: merge and finalise every ready window at once.

        ``ready`` holds ascending window ids and ``runs`` the pending
        tasks' runs in task order.  Returns the windows' result rows
        concatenated in ``ready`` order (``None`` when there are none)
        and ``len(ready) + 1`` row offsets — window ``i`` owns rows
        ``[offsets[i], offsets[i + 1])``.  This default is the one place
        that walks payloads window by window: it left-folds each window's
        payloads in task order with :meth:`merge_partials`.
        """
        payloads: list[list[Any]] = [[] for __ in range(len(ready))]
        for run in runs:
            for at, row in zip(*run.locate(ready)):
                payloads[at].append(run.columns[row])
        chunks: list[TupleBatch] = []
        offsets = np.zeros(len(ready) + 1, dtype=np.int64)
        for i, (window_id, parts) in enumerate(zip(ready.tolist(), payloads)):
            if not parts:
                continue
            rows = self.finalize_window(window_id, reduce(self.merge_partials, parts))
            if rows is not None and len(rows):
                chunks.append(rows)
                offsets[i + 1] = len(rows)
        if not chunks:
            return None, offsets
        np.cumsum(offsets, out=offsets)
        return (TupleBatch.concat(chunks) if len(chunks) > 1 else chunks[0]), offsets

    def merge_runs(self, runs: "list[PartialRun]") -> PartialRun:
        """Eager f_a for :attr:`requires_merged_ready` operators: one run
        holding every window of ``runs`` (task order), payloads merged."""
        merged: dict[int, Any] = {}
        for run in runs:
            for window_id, payload in zip(run.ids.tolist(), run.columns):
                if window_id in merged:
                    payload = self.merge_partials(merged[window_id], payload)
                merged[window_id] = payload
        ids = sorted(merged)
        return PartialRun(np.asarray(ids, dtype=np.int64), [merged[w] for w in ids])

    def window_ready(self, payload: Any) -> "bool | None":
        """Whether a merged payload can be finalised.

        ``None`` (the default) defers to the per-task ``closed_ids``
        bookkeeping; multi-input operators override this when closure can
        only be decided from the merged state (e.g. a join window that
        closes on its two streams in different tasks).
        """
        return None

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


def emit_order(window_ids: "np.ndarray | list[int]") -> np.ndarray:
    """Sort helper: result emission follows ascending window ids."""
    return np.argsort(np.asarray(window_ids), kind="stable")
