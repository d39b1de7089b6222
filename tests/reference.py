"""Naive reference implementations used as oracles in integration tests.

These evaluate queries window-by-window with no batching, no fragments
and no incremental computation — the simplest possible semantics — so
that the engine's fragment/assembly machinery can be checked against
first principles.
"""

from __future__ import annotations

import timeit
from collections.abc import Sequence

import numpy as np
from hypothesis import strategies as st

from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.errors import ValidationError
from repro.operators.aggregate_functions import finalize
from repro.operators.base import BatchResult, StreamSlice
from repro.operators.compose import FilteredWindows, ProjectedWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupBlock, GroupedAggregation
from repro.operators.udf import WindowUdf
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import FragmentState, WindowSet, assign_windows
from repro.windows.definition import WindowDefinition


def window_ranges(
    window: WindowDefinition, data: TupleBatch, closed_only: bool = True
) -> "list[tuple[int, int, int]]":
    """(window id, start row, end row) for windows over a finite stream.

    ``closed_only`` keeps windows whose end boundary lies within the
    data (the ones a streaming engine will actually have emitted).
    """
    n = len(data)
    out = []
    if window.is_count_based:
        wid = 0
        while True:
            start = wid * window.slide
            end = start + window.size
            if start >= n:
                break
            if closed_only and end > n:
                break
            out.append((wid, start, min(end, n)))
            wid += 1
        return out
    ts = np.asarray(data.timestamps)
    last = int(ts[-1]) if n else -1
    wid = 0
    while True:
        w_start = wid * window.slide
        w_end = w_start + window.size
        if w_start > last:
            break
        if closed_only and w_end > last:
            # A streaming engine cannot close this window yet: tuples with
            # timestamps inside it may still arrive.
            break
        start = int(np.searchsorted(ts, w_start, side="left"))
        end = int(np.searchsorted(ts, w_end, side="left"))
        out.append((wid, start, end))
        wid += 1
    return out


def sequential_fold(function: str, values: np.ndarray) -> float:
    """``function`` over ``values`` the way a streaming scan computes it:
    sums are a left fold from 0.0 in row order (``np.sum`` is pairwise)."""
    if function == "count":
        return float(len(values))
    if function == "min":
        return float(values.min())
    if function == "max":
        return float(values.max())
    total = float(np.cumsum(np.concatenate(([0.0], values)))[-1])
    if function == "sum":
        return total
    if function == "avg":
        return total / len(values)
    raise ValueError(function)


def sliding_aggregate(
    window: WindowDefinition,
    data: TupleBatch,
    column: str,
    function: str,
) -> "list[tuple[int, float]]":
    """Per-closed-window :func:`sequential_fold` values: (last timestamp, value)."""
    values = np.asarray(data.column(column), dtype=np.float64)
    ts = np.asarray(data.timestamps)
    return [
        (int(ts[end - 1]), sequential_fold(function, values[start:end]))
        for __, start, end in window_ranges(window, data)
        if end > start
    ]


def grouped_aggregate(
    window: WindowDefinition,
    data: TupleBatch,
    group_columns: "list[str]",
    column: "str | None",
    function: str,
) -> "list[tuple[int, tuple, float]]":
    """Per-(closed window, group): (last ts, group key, value), key-sorted;
    values are :func:`sequential_fold` over the group's rows."""
    ts = np.asarray(data.timestamps)
    keys = np.column_stack(
        [np.asarray(data.column(c), dtype=np.int64) for c in group_columns]
    )
    values = (
        np.asarray(data.column(column), dtype=np.float64)
        if column is not None
        else np.zeros(len(data))
    )
    out = []
    for __, start, end in window_ranges(window, data):
        if end <= start:
            continue
        k = keys[start:end]
        v = values[start:end]
        uniq, inverse = np.unique(k, axis=0, return_inverse=True)
        last_ts = int(ts[end - 1])
        for g in range(len(uniq)):
            value = sequential_fold(function, v[inverse.ravel() == g])
            out.append((last_ts, tuple(uniq[g]), value))
    return out


# -- the retired per-window GROUP-BY, kept as the bitwise oracle ----------------
#
# One ``np.unique(axis=0)`` + scatter per window fragment, pairwise merges
# that re-run ``np.unique`` on the stacked keys, one emit per window: the
# algorithm ``GroupedAggregation`` ran before its segmented per-task pass.
# The new kernel and batched assembly must equal it byte for byte.

_FOLD = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


def _scatter(kind: str, inverse: np.ndarray, values: np.ndarray, groups: int) -> np.ndarray:
    if kind in _FOLD:
        ufunc, identity = _FOLD[kind]
        out = np.full(groups, identity)
        ufunc.at(out, inverse, values)
        return out
    return np.bincount(inverse, weights=values, minlength=groups)


def _group_table(keys: np.ndarray, columns: "dict[tuple, np.ndarray]") -> tuple:
    """(sorted distinct key rows, {(kind, column): one partial per group})."""
    if len(keys) == 0:
        return keys, {}
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    table = {
        (kind, name): _scatter(kind, inverse, values, len(distinct))
        for (kind, name), values in columns.items()
    }
    return distinct, table


def _window_rows(op, ts: int, table: tuple) -> "TupleBatch | None":
    keys, acc = table
    if len(keys) == 0:
        return None
    columns = {"timestamp": np.full(len(keys), ts, dtype=np.int64)}
    columns.update({name: keys[:, j] for j, name in enumerate(op.group_columns)})
    for spec in op.specs:
        columns[spec.alias] = finalize(
            spec.function,
            acc.get(("sum", spec.column)),
            acc["sum", None],
            acc.get(("min", spec.column)),
            acc.get(("max", spec.column)),
        )
    out = TupleBatch.from_columns(op.output_schema, **columns)
    if op.having is not None:
        out = out.filter(op.having.evaluate(out))
    return out if len(out) else None


def grouped_by_window(op, tasks: "list[tuple]") -> "tuple[list[bytes], list[tuple[int, bytes]]]":
    """Run ``[(batch, window set), ...]`` through the per-window algorithm.

    Returns the emitted chunks (one per task with output: finalised
    windows in id order, then the task's COMPLETE windows; a last chunk
    for the flush) and the ``(window id, rows)`` of every finalised
    window, all as raw bytes.
    """
    value_columns = sorted({s.column for s in op.specs if s.column is not None})
    pending: dict = {}
    chunks, finalised = [], []

    def close(wid: int, out: list) -> None:
        table, ts = pending.pop(wid)
        rows = _window_rows(op, ts, table)
        if rows is not None:
            finalised.append((wid, rows.data.tobytes()))
            out.append(rows)

    for batch, windows in tasks:
        keys = np.empty((len(batch), len(op.group_columns)), dtype=np.int64)
        for j, name in enumerate(op.group_columns):
            derived = op.derived_columns.get(name)
            source = derived[0].evaluate(batch) if derived else batch.column(name)
            keys[:, j] = np.asarray(source).astype(np.int64)
        values = {(k, c): np.asarray(batch.column(c), np.float64)
                  for c in value_columns for k in ("sum", "min", "max")}
        values["sum", None] = np.ones(len(batch))
        closing, complete = [], []
        for wid, start, stop, state in zip(
            windows.window_ids.tolist(), windows.starts.tolist(),
            windows.ends.tolist(), windows.states.tolist(),
        ):
            table = _group_table(
                keys[start:stop], {k: v[start:stop] for k, v in values.items()}
            )
            ts = int(batch.timestamps[stop - 1]) if stop > start else 0
            if state == FragmentState.COMPLETE:
                complete.append(_window_rows(op, ts, table))
                continue
            if wid in pending:
                (old_keys, old), old_ts = pending[wid]
                ts = max(ts, old_ts)
                if len(table[0]) == 0:
                    table = (old_keys, old)
                elif len(old_keys):
                    table = _group_table(
                        np.concatenate([old_keys, table[0]]),
                        {k: np.concatenate([old[k], table[1][k]]) for k in old},
                    )
            pending[wid] = (table, ts)
            if state == FragmentState.CLOSING:
                closing.append(wid)
        out: list = []
        for wid in closing:
            close(wid, out)
        out += [rows for rows in complete if rows is not None]
        if out:
            chunks.append(TupleBatch.concat(out).data.tobytes())
    out = []
    for wid in sorted(pending):
        close(wid, out)
    if out:
        chunks.append(TupleBatch.concat(out).data.tobytes())
    return chunks, finalised


def cut_tasks(data, window, task_size, force_assembly=False):
    """``[(batch, window set)]`` the way the engine's execution stage cuts them."""
    tasks, previous = [], None
    for start in range(0, len(data), task_size):
        part = data.slice(start, start + task_size)
        windows = assign_windows(
            window, start, start + len(part), part.timestamps, previous, force_assembly
        )
        previous = int(part.timestamps[-1])
        tasks.append((part, windows))
    return tasks


def run_engine_path(op, tasks, collect_output=True):
    """Kernel + ``ResultStage`` (the batched hook): chunks, windows, stage."""
    query = Query("q", op, [WindowDefinition.rows(1, 1)])
    stage = ResultStage(query, collect_output=collect_output)
    chunks, windows = [], []
    stage.on_emit = lambda record: chunks.append(record.rows.data.tobytes())
    stage.on_window = lambda wid, rows: windows.append((wid, rows.data.tobytes()))
    for task_id, (batch, window_set) in enumerate(tasks):
        result = op.process_batch([StreamSlice(batch, window_set, 0)])
        stage.submit(QueryTask(query, task_id, [], 0.0, 1), result, 0.0)
    stage.flush(0.0)
    return chunks, windows, stage



# -- the retired per-window result stage, kept as the bitwise oracle ---------------
#
# ``ResultStage`` before a task's boundary partials left it as one run:
# every window's payloads appended one at a time to a dict keyed by
# window id, each window's payloads left-folded pairwise and finalised on
# its own once every input had closed it.  A grouped window's payload was
# its rows of the task's block plus its last timestamp, and a merge
# re-folded the stacked rows of two payloads from 0.0; a DISTINCT window's
# was its fragment's ``np.unique`` rows, merged by ``np.unique`` of both;
# a UDF window's was its raw fragment rows per input, concatenated.  The
# run-based stage must equal it byte for byte (DISTINCT keeps the first of
# rows that compare equal where ``np.unique`` keeps any, so the two agree
# on rows without ``-0.0``).


def run_payloads(run) -> dict:
    """``{window id: (payload, done per input)}`` of one run, one Python
    object per window: a grouped window's payload is its rows of the
    run's block and its last timestamp, any other window's its fragment
    rows per input."""
    if not run.sides:
        return {}
    ids, done = run.ids.tolist(), run.done.T.tolist()
    block = run.sides[0].rows
    if isinstance(block, GroupBlock):
        spans = run.sides[0].spans.T.tolist()
        return {
            wid: ((block.take(np.arange(lo, hi)), ts), flags)
            for wid, (lo, hi, ts), flags in zip(ids, spans, done)
        }
    return {
        wid: ([side.rows[side.spans[0, i] : side.spans[1, i]] for side in run.sides], flags)
        for i, (wid, flags) in enumerate(zip(ids, done))
    }


def _terminal(op):
    """The operator that owns the runs: composers hand them to their inner one."""
    while hasattr(op, "inner"):
        op = op.inner
    return op


def _fold_tables(payloads: list) -> tuple:
    """One group table from grouped payloads: cells add from 0.0 in order."""
    block = GroupBlock.concat([table for table, __ in payloads])
    ts = max(ts for __, ts in payloads)
    if len(block) == 0:
        return block, ts
    if block.keys.shape[1] == 0:
        distinct, inverse = block.keys[:1], np.zeros(len(block), dtype=np.intp)
    else:
        distinct, inverse = np.unique(block.keys, axis=0, return_inverse=True)
        inverse = inverse.ravel()
    merged = GroupBlock(
        distinct,
        _scatter("sum", inverse, block.counts, len(distinct)),
        {
            (kind, column): _scatter(kind, inverse, values, len(distinct))
            for (kind, column), values in block.partials.items()
        },
    )
    return merged, ts


def _retired_fold(op) -> tuple:
    """``(local, merge, finalize)`` of the retired per-window protocol:
    a task's payload, two consecutive payloads folded, and a window's
    result rows (``None`` for none)."""
    terminal = _terminal(op)
    if isinstance(terminal, GroupedAggregation):

        def finalize_grouped(payload):
            table, ts = _fold_tables([payload])
            rows, __ = terminal._emit_rows(np.full(len(table), ts, dtype=np.int64), table)
            return rows

        return (lambda payload: payload), (lambda a, b: _fold_tables([a, b])), finalize_grouped
    if isinstance(terminal, DistinctProjection):
        schema = terminal.output_schema
        return (
            lambda fragments: np.unique(fragments[0]),
            lambda a, b: np.unique(np.concatenate([a, b])),
            lambda rows: TupleBatch(schema, rows) if len(rows) else None,
        )
    if isinstance(terminal, WindowUdf):
        schemas = terminal.input_schemas
        return (
            lambda fragments: fragments,
            lambda a, b: [np.concatenate([x, y]) for x, y in zip(a, b)],
            lambda fragments: terminal._function(
                [TupleBatch(schema, rows) for schema, rows in zip(schemas, fragments)]
            ),
        )
    raise TypeError(f"no retired fold for {type(terminal).__name__}")


def pairwise_stage(op, results: "list[BatchResult]", flush: bool = True) -> tuple:
    """``results`` (in task order) through the one-window-at-a-time stage.

    Returns the emitted chunks (per task with output: finalised windows
    in id order, then the task's COMPLETE rows; a last chunk for the
    flush) and the ``(window id, rows)`` of every finalised window with
    rows, all as raw bytes — the shapes :func:`run_engine_path` returns.
    """
    local, merge, finalize = _retired_fold(op)
    pending: dict = {}
    chunks, finalised = [], []

    def close(wid: int, out: list) -> None:
        rows = finalize(pending.pop(wid)[0])
        if rows is not None and len(rows):
            finalised.append((wid, rows.data.tobytes()))
            out.append(rows)

    for result in results:
        ready = []
        for wid, (payload, done) in sorted(run_payloads(result.partials).items()):
            payload = local(payload)
            if wid in pending:
                merged, closed = pending[wid]
                payload = merge(merged, payload)
                done = [a or b for a, b in zip(closed, done)]
            pending[wid] = (payload, done)
            if all(done):
                ready.append(wid)
        out: list = []
        for wid in ready:
            close(wid, out)
        if result.complete is not None and len(result.complete):
            out.append(result.complete)
        if out:
            chunks.append(TupleBatch.concat(out).data.tobytes())
    if flush:
        out = []
        for wid in sorted(pending):
            close(wid, out)
        if out:
            chunks.append(TupleBatch.concat(out).data.tobytes())
    return chunks, finalised


# -- the retired per-window θ-join, kept as the bitwise oracle ---------------------
#
# ``for wid in window_ids``: slice both fragments, materialise the full
# ``repeat × tile`` cross product as combined rows, evaluate the
# predicate over them, filter — the algorithm ``ThetaJoin`` ran before
# its one-pass-per-task kernel.  The kernel must equal it byte for byte,
# in ``complete``, in every window of the run and in ``stats``.


def join_pairs(op, left: TupleBatch, right: TupleBatch) -> TupleBatch:
    """``op``'s kernel (``ThetaJoin.join_segments``) over one segment: all
    of ``left`` against all of ``right``."""
    zero = np.zeros(1, dtype=np.int64)
    rows, __ = op.join_segments(
        left.data, right.data, zero, zero + len(left), zero, zero + len(right)
    )
    return TupleBatch(op.output_schema, rows)


def join_pairs_by_cross_product(op, left: TupleBatch, right: TupleBatch) -> TupleBatch:
    """Every (left row, right row) combined, then filtered by the predicate."""
    nl, nr = len(left), len(right)
    if nl == 0 or nr == 0:
        return TupleBatch.empty(op.output_schema)
    l_rows = left.take(np.repeat(np.arange(nl), nr))
    r_rows = right.take(np.tile(np.arange(nr), nl))
    columns = {name: l_rows.column(name) for name in op.left_schema.attribute_names}
    for name in op.right_schema.attribute_names:
        columns[op.right_prefix + name if name in columns else name] = r_rows.column(name)
    pairs = TupleBatch.from_columns(op.output_schema, **columns)
    return pairs.filter(op.predicate.evaluate(pairs))


def join_by_window(op, left, right) -> tuple:
    """One task through the per-window algorithm.

    ``left`` / ``right`` are ``StreamSlice``-likes (``batch``, ``windows``).
    Windows COMPLETE on both sides are joined; every other window is
    kept as its fragments.  Returns ``(complete bytes, {wid: (left rows,
    right rows, left_done, right_done)}, stats)`` with rows as raw bytes.
    """
    done_states = (int(FragmentState.COMPLETE), int(FragmentState.CLOSING))

    def fragment(slice_, index):
        if index is None:
            return TupleBatch.empty(slice_.batch.schema), False, False
        windows = slice_.windows
        state = int(windows.states[index])
        rows = slice_.batch.slice(int(windows.starts[index]), int(windows.ends[index]))
        return rows, state in done_states, state == int(FragmentState.COMPLETE)

    l_index = {int(w): i for i, w in enumerate(left.windows.window_ids)}
    r_index = {int(w): i for i, w in enumerate(right.windows.window_ids)}
    window_ids = sorted(set(l_index) | set(r_index))
    complete, partials = [], {}
    pairs = joined = matched = 0.0
    for wid in window_ids:
        l_rows, l_done, l_final = fragment(left, l_index.get(wid))
        r_rows, r_done, r_final = fragment(right, r_index.get(wid))
        pairs += len(l_rows) * len(r_rows)
        if l_final and r_final:
            local = join_pairs_by_cross_product(op, l_rows, r_rows)
            joined += len(l_rows) * len(r_rows)
            matched += len(local)
            complete.append(local.data.tobytes())
            continue
        partials[wid] = (l_rows.data.tobytes(), r_rows.data.tobytes(), l_done, r_done)
    stats = {
        "selectivity": matched / joined if joined else 0.0,
        "pairs": pairs,
        "tuples": float(len(left.batch) + len(right.batch)),
        "fragments": float(len(window_ids)),
    }
    return b"".join(complete), partials, stats


def join_stream_by_window(
    op, tasks: "list[tuple]"
) -> "tuple[list[bytes], list[tuple[int, bytes]]]":
    """Run ``[(left slice, right slice), ...]`` through the per-window join.

    The result stage's contract, spelt out: a boundary window's left and
    right fragments are appended task by task, and once both sides have
    closed, its whole left rows are joined with its whole right rows —
    so a window's output does not depend on how tasks cut it.  Returns
    the emitted chunks (per task: finalised windows in id order, then
    the task's COMPLETE windows; a last chunk for the flush) and the
    ``(window id, rows)`` of every finalised window with rows, all as
    raw bytes.
    """
    pending: dict = {}
    chunks, finalised = [], []

    def as_batch(schema, raw: bytes) -> TupleBatch:
        return TupleBatch(schema, np.frombuffer(raw, dtype=schema.dtype))

    def close(wid: int, out: list) -> None:
        l_rows, r_rows, __, __ = pending.pop(wid)
        result = join_pairs_by_cross_product(
            op, as_batch(op.left_schema, l_rows), as_batch(op.right_schema, r_rows)
        ).data.tobytes()
        if result:
            finalised.append((wid, result))
            out.append(result)

    for left, right in tasks:
        complete, partials, __ = join_by_window(op, left, right)
        ready = []
        for wid in sorted(partials):
            l_rows, r_rows, l_done, r_done = partials[wid]
            if wid in pending:
                old_l, old_r, old_l_done, old_r_done = pending[wid]
                l_rows, r_rows = old_l + l_rows, old_r + r_rows
                l_done, r_done = old_l_done or l_done, old_r_done or r_done
            pending[wid] = (l_rows, r_rows, l_done, r_done)
            if l_done and r_done:
                ready.append(wid)
        out: list = []
        for wid in ready:
            close(wid, out)
        if complete:
            out.append(complete)
        if out:
            chunks.append(b"".join(out))
    out = []
    for wid in sorted(pending):
        close(wid, out)
    if out:
        chunks.append(b"".join(out))
    return chunks, finalised


def window_join(
    window: WindowDefinition,
    left: TupleBatch,
    right: TupleBatch,
    predicate,
    combine,
) -> "list[tuple]":
    """All matching pairs per aligned closed window pair, in window order.

    ``predicate(l_row, r_row) -> bool`` over namedtuple-ish row dicts;
    ``combine(l_row, r_row) -> tuple`` builds the output row.
    """
    l_ranges = {w: (s, e) for w, s, e in window_ranges(window, left)}
    r_ranges = {w: (s, e) for w, s, e in window_ranges(window, right)}
    l_rows = left.to_rows()
    r_rows = right.to_rows()
    l_names = left.schema.attribute_names
    r_names = right.schema.attribute_names
    out = []
    for wid in sorted(set(l_ranges) & set(r_ranges)):
        ls, le = l_ranges[wid]
        rs, re = r_ranges[wid]
        for i in range(ls, le):
            for j in range(rs, re):
                lrow = dict(zip(l_names, l_rows[i]))
                rrow = dict(zip(r_names, r_rows[j]))
                if predicate(lrow, rrow):
                    out.append(combine(lrow, rrow))
    return out


def collect(source, total: int, chunk: int) -> TupleBatch:
    """Materialise ``total`` tuples drawing ``chunk`` at a time.

    Chunked draws must match the engine's dispatcher chunking so that
    RNG-backed sources produce identical data.
    """
    chunks = []
    remaining = total
    while remaining > 0:
        n = min(chunk, remaining)
        chunks.append(source.next_tuples(n))
        remaining -= n
    return TupleBatch.concat(chunks)


# -- composed operators, one materialised stage at a time ---------------------------
#
# ``FilteredWindows`` / ``ProjectedWindows`` before they ran in one pass: every
# stage copies a full intermediate ``TupleBatch`` out for the next one.


def process_materialised(operator, inputs: "list[StreamSlice]") -> BatchResult:
    """``operator.process_batch(inputs)`` with each composed stage materialised."""
    if isinstance(operator, FilteredWindows):
        (slice_,) = inputs
        batch, windows = slice_.batch, slice_.windows
        mask = operator.predicate.evaluate(batch)
        survivors = batch.filter(mask)
        # Position i of the batch lands at prefix[i] survivors.
        prefix = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(mask, out=prefix[1:])
        remapped = WindowSet(
            window_ids=windows.window_ids,
            starts=prefix[windows.starts],
            ends=prefix[windows.ends],
            states=windows.states,
        )
        result = process_materialised(
            operator.inner, [StreamSlice(survivors, remapped, slice_.global_start)]
        )
        result.stats["selectivity"] = float(mask.mean()) if len(batch) else 0.0
        return result
    if isinstance(operator, ProjectedWindows):
        (slice_,) = inputs
        projected = operator.projection.process_batch(inputs).complete
        return process_materialised(
            operator.inner, [StreamSlice(projected, slice_.windows, slice_.global_start)]
        )
    return operator.process_batch(inputs)


# -- count-window assignment, one mask per state ------------------------------------
#
# ``assign_count_windows`` before it cut the states in closed form: clip every
# fragment bound into the batch and classify each window from two boolean masks.


def assign_count_windows_by_masks(
    window: WindowDefinition, batch_start: int, batch_end: int
) -> WindowSet:
    """Count-window fragments of ``[batch_start, batch_end)``, window by window."""
    if batch_end <= batch_start:
        return WindowSet.empty()
    size, slide = window.size, window.slide
    first = max(0, (batch_start - size) // slide + 1)
    last = (batch_end - 1) // slide
    if last < first:
        return WindowSet.empty()
    ids = np.arange(first, last + 1, dtype=np.int64)
    w_start = ids * slide
    w_end = w_start + size
    starts = np.clip(w_start - batch_start, 0, batch_end - batch_start)
    ends = np.clip(w_end - batch_start, 0, batch_end - batch_start)
    opens = w_start >= batch_start
    closes = (w_end > batch_start) & (w_end <= batch_end)
    states = np.full(len(ids), int(FragmentState.PENDING), dtype=np.int64)
    states[opens & closes] = int(FragmentState.COMPLETE)
    states[opens & ~closes] = int(FragmentState.OPENING)
    states[~opens & closes] = int(FragmentState.CLOSING)
    return WindowSet(ids, starts, ends, states)


#: every attribute type a schema may carry
ATTRIBUTE_TYPES = ("long", "int", "float", "double")


# -- whole-row moves, field by field ---------------------------------------------
#
# The statements ``TupleBatch`` and ``CircularTupleBuffer`` used before rows
# moved as opaque records (``Schema.row_dtype``): plain numpy on the
# structured array, which walks every field of every row.  They are the
# byte-for-byte oracles (and the time base) for the row-view forms.


def fieldwise_copy(data: np.ndarray) -> np.ndarray:
    return data.copy()


def fieldwise_take(data: np.ndarray, indices) -> np.ndarray:
    return data[indices]


def fieldwise_filter(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return data[mask]


def fieldwise_concat(parts: "list[np.ndarray]") -> np.ndarray:
    return np.concatenate(parts)


def fieldwise_ring_insert(slots: np.ndarray, first: int, data: np.ndarray) -> None:
    """Write ``data`` into the ring ``slots`` from physical slot ``first``."""
    capacity = len(slots)
    end = first + len(data)
    if end <= capacity:
        slots[first:end] = data
    else:
        split = capacity - first
        slots[first:] = data[:split]
        slots[: end - capacity] = data[split:]


def fieldwise_ring_read(slots: np.ndarray, first: int, count: int) -> np.ndarray:
    """Copy of ``count`` rows of the ring from physical slot ``first``."""
    capacity = len(slots)
    end = first + count
    if end <= capacity:
        return slots[first:end].copy()
    return np.concatenate([slots[first:], slots[: end - capacity]])


@st.composite
def schemas_and_rows(draw, max_rows: int = 48) -> "tuple[Schema, np.ndarray]":
    """A random schema (1–8 attributes over every supported type, so 4- to
    64-byte tuples) and rows of arbitrary bytes under it — contiguous or a
    strided / reversed view, possibly empty."""
    types = draw(st.lists(st.sampled_from(ATTRIBUTE_TYPES), min_size=1, max_size=8))
    schema = Schema.parse(", ".join(f"a{i}:{t}" for i, t in enumerate(types)))
    n = draw(st.integers(0, max_rows))
    step = draw(st.sampled_from([1, 1, 2, 3, -1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.bytes(n * abs(step) * schema.tuple_size)
    return schema, np.frombuffer(raw, dtype=schema.dtype)[::step]


# -- rows to a batch, one row at a time -------------------------------------------
#
# ``repro.io.records.rows_to_batch`` before it packed homogeneous rows with one
# ``np.array`` call: the byte-for-byte (and error-for-error) oracle.


def rows_to_batch_by_row(schema: Schema, rows) -> TupleBatch:
    """Build a batch from dict rows (by name) or sequence rows (by order)."""
    names = schema.attribute_names
    columns: "dict[str, list]" = {n: [] for n in names}
    count = 0
    for row in rows:
        count += 1
        if isinstance(row, dict):
            try:
                for n in names:
                    columns[n].append(row[n])
            except KeyError as exc:
                raise ValidationError(
                    f"row {count} is missing attribute {exc.args[0]!r} of "
                    f"schema {schema.name!r}"
                ) from None
        elif isinstance(row, Sequence) and not isinstance(row, (str, bytes)):
            if len(row) != len(names):
                raise ValidationError(
                    f"row {count} has {len(row)} values; schema "
                    f"{schema.name!r} has {len(names)} attributes"
                )
            for n, value in zip(names, row):
                columns[n].append(value)
        else:
            raise ValidationError(
                f"row {count} is a {type(row).__name__}; expected a dict or "
                "a sequence of attribute values"
            )
    data = np.empty(count, dtype=schema.dtype)
    for attr in schema.attributes:
        try:
            data[attr.name] = np.asarray(columns[attr.name], dtype=attr.dtype)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValidationError(
                f"attribute {attr.name!r} of schema {schema.name!r} cannot "
                f"be converted to {attr.type_name}: {exc}"
            ) from None
    return TupleBatch(schema, data)


def best_of(move, repeat: int = 5, number: int = 20) -> float:
    """Best-of-``repeat`` seconds for ``number`` calls of ``move`` — the
    minimum is what a loaded box disturbs least."""
    return min(timeit.repeat(move, repeat=repeat, number=number))
