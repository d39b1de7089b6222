"""Unit tests for result reordering and window assembly (§4.3)."""

import numpy as np
import pytest

from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.errors import ExecutionError
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.groupby import GroupedAggregation
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float")
WINDOW = WindowDefinition.rows(8, 4)


def make_query():
    op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v", "s")])
    return Query("q", op, [WINDOW])


def batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        SCHEMA, timestamp=idx.astype(np.int64), v=idx.astype(np.float32)
    )


def task_result(query, task_id, start, stop):
    data = batch(start, stop)
    ws = assign_count_windows(WINDOW, start, stop)
    result = query.operator.process_batch([StreamSlice(data, ws, start)])
    task = QueryTask(query, task_id, [], created_at=float(task_id), size_bytes=stop - start)
    return task, result


class TestOrdering:
    def test_in_order_submission_emits_progressively(self):
        query = make_query()
        stage = ResultStage(query)
        emitted = []
        for i, (a, b) in enumerate([(0, 6), (6, 12), (12, 18)]):
            task, result = task_result(query, i, a, b)
            emitted += stage.submit(task, result, now=float(i))
        out = stage.output()
        # Windows [0,8), [4,12), [8,16) closed within 18 rows.
        assert np.allclose(out.column("s"), [28.0, 60.0, 92.0])
        assert list(out.timestamps) == [7, 11, 15]

    def test_out_of_order_submission_buffers(self):
        query = make_query()
        stage = ResultStage(query)
        t0, r0 = task_result(query, 0, 0, 6)
        t1, r1 = task_result(query, 1, 6, 12)
        t2, r2 = task_result(query, 2, 12, 18)
        assert stage.submit(t2, r2, 0.0) == []     # waits for 0,1
        assert stage.submit(t1, r1, 0.0) == []
        emitted = stage.submit(t0, r0, 1.0)        # drains all three
        out = stage.output()
        assert np.allclose(out.column("s"), [28.0, 60.0, 92.0])
        assert all(e.emit_time == 1.0 for e in emitted)

    def test_out_of_order_equals_in_order(self):
        import itertools

        ranges = [(0, 6), (6, 12), (12, 18), (18, 24)]
        reference = None
        for perm in itertools.permutations(range(4)):
            query = make_query()
            stage = ResultStage(query)
            tasks = [task_result(query, i, *ranges[i]) for i in range(4)]
            for i in perm:
                stage.submit(tasks[i][0], tasks[i][1], 0.0)
            out = stage.output().column("s").tolist()
            if reference is None:
                reference = out
            assert out == reference, perm

    def test_duplicate_task_rejected(self):
        query = make_query()
        stage = ResultStage(query)
        task, result = task_result(query, 0, 0, 6)
        stage.submit(task, result, 0.0)
        with pytest.raises(ExecutionError):
            stage.submit(task, result, 0.0)
        assert stage.tasks_submitted == 1  # a rejected submit is not a completion

    def test_slot_overflow_detected(self):
        query = make_query()
        stage = ResultStage(query, slots=2)
        # Tasks 1 and 2 buffered while 0 is missing -> overflow at 2 slots.
        t1, r1 = task_result(query, 1, 6, 12)
        t2, r2 = task_result(query, 2, 12, 18)
        t3, r3 = task_result(query, 3, 18, 24)
        stage.submit(t1, r1, 0.0)
        stage.submit(t2, r2, 0.0)
        with pytest.raises(ExecutionError):
            stage.submit(t3, r3, 0.0)


class TestRelease:
    def test_release_callback_fires_in_task_order(self):
        query = make_query()
        released = []
        stage = ResultStage(query, on_release=lambda t: released.append(t.task_id))
        tasks = [task_result(query, i, i * 6, (i + 1) * 6) for i in range(3)]
        stage.submit(tasks[1][0], tasks[1][1], 0.0)
        assert released == []
        stage.submit(tasks[0][0], tasks[0][1], 0.0)
        assert released == [0, 1]
        stage.submit(tasks[2][0], tasks[2][1], 0.0)
        assert released == [0, 1, 2]


class TestFlush:
    def test_flush_emits_open_windows(self):
        query = make_query()
        stage = ResultStage(query)
        task, result = task_result(query, 0, 0, 6)
        stage.submit(task, result, 0.0)
        assert stage.output() is None  # nothing closed yet
        stage.flush(now=1.0)
        out = stage.output()
        assert len(out) == 2  # windows 0 and 1 had fragments

    def test_flush_empty_pending_is_noop(self):
        query = make_query()
        stage = ResultStage(query)
        assert stage.flush(0.0) == []


class TestOutputAccounting:
    def test_rows_and_bytes_counted_without_collection(self):
        query = make_query()
        stage = ResultStage(query, collect_output=False)
        for i, (a, b) in enumerate([(0, 8), (8, 16)]):
            task, result = task_result(query, i, a, b)
            stage.submit(task, result, 0.0)
        assert stage.output() is None
        assert stage.output_rows > 0


# -- the batched assembly hook: what the stage promises around it -----------------

GROUP_SCHEMA = Schema.with_timestamp("v:float, k:int")


def group_batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        GROUP_SCHEMA,
        timestamp=idx.astype(np.int64),
        v=((idx * 7) % 11).astype(np.float32),
        k=(idx % 3).astype(np.int32),
    )


def contract_operators():
    from repro.operators.distinct import DistinctProjection
    from repro.relational.expressions import col

    return {
        # overrides assemble_windows (vectorised fold, single emit)
        "groupby": GroupedAggregation(GROUP_SCHEMA, ["k"], [AggregateSpec("sum", "v", "s")]),
        "groupby-having": GroupedAggregation(
            GROUP_SCHEMA, ["k"], [AggregateSpec("sum", "v", "s")], having=col("s") > 20.0
        ),
        # overrides it (merge chain + one vectorised finalise)
        "aggregation": GroupedAggregation(GROUP_SCHEMA, [], [AggregateSpec("avg", "v", "a")]),
        # base-class default: merge_partials chain + finalize_window loop
        "distinct": DistinctProjection(GROUP_SCHEMA, [("k", col("k"))]),
    }


def drive(op, window, edges, force_assembly=False, collect_output=True, flush=True):
    from repro.windows.assigner import assign_windows

    query = Query("contract", op, [window])
    stage = ResultStage(query, collect_output=collect_output)
    windows, chunks = [], []
    stage.on_window = lambda wid, rows: windows.append((wid, rows.data.tobytes()))
    stage.on_emit = lambda record: chunks.append((record.task_id, record.rows))
    results = []
    for task_id, (a, b) in enumerate(zip(edges, edges[1:])):
        ws = assign_windows(window, a, b, force_assembly=force_assembly)
        result = op.process_batch([StreamSlice(group_batch(a, b), ws, a)])
        results.append(result)
        stage.submit(QueryTask(query, task_id, [], 0.0, b - a), result, 0.0)
    if flush:
        stage.flush(0.0)
    return stage, windows, chunks, results


def pairwise_windows(op, results):
    """Every window's rows via the one-window-at-a-time f_a, as the old stage ran it."""
    pending, out = {}, []
    for result in results:
        for wid, payload in sorted(result.partials.items()):
            pending.setdefault(wid, []).append(payload)
    for wid in sorted(pending):
        merged = pending[wid][0]
        for part in pending[wid][1:]:
            merged = op.merge_partials(merged, part)
        rows = op.finalize_window(wid, merged)
        if rows is not None and len(rows):
            out.append((wid, rows.data.tobytes()))
    return out


@pytest.mark.parametrize("name", ["groupby", "groupby-having", "aggregation", "distinct"])
class TestBatchedAssemblyContract:
    WINDOW = WindowDefinition.rows(10, 3)
    EDGES = [0, 7, 9, 25, 31, 40]

    def test_on_window_once_per_window_ascending_same_rows(self, name):
        op = contract_operators()[name]
        stage, windows, __, results = drive(op, self.WINDOW, self.EDGES)
        ids = [wid for wid, __ in windows]
        assert ids == sorted(set(ids))  # strictly increasing: once each
        assert len(ids) >= 5
        # Closed by submit, tail by flush — the same rows the pairwise
        # assembly function yields window by window.
        assert windows == pairwise_windows(op, results)

    def test_force_assembly_surfaces_every_window(self, name):
        op = contract_operators()[name]
        __, windows, chunks, results = drive(
            op, self.WINDOW, self.EDGES, force_assembly=True, flush=False
        )
        assert all(len(result.complete) == 0 for result in results)
        emitted = b"".join(rows.data.tobytes() for __, rows in chunks)
        assert emitted == b"".join(rows for __, rows in windows)

    def test_one_chunk_per_task_windows_first_then_complete_rows(self, name):
        op = contract_operators()[name]
        __, windows, chunks, results = drive(op, self.WINDOW, self.EDGES, flush=False)
        assert [task_id for task_id, __ in chunks] == sorted({t for t, __ in chunks})
        by_wid = dict(windows)
        for task_id, rows in chunks:
            result = results[task_id]
            closed = b"".join(by_wid.get(wid, b"") for wid in sorted(result.closed_ids))
            assert rows.data.tobytes() == closed + result.complete.data.tobytes()

    def test_without_collection_the_stage_retains_nothing(self, name):
        op = contract_operators()[name]
        edges = list(range(0, 2000, 25))
        stage, windows, chunks, __ = drive(
            op, self.WINDOW, edges, collect_output=False, flush=False
        )
        assert stage.emitted == [] and stage.output() is None
        assert stage.output_rows == sum(len(rows) for __, rows in chunks) > 0
        # Only windows still open at the last task are pending: O(range / slide).
        assert len(stage._pending) <= 4 and not stage._closed_flags


def test_a_window_pending_across_many_tasks_retains_boundary_rows_only():
    """k tasks of a long window leave k small group tables, not k task blocks."""
    import pickle

    op = contract_operators()["groupby"]
    window = WindowDefinition.rows(4000, 4000)
    task_tuples, tasks = 100, 30
    stage, __, chunks, results = drive(
        op, window, list(range(0, task_tuples * tasks + 1, task_tuples)), flush=False
    )
    assert chunks == [] and list(stage._pending) == [0]
    payloads = stage._pending[0]
    assert len(payloads) == tasks
    # One 3-group table per task (~100 B of columns), nothing per tuple.
    assert all(len(p.block) == 3 for p in payloads)
    retained = len(pickle.dumps(stage._pending))
    assert retained < tasks * 400 < tasks * group_batch(0, task_tuples).size_bytes
