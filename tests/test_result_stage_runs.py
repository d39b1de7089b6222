"""The run-based result stage against the retired one-window-at-a-time stage.

Each task's boundary partials reach ``ResultStage`` as one
``PartialRun``; the stage keeps the runs in task order and assembles
every ready window with one ``operator.assemble_windows`` call.
``tests/reference.py::pairwise_stage`` is the stage it replaced: a
``dict[wid, payload]`` filled window by window and folded pairwise.  Everything here compares raw bytes — chunks as the sink sees
them and ``(window id, rows)`` as ``on_window`` sees them.
"""

import multiprocessing

import numpy as np
import pytest

from reference import pairwise_stage
from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.udf import WindowUdf
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import FragmentState, assign_windows
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import TUPLE_SIZE, SyntheticSource, groupby_query

SCHEMA = Schema.with_timestamp("v:float, w:double, k:int")
ALL_FUNCTIONS = [("count", None), ("sum", "w"), ("avg", "v"), ("min", "w"), ("max", "v")]


def stream(n: int, seed: int = 3, groups: int = 5) -> TupleBatch:
    """Values whose sums cancel: ``(1e16 + 1) - 1e16 = 0`` but
    ``(1e16 - 1e16) + 1 = 1``, so the order of addition shows even in
    float32 output."""
    rng = np.random.default_rng(seed)
    w = rng.choice([1e16, -1e16, 1.0, 2.5, -0.0], n, p=[0.2, 0.2, 0.25, 0.25, 0.1])
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.cumsum(rng.integers(0, 3, n)).astype(np.int64),
        v=(rng.standard_normal(n) * 1e3).astype(np.float32),
        w=w,
        k=rng.integers(0, groups, n).astype(np.int32),
    )


def grouped(keys=("k",), having=False) -> GroupedAggregation:
    specs = [AggregateSpec(fn, column, f"a{i}") for i, (fn, column) in enumerate(ALL_FUNCTIONS)]
    return GroupedAggregation(
        SCHEMA, list(keys), specs, having=(col("a0") > 2.0) if having else None
    )


def count_udf() -> WindowUdf:
    out = Schema.parse("n:long, s:double")

    def summary(windows):
        (rows,) = windows
        return TupleBatch.from_columns(
            out,
            n=np.array([len(rows)], dtype=np.int64),
            s=np.array([np.asarray(rows.column("w")).sum()]),
        )

    return WindowUdf([SCHEMA], out, summary)


OPERATORS = {
    "groupby": grouped,
    "groupby-having": lambda: grouped(having=True),
    "ungrouped": lambda: grouped(keys=()),
    # raw boundary rows: one dedup pass, one function call per window
    "distinct": lambda: DistinctProjection(SCHEMA, [("k", col("k"))]),
    "udf": count_udf,
}


def cut(data, window, task_size, force_assembly=False):
    """``[(batch, window set)]`` over tasks of ``task_size`` tuples, or
    between the given ``task_size`` edges."""
    if isinstance(task_size, int):
        task_size = list(range(0, len(data), task_size)) + [len(data)]
    tasks, previous = [], None
    for start, stop in zip(task_size, task_size[1:]):
        part = data.slice(start, stop)
        windows = assign_windows(
            window, start, start + len(part), part.timestamps, previous, force_assembly
        )
        previous = int(part.timestamps[-1])
        tasks.append((part, windows))
    return tasks


def run_stage(op, tasks, order=None, flush=True):
    """The tasks' results through ``ResultStage``, submitted in ``order``."""
    query = Query("q", op, [WindowDefinition.rows(1, 1)])
    stage = ResultStage(query)
    chunks, windows = [], []
    stage.on_emit = lambda record: chunks.append(record.rows.data.tobytes())
    stage.on_window = lambda wid, rows: windows.append((wid, rows.data.tobytes()))
    results = [op.process_batch([StreamSlice(batch, ws, 0)]) for batch, ws in tasks]
    for task_id in range(len(results)) if order is None else order:
        stage.submit(QueryTask(query, task_id, [], 0.0, 1), results[task_id], 0.0)
    if flush:
        stage.flush(0.0)
    return chunks, windows, results, stage


def assert_matches_pairwise(op, tasks, order=None, flush=True):
    chunks, windows, results, stage = run_stage(op, tasks, order, flush)
    expected_chunks, expected_windows = pairwise_stage(op, results, flush)
    assert chunks == expected_chunks
    assert windows == expected_windows
    if flush:
        assert stage._pending == []
    return chunks, windows, results


def spans(window, task_size):
    """Most tasks one window's fragments reach."""
    return -(-(window.size - 1) // task_size) + 1


# -- count windows at slide 1, over 1, 2 and ≥ 3 tasks ------------------------------


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize(
    "size, task_size",
    [(8, 64), (48, 32), (100, 24)],
    ids=["one-or-two-tasks", "two-tasks", "three-plus-tasks"],
)
@pytest.mark.parametrize("force_assembly", [False, True], ids=["", "forced"])
def test_slide_one_count_windows(name, size, task_size, force_assembly):
    window = WindowDefinition.rows(size, 1)
    tasks = cut(stream(400), window, task_size, force_assembly)
    __, windows, results = assert_matches_pairwise(OPERATORS[name](), tasks)
    assert len(windows) > 30
    if size == 100:
        assert spans(window, task_size) >= 3
    if force_assembly:
        # A window inside one task travels the stage too (its run is one task).
        assert all(len(result.complete) == 0 for result in results)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_time_windows(name):
    tasks = cut(stream(500, seed=9), WindowDefinition.time(40, 7), 37)
    __, windows, __ = assert_matches_pairwise(OPERATORS[name](), tasks)
    assert len(windows) > 20


@pytest.mark.parametrize("name", ["groupby", "ungrouped", "distinct"])
def test_tasks_with_no_boundary_windows(name):
    """Tumbling windows that tile the tasks: every run is empty, and the
    stage keeps nothing; a mixed cut gives runs to some tasks only."""
    op = OPERATORS[name]()
    tiled = cut(stream(256), WindowDefinition.rows(16, 16), 64)
    chunks, windows, results = assert_matches_pairwise(op, tiled)
    assert all(len(result.partials) == 0 for result in results) and windows == []
    assert len(chunks) == 4
    mixed = cut(stream(256), WindowDefinition.rows(32, 32), [0, 64, 100, 128, 192, 256])
    __, __, results = assert_matches_pairwise(op, mixed)
    assert 0 < sum(len(result.partials) == 0 for result in results) < len(results)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_out_of_order_submit(name):
    op = OPERATORS[name]()
    tasks = cut(stream(360), WindowDefinition.rows(50, 3), 30)
    rng = np.random.default_rng(5)
    for __ in range(3):
        order = rng.permutation(len(tasks)).tolist()
        assert_matches_pairwise(op, tasks, order=order)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_without_flush_the_open_windows_stay_pending(name):
    op = OPERATORS[name]()
    tasks = cut(stream(300), WindowDefinition.rows(64, 5), 40)
    chunks, windows, results, stage = run_stage(op, tasks, flush=False)
    assert (chunks, windows) == pairwise_stage(op, results, flush=False)
    assert stage._pending
    tail = stage.flush(0.0)
    assert len(tail) == 1 and stage._pending == []
    assert stage.flush(0.0) == []


def test_windows_closing_out_of_id_order():
    """Hand-built fragments may close a later window first: the earlier
    one stays pending in its run until the flush."""
    from repro.windows.assigner import WindowSet

    data = stream(40)
    states = np.array([FragmentState.OPENING, FragmentState.CLOSING, FragmentState.PENDING])
    windows = WindowSet(
        np.arange(3, dtype=np.int64),
        np.array([0, 0, 5], dtype=np.int64),
        np.array([10, 20, 40], dtype=np.int64),
        states.astype(np.int64),
    )
    for name in ("groupby", "distinct"):
        __, found, __ = assert_matches_pairwise(OPERATORS[name](), [(data, windows)])
        assert [wid for wid, __ in found] == [1, 0, 2]


# -- BatchResult.partials keeps counting boundary windows ------------------------------


class TestPartialsCount:
    """``len(result.partials)`` is the number of distinct boundary windows
    (what saberbench reports as ``operators.partials_out``)."""

    def boundary(self, windows):
        return len(np.unique(windows.window_ids[windows.states != int(FragmentState.COMPLETE)]))

    def run(self, window, start, stop):
        data = stream(stop - start)
        windows = assign_windows(window, start, stop)
        result = grouped().process_batch([StreamSlice(data, windows, start)])
        return windows, result

    def test_slide_one_task(self):
        windows, result = self.run(WindowDefinition.rows(256, 1), 512, 1024)
        assert len(result.partials) == self.boundary(windows) == 510
        closed = result.partials.ids[result.partials.done[0]]
        assert closed.tolist() == list(range(257, 512))

    def test_all_complete_tumbling_task(self):
        windows, result = self.run(WindowDefinition.rows(64, 64), 512, 1024)
        assert self.boundary(windows) == 0 and len(result.partials) == 0
        assert len(result.partials.done[0]) == 0 and len(result.complete) > 0

    def test_pending_only_task(self):
        windows, result = self.run(WindowDefinition.rows(4096, 64), 2050, 2110)
        assert (windows.states == int(FragmentState.PENDING)).all()
        assert len(result.partials) == self.boundary(windows) == len(windows) > 30
        # Every PENDING window spans the whole batch: one table shared.
        lo, hi, __ = result.partials.sides[0].spans
        assert len(set(zip(lo.tolist(), hi.tolist()))) == 1


# -- end to end: the run crosses the completion queue and the accelerator slot -------


def _engine_output(execution, **flags):
    if execution == "processes" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("processes backend needs POSIX fork")
    engine = SaberEngine(
        SaberConfig(
            execution=execution, task_size_bytes=128 * TUPLE_SIZE, cpu_workers=2, **flags
        )
    )
    query = groupby_query(8, ["cnt", "sum"], window=WindowDefinition.rows(300, 1))
    engine.add_query(query, [SyntheticSource(seed=13, groups=8)])
    try:
        report = engine.run(tasks_per_query=12)
    finally:
        engine.shutdown()
    return report.outputs[query.name]


@pytest.mark.parametrize(
    "execution, flags",
    [("processes", {}), ("threads", {"use_cpu": False}), ("processes", {"use_cpu": False})],
    ids=["processes", "accelerator", "accelerator-processes"],
)
def test_slide_one_groupby_end_to_end(execution, flags):
    expected = _engine_output("sim")
    out = _engine_output(execution, **flags)
    assert expected is not None and len(expected) > 1000
    assert out.data.tobytes() == expected.data.tobytes()
