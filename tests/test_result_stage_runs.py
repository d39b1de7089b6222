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

from reference import grouped_by_window, pairwise_stage
from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.compose import FilteredWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.udf import WindowUdf
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import FragmentState, WindowSet, assign_windows
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import TUPLE_SIZE, SyntheticSource, agg_query, groupby_query

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


# -- dense runs: certified tasks ship every (window, group) cell -------------------


def certified(n: int, seed: int = 3, groups: int = 5, keys=None) -> TupleBatch:
    """Quarter-integer values, so every prefix sum is exact: a task of
    them takes the prefix path and ships a dense table.  ``v`` also
    holds ``±0.0`` ties; ``keys`` overrides the group column."""
    rng = np.random.default_rng(seed)
    v = (rng.integers(-40, 40, n) / 4).astype(np.float32)
    zeros = rng.random(n) < 0.3
    v[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.cumsum(rng.integers(0, 3, n)).astype(np.int64),
        v=v,
        w=rng.integers(-4000, 4000, n) / 4.0,
        k=rng.integers(0, groups, n).astype(np.int32) if keys is None else keys,
    )


def ragged(n: int, seed: int = 5) -> TupleBatch:
    """A certified stream whose second half is not: NaN, ±inf and
    1e16-scale cancellation in both value columns."""
    head, tail = certified(n // 2, seed), stream(n - n // 2, seed)
    rng = np.random.default_rng(seed)
    w = np.asarray(tail.column("w")).copy()
    v = np.asarray(tail.column("v")).copy()
    w[rng.integers(0, len(w), 6)] = [np.nan, np.inf, -np.inf, 1e16, -1e16, np.nan]
    v[rng.integers(0, len(v), 4)] = [np.nan, np.inf, -np.inf, -0.0]
    data = np.concatenate([head.data, tail.data])
    data["timestamp"][n // 2 :] += data["timestamp"][n // 2 - 1]
    data["w"][n // 2 :], data["v"][n // 2 :] = w, v
    return TupleBatch(SCHEMA, data)


def extremes() -> GroupedAggregation:
    """Certified sums, and min / max over ``v`` — free to hold NaN and
    ``±0.0`` ties on the prefix path, which certifies sums only."""
    specs = [
        AggregateSpec("count", None, "n"),
        AggregateSpec("sum", "w", "s"),
        AggregateSpec("min", "v", "lo"),
        AggregateSpec("max", "v", "hi"),
    ]
    return GroupedAggregation(SCHEMA, ["k"], specs)


def forms(results) -> "set[str]":
    """The table shapes the tasks' runs ship."""
    shapes = set()
    for result in results:
        if len(result.partials):
            table = result.partials.sides[0].rows
            shapes.add("dense" if len(table.keys) < len(table) else "sparse")
    return shapes


DENSE_OPERATORS = {
    "groupby": grouped,
    "groupby-having": lambda: grouped(having=True),
    "ungrouped": lambda: grouped(keys=()),
    "extremes": extremes,
}


@pytest.mark.parametrize("name", sorted(DENSE_OPERATORS))
@pytest.mark.parametrize(
    "window, task_size",
    [
        (WindowDefinition.rows(48, 1), 64),
        (WindowDefinition.rows(150, 1), 60),
        (WindowDefinition.time(80, 1), 64),
    ],
    ids=["slide-one", "pending-three-plus-tasks", "time"],
)
def test_dense_runs(name, window, task_size):
    tasks = cut(certified(400), window, task_size)
    __, windows, results = assert_matches_pairwise(DENSE_OPERATORS[name](), tasks)
    assert "dense" in forms(results) and len(windows) > 5
    if window.size == 150:
        assert spans(window, task_size) >= 3
        assert any((ws.states == int(FragmentState.PENDING)).any() for __, ws in tasks)


@pytest.mark.parametrize("name", sorted(DENSE_OPERATORS))
@pytest.mark.parametrize("size", [48, 200])
def test_dense_and_sparse_runs_feed_one_assembly(name, size):
    """Certified tasks then uncertified ones: windows across the seam fold
    dense tables and sparse ones into one accumulator."""
    tasks = cut(ragged(400), WindowDefinition.rows(size, 1), 80)
    __, __, results = assert_matches_pairwise(DENSE_OPERATORS[name](), tasks)
    assert forms(results) == {"dense", "sparse"}


def test_min_max_fold_nan_and_signed_zero_ties_in_task_order():
    """min / max keep the later of ``0.0`` / ``-0.0``: folding the runs
    out of task order flips the sign of a tie."""
    n = 512
    v = np.where(np.arange(n) < n // 2, 0.0, -0.0).astype(np.float32)
    v[[5, 300]] = np.nan
    data = TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(n, dtype=np.int64),
        v=v,
        w=np.ones(n),
        k=(np.arange(n) % 2).astype(np.int32),
    )
    tasks = cut(data, WindowDefinition.rows(160, 1), 128)
    chunks, windows, results = assert_matches_pairwise(extremes(), tasks)
    assert forms(results) == {"dense"}
    out = np.frombuffer(b"".join(chunks), dtype=extremes().output_schema.dtype)
    low, high = out["lo"], out["hi"]
    assert np.isnan(low).any() and np.signbit(low[~np.isnan(low)]).any()
    assert (~np.signbit(high[~np.isnan(high)])).any()


def test_a_key_missing_from_one_task_is_present_in_the_next():
    """Each task holds a different key set: the runs' keys map into their
    union, and a key absent from a run adds nothing and emits nothing."""
    n = 120
    keys = np.concatenate([np.full(40, 1), np.arange(40) % 2 + 2, np.arange(40) % 3])
    data = certified(n, keys=keys.astype(np.int32))
    tasks = cut(data, WindowDefinition.rows(30, 1), 40)
    __, windows, results = assert_matches_pairwise(grouped(), tasks)
    assert forms(results) == {"dense"}
    assert [len(r.partials.sides[0].rows.keys) for r in results] == [1, 2, 3]


@pytest.mark.parametrize("cardinality", [60, 400])
def test_many_keys(cardinality):
    data = certified(400, groups=cardinality)
    for window, task_size in [(WindowDefinition.rows(64, 1), 50), (WindowDefinition.rows(8, 1), 200)]:
        tasks = cut(data, window, task_size)
        assert_matches_pairwise(grouped(), tasks)
        assert_matches_pairwise(extremes(), tasks)


@pytest.mark.parametrize("keys", [("k",), ()], ids=["grouped", "ungrouped"])
def test_a_filtered_slide_one_window_may_end_empty(keys):
    """WHERE drops each task's last tuple, so the window opening there
    is an empty fragment at the end of the survivors; min / max on the
    prefix path fold it to nothing.  The per-window reference runs the
    inner operator over each task's survivors."""
    data = certified(384)
    data.data["k"][127::128] = 4
    specs = [AggregateSpec(fn, column, f"a{i}") for i, (fn, column) in enumerate(ALL_FUNCTIONS)]
    inner = GroupedAggregation(SCHEMA, list(keys), specs)
    op = FilteredWindows(col("k") < 4, inner)
    tasks = cut(data, WindowDefinition.rows(96, 1), 128)
    chunks, windows, results, __ = run_stage(op, tasks)
    assert forms(results) == {"dense"}
    survivors = []
    for batch, ws in tasks:
        mask = np.asarray(batch.column("k")) < 4
        rank = np.concatenate([[0], np.cumsum(mask)])
        remapped = WindowSet(ws.window_ids, rank[ws.starts], rank[ws.ends], ws.states)
        assert (remapped.starts == mask.sum()).any()
        survivors.append((batch.filter(mask), remapped))
    assert (chunks, windows) == grouped_by_window(inner, survivors)


# -- end to end: the run crosses the completion queue and the accelerator slot -------


def _engine_output(execution, make_query=None, **flags):
    if execution == "processes" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("processes backend needs POSIX fork")
    engine = SaberEngine(
        SaberConfig(
            execution=execution, task_size_bytes=128 * TUPLE_SIZE, cpu_workers=2, **flags
        )
    )
    if make_query is None:
        query = groupby_query(8, ["cnt", "sum"], window=WindowDefinition.rows(300, 1))
    else:
        query = make_query()
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


EXTREMA_QUERIES = {
    # float32 values in [0, 1): certified sums, so every task ships dense
    "groupby-min-max": lambda: groupby_query(
        8, ["cnt", "sum", "min", "max"], window=WindowDefinition.rows(300, 1)
    ),
    # the AGG* shape: ungrouped, all five functions
    "agg-star": lambda: agg_query(
        ["count", "sum", "avg", "min", "max"], window=WindowDefinition.rows(300, 1)
    ),
}


@pytest.mark.parametrize("name", sorted(EXTREMA_QUERIES))
@pytest.mark.parametrize(
    "execution, flags",
    [("processes", {}), ("threads", {"use_cpu": False})],
    ids=["processes", "accelerator"],
)
def test_dense_runs_end_to_end(name, execution, flags):
    expected = _engine_output("sim", EXTREMA_QUERIES[name])
    out = _engine_output(execution, EXTREMA_QUERIES[name], **flags)
    assert expected is not None and len(expected) > 1000
    assert out.data.tobytes() == expected.data.tobytes()
