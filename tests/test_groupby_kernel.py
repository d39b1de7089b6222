"""The segmented GROUP-BY kernel and its batched assembly, pinned bitwise.

``tests/reference.py::grouped_by_window`` is the retired per-window
algorithm.  Everything here compares raw bytes, never ``allclose``: the
kernel claims the *same float additions in the same order*, so any
rounding difference is a bug.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import grouped_by_window
from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.operators import groupby as groupby_module
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.groupby import GroupedAggregation, GroupedWindowAccumulator
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import FragmentState, WindowSet, assign_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float, w:double, g:int, h:int")

AGGREGATES = [
    ("count", None),
    ("sum", "v"),
    ("sum", "w"),
    ("avg", "w"),
    ("avg", "v"),
    ("min", "w"),
    ("max", "v"),
    ("min", "v"),
    ("max", "w"),
]
KEY_SETS = [["g"], ["g", "h"], ["bucket"], ["h", "bucket"]]


def make_stream(seed: int, n: int, cardinality: int) -> TupleBatch:
    """Values that do not sum exactly: mixed magnitudes, cancellation, ±0.0."""
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)).astype(np.float32)
    w = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
    # Aggregates leave as float32, so a changed float64 addition order
    # only shows after cancellation: mirror many values onto the negation
    # of a near neighbour (same window, often the same group).
    mirrored = np.flatnonzero(rng.random(n) < 0.4)
    partner = np.maximum(mirrored - rng.integers(1, 6, len(mirrored)), 0)
    v[mirrored], w[mirrored] = -v[partner], -w[partner]
    zeros = rng.integers(0, n, max(1, n // 8))
    w[zeros] = np.where(rng.integers(0, 2, len(zeros)) == 0, 0.0, -0.0)
    v[rng.integers(0, n, max(1, n // 8))] = -0.0
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.cumsum(rng.integers(0, 4, n)).astype(np.int64),
        v=v,
        w=w,
        g=(rng.integers(0, cardinality, n) - cardinality // 2).astype(np.int32),
        h=rng.integers(0, 3, n).astype(np.int32),
    )


def make_operator(keys, aggregates, having=False) -> GroupedAggregation:
    specs = [AggregateSpec(fn, column, f"a{i}") for i, (fn, column) in enumerate(aggregates)]
    return GroupedAggregation(
        SCHEMA,
        keys,
        specs,
        having=(col("a0") > 0.5) if having else None,
        derived_columns={"bucket": (col("v") / 4, "int")} if "bucket" in keys else None,
    )


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


def run_pairwise_path(op, tasks):
    """Kernel + ``merge_partials`` / ``finalize_window`` called one window at a time."""
    pending, closed, windows = {}, set(), []
    for batch, window_set in tasks:
        result = op.process_batch([StreamSlice(batch, window_set, 0)])
        closed.update(result.closed_ids)
        for wid, payload in result.partials.items():
            if wid in pending:
                payload = op.merge_partials(pending[wid], payload)
            pending[wid] = payload
        for wid in sorted(closed & set(pending)):
            rows = op.finalize_window(wid, pending.pop(wid))
            closed.discard(wid)
            if rows is not None:
                windows.append((wid, rows.data.tobytes()))
    for wid in sorted(pending):
        rows = op.finalize_window(wid, pending[wid])
        if rows is not None:
            windows.append((wid, rows.data.tobytes()))
    return windows


# -- differential property test ------------------------------------------------


@st.composite
def cases(draw):
    n = draw(st.sampled_from([40, 150, 400]))
    size = draw(st.sampled_from([1, 3, 16, 64, 300]))
    slide = draw(st.sampled_from([s for s in (1, 2, 16, 64, 300) if s <= size]))
    time_based = draw(st.booleans())
    picks = draw(
        st.lists(st.integers(0, len(AGGREGATES) - 1), min_size=1, max_size=4, unique=True)
    )
    return dict(
        seed=draw(st.integers(0, 2**16)),
        n=n,
        # 1 … one group per tuple (a dense fragments × groups table would
        # dwarf its block: the rank-compaction path)
        cardinality=draw(st.sampled_from([1, 2, 8, 50, n])),
        window=(WindowDefinition.time if time_based else WindowDefinition.rows)(size, slide),
        # one task holds the whole stream … a window spans ≥ 3 tasks
        task_size=draw(st.sampled_from([5, 32, 100, n])),
        keys=draw(st.sampled_from(KEY_SETS)),
        aggregates=[AGGREGATES[i] for i in picks],
        having=draw(st.booleans()),
        force_assembly=draw(st.booleans()),
    )


@given(case=cases())
def test_kernel_and_batched_assembly_equal_the_per_window_reference(case):
    data = make_stream(case["seed"], case["n"], case["cardinality"])
    op = make_operator(case["keys"], case["aggregates"], case["having"])
    tasks = cut_tasks(data, case["window"], case["task_size"], case["force_assembly"])
    expected_chunks, expected_windows = grouped_by_window(op, tasks)
    chunks, windows, __ = run_engine_path(op, tasks)
    assert chunks == expected_chunks
    assert windows == expected_windows
    # The pairwise f_a, called directly on the new payloads, still agrees.
    assert run_pairwise_path(op, tasks) == expected_windows


@given(
    seed=st.integers(0, 2**16),
    ranges=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=settings.default.max_examples * 2 // 3)
def test_arbitrary_fragment_sets(seed, ranges):
    """Gaps (slide > range), overlaps, duplicates and empty fragments."""
    data = make_stream(seed, 60, 5)
    starts = np.array([min(a, b) for a, b, __ in ranges], dtype=np.int64)
    stops = np.array([max(a, b) for a, b, __ in ranges], dtype=np.int64)
    states = np.array([state for __, __, state in ranges], dtype=np.int64)
    windows = WindowSet(np.arange(len(ranges), dtype=np.int64), starts, stops, states)
    op = make_operator(["g", "h"], [("sum", "w"), ("count", None), ("min", "v")])
    tasks = [(data, windows)]
    chunks, finalised, __ = run_engine_path(op, tasks)
    assert (chunks, finalised) == grouped_by_window(op, tasks)


def test_assembly_folds_fragments_in_task_order():
    """(1 + 1e16) − 1e16 = 0 but (−1e16 + 1e16) + 1 = 1: order is observable."""
    data = TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(3, dtype=np.int64),
        v=np.zeros(3, dtype=np.float32),
        w=np.array([1.0, 1e16, -1e16]),
        g=np.zeros(3, dtype=np.int32),
        h=np.zeros(3, dtype=np.int32),
    )
    op = make_operator(["g"], [("sum", "w")])
    tasks = cut_tasks(data, WindowDefinition.rows(3, 3), 1)
    chunks, windows, stage = run_engine_path(op, tasks)
    assert stage.output().column("a0").tolist() == [0.0]
    assert (chunks, windows) == grouped_by_window(op, tasks)
    assert run_pairwise_path(op, tasks) == windows


# -- memory shape of the pass ------------------------------------------------------


class TestMemoryShape:
    def run(self, window, n=600, cardinality=8, task_size=200):
        data = make_stream(3, n, cardinality)
        op = make_operator(["g"], [("count", None), ("sum", "w"), ("max", "v")])
        tasks = cut_tasks(data, window, task_size)
        return run_engine_path(op, tasks)[0], grouped_by_window(op, tasks)[0]

    @pytest.mark.parametrize("budget", [1, 7, 64, 1000])
    def test_block_budget_never_changes_the_output(self, monkeypatch, budget):
        monkeypatch.setattr(groupby_module, "_BLOCK_ELEMENTS", budget)
        got, expected = self.run(WindowDefinition.rows(64, 1))
        assert got == expected

    def test_blocks_bound_the_flat_pass(self, monkeypatch):
        """No block reduces more than budget + one fragment of elements."""
        monkeypatch.setattr(groupby_module, "_BLOCK_ELEMENTS", 500)
        sizes = []
        original = groupby_module._Cells.__init__

        def spy(self, segments, codes, n_segments, n_codes):
            sizes.append(len(segments))
            original(self, segments, codes, n_segments, n_codes)

        monkeypatch.setattr(groupby_module._Cells, "__init__", spy)
        data = make_stream(3, 600, 8)
        op = make_operator(["g"], [("sum", "w")])
        window = WindowDefinition.rows(64, 1)
        op.process_batch([StreamSlice(data, assign_windows(window, 0, 600), 0)])
        assert len(sizes) > 10 and max(sizes) < 500 + 64

    def test_transients_stay_small_at_the_default_budget(self):
        """range / slide = 2048: ~6 M flat elements, reduced ~16 Ki at a time."""
        import tracemalloc

        data = make_stream(3, 4096, 8)
        op = make_operator(["g"], [("count", None), ("sum", "w")])
        windows = assign_windows(WindowDefinition.rows(2048, 1), 4096, 8192)
        slices = [StreamSlice(data, windows, 4096)]
        tracemalloc.start()
        op.process_batch(slices)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # Output and payload rows are ~2 MiB; an unblocked pass would hold
        # several 6 M-element arrays (≥ 150 MiB).
        assert peak < 8 * 2**20

    def test_dense_table_never_exceeds_its_block(self, monkeypatch):
        """One group per tuple: fragments × groups ≫ elements → compaction."""
        tables = []
        original = np.bincount

        def spy(x, weights=None, minlength=0):
            tables.append((minlength, len(x)))
            return original(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(groupby_module.np, "bincount", spy)
        got, expected = self.run(WindowDefinition.rows(64, 1), cardinality=600)
        monkeypatch.undo()
        assert got == expected
        kernel_tables = [(size, rows) for size, rows in tables if rows > 600]
        assert kernel_tables and all(size <= rows for size, rows in kernel_tables)

    def test_pending_windows_share_one_table_and_payload(self):
        data = make_stream(5, 40, 4)
        op = make_operator(["g"], [("sum", "w")])
        window = WindowDefinition.rows(400, 10)
        result = op.process_batch([StreamSlice(data, assign_windows(window, 200, 240), 200)])
        pending = [result.partials[wid] for wid in range(0, 20)]  # span the whole batch
        assert len({id(p) for p in pending}) == 1
        assert len({id(p.block) for p in result.partials.values()}) == 1

    def test_tumbling_fragments_skip_the_gather(self, monkeypatch):
        def no_gather(*args):
            raise AssertionError("tiling fragments must not be gathered")

        data = make_stream(9, 512, 8)
        op = make_operator(["g"], [("count", None), ("sum", "w")])
        window_set = assign_windows(WindowDefinition.rows(64, 64), 0, 512)
        expected = grouped_by_window(op, [(data, window_set)])[0]
        real = groupby_module.concat_ranges
        calls = []

        def ranges(starts, lengths):
            calls.append(int(lengths.sum()))
            return real(starts, lengths)

        monkeypatch.setattr(groupby_module, "concat_ranges", ranges)
        result = op.process_batch([StreamSlice(data, window_set, 0)])
        assert [result.complete.data.tobytes()] == expected
        # Only output rows (≤ 8 windows × 8 groups) are ever gathered,
        # never the 512 input tuples.
        assert max(calls) <= 64

    def test_only_needed_partials_are_kept(self):
        op = make_operator(["g"], [("count", None), ("sum", "v"), ("min", "w")])
        assert op._partials == [("min", "w"), ("sum", "v")]


# -- BatchResult.stats feed the sim cost model: pinned ----------------------------


class TestStatsDoNotDrift:
    def groups_by_hand(self, data, windows):
        """The pre-rewrite accounting: one table per COMPLETE fragment and
        per distinct boundary range; a shared payload adds nothing."""
        g = np.asarray(data.column("g"))
        seen, total = set(), 0
        for start, stop, state in zip(windows.starts, windows.ends, windows.states):
            if state == FragmentState.COMPLETE:
                total += len(np.unique(g[start:stop]))
            elif (start, stop) not in seen:
                seen.add((start, stop))
                total += len(np.unique(g[start:stop]))
        return total / len(windows)

    def test_slide_one_shape(self):
        data = make_stream(1, 512, 8)
        op = make_operator(["g"], [("count", None), ("sum", "v")])
        windows = assign_windows(WindowDefinition.rows(256, 1), 512, 1024)
        stats = op.process_batch([StreamSlice(data, windows, 512)]).stats
        assert stats == {
            "selectivity": 1.0,
            "fragments": 767.0,
            "groups": self.groups_by_hand(data, windows),
            "tuples": 512.0,
        }
        assert 7.0 < stats["groups"] <= 8.0

    def test_pending_sharing_shape(self):
        data = make_stream(2, 64, 8)
        op = make_operator(["g"], [("sum", "v")])
        windows = assign_windows(WindowDefinition.rows(1024, 16), 2048, 2112)
        assert (windows.states == FragmentState.PENDING).sum() > 50
        stats = op.process_batch([StreamSlice(data, windows, 2048)]).stats
        by_hand = self.groups_by_hand(data, windows)
        assert stats["groups"] == by_hand
        # ~60 PENDING windows share one table: far below one table each.
        assert by_hand < 1.5
        assert stats["fragments"] == float(len(windows)) and stats["tuples"] == 64.0


# -- payloads ---------------------------------------------------------------------------


class TestPayloads:
    def slide_one_result(self):
        data = make_stream(4, 512, 8)
        op = make_operator(["g"], [("count", None), ("sum", "v")])
        windows = assign_windows(WindowDefinition.rows(256, 1), 512, 1024)
        return op, op.process_batch([StreamSlice(data, windows, 512)])

    def test_partials_stay_a_dict_by_window_id(self):
        __, result = self.slide_one_result()
        assert len(result.partials) == 510
        assert sorted(result.partials) == list(range(257, 512)) + list(range(769, 1024))
        assert all(type(wid) is int for wid in result.partials)
        assert result.closed_ids == list(range(257, 512))

    def test_completion_queue_pickle_ships_the_block_once(self):
        __, result = self.slide_one_result()
        block = next(iter(result.partials.values())).block
        columns = block.keys.nbytes + block.counts.nbytes
        columns += sum(column.nbytes for column in block.partials.values())
        shipped = len(pickle.dumps(result.partials, protocol=pickle.HIGHEST_PROTOCOL))
        assert shipped < columns + 64 * len(result.partials)
        restored = pickle.loads(pickle.dumps(result.partials))
        assert len({id(p.block) for p in restored.values()}) == 1

    def test_block_holds_boundary_rows_only(self):
        __, result = self.slide_one_result()
        block = next(iter(result.partials.values())).block
        # 510 boundary fragments × ≤ 8 groups; the 257 COMPLETE windows'
        # ~2000 rows were emitted and dropped.
        assert len(block) == sum(p.stop - p.start for p in result.partials.values())
        assert len(block) <= 510 * 8

    def test_empty_payload_finalises_to_nothing(self):
        op = make_operator(["g"], [("count", None)])
        empty = GroupedWindowAccumulator()
        assert op.finalize_window(0, empty) is None
        rows, offsets = op.assemble_windows([(0, [empty]), (1, [empty, empty])])
        assert rows is None and offsets.tolist() == [0, 0, 0]

    def test_merge_never_mutates_its_operands(self):
        op, result = self.slide_one_result()
        first, second = result.partials[300], result.partials[900]
        before = pickle.dumps((first, second))
        merged = op.merge_partials(first, second)
        assert pickle.dumps((first, second)) == before
        assert merged.last_timestamp == max(first.last_timestamp, second.last_timestamp)
