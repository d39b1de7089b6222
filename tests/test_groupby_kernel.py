"""The segmented GROUP-BY kernel and its batched assembly, pinned bitwise.

``tests/reference.py::grouped_by_window`` is the retired per-window
algorithm.  Everything here compares raw bytes, never ``allclose``: the
kernel claims the *same float additions in the same order*, so any
rounding difference is a bug.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import cut_tasks, grouped_by_window, pairwise_stage, run_engine_path
from repro.api import Stream, agg
from repro.core.cql import compile_statement
from repro.errors import CQLSyntaxError, QueryError
from repro.operators import base as base_module, groupby as groupby_module
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import BoundaryRows, PartialRun, StreamSlice, key_codes
from repro.operators.groupby import GroupedAggregation, GroupTable
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


def certified_stream(seed: int, n: int, cardinality: int, nan_in_v: bool, ragged: bool):
    """Quarter-integer values (every prefix sum exact: the prefix path and
    its dense tables), ``±0.0`` ties in both columns, NaN in ``v`` when
    ``nan_in_v``; with ``ragged`` the second half is :func:`make_stream`'s
    uncertified values."""
    rng = np.random.default_rng(seed)
    data = make_stream(seed, n, cardinality).data.copy()
    head = n if not ragged else n // 2
    data["v"][:head] = rng.integers(-20, 20, head) / 4
    data["w"][:head] = rng.integers(-2000, 2000, head) / 4
    for name in ("v", "w"):
        zeros = np.flatnonzero(rng.random(n) < 0.2)
        data[name][zeros] = np.where(rng.random(len(zeros)) < 0.5, 0.0, -0.0)
    if nan_in_v:
        data["v"][rng.integers(0, n, 3)] = np.nan
    return TupleBatch(SCHEMA, data)


def make_operator(keys, aggregates, having=False) -> GroupedAggregation:
    specs = [AggregateSpec(fn, column, f"a{i}") for i, (fn, column) in enumerate(aggregates)]
    return GroupedAggregation(
        SCHEMA,
        keys,
        specs,
        having=(col("a0") > 0.5) if having else None,
        derived_columns={"bucket": (col("v") / 4, "int")} if "bucket" in keys else None,
    )


def run_pairwise_path(op, tasks):
    """Kernel + the retired one-window-at-a-time stage: finalised windows."""
    results = [op.process_batch([StreamSlice(batch, window_set, 0)]) for batch, window_set in tasks]
    return pairwise_stage(op, results)[1]


# -- differential property test ------------------------------------------------


@st.composite
def cases(draw):
    n = draw(st.sampled_from([40, 150, 400]))
    size = draw(st.sampled_from([1, 3, 16, 48, 64, 150, 300]))
    slide = draw(st.sampled_from([s for s in (1, 2, 16, 64, 300) if s <= size]))
    time_based = draw(st.booleans())
    picks = draw(
        st.lists(st.integers(0, len(AGGREGATES) - 1), min_size=1, max_size=4, unique=True)
    )
    keys = draw(st.sampled_from(KEY_SETS + [[]]))
    # make_stream's values take the segmented pass, certified ones the
    # prefix path and its dense tables, a ragged stream both in one run
    values = draw(st.sampled_from(["uncertified", "certified", "ragged"]))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        n=n,
        # 1 … one group per tuple (a dense fragments × groups table would
        # dwarf its block: the rank-compaction path)
        cardinality=draw(st.sampled_from([1, 2, 8, 50, n])),
        window=(WindowDefinition.time if time_based else WindowDefinition.rows)(size, slide),
        # one task holds the whole stream … a window spans ≥ 3 tasks
        task_size=draw(st.sampled_from([5, 32, 100, n])),
        keys=keys,
        aggregates=[AGGREGATES[i] for i in picks],
        having=draw(st.booleans()),
        force_assembly=draw(st.booleans()),
        values=values,
        # NaN in min / max columns needs no certificate (a NaN bucket key
        # would be an invalid cast)
        nan_in_v=values != "uncertified" and "bucket" not in keys and draw(st.booleans()),
    )


def case_stream(case) -> TupleBatch:
    if case["values"] == "uncertified":
        return make_stream(case["seed"], case["n"], case["cardinality"])
    return certified_stream(
        case["seed"], case["n"], case["cardinality"], case["nan_in_v"], case["values"] == "ragged"
    )


@given(case=cases())
@settings(max_examples=settings.default.max_examples * 3 // 2)
def test_kernel_and_batched_assembly_equal_the_per_window_reference(case):
    data = case_stream(case)
    op = make_operator(case["keys"], case["aggregates"], case["having"])
    tasks = cut_tasks(data, case["window"], case["task_size"], case["force_assembly"])
    expected_chunks, expected_windows = grouped_by_window(op, tasks)
    chunks, windows, __ = run_engine_path(op, tasks)
    assert chunks == expected_chunks
    assert windows == expected_windows
    # The pairwise stage, walking the new runs window by window, agrees.
    assert run_pairwise_path(op, tasks) == expected_windows


def assert_fragment_set_matches(data, ranges, op):
    starts = np.array([min(a, b) for a, b, __ in ranges], dtype=np.int64)
    stops = np.array([max(a, b) for a, b, __ in ranges], dtype=np.int64)
    states = np.array([state for __, __, state in ranges], dtype=np.int64)
    windows = WindowSet(np.arange(len(ranges), dtype=np.int64), starts, stops, states)
    tasks = [(data, windows)]
    chunks, finalised, __ = run_engine_path(op, tasks)
    assert (chunks, finalised) == grouped_by_window(op, tasks)


FRAGMENT_RANGES = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 3)),
    min_size=1,
    max_size=40,
)


@given(seed=st.integers(0, 2**16), ranges=FRAGMENT_RANGES)
@settings(max_examples=settings.default.max_examples * 2 // 3)
def test_arbitrary_fragment_sets(seed, ranges):
    """Gaps (slide > range), overlaps, duplicates and empty fragments."""
    data = make_stream(seed, 60, 5)
    op = make_operator(["g", "h"], [("sum", "w"), ("count", None), ("min", "v")])
    assert_fragment_set_matches(data, ranges, op)


@given(seed=st.integers(0, 2**16), ranges=FRAGMENT_RANGES, keys=st.sampled_from([[], ["h"]]))
@settings(max_examples=settings.default.max_examples // 3)
def test_arbitrary_fragment_sets_on_the_prefix_path(seed, ranges, keys):
    """The same sets over certified values and few groups, with 30 long
    fragments to pay for the prefix tables, and an empty fragment at the
    batch end (a filter's remap makes those): min / max fold no slot
    past the table."""
    data = certified_stream(seed, 60, 5, nan_in_v=False, ragged=False)
    ranges = ranges + [(start, 60, 0) for start in range(30)] + [(60, 60, 0)]
    op = make_operator(keys, [("count", None), ("sum", "w"), ("min", "v"), ("max", "w")])
    assert_fragment_set_matches(data, ranges, op)


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


# -- dense runs: certified tasks ship every (window, group) cell ------------------


def table_forms(op, tasks) -> "set[str]":
    shapes = set()
    for batch, window_set in tasks:
        run = op.process_batch([StreamSlice(batch, window_set, 0)]).partials
        if len(run):
            table = run.sides[0].rows
            shapes.add("dense" if len(table.keys) < len(table) else "sparse")
    return shapes


def test_slide_one_tasks_ship_dense_tables():
    """GROUP-BY8 at slide 1 over certified values: every task's run is a
    dense table, 8 cells per boundary range."""
    data = certified_stream(7, 2048, 8, nan_in_v=False, ragged=False)
    op = make_operator(["g"], [("count", None), ("sum", "w")])
    tasks = cut_tasks(data, WindowDefinition.rows(256, 1), 512)
    assert table_forms(op, tasks) == {"dense"}
    result = op.process_batch([StreamSlice(*tasks[1], 0)])
    table = result.partials.sides[0].rows
    assert table.keys.tolist() == [[k] for k in range(-4, 4)]
    assert len(table) == 8 * len(np.unique(result.partials.sides[0].spans[0]))
    chunks, windows, __ = run_engine_path(op, tasks)
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
        run, (rows,) = result.partials, result.partials.sides
        at = np.searchsorted(run.ids, np.arange(20))  # span the whole batch
        assert run.ids[at].tolist() == list(range(20))
        lo, hi, __ = rows.spans
        assert len(set(zip(lo[at].tolist(), hi[at].tolist()))) == 1
        # Shared rows are stored once: the block is no longer than the
        # distinct row ranges.
        assert len(rows.rows) == sum(b - a for a, b in set(zip(lo.tolist(), hi.tolist())))

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
        # Matrix rows from 1, grouped by fold kind: sums, then mins.
        assert op._partials == [("sum", "v"), ("min", "w")]
        assert op._folds == [("sum", slice(0, 2)), ("min", slice(2, 3))]

    def test_a_group_table_is_keys_and_one_matrix(self):
        assert [f.name for f in dataclasses.fields(GroupTable)] == ["keys", "matrix"]
        data = make_stream(4, 512, 8)
        op = make_operator(["g"], [("count", None), ("max", "v"), ("avg", "w"), ("min", "w")])
        windows = assign_windows(WindowDefinition.rows(256, 1), 512, 1024)
        (rows,) = op.process_batch([StreamSlice(data, windows, 512)]).partials.sides
        table = rows.rows
        assert table.matrix.dtype == np.float64 and table.matrix.shape == (4, len(table))


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

    def test_partials_are_one_run_by_window_id(self):
        __, result = self.slide_one_result()
        run = result.partials
        assert len(run) == 510 and run.ids.dtype == np.int64
        assert run.ids.tolist() == list(range(257, 512)) + list(range(769, 1024))
        assert run.done.shape == (1, 510) and run.done.dtype == bool
        assert run.ids[run.done[0]].tolist() == list(range(257, 512))

    def test_completion_queue_pickle_ships_the_block_once(self):
        __, result = self.slide_one_result()
        run, (rows,) = result.partials, result.partials.sides
        block = rows.rows
        columns = block.keys.nbytes + block.matrix.nbytes
        columns += run.ids.nbytes + run.done.nbytes + rows.spans.nbytes
        shipped = len(pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL))
        # A handful of arrays: nothing per window.
        assert shipped < columns + 1024
        restored = pickle.loads(pickle.dumps(run))
        assert pickle.dumps(restored) == pickle.dumps(run)

    def test_block_holds_boundary_rows_only(self):
        __, result = self.slide_one_result()
        (rows,) = result.partials.sides
        # 510 boundary fragments × ≤ 8 groups; the 257 COMPLETE windows'
        # ~2000 rows were emitted and dropped.
        assert len(rows.rows) == int((rows.spans[1] - rows.spans[0]).sum())
        assert len(rows.rows) <= 510 * 8

    def test_empty_payload_finalises_to_nothing(self):
        op = make_operator(["g"], [("count", None)])
        zero = np.zeros((3, 2), dtype=np.int64)
        empty = PartialRun(
            np.arange(2), np.zeros((1, 2), dtype=bool), (BoundaryRows(op._empty_table(), zero),)
        )
        ready = np.arange(2)
        for runs in ([PartialRun()], [empty], [empty, empty]):
            rows, offsets = op.assemble_windows(ready, runs)
            assert rows is None and offsets.tolist() == [0, 0, 0]

    def test_assembly_never_mutates_its_runs(self):
        op, result = self.slide_one_result()
        data = make_stream(6, 512, 8)
        windows = assign_windows(WindowDefinition.rows(256, 1), 1024, 1536)
        later = op.process_batch([StreamSlice(data, windows, 1024)])
        runs = [result.partials, later.partials]
        before = pickle.dumps(runs)
        rows, offsets = op.assemble_windows(later.partials.ids[later.partials.done[0]], runs)
        assert pickle.dumps(runs) == before
        assert len(rows) == offsets[-1] and np.all(np.diff(offsets) > 0)


# -- key codes: a presence count inside the keys' box, np.unique past it --------------

LONG_KEYS = Schema.with_timestamp("v:float, w:double, a:long, b:long, c:int")
INT64 = np.iinfo(np.int64)
EXTREMES = np.array([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])


def key_matrix(seed, rows, width, spread):
    rng = np.random.default_rng(seed)
    if spread == "extremes":
        return EXTREMES[rng.integers(0, len(EXTREMES), (rows, width))]
    low, high = {"dense": (0, 3), "negative": (-7, 2), "wide": (-10**12, 10**12)}[spread]
    return rng.integers(low, high, (rows, width), dtype=np.int64)


def unique_rows(keys):
    """The sorting coder ``key_codes`` replaced."""
    distinct, codes = np.unique(keys, axis=0, return_inverse=True)
    return distinct, codes.ravel()


class TestKeyCodes:
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 300),
        width=st.integers(1, 3),
        spread=st.sampled_from(["dense", "negative", "wide", "extremes"]),
    )
    def test_equal_to_np_unique(self, seed, rows, width, spread):
        keys = key_matrix(seed, rows, width, spread)
        distinct, codes = key_codes(keys)
        expected_distinct, expected_codes = unique_rows(keys)
        assert distinct.dtype == np.int64 and distinct.shape == expected_distinct.shape
        assert distinct.tobytes() == expected_distinct.tobytes()
        assert codes.tolist() == expected_codes.tolist()

    @pytest.mark.parametrize(
        "keys, sorts",
        [
            (np.array([[3], [1], [3], [2]]), False),  # box 3 ≤ 4 rows
            (np.array([[0], [4], [0], [2]]), True),  # box 5 > 4 rows
            (np.array([[-1, 5], [0, 5], [-1, 6], [0, 6]]), False),  # 2 × 2
            (np.array([[-1, 5, 0], [0, 5, 1], [-1, 6, 0], [0, 6, 0]]), True),  # 2 × 2 × 2
            (np.array([[INT64.min], [INT64.max]]), True),  # a span of 2**64
            (np.array([[INT64.max], [INT64.max], [INT64.max - 1]]), False),
            (np.array([[INT64.min, INT64.max], [INT64.min, INT64.max]]), False),
        ],
    )
    def test_sorts_only_past_the_box(self, monkeypatch, keys, sorts):
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return unique(*args, **kwargs)

        monkeypatch.setattr(base_module.np, "unique", counted)
        distinct, codes = key_codes(keys)
        monkeypatch.undo()
        assert bool(calls) == sorts
        expected_distinct, expected_codes = unique_rows(keys)
        assert distinct.tobytes() == expected_distinct.tobytes()
        assert codes.tolist() == expected_codes.tolist()

    def test_no_columns_is_one_group_and_no_rows_no_groups(self):
        distinct, codes = key_codes(np.zeros((5, 0), dtype=np.int64))
        assert distinct.shape == (1, 0) and codes.tolist() == [0] * 5
        distinct, codes = key_codes(np.zeros((0, 2), dtype=np.int64))
        assert distinct.shape == (0, 2) and len(codes) == 0

    @given(
        seed=st.integers(0, 2**16),
        keys=st.sampled_from([["a"], ["a", "b"], ["a", "b", "c"], ["c", "a"]]),
        spread=st.sampled_from(["negative", "wide", "extremes"]),
        window=st.sampled_from(
            [
                WindowDefinition.rows(16, 16),
                WindowDefinition.rows(12, 1),
                WindowDefinition.rows(40, 8),
            ]
        ),
    )
    def test_kernel_on_negative_wide_and_extreme_keys(self, seed, keys, spread, window):
        n = 120
        base = make_stream(seed, n, 4)
        columns = key_matrix(seed, n, 3, spread)
        data = TupleBatch.from_columns(
            LONG_KEYS,
            timestamp=base.timestamps,
            v=base.column("v"),
            w=base.column("w"),
            a=columns[:, 0],
            b=columns[:, 1],
            c=np.clip(columns[:, 2], -(2**31), 2**31 - 1).astype(np.int32),
        )
        specs = [
            AggregateSpec("count", None, "n"),
            AggregateSpec("sum", "w", "s"),
            AggregateSpec("max", "v", "m"),
        ]
        op = GroupedAggregation(LONG_KEYS, keys, specs)
        tasks = cut_tasks(data, window, 50)
        expected_chunks, expected_windows = grouped_by_window(op, tasks)
        chunks, windows, __ = run_engine_path(op, tasks)
        assert chunks == expected_chunks
        assert windows == expected_windows


class TestFloatKeysAreRejected:
    """A float key used to be truncated into the int64 key matrix: 1.5 and
    1.7 became one group and NaN became -2**63."""

    FLOATS = Schema.with_timestamp("g:float, d:double, k:int, v:double", name="F")

    @pytest.mark.parametrize("column", ["g", "d"])
    def test_read_key(self, column):
        with pytest.raises(QueryError, match=f"GROUP-BY key '{column}'"):
            GroupedAggregation(self.FLOATS, ["k", column], [AggregateSpec("count", None, "n")])

    @pytest.mark.parametrize("type_name", ["float", "double"])
    def test_derived_key(self, type_name):
        derived = {"half": (col("k") / 2, type_name)}
        with pytest.raises(QueryError, match="GROUP-BY key 'half'"):
            GroupedAggregation(
                self.FLOATS, ["half"], [AggregateSpec("count", None, "n")],
                derived_columns=derived,
            )

    def test_integer_keys_still_build(self):
        derived = {"half": (col("k") / 2, "int")}
        op = GroupedAggregation(
            self.FLOATS, ["k", "half"], [AggregateSpec("sum", "v", "s")], derived_columns=derived
        )
        assert op.output_schema.attribute_names == ("timestamp", "k", "half", "s")

    def test_builder_and_cql_fail_typed(self):
        plan = Stream.named("F", self.FLOATS).window(rows=4)
        with pytest.raises(QueryError, match="GROUP-BY key 'g'"):
            plan.group_by("g", agg.sum("v")).build()
        with pytest.raises(QueryError, match="GROUP-BY key 'seg'"):
            plan.group_by(agg.sum("v"), seg=(col("v") / 4, "double")).build()
        with pytest.raises(CQLSyntaxError, match="GROUP-BY key 'g'"):
            compile_statement(
                "select timestamp, g, sum(v) as s from F [rows 4] group by g",
                {"F": self.FLOATS},
            )
