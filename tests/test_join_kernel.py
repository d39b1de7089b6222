"""The one-pass θ-join kernel, pinned bitwise against the per-window oracle.

``tests/reference.py::join_by_window`` is the retired algorithm — a
Python loop over window pairs, each materialising its full
``repeat × tile`` cross product before the predicate runs — and
``join_stream_by_window`` joins each window spanning tasks over its
whole left and right rows.  Everything here compares raw bytes:
candidate pruning may only ever skip pairs the predicate rejects, and
emission order (window, left row, right row) is part of the contract,
whatever the task cut.
"""

import contextlib
import multiprocessing
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import (
    join_by_window,
    join_pairs,
    join_pairs_by_cross_product,
    join_stream_by_window,
    run_payloads,
)
from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.io.memory import MemorySource
from repro.operators import join as join_module
from repro.operators.base import StreamSlice
from repro.operators.join import ThetaJoin
from repro.relational.expressions import Comparison, TruePredicate, col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import FragmentState, WindowSet, assign_windows
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import SYNTHETIC_SCHEMA, join_query

LEFT = Schema.with_timestamp("k:int, u:long, f:float, d:double", name="L")
RIGHT = Schema.with_timestamp("k:int, w:long, g:float, d:double", name="R")

#: name -> (predicate over LEFT ⋈ RIGHT, whether an equality may prune)
PREDICATES = {
    "equi-columns": (col("k").eq(col("r_k")), True),
    "equi-swapped": (col("r_k").eq(col("k")), True),
    # int32 % … against int64 % …, negative values on both sides
    "equi-arithmetic": ((col("k") % 5).eq(col("w") % 5), True),
    "equi-and-theta": (col("k").eq(col("r_k")) & (col("f") < col("g")), True),
    "theta-and-equi": ((col("u") < col("w")) & (col("k") + 1).eq(col("r_k")), True),
    "two-equalities": (col("k").eq(col("r_k")) & col("u").eq(col("w")), True),
    "float-then-int-equality": (col("f").eq(col("g")) & col("u").eq(col("w")), True),
    "equi-and-not": (col("k").eq(col("r_k")) & ~(col("u") < col("w")), True),
    # bool keys (a comparison of comparisons) code as 0 / 1
    "bool-key": (Comparison("==", col("k") > 0, col("r_k") > 0), True),
    "theta": (col("u") * 2 < col("w"), False),
    "or": (col("k").eq(col("r_k")) | (col("f") > col("g")), False),
    "not": (~col("k").eq(col("r_k")), False),
    "true": (TruePredicate(), False),
    # NaN != NaN and -0.0 == 0.0: not what sorting bytes or values finds
    "float-key": (col("f").eq(col("g")), False),
    "double-key": (col("d").eq(col("r_d")), False),
    "int-float-key": (col("k").eq(col("g")), False),
    # numpy compares uint64 with int64 as float64
    "uint64-int64-key": ((col("u") + np.uint64(3)).eq(col("w")), False),
    "one-sided-equality": (col("k").eq(1) & (col("u") < col("w")), False),
    "mixed-sides-equality": ((col("k") + col("r_k")).eq(0), False),
}


def make_stream(schema: Schema, seed: int, n: int, cardinality: int) -> TupleBatch:
    """Few distinct values per column, so equalities hit; NaN and ±0.0 floats."""
    rng = np.random.default_rng(seed)
    floats = np.array([np.nan, 0.0, -0.0, 1.5, -2.0, np.inf], dtype=np.float64)
    columns = {"timestamp": np.cumsum(rng.integers(0, 3, n)).astype(np.int64)}
    for attribute in schema.attributes[1:]:
        if attribute.dtype.kind == "f":
            values = floats[rng.integers(0, min(len(floats), cardinality + 1), n)]
        else:
            values = rng.integers(0, cardinality, n) - cardinality // 2
        columns[attribute.name] = values.astype(attribute.dtype)
    return TupleBatch.from_columns(schema, **columns)


def cut_tasks(left, right, window, l_size, r_size, force_assembly=False):
    """``[(left slice, right slice)]`` the way the execution stage cuts them:
    by size and per stream, whatever the windows are."""
    tasks, previous = [], [None, None]
    count = max(-(-len(left) // l_size), -(-len(right) // r_size))
    for task in range(count):
        slices = []
        for side, (data, size) in enumerate(((left, l_size), (right, r_size))):
            part = data.slice(task * size, (task + 1) * size)
            windows = assign_windows(
                window, task * size, task * size + len(part), part.timestamps,
                previous[side], force_assembly,
            )
            if len(part):
                previous[side] = int(part.timestamps[-1])
            slices.append(StreamSlice(part, windows, task * size))
        tasks.append(tuple(slices))
    return tasks


def assert_task_equals_reference(op, left, right, result=None):
    result = op.process_batch([left, right]) if result is None else result
    complete, partials, stats = join_by_window(op, left, right)
    assert result.complete.data.tobytes() == complete
    payloads = run_payloads(result.partials)
    assert list(payloads) == list(partials)
    for wid, expected in partials.items():
        (l_rows, r_rows), done = payloads[wid]
        assert (l_rows.tobytes(), r_rows.tobytes(), *done) == expected
    assert result.stats == stats
    return result


def run_engine_path(op, tasks):
    """Kernel + ``ResultStage``: chunks and windows."""
    query = Query("q", op, [WindowDefinition.rows(1, 1)] * 2)
    stage = ResultStage(query)
    chunks, windows = [], []
    stage.on_emit = lambda record: chunks.append(record.rows.data.tobytes())
    stage.on_window = lambda wid, rows: windows.append((wid, rows.data.tobytes()))
    for task_id, (left, right) in enumerate(tasks):
        result = op.process_batch([left, right])
        stage.submit(QueryTask(query, task_id, [], 0.0, 1), result, 0.0)
    stage.flush(0.0)
    return chunks, windows


# -- differential property test ------------------------------------------------

WINDOWS = {
    "tumbling": WindowDefinition.rows(16, 16),
    "slide-1": WindowDefinition.rows(6, 1),
    "sliding": WindowDefinition.rows(24, 8),
    "time": WindowDefinition.time(12, 4),
    "time-tumbling": WindowDefinition.time(10, 10),
}


@st.composite
def cases(draw):
    n = draw(st.sampled_from([24, 60, 150]))
    # A time window over streams of unequal rate: the right stream
    # delivers `rate` tuples per left tuple and tasks are cut by size.
    rate = draw(st.sampled_from([1, 1, 3, 16]))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        n=n,
        rate=rate,
        cardinality=draw(st.sampled_from([1, 3, 12])),
        predicate=draw(st.sampled_from(sorted(PREDICATES))),
        window=draw(st.sampled_from(sorted(WINDOWS))),
        # one task holds the stream … a window spans ≥ 3 tasks
        task_size=draw(st.sampled_from([3, 7, 20, n])),
        force_assembly=draw(st.booleans()),
    )


def build(case):
    left = make_stream(LEFT, case["seed"], case["n"], case["cardinality"])
    right = make_stream(RIGHT, case["seed"] + 1, case["n"] * case["rate"], case["cardinality"])
    if case["rate"] > 1:
        # same logical time span on both streams
        right.data["timestamp"] //= case["rate"]
    op = ThetaJoin(LEFT, RIGHT, PREDICATES[case["predicate"]][0])
    tasks = cut_tasks(
        left, right, WINDOWS[case["window"]], case["task_size"],
        case["task_size"] * case["rate"], case["force_assembly"],
    )
    return op, tasks


@given(case=cases())
def test_kernel_and_assembly_equal_the_per_window_reference(case):
    op, tasks = build(case)
    for left, right in tasks:
        assert_task_equals_reference(op, left, right)
    expected_chunks, expected_windows = join_stream_by_window(op, tasks)
    chunks, windows = run_engine_path(op, tasks)
    assert chunks == expected_chunks
    assert windows == expected_windows


@given(
    seed=st.integers(0, 2**16),
    predicate=st.sampled_from(sorted(PREDICATES)),
    fragments=st.lists(
        st.tuples(
            st.integers(0, 40), st.integers(0, 40), st.integers(0, 3),  # left: range, state
            st.integers(0, 40), st.integers(0, 40), st.integers(0, 3),  # right
            st.sampled_from(["both", "both", "left", "right"]),
        ),
        min_size=0,
        max_size=12,
    ),
)
def test_arbitrary_window_sets(seed, predicate, fragments):
    """Gaps (slide > range, which ``WindowDefinition`` does not offer),
    overlaps, empty fragments and windows present on one side only."""
    left, right = make_stream(LEFT, seed, 40, 4), make_stream(RIGHT, seed + 1, 40, 4)

    def window_set(side, offset):
        rows = [(wid, f) for wid, f in enumerate(fragments) if f[6] in ("both", side)]
        return WindowSet(
            np.array([wid for wid, __ in rows], dtype=np.int64),
            np.array([min(f[offset], f[offset + 1]) for __, f in rows], dtype=np.int64),
            np.array([max(f[offset], f[offset + 1]) for __, f in rows], dtype=np.int64),
            np.array([f[offset + 2] for __, f in rows], dtype=np.int64),
        )

    op = ThetaJoin(LEFT, RIGHT, PREDICATES[predicate][0])
    assert_task_equals_reference(
        op,
        StreamSlice(left, window_set("left", 0), 0),
        StreamSlice(right, window_set("right", 3), 0),
    )


@given(
    seed=st.integers(0, 2**16),
    predicate=st.sampled_from(sorted(PREDICATES)),
    sizes=st.tuples(st.integers(0, 30), st.integers(0, 30)),
)
def test_join_pairs_is_the_kernel_over_one_segment(seed, predicate, sizes):
    """The kernel over one segment equals the filtered cross product."""
    op = ThetaJoin(LEFT, RIGHT, PREDICATES[predicate][0])
    left, right = make_stream(LEFT, seed, sizes[0], 3), make_stream(RIGHT, seed + 1, sizes[1], 3)
    got = join_pairs(op, left, right)
    assert got.data.tobytes() == join_pairs_by_cross_product(op, left, right).data.tobytes()
    assert got.data.dtype == op.output_schema.dtype


# -- the backends ---------------------------------------------------------------------

BACKENDS = ["sim", "threads"] + (
    ["processes"] if "fork" in multiprocessing.get_all_start_methods() else []
)


@pytest.mark.parametrize("execution", BACKENDS)
@pytest.mark.parametrize(
    "predicate, window, rates",
    [
        ("equi-and-theta", "sliding", (1, 1)),
        ("equi-arithmetic", "time", (1, 4)),
        ("theta", "tumbling", (1, 1)),
    ],
)
def test_emitted_stream_on_every_backend(execution, predicate, window, rates):
    tasks_count, l_size = 9, 20
    r_size = l_size * rates[1]
    left = make_stream(LEFT, 11, tasks_count * l_size, 6)
    right = make_stream(RIGHT, 12, tasks_count * r_size, 6)
    right.data["timestamp"] //= rates[1]
    op = ThetaJoin(LEFT, RIGHT, PREDICATES[predicate][0])
    query = Query("j", op, [WINDOWS[window]] * 2, input_rates=[float(r) for r in rates])
    engine = SaberEngine(
        SaberConfig(
            execution=execution,
            task_size_bytes=l_size * LEFT.tuple_size + r_size * RIGHT.tuple_size,
            cpu_workers=2,
            queue_capacity=4,
        )
    )
    engine.add_query(query, [MemorySource(LEFT, left), MemorySource(RIGHT, right)])
    try:
        out = engine.run(tasks_per_query=tasks_count, flush=True).outputs[query.name]
    finally:
        engine.shutdown()
    chunks, __ = join_stream_by_window(op, cut_tasks(left, right, WINDOWS[window], l_size, r_size))
    assert len(chunks) > 2
    assert out.data.tobytes() == b"".join(chunks)


# -- which generator runs: a rule over predicate shape and key dtype ---------------


class TestKeyEligibility:
    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_pruning_is_decided_at_construction(self, name):
        predicate, prunes = PREDICATES[name]
        assert (ThetaJoin(LEFT, RIGHT, predicate)._equi is not None) == prunes

    def test_the_first_eligible_equality_is_the_key(self):
        op = ThetaJoin(LEFT, RIGHT, PREDICATES["float-then-int-equality"][0])
        l_key, r_key, dtype = op._equi
        assert (l_key, r_key, dtype) == (col("u"), col("w"), np.dtype(np.int64))
        l_key, r_key, dtype = ThetaJoin(LEFT, RIGHT, PREDICATES["equi-arithmetic"][0])._equi
        assert dtype == np.result_type(np.int32, np.int64)

    def test_nan_and_signed_zero_float_keys(self):
        f = np.array([np.nan, 0.0, -0.0, np.nan, 1.5], dtype=np.float32)
        left = TupleBatch.from_columns(
            LEFT, timestamp=np.arange(5), k=np.zeros(5), u=np.zeros(5), f=f, d=f
        )
        right = TupleBatch.from_columns(
            RIGHT, timestamp=np.arange(5), k=np.zeros(5), w=np.zeros(5), g=f[::-1], d=f[::-1]
        )
        for name in ("float-key", "double-key"):
            op = ThetaJoin(LEFT, RIGHT, PREDICATES[name][0])
            got = join_pairs(op, left, right)
            assert got.data.tobytes() == join_pairs_by_cross_product(op, left, right).data.tobytes()
            # ±0.0 match each other (4 pairs) and 1.5 itself; NaN matches nothing
            assert len(got) == 5

    def test_negative_ints_under_modulo(self):
        op = ThetaJoin(LEFT, RIGHT, PREDICATES["equi-arithmetic"][0])
        left, right = make_stream(LEFT, 5, 64, 40), make_stream(RIGHT, 6, 64, 40)
        assert (left.column("k") < 0).any() and (right.column("w") < 0).any()
        got = join_pairs(op, left, right)
        expected = join_pairs_by_cross_product(op, left, right)
        assert len(got) and got.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_always_true_residuals(self, r):
        """JOIN_r: ``a3 % 100 == r_a3 % 100`` and r − 1 residuals."""
        op = join_query(r).operator
        assert op._equi is not None and op.predicate.predicate_count() == r
        rng = np.random.default_rng(r)

        def stream(n):
            columns = {"timestamp": np.arange(n, dtype=np.int64)}
            for attribute in SYNTHETIC_SCHEMA.attributes[1:]:
                columns[attribute.name] = rng.integers(0, 1000, n).astype(attribute.dtype)
            return TupleBatch.from_columns(SYNTHETIC_SCHEMA, **columns)

        window = WindowDefinition.rows(64, 64)
        left, right = stream(256), stream(256)
        slices = [StreamSlice(b, assign_windows(window, 0, 256), 0) for b in (left, right)]
        result = assert_task_equals_reference(op, *slices)
        assert 0 < len(result.complete) < 0.05 * 4 * 64 * 64

    def test_self_join_name_clash(self):
        """Every right column clashes and takes the ``r_`` prefix."""
        op = ThetaJoin(LEFT, LEFT.rename("L2"), col("k").eq(col("r_k")) & (col("u") <= col("r_u")))
        assert op.output_schema.attribute_names[5:] == ("r_timestamp", "r_k", "r_u", "r_f", "r_d")
        data = make_stream(LEFT, 2, 80, 5)
        window = WindowDefinition.rows(16, 4)
        slices = [StreamSlice(data, assign_windows(window, 0, 80), 0) for __ in range(2)]
        result = assert_task_equals_reference(op, *slices)
        assert op._equi is not None and len(result.complete)


# -- one predicate evaluation per block, never per window ---------------------------


class Counting(Comparison):
    """A comparison that counts its own evaluations."""

    calls = []

    def evaluate(self, batch):
        Counting.calls.append(len(batch))
        return super().evaluate(batch)


def count_evaluations(predicate, window, n=256):
    Counting.calls = []
    op = ThetaJoin(LEFT, RIGHT, predicate)
    left, right = make_stream(LEFT, 1, n, 8), make_stream(RIGHT, 2, n, 8)
    slices = [StreamSlice(b, assign_windows(window, 0, n), 0) for b in (left, right)]
    result = op.process_batch(slices)
    calls = list(Counting.calls)
    assert_task_equals_reference(op, *slices, result=result)
    return calls, op


class TestOneEvaluationPerBlock:
    def test_many_windows_share_one_evaluation(self):
        # 32 tumbling windows × 64 pairs = 2048 candidates: one block.
        predicate = Counting("<", col("u"), col("w"))
        calls, __ = count_evaluations(predicate, WindowDefinition.rows(8, 8))
        assert calls == [32 * 64]

    def test_pruned_candidates_only(self):
        predicate = Counting("==", col("k"), col("r_k"))
        calls, op = count_evaluations(predicate, WindowDefinition.rows(8, 8))
        assert op._equi is not None
        assert len(calls) == 1 and 0 < calls[0] < 32 * 64 // 4

    def test_sliding_windows_cut_on_the_pair_budget(self, monkeypatch):
        monkeypatch.setattr(join_module, "_BLOCK_PAIRS", 1000)
        window = WindowDefinition.rows(16, 1)  # 271 fragments, 49 216 pairs
        calls, __ = count_evaluations(Counting("<", col("u"), col("w")), window)
        pairs = sum(calls)
        assert len(calls) == -(-pairs // 1000) and max(calls) < 1000 + 16


# -- memory shape of the pass ----------------------------------------------------------


def peak_of(function):
    tracemalloc.start()
    try:
        result = function()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMemoryShape:
    @pytest.mark.parametrize("budget", [1, 5, 64, 10**6])
    @pytest.mark.parametrize("predicate", ["equi-and-theta", "theta"])
    def test_block_budget_never_changes_the_output(self, monkeypatch, budget, predicate):
        monkeypatch.setattr(join_module, "_BLOCK_PAIRS", budget)
        case = dict(seed=3, n=60, rate=1, cardinality=3, predicate=predicate,
                    window="sliding", task_size=20, force_assembly=False)
        op, tasks = build(case)
        assert run_engine_path(op, tasks)[0] == join_stream_by_window(op, tasks)[0]

    def one_window(self, n):
        window = WindowDefinition.rows(n, n)
        left, right = make_stream(LEFT, 1, n, 1), make_stream(RIGHT, 2, n, 1)
        left.data["u"], right.data["w"] = np.arange(n), np.arange(n)
        return [StreamSlice(b, assign_windows(window, 0, n), 0) for b in (left, right)]

    def test_one_distinct_key_value_stays_blocked(self):
        """Every pair of a 4 Ki × 4 Ki window is a key-matched candidate."""
        op = ThetaJoin(LEFT, RIGHT, col("k").eq(col("r_k")) & col("u").eq(col("w") + 1))
        assert op._equi[0] == col("k")
        peak, result = peak_of(lambda: op.process_batch(self.one_window(4096)))
        assert len(result.complete) == 4095 and result.stats["pairs"] == 4096.0 * 4096
        # 16 Mi candidates: index arrays alone would be 128 MiB each.
        assert peak < 4 * 2**20

    def test_all_pairs_of_a_huge_window_stay_blocked(self):
        op = ThetaJoin(LEFT, RIGHT, (col("u") - col("w")).eq(1))
        assert op._equi is None
        peak, result = peak_of(lambda: op.process_batch(self.one_window(4096)))
        assert len(result.complete) == 4095
        assert peak < 4 * 2**20

    def test_boundary_rows_own_their_memory(self):
        """A window pending across tasks pins neither the task's batches
        nor its output array, and the run pickles only boundary rows."""
        op = ThetaJoin(LEFT, RIGHT, PREDICATES["equi-columns"][0])
        left, right = make_stream(LEFT, 1, 512, 4), make_stream(RIGHT, 2, 512, 4)
        window = WindowDefinition.rows(64, 32)
        slices = [StreamSlice(b, assign_windows(window, 128, 640), 128) for b in (left, right)]
        result = op.process_batch(slices)
        assert len(result.partials) == 2 and len(result.complete) > 10_000
        rows = 0
        for side in result.partials.sides:
            assert side.rows.base is None or side.rows.base.nbytes == side.rows.nbytes
            # The closing and the opening window's 32 rows each, of 512.
            assert len(side.rows) == 64
            rows += side.rows.nbytes
        shipped = len(pickle.dumps(result.partials, protocol=pickle.HIGHEST_PROTOCOL))
        assert shipped < rows + 2048


# -- BatchResult.stats feed the sim cost model and HLS: pinned ----------------------


class TestStatsDoNotDrift:
    """``pairs`` is Σ nl·nr over the task's window pairs — never the
    pruned candidate count — so ``hardware/{cpu,gpu}.py`` charge what
    they always did."""

    def stats(self, window, l_range, r_range, l_rate=1, predicate="equi-columns"):
        op = ThetaJoin(LEFT, RIGHT, PREDICATES[predicate][0])
        left = make_stream(LEFT, 1, l_range[1] - l_range[0], 4)
        right = make_stream(RIGHT, 2, r_range[1] - r_range[0], 4)
        right.data["timestamp"] //= l_rate
        slices = [
            StreamSlice(batch, assign_windows(window, *span, batch.timestamps, None), span[0])
            for batch, span in ((left, l_range), (right, r_range))
        ]
        result = assert_task_equals_reference(op, *slices)
        return result.stats, len(result.complete)

    def test_tumbling(self):
        stats, matched = self.stats(WindowDefinition.rows(32, 32), (0, 256), (0, 256))
        assert stats == {
            "selectivity": matched / (8 * 32 * 32),
            "pairs": 8.0 * 32 * 32,
            "tuples": 512.0,
            "fragments": 8.0,
        }
        assert 0.2 < stats["selectivity"] < 0.3  # 4 key values

    def test_sliding(self):
        stats, matched = self.stats(WindowDefinition.rows(32, 8), (64, 192), (64, 192))
        # windows 5 … 23; fragment lengths 8, 16, 24, then 13 × 32, then 24, 16, 8
        pairs = 2 * (8**2 + 16**2 + 24**2) + 13 * 32**2
        assert stats["fragments"] == 19.0 and stats["pairs"] == float(pairs)
        # The task joins its 13 COMPLETE windows; the rest wait for assembly.
        assert stats["selectivity"] == matched / (13 * 32**2) and stats["tuples"] == 256.0

    def test_window_present_in_one_stream_only(self):
        # The right batch is a task ahead: windows 0-3 left only, 4-7 right only.
        stats, matched = self.stats(WindowDefinition.rows(32, 32), (0, 128), (128, 256))
        assert stats == {"selectivity": 0.0, "pairs": 0.0, "tuples": 256.0, "fragments": 8.0}
        assert matched == 0

    def test_sg3_shape_16_to_1_rates(self):
        """A time window over a 16:1 stream pair, cut by size."""
        stats, matched = self.stats(WindowDefinition.time(4, 4), (0, 32), (0, 512), l_rate=16)
        assert stats["tuples"] == 544.0 and stats["pairs"] > 16 * 32
        assert matched and 0.0 < stats["selectivity"] <= 1.0


def test_window_ids_need_not_be_sorted():
    """Slots come from the ids themselves, not from their positions."""
    left, right = make_stream(LEFT, 1, 30, 3), make_stream(RIGHT, 2, 30, 3)
    complete = np.full(3, int(FragmentState.COMPLETE))
    starts, stops = np.array([0, 10, 20]), np.array([10, 20, 30])
    l_windows = WindowSet(np.array([7, 2, 5]), starts, stops, complete)
    r_windows = WindowSet(np.array([5, 7, 2]), starts, stops, complete)
    op = ThetaJoin(LEFT, RIGHT, PREDICATES["equi-columns"][0])
    assert_task_equals_reference(
        op, StreamSlice(left, l_windows, 0), StreamSlice(right, r_windows, 0)
    )


# -- match ranges: a count table while it fits, binary search past it --------------

INT64 = np.iinfo(np.int64)


def synthetic_stream(seed, n):
    """JOIN_r's input: ``a3`` uniform in [0, 1000), so ``a3 % 100`` has 100 keys."""
    rng = np.random.default_rng(seed)
    columns = {"timestamp": np.arange(n, dtype=np.int64)}
    for attribute in SYNTHETIC_SCHEMA.attributes[1:]:
        columns[attribute.name] = rng.integers(0, 1000, n).astype(attribute.dtype)
    return TupleBatch.from_columns(SYNTHETIC_SCHEMA, **columns)


@contextlib.contextmanager
def counting_searches():
    """Count :meth:`ThetaJoin._search_ranges` calls inside the block."""
    calls = []
    search = ThetaJoin._search_ranges

    def counted(*args):
        calls.append(len(args[0]))
        return search(*args)

    with mock.patch.object(ThetaJoin, "_search_ranges", staticmethod(counted)):
        yield calls


def one_task(op, window, n):
    """One ``n``-tuple task per stream through the kernel, checked bitwise;
    returns the result and the entries each binary search probed."""
    slices = [
        StreamSlice(synthetic_stream(seed, n), assign_windows(window, 0, n), 0)
        for seed in (1, 2)
    ]
    with counting_searches() as searches:
        result = op.process_batch(slices)
    assert_task_equals_reference(op, *slices, result=result)
    return result, searches


class TestProbePaths:
    def test_join1_tumbling_reads_the_count_table(self):
        """The ``join-theta`` shape: 2048-tuple tasks, 16 windows of 128."""
        window = WindowDefinition.rows(128, 128)
        result, searches = one_task(join_query(1, window=window).operator, window, 2048)
        assert searches == [] and len(result.complete) > 1000

    def test_slide_one_with_many_keys_searches(self):
        """100 keys × ~540 window boundaries outgrow the task's rows and entries."""
        window = WindowDefinition.rows(32, 1)
        result, searches = one_task(join_query(1, window=window).operator, window, 512)
        assert len(searches) == 1 and len(result.complete) > 1000

    @given(seed=st.integers(0, 2**16), window=st.sampled_from(sorted(WINDOWS)))
    def test_keys_spread_over_int64_code_by_sorting(self, seed, window):
        """Keys at both ends of int64: the box is wider than the rows, so
        key coding falls back to ``np.unique``; outputs stay bitwise."""
        extremes = np.array(
            [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max], dtype=np.int64
        )
        rng = np.random.default_rng(seed)
        left, right = make_stream(LEFT, seed, 60, 3), make_stream(RIGHT, seed + 1, 60, 3)
        left.data["u"] = extremes[rng.integers(0, len(extremes), 60)]
        right.data["w"] = extremes[rng.integers(0, len(extremes), 60)]
        op = ThetaJoin(LEFT, RIGHT, col("u").eq(col("w")) & (col("k") <= col("r_k")))
        assert op._equi[0] == col("u")
        tasks = cut_tasks(left, right, WINDOWS[window], 20, 20)
        for pair in tasks:
            assert_task_equals_reference(op, *pair)
        assert run_engine_path(op, tasks)[0] == join_stream_by_window(op, tasks)[0]
        keys = np.concatenate([left.column("u"), right.column("w")])
        assert keys.min() == INT64.min and keys.max() == INT64.max

    def test_bool_keys_match_by_truth(self):
        op = ThetaJoin(LEFT, RIGHT, PREDICATES["bool-key"][0])
        assert op._equi[2] == np.dtype(bool)
        left, right = make_stream(LEFT, 7, 64, 6), make_stream(RIGHT, 8, 64, 6)
        got = join_pairs(op, left, right)
        expected = join_pairs_by_cross_product(op, left, right)
        positive = (left.column("k") > 0).sum() * (right.column("k") > 0).sum()
        negative = (left.column("k") <= 0).sum() * (right.column("k") <= 0).sum()
        assert len(got) == positive + negative
        assert got.data.tobytes() == expected.data.tobytes()

    @given(seed=st.integers(0, 2**16), cardinality=st.sampled_from([40, 200]))
    def test_slide_one_with_many_keys_equals_the_reference(self, seed, cardinality):
        window = WindowDefinition.rows(6, 1)
        op = ThetaJoin(LEFT, RIGHT, PREDICATES["equi-and-theta"][0])
        left = make_stream(LEFT, seed, 90, cardinality)
        right = make_stream(RIGHT, seed + 1, 90, cardinality)
        tasks = cut_tasks(left, right, window, 45, 45)
        with counting_searches() as searches:
            for pair in tasks:
                assert_task_equals_reference(op, *pair)
        assert len(searches) == len(tasks)
        assert run_engine_path(op, tasks)[0] == join_stream_by_window(op, tasks)[0]
