"""Sums read off prefix tables are the sequential fold, bit for bit.

``GroupedAggregation`` reads a window fragment's sum as the difference
of two per-group prefix sums only when the task's column passes the
exactness certificate (``groupby._certified``); otherwise it folds each
fragment sequentially.  The properties here hold the operator, grouped
and over zero keys, to ``tests/reference.py::grouped_by_window`` — the
per-window algorithm that folds every fragment from 0.0 in row order and
merges a window's fragments in task order — on columns that pass the
certificate and on columns built to fail it, with windows that span
one, two and three or more tasks.  On certified columns every sum is
exact, so the output is also independent of how tasks split a window.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import cut_tasks, grouped_by_window, run_engine_path
from repro.operators import groupby as groupby_module
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.groupby import GroupedAggregation, _certified, _range_fold
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:double, g:int")


def _sprinkle(values, rng, specials):
    at = rng.integers(0, len(values), max(1, len(values) // 16))
    values[at] = rng.choice(specials, len(at))
    return values


#: columns every task of which passes the certificate.
CERTIFIED = {
    "float32-uniform": lambda rng, n: rng.random(n, dtype=np.float32).astype(np.float64),
    "small-integers": lambda rng, n: rng.integers(-1000, 1000, n).astype(np.float64),
    "signed-zeros": lambda rng, n: rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -3.0], n),
}
#: columns built to fail it: a prefix difference would not be the fold.
UNCERTIFIED = {
    "nan": lambda rng, n: _sprinkle(rng.random(n), rng, [np.nan]),
    "infinities": lambda rng, n: _sprinkle(rng.random(n), rng, [np.inf, -np.inf]),
    "cancellation": lambda rng, n: rng.choice([1e16, 1.0, -1e16, 0.5, 3.0], n),
    "near-2**53": lambda rng, n: rng.choice([2.0**53 - 1, 2.0**53, 1.0, -1.0, 0.25], n),
}
COLUMNS = {**CERTIFIED, **UNCERTIFIED}
FUNCTIONS = ["sum", "avg", "count", "min", "max"]


def make_data(kind: str, seed: int, n: int, groups: int) -> TupleBatch:
    rng = np.random.default_rng(seed)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(n, dtype=np.int64),
        v=COLUMNS[kind](rng, n),
        g=rng.integers(0, groups, n).astype(np.int32),
    )


def make_operator(keys, functions) -> GroupedAggregation:
    specs = [
        AggregateSpec(fn, None if fn == "count" else "v", f"a{i}")
        for i, fn in enumerate(functions)
    ]
    return GroupedAggregation(SCHEMA, keys, specs)


@st.composite
def cases(draw):
    size = draw(st.sampled_from([8, 30, 64]))
    return dict(
        kind=draw(st.sampled_from(sorted(COLUMNS))),
        seed=draw(st.integers(0, 2**16)),
        n=draw(st.sampled_from([60, 150, 256])),
        keys=draw(st.sampled_from([[], ["g"]])),
        groups=draw(st.integers(1, 4)),
        functions=draw(
            st.lists(st.sampled_from(FUNCTIONS), min_size=1, max_size=3, unique=True)
        ),
        window=WindowDefinition.rows(size, draw(st.sampled_from([1, 2, 5]))),
        # a window inside one task, across two, across three or more
        task_size=draw(st.sampled_from([None, size, max(1, size // 3)])),
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # NaN min/max
@given(case=cases())
def test_outputs_equal_the_sequential_per_window_oracle(case):
    data = make_data(case["kind"], case["seed"], case["n"], case["groups"])
    op = make_operator(case["keys"], case["functions"] + ["sum"] * ("sum" not in case["functions"]))
    tasks = cut_tasks(data, case["window"], case["task_size"] or len(data))
    chunks, windows, __ = run_engine_path(op, tasks)
    assert (chunks, windows) == grouped_by_window(op, tasks)
    if case["kind"] in CERTIFIED:
        whole, __ = grouped_by_window(op, cut_tasks(data, case["window"], len(data)))
        assert b"".join(chunks) == b"".join(whole)


@pytest.mark.parametrize("kind", sorted(COLUMNS))
def test_certificate_picks_the_columns(kind):
    values = COLUMNS[kind](np.random.default_rng(7), 512)
    assert _certified(values) == (kind in CERTIFIED)


@pytest.mark.parametrize(
    "values,certified",
    [
        ([], True),
        ([0.0, -0.0], True),
        ([0.1, 0.2], False),  # multiples of 2**-56 and -55, not of 2**-52
        ([2.0**52, 1.0, 0.5], False),  # Σ ≥ 2**52: a half is below the grid
        ([2.0**51, 1.0], True),
        ([2.0**1000, 2.0**-200], False),  # the scaled 2**-200 underflows to 0
        ([1e300, 1e300], True),
        ([1.7e308, 1.7e308], False),  # Σ|v| overflows
    ],
)
def test_certificate_edges(values, certified):
    assert _certified(np.asarray(values, dtype=np.float64)) is certified


@pytest.mark.parametrize("kind", ["min", "max"])
def test_range_fold_matches_the_slices(kind):
    values = np.random.default_rng(1).normal(size=257)
    fold = np.min if kind == "min" else np.max
    ranges = [
        (lo, hi) for lo in range(0, 257, 17) for hi in (lo + 1, lo + 2, lo + 64, 257) if hi <= 257
    ]
    first, stop = (np.asarray(column) for column in zip(*ranges))
    got = _range_fold(kind, values, first, stop - first)
    assert got.tolist() == [fold(values[lo:hi]) for lo, hi in ranges]


def test_range_fold_keeps_the_last_of_equal_zeros():
    """``ufunc.at`` keeps the later of ``0.0``/``-0.0``; so must the table."""
    values = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 2.0])
    for kind in ("min", "max"):
        ufunc, identity = groupby_module._FOLDS[kind]
        for lo, hi in [(0, 2), (0, 5), (1, 4), (3, 5), (0, 6)]:
            table = np.full(1, identity)
            ufunc.at(table, np.zeros(hi - lo, dtype=int), values[lo:hi])
            got = _range_fold(kind, values, np.array([lo]), np.array([hi - lo]))
            assert got.tobytes() == table.tobytes(), (kind, lo, hi)


@pytest.mark.parametrize("keys", [[], ["g"]])
def test_a_sum_of_negative_zeros_is_positive_zero(keys):
    """A fold from 0.0 never yields -0.0; nor may a prefix difference,
    even for a window that starts at the task's first row."""
    data = TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(64, dtype=np.int64),
        v=np.where(np.arange(64) % 4 == 3, 1.0, -0.0),
        g=np.zeros(64, dtype=np.int32),
    )
    op = make_operator(keys, ["sum"])
    tasks = cut_tasks(data, WindowDefinition.rows(2, 1), 64)
    assert run_engine_path(op, tasks)[:2] == grouped_by_window(op, tasks)


class TestPathChoice:
    """The prefix path is taken exactly when the certificate and the cost rule allow."""

    def paths(self, monkeypatch, data, window, keys=("g",), functions=("count", "sum")):
        taken = []
        prefix = GroupedAggregation._prefix_tables
        monkeypatch.setattr(
            GroupedAggregation,
            "_prefix_tables",
            lambda self, *args: taken.append(True) or prefix(self, *args),
        )
        op = make_operator(list(keys), list(functions))
        windows = assign_windows(window, 0, len(data))
        op.process_batch([StreamSlice(data, windows, 0)])
        return bool(taken)

    def test_sliding_certified_task_takes_prefix_tables(self, monkeypatch):
        data = make_data("float32-uniform", 1, 512, 8)
        assert self.paths(monkeypatch, data, WindowDefinition.rows(256, 1))
        assert self.paths(monkeypatch, data, WindowDefinition.rows(256, 1), keys=())
        assert self.paths(
            monkeypatch, data, WindowDefinition.rows(256, 1), functions=("min", "max", "avg")
        )

    @pytest.mark.parametrize("kind", sorted(UNCERTIFIED))
    def test_uncertified_task_takes_the_segmented_pass(self, monkeypatch, kind):
        data = make_data(kind, 1, 512, 8)
        assert not self.paths(monkeypatch, data, WindowDefinition.rows(256, 1))

    def test_count_needs_no_certificate(self, monkeypatch):
        data = make_data("nan", 1, 512, 8)
        assert self.paths(monkeypatch, data, WindowDefinition.rows(256, 1), functions=("count",))

    def test_tables_past_the_memory_cap_take_the_segmented_pass(self, monkeypatch):
        data = make_data("float32-uniform", 1, 512, 8)
        monkeypatch.setattr(groupby_module, "_TABLE_ELEMENTS", 8 * 513 - 1)
        assert not self.paths(monkeypatch, data, WindowDefinition.rows(256, 1))
        monkeypatch.setattr(groupby_module, "_TABLE_ELEMENTS", 8 * 513)
        assert self.paths(monkeypatch, data, WindowDefinition.rows(256, 1))

    def test_tumbling_task_takes_the_segmented_pass(self, monkeypatch):
        """Tiling fragments reduce each tuple once: tables never pay."""
        data = make_data("float32-uniform", 1, 4096, 8)
        assert not self.paths(monkeypatch, data, WindowDefinition.rows(1024, 1024))
        assert not self.paths(monkeypatch, data, WindowDefinition.rows(1024, 1024), keys=())
