"""Property-based tests on the result stage's ordering guarantees."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.query import Query
from repro.core.result_stage import ResultStage
from repro.core.task import QueryTask
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.groupby import GroupedAggregation
from repro.operators.base import StreamSlice
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import assign_count_windows
from repro.windows.definition import WindowDefinition

SCHEMA = Schema.with_timestamp("v:float")


def make_batch(start, stop):
    idx = np.arange(start, stop)
    return TupleBatch.from_columns(
        SCHEMA, timestamp=idx.astype(np.int64), v=idx.astype(np.float32)
    )


def run_stage(window, edges, order):
    op = GroupedAggregation(SCHEMA, [], [AggregateSpec("sum", "v", "s")])
    query = Query(f"prop_{window.size}_{window.slide}", op, [window])
    stage = ResultStage(query)
    tasks = []
    for task_id, (a, b) in enumerate(zip(edges, edges[1:])):
        data = make_batch(a, b)
        ws = assign_count_windows(window, int(a), int(b))
        result = op.process_batch([StreamSlice(data, ws, int(a))])
        tasks.append((QueryTask(query, task_id, [], 0.0, b - a), result))
    for index in order:
        stage.submit(tasks[index][0], tasks[index][1], 0.0)
    out = stage.output()
    return [] if out is None else list(zip(out.timestamps.tolist(),
                                           out.column("s").tolist()))


@given(
    window=st.tuples(
        st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40)
    ).map(lambda t: WindowDefinition.rows(max(t), min(t))),
    gaps=st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_submission_order_never_changes_output(window, gaps, data):
    """Any completion permutation yields the in-order output stream."""
    edges = np.cumsum([0] + gaps)
    n_tasks = len(gaps)
    order = data.draw(st.permutations(range(n_tasks)))
    in_order = run_stage(window, edges, list(range(n_tasks)))
    shuffled = run_stage(window, edges, list(order))
    assert shuffled == in_order


@given(
    window=st.tuples(
        st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30)
    ).map(lambda t: WindowDefinition.rows(max(t), min(t))),
    gaps=st.lists(st.integers(min_value=1, max_value=25), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_output_matches_naive_per_window_sums(window, gaps):
    """The assembled stream equals first-principles window evaluation."""
    edges = np.cumsum([0] + gaps)
    total = int(edges[-1])
    results = run_stage(window, edges, list(range(len(gaps))))
    values = np.arange(total, dtype=np.float64)
    expected = []
    wid = 0
    while True:
        start = wid * window.slide
        end = start + window.size
        if end > total:
            break
        expected.append((end - 1, float(values[start:end].sum())))
        wid += 1
    assert len(results) == len(expected)
    for (got_ts, got_v), (exp_ts, exp_v) in zip(results, expected):
        assert got_ts == exp_ts
        assert abs(got_v - exp_v) < 1e-6
