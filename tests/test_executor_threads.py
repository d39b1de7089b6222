"""Threaded backend equivalence with the sim backend.

The acceptance bar for ``SaberConfig(execution="threads")`` is that the
batching machinery — task decomposition, out-of-order completion,
cross-task window assembly, buffer release — stays *invisible* to query
semantics under real concurrency.  Every test here runs the same query
over the same seeded source through both backends and demands identical
window results.

All operators must match bitwise even with the GPGPU worker enabled:
``gpu_kernel`` either uses a kernel defined to produce identical
rows (selection, join) or shares the CPU implementation (aggregation,
GROUP-BY), so processor assignment is invisible at the bit level.

Races do not show up deterministically: the stress tests repeat runs
with several workers and a small queue to vary interleavings.
"""

import numpy as np
import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.errors import SimulationError
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.aggregation import Aggregation
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import (
    SYNTHETIC_SCHEMA,
    TUPLE_SIZE,
    SyntheticSource,
    groupby_query,
    join_query,
    proj_query,
    select_query,
)


def run_backend(
    execution,
    make_query,
    seeds,
    task_tuples=333,
    n_tasks=12,
    cpu_workers=4,
    queue_capacity=8,
    source_kwargs=None,
    **config_kwargs,
):
    engine = SaberEngine(
        SaberConfig(
            execution=execution,
            task_size_bytes=task_tuples * TUPLE_SIZE,
            cpu_workers=cpu_workers,
            queue_capacity=queue_capacity,
            **config_kwargs,
        )
    )
    query = make_query()
    sources = [
        SyntheticSource(seed=s, **(source_kwargs or {})) for s in seeds
    ]
    engine.add_query(query, sources)
    return engine.run(tasks_per_query=n_tasks).outputs[query.name]


def run_both(make_query, seeds, **kwargs):
    sim = run_backend("sim", make_query, seeds, **kwargs)
    threads = run_backend("threads", make_query, seeds, **kwargs)
    return sim, threads


def assert_identical(sim, threads):
    assert (sim is None) == (threads is None)
    if sim is None:
        return
    assert len(sim) == len(threads)
    assert np.array_equal(sim.data, threads.data)


# -- per-operator equivalence (engine-oracle query shapes) --------------------


@pytest.mark.parametrize("task_tuples", [100, 256, 777])
def test_selection_equivalence_hybrid(task_tuples):
    sim, threads = run_both(
        lambda: select_query(16, pass_rate=0.5),
        seeds=[7],
        task_tuples=task_tuples,
    )
    assert_identical(sim, threads)


def test_projection_equivalence_hybrid():
    sim, threads = run_both(lambda: proj_query(4), seeds=[9])
    assert_identical(sim, threads)


@pytest.mark.parametrize(
    "window",
    [
        WindowDefinition.rows(256, 64),
        WindowDefinition.rows(100, 100),
        WindowDefinition.rows(512, 32),
    ],
)
def test_sliding_aggregation_equivalence_cpu(window):
    def make():
        op = Aggregation(SYNTHETIC_SCHEMA, [AggregateSpec("sum", "a1", "s")])
        return Query(f"agg_{window.size}_{window.slide}", op, [window])

    sim, threads = run_both(make, seeds=[3], use_gpu=False)
    assert_identical(sim, threads)


@pytest.mark.parametrize("function", ["min", "max", "avg", "count"])
def test_aggregate_functions_equivalence_cpu(function):
    def make():
        column = None if function == "count" else "a1"
        op = Aggregation(SYNTHETIC_SCHEMA, [AggregateSpec(function, column, "v")])
        return Query(f"agg_{function}", op, [WindowDefinition.rows(200, 75)])

    sim, threads = run_both(make, seeds=[5], use_gpu=False)
    assert_identical(sim, threads)


def test_aggregation_equivalence_hybrid():
    """Hybrid aggregation is bitwise identical across backends.

    ``gpu_kernel`` routes aggregation through the same vectorised
    implementation as the CPU path, so which processor ran a task is
    invisible even at the bit level.  If a future GPGPU aggregation
    kernel introduces a genuinely different float reduction order, relax
    this to a tolerance — consciously.
    """

    def make():
        op = Aggregation(SYNTHETIC_SCHEMA, [AggregateSpec("sum", "a1", "s")])
        return Query("agg_hybrid", op, [WindowDefinition.rows(256, 64)])

    sim, threads = run_both(make, seeds=[3])
    assert_identical(sim, threads)


def test_groupby_equivalence_cpu():
    sim, threads = run_both(
        lambda: groupby_query(5, functions=["cnt", "sum"]),
        seeds=[11],
        task_tuples=250,
        source_kwargs=dict(groups=5),
        use_gpu=False,
    )
    assert_identical(sim, threads)


def test_time_window_equivalence_cpu():
    def make():
        op = Aggregation(SYNTHETIC_SCHEMA, [AggregateSpec("sum", "a1", "s")])
        return Query("agg_time", op, [WindowDefinition.time(3, 1)])

    sim, threads = run_both(
        make,
        seeds=[13],
        task_tuples=700,
        n_tasks=10,
        source_kwargs=dict(tuples_per_second=128),
        use_gpu=False,
    )
    assert_identical(sim, threads)


def test_join_equivalence_hybrid():
    sim, threads = run_both(
        lambda: join_query(1),
        seeds=[17, 18],
        task_tuples=100,
        n_tasks=8,
    )
    assert_identical(sim, threads)


# -- concurrency stress --------------------------------------------------------


def test_buffer_wraparound_under_concurrency():
    """More tasks than buffer capacity forces circular wraparound.

    The dispatcher's default buffer holds 96 tasks; 130 tasks only
    complete if workers' in-order releases keep freeing space while the
    dispatcher blocks on buffer backpressure.  Repeated to vary thread
    interleavings.
    """
    for __ in range(3):
        sim, threads = run_both(
            lambda: select_query(4, pass_rate=0.6),
            seeds=[5],
            task_tuples=64,
            n_tasks=130,
            cpu_workers=6,
            queue_capacity=4,
        )
        assert_identical(sim, threads)


def test_repeated_runs_shake_out_races():
    """Many workers + tiny queue maximise scheduling nondeterminism."""
    for seed in (1, 2, 3, 4, 5):
        sim, threads = run_both(
            lambda: select_query(8, pass_rate=0.4),
            seeds=[seed],
            task_tuples=128,
            n_tasks=40,
            cpu_workers=8,
            queue_capacity=4,
        )
        assert_identical(sim, threads)


def test_multi_query_equivalence():
    """Two queries share the queue and the scheduler."""

    def run(execution):
        engine = SaberEngine(
            SaberConfig(
                execution=execution,
                task_size_bytes=200 * TUPLE_SIZE,
                cpu_workers=4,
                queue_capacity=8,
            )
        )
        q1 = select_query(4, pass_rate=0.5, name="sel")
        q2 = proj_query(3, name="proj")
        engine.add_query(q1, [SyntheticSource(seed=21)])
        engine.add_query(q2, [SyntheticSource(seed=22)])
        report = engine.run(tasks_per_query=15)
        return report.outputs

    sim, threads = run("sim"), run("threads")
    for name in ("sel", "proj"):
        assert_identical(sim[name], threads[name])


def test_threads_gpu_only():
    """A GPGPU-only configuration drains the queue via the GPU worker."""
    sim, threads = run_both(
        lambda: select_query(4, pass_rate=0.5),
        seeds=[23],
        use_cpu=False,
    )
    assert_identical(sim, threads)


# -- backend plumbing ----------------------------------------------------------


def test_stat_model_runs_on_threads():
    """execute_data=False works on the threaded backend too."""
    engine = SaberEngine(
        SaberConfig(execution="threads", execute_data=False, cpu_workers=4)
    )
    engine.add_query(select_query(4), None)
    report = engine.run(tasks_per_query=20)
    assert len(report.measurements.records) == 20
    assert report.elapsed_seconds > 0


def test_threads_report_uses_wall_clock():
    """elapsed_seconds must be real elapsed time, not virtual time."""
    import time

    engine = SaberEngine(
        SaberConfig(
            execution="threads",
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=4,
            queue_capacity=8,
        )
    )
    query = select_query(2)
    engine.add_query(query, [SyntheticSource(seed=1)])
    started = time.perf_counter()
    report = engine.run(tasks_per_query=6)
    wall = time.perf_counter() - started
    assert 0 < report.elapsed_seconds <= wall
    assert report.outputs[query.name] is not None


def test_threads_honours_ingest_bandwidth():
    """The dispatcher paces wall-clock ingest under the configured cap."""
    task_tuples, n_tasks, rate = 64, 10, 200_000  # bytes/s
    engine = SaberEngine(
        SaberConfig(
            execution="threads",
            task_size_bytes=task_tuples * TUPLE_SIZE,
            cpu_workers=2,
            ingest_bandwidth=rate,
        )
    )
    query = select_query(2)
    engine.add_query(query, [SyntheticSource(seed=4)])
    report = engine.run(tasks_per_query=n_tasks)
    total_bytes = n_tasks * task_tuples * TUPLE_SIZE
    # Unthrottled this finishes in milliseconds; paced it must take at
    # least bytes/rate (the last task's budget may still be draining).
    assert report.elapsed_seconds >= ((n_tasks - 1) / n_tasks) * total_bytes / rate


def test_unknown_execution_backend_rejected():
    with pytest.raises(SimulationError):
        SaberConfig(execution="fibers")
