"""Process-backend equivalence with the sim backend.

The acceptance bar for ``SaberConfig(execution="processes")`` is the
same as for threads, under a much stronger adversary: operators execute
in *forked worker processes* against shared-memory circular buffers, so
task decomposition, descriptor shipping, cross-process pointer
visibility, out-of-order completion, cross-task window assembly and
buffer release must all stay invisible to query semantics.  Every test
runs the same query over the same seeded source through both backends
and demands identical window results.

Shared-memory lifecycle is part of the contract: runs must reap every
worker before returning, and ``engine.shutdown()`` / session ``close()``
must unlink every segment (asserted against ``/dev/shm``).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.api import SaberSession
from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.errors import SimulationError
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.groupby import GroupedAggregation
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

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="processes backend needs POSIX fork",
)


def shm_segments():
    """SABER-owned shared-memory segments currently live on this host."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("saber-")}


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
    sources = [SyntheticSource(seed=s, **(source_kwargs or {})) for s in seeds]
    engine.add_query(query, sources)
    try:
        return engine.run(tasks_per_query=n_tasks).outputs[query.name]
    finally:
        engine.shutdown()


def run_both(make_query, seeds, **kwargs):
    sim = run_backend("sim", make_query, seeds, **kwargs)
    processes = run_backend("processes", make_query, seeds, **kwargs)
    return sim, processes


def assert_identical(sim, processes):
    assert (sim is None) == (processes is None)
    if sim is None:
        return
    assert len(sim) == len(processes)
    assert np.array_equal(sim.data, processes.data)


# -- per-operator equivalence --------------------------------------------------


@pytest.mark.parametrize("task_tuples", [100, 777])
def test_selection_equivalence_hybrid(task_tuples):
    sim, processes = run_both(
        lambda: select_query(16, pass_rate=0.5),
        seeds=[7],
        task_tuples=task_tuples,
    )
    assert_identical(sim, processes)


def test_projection_equivalence_hybrid():
    sim, processes = run_both(lambda: proj_query(4), seeds=[9])
    assert_identical(sim, processes)


@pytest.mark.parametrize(
    "window",
    [WindowDefinition.rows(256, 64), WindowDefinition.rows(100, 100)],
)
def test_sliding_aggregation_equivalence_cpu(window):
    def make():
        op = GroupedAggregation(SYNTHETIC_SCHEMA, [], [AggregateSpec("sum", "a1", "s")])
        return Query(f"agg_{window.size}_{window.slide}", op, [window])

    sim, processes = run_both(make, seeds=[3], use_gpu=False)
    assert_identical(sim, processes)


def test_groupby_equivalence_cpu():
    sim, processes = run_both(
        lambda: groupby_query(5, functions=["cnt", "sum"]),
        seeds=[11],
        task_tuples=250,
        source_kwargs=dict(groups=5),
        use_gpu=False,
    )
    assert_identical(sim, processes)


def test_time_window_equivalence_cpu():
    def make():
        op = GroupedAggregation(SYNTHETIC_SCHEMA, [], [AggregateSpec("sum", "a1", "s")])
        return Query("agg_time", op, [WindowDefinition.time(3, 1)])

    sim, processes = run_both(
        make,
        seeds=[13],
        task_tuples=700,
        n_tasks=10,
        source_kwargs=dict(tuples_per_second=128),
        use_gpu=False,
    )
    assert_identical(sim, processes)


def test_join_equivalence_hybrid():
    sim, processes = run_both(
        lambda: join_query(1),
        seeds=[17, 18],
        task_tuples=100,
        n_tasks=8,
    )
    assert_identical(sim, processes)


# -- concurrency ---------------------------------------------------------------


def test_buffer_wraparound_across_processes():
    """More tasks than buffer capacity forces circular wraparound.

    The dispatcher's default buffer holds 96 tasks; 130 tasks only
    complete if the parent's in-order releases (shared head pointer)
    keep freeing space the workers then observe across the process
    boundary while the dispatcher blocks on buffer backpressure.
    """
    sim, processes = run_both(
        lambda: select_query(4, pass_rate=0.6),
        seeds=[5],
        task_tuples=64,
        n_tasks=130,
        cpu_workers=4,
        queue_capacity=4,
    )
    assert_identical(sim, processes)


def test_repeated_runs_shake_out_races():
    """Several workers + a tiny queue maximise scheduling nondeterminism."""
    for seed in (1, 2, 3):
        sim, processes = run_both(
            lambda: select_query(8, pass_rate=0.4),
            seeds=[seed],
            task_tuples=128,
            n_tasks=30,
            cpu_workers=4,
            queue_capacity=4,
        )
        assert_identical(sim, processes)


def test_multi_query_equivalence():
    """Two queries share the parent-side queue and the HLS scheduler."""

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
        try:
            return engine.run(tasks_per_query=15).outputs
        finally:
            engine.shutdown()

    sim, processes = run("sim"), run("processes")
    for name in ("sel", "proj"):
        assert_identical(sim[name], processes[name])


def test_processes_gpu_only():
    """A GPGPU-only configuration drains the queue via the GPU worker."""
    sim, processes = run_both(
        lambda: select_query(4, pass_rate=0.5),
        seeds=[23],
        use_cpu=False,
    )
    assert_identical(sim, processes)


# -- sessions, incremental runs, teardown --------------------------------------


def test_incremental_session_runs_continue_cursors():
    """run(); run() re-forks workers yet continues the same stream."""

    def run_session(execution):
        cfg = SaberConfig(
            execution=execution,
            task_size_bytes=200 * TUPLE_SIZE,
            cpu_workers=3,
            queue_capacity=6,
            collect_output=True,
        )
        with SaberSession(cfg) as session:
            handle = session.submit(
                select_query(4, pass_rate=0.5, name="inc"),
                sources=[SyntheticSource(seed=31)],
            )
            session.run(tasks_per_query=6)
            session.run(tasks_per_query=6)
            return handle.output()

    assert_identical(run_session("sim"), run_session("processes"))


def test_background_run_stops_cleanly():
    cfg = SaberConfig(
        execution="processes",
        task_size_bytes=128 * TUPLE_SIZE,
        cpu_workers=2,
        queue_capacity=4,
    )
    with SaberSession(cfg) as session:
        handle = session.submit(
            select_query(2, name="bg"), sources=[SyntheticSource(seed=9)]
        )
        session.start()
        for chunk in handle.results():
            assert len(chunk) >= 0
            break  # one chunk proves liveness
        report = session.stop()
        assert report is not None
        assert handle.tasks_completed > 0
    assert not shm_segments()


def test_engine_shutdown_unlinks_shared_memory():
    engine = SaberEngine(
        SaberConfig(
            execution="processes",
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=2,
        )
    )
    query = select_query(2, name="shm")
    engine.add_query(query, [SyntheticSource(seed=2)])
    assert shm_segments(), "shared backing should exist while the engine lives"
    engine.run(tasks_per_query=4)
    assert shm_segments(), "segments persist across runs (incremental re-attach)"
    engine.shutdown()
    assert not shm_segments()
    engine.shutdown()  # idempotent


def test_session_close_unlinks_shared_memory():
    cfg = SaberConfig(
        execution="processes",
        task_size_bytes=128 * TUPLE_SIZE,
        cpu_workers=2,
    )
    session = SaberSession(cfg)
    session.submit(
        select_query(2, name="close"), sources=[SyntheticSource(seed=3)]
    )
    session.run(tasks_per_query=4)
    assert shm_segments()
    session.close()
    assert not shm_segments()


# -- failure propagation -------------------------------------------------------


class _ExplodingOperator(GroupedAggregation):
    """Raises inside the worker process on the third task it sees."""

    def process_batch(self, slices):
        if slices and slices[0].global_start >= 2 * 333:
            raise RuntimeError("injected operator failure")
        return super().process_batch(slices)


def test_worker_failure_surfaces_in_parent():
    engine = SaberEngine(
        SaberConfig(
            execution="processes",
            task_size_bytes=333 * TUPLE_SIZE,
            cpu_workers=2,
            use_gpu=False,
        )
    )
    op = _ExplodingOperator(SYNTHETIC_SCHEMA, [], [AggregateSpec("sum", "a1", "s")])
    query = Query("boom", op, [WindowDefinition.rows(100, 100)])
    engine.add_query(query, [SyntheticSource(seed=1)])
    try:
        with pytest.raises(SimulationError, match="injected operator failure"):
            engine.run(tasks_per_query=8)
    finally:
        engine.shutdown()
    assert not shm_segments()


def test_partial_fork_failure_reaps_started_workers(monkeypatch):
    """A fork that fails on worker k must not strand workers 0..k-1.

    ``Process.start`` raises (EAGAIN / rlimit) on the second worker: the
    typed error surfaces, the already-started worker is reaped before
    ``run`` returns, and the engine is still usable afterwards.
    """
    import errno

    process_class = multiprocessing.get_context("fork").Process
    real_start = process_class.start
    starts = []

    def flaky_start(self):
        starts.append(self.name)
        if len(starts) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        real_start(self)

    monkeypatch.setattr(process_class, "start", flaky_start)
    engine = SaberEngine(
        SaberConfig(
            execution="processes",
            task_size_bytes=333 * TUPLE_SIZE,
            cpu_workers=3,
            use_gpu=False,
        )
    )
    query = select_query(4)
    engine.add_query(query, [SyntheticSource(seed=1)])
    try:
        with pytest.raises(SimulationError, match="could not start worker process"):
            engine.run(tasks_per_query=4)
        assert len(starts) == 2
        assert multiprocessing.active_children() == []
        report = engine.run(tasks_per_query=4)  # forks afresh, all three start
        assert len(report.measurements.records) == 4
    finally:
        engine.shutdown()
    assert multiprocessing.active_children() == []
    assert not shm_segments()


# -- backend plumbing ----------------------------------------------------------


def test_stat_model_runs_on_processes():
    """execute_data=False works on the processes backend too."""
    engine = SaberEngine(
        SaberConfig(execution="processes", execute_data=False, cpu_workers=2)
    )
    engine.add_query(select_query(4), None)
    try:
        report = engine.run(tasks_per_query=10)
    finally:
        engine.shutdown()
    assert len(report.measurements.records) == 10
    assert report.elapsed_seconds > 0


def test_processes_report_uses_wall_clock():
    import time

    engine = SaberEngine(
        SaberConfig(
            execution="processes",
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=2,
            queue_capacity=8,
        )
    )
    query = select_query(2)
    engine.add_query(query, [SyntheticSource(seed=1)])
    started = time.perf_counter()
    try:
        report = engine.run(tasks_per_query=6)
    finally:
        engine.shutdown()
    wall = time.perf_counter() - started
    assert 0 < report.elapsed_seconds <= wall
    assert report.outputs[query.name] is not None
