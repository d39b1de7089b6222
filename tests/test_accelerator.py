"""Executable accelerator: the operator behind movein/moveout, hybrid HLS dispatch, metrics.

The accelerator occupies the GPGPU slot on both real substrates
(``threads`` and ``processes``), alone (``use_cpu=False``) or next to
the CPU workers under HLS (the hybrid topology), and must stay
*invisible* to query semantics — every workload here runs through sim
and both substrates and demands bitwise-identical windows.  On top of
that the suite pins the device's own machinery: the transfer stage
accounts its bytes and seconds (in the parent, even when the device
runs in a forked worker), HLS throughput-matrix feedback migrates tasks
off a deliberately skewed (throttled) device, and the
``saber_accel_*``/``saber_hls_*`` series export the device's state.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.core.scheduler import CPU, GPU
from repro.errors import SimulationError
from repro.gpu.accelerator import AcceleratorDevice
from repro.hardware.slots import DeviceSlot, device_slots
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.base import StreamSlice
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.selection import Selection
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.assigner import WindowSet, assign_count_windows
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import (
    TUPLE_SIZE,
    SyntheticSource,
    groupby_query,
    join_query,
    proj_query,
    select_query,
)


#: the GPGPU topologies, by ``use_cpu``/``use_gpu``.
TOPOLOGIES = {"accelerator": {"use_cpu": False}, "hybrid": {}}

#: every topology on both real substrates; the threads legs keep the
#: bare topology name.
DEVICE_LEGS = [
    pytest.param(
        substrate, flags, id=name if substrate == "threads" else f"{name}-{substrate}"
    )
    for substrate in ("threads", "processes")
    for name, flags in TOPOLOGIES.items()
]


def _needs_fork(execution):
    if execution == "processes" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("processes backend needs POSIX fork")


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
    _needs_fork(execution)
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
        report = engine.run(tasks_per_query=n_tasks)
    finally:
        engine.shutdown()
    return report.outputs[query.name], engine


def assert_identical(expected, actual):
    assert (expected is None) == (actual is None)
    if expected is None:
        return
    assert len(expected) == len(actual)
    assert np.array_equal(expected.data, actual.data)


# -- the device in isolation ---------------------------------------------------


def _one_slice(seed=1, tuples=500):
    batch = SyntheticSource(seed=seed).next_tuples(tuples)
    return [StreamSlice(batch, WindowSet.empty(), 0)]


def test_device_selection_matches_cpu_operator():
    query = select_query(16, pass_rate=0.5)
    inputs = _one_slice()
    device = AcceleratorDevice()
    accel = device.execute(query.operator, inputs)
    cpu = query.operator.process_batch(inputs)
    assert np.array_equal(accel.complete.data, cpu.complete.data)
    assert accel.stats["selectivity"] == cpu.stats["selectivity"]


def test_device_accounts_transfers():
    query = select_query(4, pass_rate=0.5)
    inputs = _one_slice()
    device = AcceleratorDevice()
    device.execute(query.operator, inputs)
    snap = device.stats.snapshot()
    assert snap["tasks"] == 1
    assert snap["bytes_in"] == inputs[0].batch.size_bytes
    assert snap["bytes_out"] > 0  # ~half the rows survive the predicate
    assert snap["transfer_seconds_modeled"] > 0
    assert snap["transfer_seconds_measured"] >= 0
    assert snap["kernel_seconds"] > 0


def test_device_does_not_mutate_inputs():
    """Movein stages copies; the caller's batch stays untouched."""
    query = select_query(4, pass_rate=0.5)
    inputs = _one_slice()
    before = inputs[0].batch.data.copy()
    AcceleratorDevice().execute(query.operator, inputs)
    assert np.array_equal(inputs[0].batch.data, before)


def test_device_rejects_negative_throttle():
    with pytest.raises(ValueError):
        AcceleratorDevice(throttle_seconds=-0.1)


KV = Schema.with_timestamp("v:float, k:int")


def _kv_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return TupleBatch.from_columns(
        KV,
        timestamp=np.arange(n, dtype=np.int64),
        v=rng.random(n, dtype=np.float32),
        k=rng.integers(0, 8, n).astype(np.int32),
    )


def _windowed(data, window):
    return [StreamSlice(data, assign_count_windows(window, 0, len(data)), 0)]


class TestKernelEquivalence:
    """The device runs the operator itself: a task's bytes are those of
    ``operator.process_batch`` on the same slices."""

    def test_selection_kernel_matches_cpu(self):
        op = Selection(KV, (col("v") < 0.5) & (col("k") < 6))
        slices = _windowed(_kv_batch(500), WindowDefinition.rows(64))
        cpu = op.process_batch(slices)
        gpu = AcceleratorDevice().execute(op, slices)
        assert len(cpu.complete) and cpu.complete.data.tobytes() == gpu.complete.data.tobytes()
        assert cpu.stats == gpu.stats

    def test_join_kernel_matches_cpu(self):
        """Sliding windows, boundary partials included."""
        left = Schema.with_timestamp("x:int", name="L")
        right = Schema.with_timestamp("y:int", name="R")
        rng = np.random.default_rng(5)
        lb = TupleBatch.from_columns(
            left, timestamp=np.arange(64, dtype=np.int64),
            x=rng.integers(0, 100, 64).astype(np.int32),
        )
        rb = TupleBatch.from_columns(
            right, timestamp=np.arange(64, dtype=np.int64),
            y=rng.integers(0, 100, 64).astype(np.int32),
        )
        w = WindowDefinition.rows(16, 4)
        slices = [
            StreamSlice(lb, assign_count_windows(w, 32, 96), 32),
            StreamSlice(rb, assign_count_windows(w, 32, 96), 32),
        ]
        for predicate in (col("x") < col("y"), (col("x") % 7).eq(col("y") % 7)):
            op = ThetaJoin(left, right, predicate)
            cpu = op.process_batch(slices)
            gpu = AcceleratorDevice().execute(op, slices)
            assert len(cpu.complete) and cpu.complete.data.tobytes() == gpu.complete.data.tobytes()
            assert len(cpu.partials) == 6
            assert cpu.partials.ids.tolist() == gpu.partials.ids.tolist()
            assert cpu.partials.done.tolist() == gpu.partials.done.tolist()
            for side, other in zip(cpu.partials.sides, gpu.partials.sides):
                assert side.rows.tobytes() == other.rows.tobytes()
                assert side.spans.tolist() == other.spans.tolist()
            assert cpu.stats == gpu.stats

    def test_aggregation_path_matches(self):
        op = GroupedAggregation(KV, [], [AggregateSpec("sum", "v"), AggregateSpec("max", "v")])
        slices = _windowed(_kv_batch(512), WindowDefinition.rows(128, 32))
        cpu = op.process_batch(slices)
        gpu = AcceleratorDevice().execute(op, slices)
        assert len(cpu.complete) and cpu.complete.data.tobytes() == gpu.complete.data.tobytes()

    def test_groupby_path_matches(self):
        op = GroupedAggregation(KV, ["k"], [AggregateSpec("avg", "v")])
        slices = _windowed(_kv_batch(256), WindowDefinition.rows(64, 64))
        cpu = op.process_batch(slices)
        gpu = AcceleratorDevice().execute(op, slices)
        assert len(cpu.complete) and cpu.complete.data.tobytes() == gpu.complete.data.tobytes()


# -- configuration surface -----------------------------------------------------


def test_execution_names_only_the_substrate():
    """There is no ``"accelerator"`` value: the GPGPU slot alone is
    ``use_cpu=False`` on a real substrate."""
    with pytest.raises(SimulationError, match="unknown execution"):
        SaberConfig(execution="accelerator")
    config = SaberConfig(execution="threads", use_cpu=False)
    engine = SaberEngine(config)
    assert engine.accelerator is not None
    assert [(s.processor, s.workers) for s in engine.device_slots()] == [(GPU, 1)]


def test_hybrid_config_requires_both_slots():
    with pytest.raises(SimulationError):
        SaberConfig(execution="hybrid", use_gpu=False)
    with pytest.raises(SimulationError):
        SaberConfig(execution="hybrid", use_cpu=False)
    # The spelling is accepted and normalised away: nothing reads it.
    assert SaberConfig(execution="hybrid").execution == "threads"


def test_non_accelerator_backends_have_no_device():
    assert SaberEngine(SaberConfig(execution="sim")).accelerator is None
    for execution in ("threads", "processes"):
        config = SaberConfig(execution=execution, use_gpu=False)
        assert SaberEngine(config).accelerator is None


def test_device_slots_table():
    threads = device_slots(SaberConfig(execution="threads", cpu_workers=3))
    assert threads == (
        DeviceSlot("CPU", "threads", 3),
        DeviceSlot("GPGPU", "accelerator", 1),
    )
    accel = device_slots(SaberConfig(execution="processes", use_cpu=False))
    assert accel == (DeviceSlot("GPGPU", "accelerator", 1),)
    sim = device_slots(SaberConfig(execution="sim", cpu_workers=2))
    assert sim[-1] == DeviceSlot("GPGPU", "gpu-model", 1)


# -- backend equivalence (bitwise against sim) ---------------------------------


@pytest.mark.parametrize("execution, topology", DEVICE_LEGS)
def test_selection_equivalence(execution, topology):
    sim, __ = run_backend("sim", lambda: select_query(16, pass_rate=0.5), [7])
    out, __ = run_backend(
        execution, lambda: select_query(16, pass_rate=0.5), [7], **topology
    )
    assert_identical(sim, out)


@pytest.mark.parametrize("execution, topology", DEVICE_LEGS)
def test_projection_equivalence(execution, topology):
    sim, __ = run_backend("sim", lambda: proj_query(4), [9])
    out, __ = run_backend(execution, lambda: proj_query(4), [9], **topology)
    assert_identical(sim, out)


@pytest.mark.parametrize("execution, topology", DEVICE_LEGS)
def test_groupby_equivalence(execution, topology):
    make = lambda: groupby_query(5, functions=["cnt", "sum"])  # noqa: E731
    kwargs = dict(task_tuples=250, source_kwargs=dict(groups=5))
    sim, __ = run_backend("sim", make, [11], **kwargs)
    out, __ = run_backend(execution, make, [11], **kwargs, **topology)
    assert_identical(sim, out)


@pytest.mark.parametrize("execution, topology", DEVICE_LEGS)
def test_join_equivalence(execution, topology):
    kwargs = dict(task_tuples=100, n_tasks=8)
    sim, __ = run_backend("sim", lambda: join_query(1), [17, 18], **kwargs)
    out, __ = run_backend(execution, lambda: join_query(1), [17, 18], **kwargs, **topology)
    assert_identical(sim, out)


def test_accelerator_executes_every_task(execution="threads"):
    """With the GPGPU slot alone no task may bypass the device."""
    __, engine = run_backend(
        execution, lambda: select_query(8, pass_rate=0.5), [19], n_tasks=10, use_cpu=False
    )
    assert engine.accelerator.stats.snapshot()["tasks"] == 10
    assert all(r.processor == GPU for r in engine.measurements.records)


def test_accelerator_executes_every_task_on_processes():
    test_accelerator_executes_every_task("processes")


def test_movein_is_the_only_copy_of_a_device_bound_task(execution="threads"):
    """A task bound for the device is read in place (a view of the ring —
    of the shared segment on processes) and staged by movein: what the
    kernel sees never aliases the ring."""
    _needs_fork(execution)
    engine = SaberEngine(
        SaberConfig(execution=execution, use_cpu=False, task_size_bytes=333 * TUPLE_SIZE)
    )
    query = select_query(8, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=19)])
    (ring,) = engine.runs[0].dispatcher.buffers
    stage_in = engine.accelerator._stage_in
    # [tasks, inputs aliasing the ring, staged copies aliasing the ring],
    # in memory a forked device worker shares with this process.
    seen = multiprocessing.Array("i", 3, lock=False)

    def spy(inputs):
        staged, bytes_in = stage_in(inputs)
        seen[0] += 1
        seen[1] += np.shares_memory(inputs[0].batch.data, ring._store.array)
        seen[2] += np.shares_memory(staged[0].batch.data, ring._store.array)
        return staged, bytes_in

    engine.accelerator._stage_in = spy
    try:
        engine.run(tasks_per_query=10)
    finally:
        engine.shutdown()
    assert list(seen) == [10, 10, 0]  # 10 tasks do not wrap the 96-task ring


def test_movein_is_the_only_copy_of_a_device_bound_task_on_processes():
    test_movein_is_the_only_copy_of_a_device_bound_task("processes")


def test_processes_device_stats_match_the_gpgpu_task_records():
    """The device runs in a forked worker, but its accounting lands in
    the parent's stats: one task and its input bytes per GPGPU record."""
    __, engine = run_backend(
        "processes", lambda: select_query(8, pass_rate=0.5), [23], n_tasks=30, cpu_workers=1
    )
    gpgpu = [r for r in engine.measurements.records if r.processor == GPU]
    snapshot = engine.accelerator.stats.snapshot()
    assert gpgpu
    assert snapshot["tasks"] == len(gpgpu)
    assert snapshot["bytes_in"] == sum(r.input_bytes for r in gpgpu)
    assert snapshot["kernel_seconds"] > 0


def test_processes_fork_while_a_parent_thread_holds_the_stats_lock():
    """A ``/metrics`` scrape may hold the stats lock when the run forks;
    the child's copy of that lock is never released, so a device worker
    that took it would hang the run."""
    _needs_fork("processes")
    engine = SaberEngine(
        SaberConfig(
            execution="processes", use_cpu=False, task_size_bytes=128 * TUPLE_SIZE
        )
    )
    query = select_query(4, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=29)])
    held = threading.Event()

    def scrape():
        # Held well past the fork; the parent's own record waits for
        # the release, the children must not need it.
        with engine.accelerator.stats._lock:
            held.set()
            time.sleep(0.5)

    scraper = threading.Thread(target=scrape)
    scraper.start()
    assert held.wait(timeout=5)
    finished = []

    def run():
        finished.append(engine.run(tasks_per_query=8))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert finished, "the processes run hung on the inherited stats lock"
    scraper.join()
    engine.shutdown()
    assert engine.accelerator.stats.snapshot()["tasks"] == 8


def test_hybrid_repeated_runs_shake_out_races():
    """Many tasks + tiny queue vary the CPU/accelerator interleavings."""
    for seed in (1, 2, 3):
        make = lambda: select_query(8, pass_rate=0.4)  # noqa: E731
        kwargs = dict(task_tuples=128, n_tasks=40, cpu_workers=4, queue_capacity=4)
        sim, __ = run_backend("sim", make, [seed], **kwargs)
        hyb, __ = run_backend("threads", make, [seed], **kwargs)
        assert_identical(sim, hyb)


# -- HLS feedback under a skewed device ----------------------------------------


def _hybrid_counts(throttle_seconds, execution, seed=31, n_tasks=40, **config):
    _needs_fork(execution)
    engine = SaberEngine(
        SaberConfig(
            execution=execution,
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=2,
            **{"queue_capacity": 8, **config},
        )
    )
    # The skew knob lives on the device, not in the engine configuration
    # (a forked device worker inherits it at run()).
    engine.accelerator.throttle_seconds = throttle_seconds
    query = select_query(8, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=seed)])
    try:
        out = engine.run(tasks_per_query=n_tasks).outputs[query.name]
    finally:
        engine.shutdown()
    gpu_tasks = sum(1 for r in engine.measurements.records if r.processor == GPU)
    return out, engine, gpu_tasks


def test_hls_migrates_off_throttled_accelerator(execution="threads"):
    """A skewed device loses the schedule — and never the semantics.

    With the accelerator throttled to tens of milliseconds per task, its
    observed throughput collapses; once the matrix refreshes, HLS stops
    preferring the GPGPU slot and the work lands back on the CPU
    workers (only the work-conserving backlog fallback still feeds the
    device occasionally).  The output must stay bitwise identical to
    sim regardless of where tasks ran.
    """
    n_tasks = 40
    sim, __ = run_backend(
        "sim",
        lambda: select_query(8, pass_rate=0.5),
        [31],
        task_tuples=128,
        n_tasks=n_tasks,
        cpu_workers=2,
        queue_capacity=8,
    )
    out, engine, gpu_tasks = _hybrid_counts(0.03, execution, n_tasks=n_tasks)
    assert_identical(sim, out)
    # The throttled device must not win the schedule: the CPU workers
    # take the clear majority of tasks.
    assert gpu_tasks < n_tasks / 2
    matrix = engine.scheduler.matrix
    if gpu_tasks:
        # The device completed work, so the matrix observed its collapsed
        # throughput: the GPGPU cell must sit below the CPU cell, which
        # is exactly the signal HLS migrates on.
        query_name = engine.runs[0].query.name
        assert matrix.value(query_name, GPU) < matrix.value(query_name, CPU)


def test_hls_migrates_off_throttled_accelerator_on_processes():
    test_hls_migrates_off_throttled_accelerator("processes")


def test_unthrottled_hybrid_keeps_device_productive(execution="threads"):
    """Without skew, sustained load reaches the accelerator too.

    Alg. 1 guarantees it through the switch threshold, whatever order
    the workers poll in: after ``st`` consecutive CPU tasks line 6
    refuses the CPU and offers the next task to the device, and only a
    taken task resets the CPU's count (line 7).  The line-12 fallback
    could take that turn away — a CPU worker taking the last queued task
    resets the count too — but it needs ``fallback_backlog`` queued
    tasks, and a queue of 3 never holds that many.  At the default
    threshold (1000) the device got work only when it happened to poll
    during a backlog, which thread wake-up order decided.
    """
    n_tasks, threshold, capacity = 60, 8, 3
    out, engine, gpu_tasks = _hybrid_counts(
        0.0, execution, n_tasks=n_tasks, switch_threshold=threshold, queue_capacity=capacity
    )
    assert out is not None
    assert threshold < n_tasks and capacity < engine.scheduler.fallback_backlog
    # Zero would mean the GPGPU slot is dead.
    assert gpu_tasks > 0
    assert engine.accelerator.stats.snapshot()["tasks"] == gpu_tasks


def test_unthrottled_hybrid_keeps_device_productive_on_processes():
    test_unthrottled_hybrid_keeps_device_productive("processes")


# -- metrics export ------------------------------------------------------------


def _engine_registry(engine):
    from repro.metrics import MetricsRegistry, engine_samples

    registry = MetricsRegistry()
    registry.register_collector(lambda: engine_samples(engine, tenant="t"))
    return registry


def test_accelerator_metrics_exported(execution="threads"):
    _needs_fork(execution)
    engine = SaberEngine(
        SaberConfig(
            execution=execution,
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=2,
            queue_capacity=8,
        )
    )
    registry = _engine_registry(engine)
    query = select_query(4, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=41)])
    try:
        engine.run(tasks_per_query=30)
    finally:
        engine.shutdown()

    snapshot = engine.accelerator.stats.snapshot()
    assert registry.value("saber_accel_tasks_total", tenant="t") == snapshot["tasks"]
    assert (
        registry.value("saber_accel_bytes_total", tenant="t", direction="in")
        == snapshot["bytes_in"]
    )
    assert registry.value(
        "saber_accel_transfer_seconds_total", tenant="t", kind="modeled"
    ) == pytest.approx(snapshot["transfer_seconds_modeled"])
    # The HLS matrix series expose every (query, processor) cell.
    matrix = engine.scheduler.matrix
    for processor in (CPU, GPU):
        assert registry.value(
            "saber_hls_matrix_throughput",
            tenant="t",
            query=query.name,
            processor=processor,
        ) == pytest.approx(matrix.value(query.name, processor))
    assert registry.value("saber_hls_matrix_refreshes_total", tenant="t") == len(
        matrix.history
    )
    rendered = registry.render()
    assert "# TYPE saber_accel_tasks_total counter" in rendered
    assert "saber_hls_matrix_throughput" in rendered


def test_accelerator_metrics_exported_on_processes():
    test_accelerator_metrics_exported("processes")


def test_non_accelerator_engine_exports_no_accel_series():
    engine = SaberEngine(SaberConfig(execution="threads", cpu_workers=2, use_gpu=False))
    snapshot = _engine_registry(engine).snapshot()
    assert not any(name.startswith("saber_accel_") for name in snapshot)


# -- CLI surface ---------------------------------------------------------------


class TestCli:
    def _run(self, capsys, *extra):
        from repro.cli import main

        code = main(
            [
                "run",
                "CM1",
                "--tasks",
                "6",
                "--task-size",
                "65536",
                "--workers",
                "2",
                "--show-rows",
                "0",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_hybrid_execution(self, capsys):
        out = self._run(capsys, "--execution", "threads")
        assert "devices    : CPU:threadsx2, GPGPU:acceleratorx1" in out
        assert "wall-clock" in out

    def test_hybrid_execution_on_processes(self, capsys):
        out = self._run(capsys, "--execution", "processes")
        assert "devices    : CPU:processesx2, GPGPU:acceleratorx1" in out

    def test_removed_execution_values_are_rejected(self, capsys):
        from repro.cli import main

        for value in ("accelerator", "hybrid"):
            with pytest.raises(SystemExit):
                main(["run", "CM1", "--execution", value])
        assert "invalid choice" in capsys.readouterr().err

