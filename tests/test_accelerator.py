"""Executable accelerator backend: kernels, hybrid HLS dispatch, metrics.

The acceptance bar mirrors the threads/processes backends: the
accelerator ("accelerator" alone on the GPGPU slot, "hybrid" next to
CPU worker threads under HLS) must stay *invisible* to query semantics
— every workload here runs through sim and the new backends and
demands bitwise-identical windows.  On top of that the suite pins the
backend's own machinery: the transfer stage accounts its bytes and
seconds, HLS throughput-matrix feedback migrates tasks off a
deliberately skewed (throttled) device, and the ``saber_accel_*``/``saber_hls_*`` series export the
device's state.
"""

import os

import numpy as np
import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.core.scheduler import CPU, GPU
from repro.errors import SimulationError
from repro.gpu.accelerator import AcceleratorDevice
from repro.hardware.slots import DeviceSlot, device_slots
from repro.operators.base import StreamSlice
from repro.windows.assigner import WindowSet
from repro.workloads.synthetic import (
    TUPLE_SIZE,
    SyntheticSource,
    agg_query,
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
    sources = [SyntheticSource(seed=s, **(source_kwargs or {})) for s in seeds]
    engine.add_query(query, sources)
    report = engine.run(tasks_per_query=n_tasks)
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


# -- configuration surface -----------------------------------------------------


def test_accelerator_config_forces_gpu_only_topology():
    config = SaberConfig(execution="accelerator")
    assert not config.use_cpu
    assert config.use_gpu
    engine = SaberEngine(config)
    assert engine.accelerator is not None
    assert [(s.processor, s.workers) for s in engine.device_slots()] == [(GPU, 1)]


def test_hybrid_config_requires_both_slots():
    with pytest.raises(SimulationError):
        SaberConfig(execution="hybrid", use_gpu=False)
    with pytest.raises(SimulationError):
        SaberConfig(execution="hybrid", use_cpu=False)


def test_non_accelerator_backends_have_no_device():
    for execution in ("sim", "threads"):
        assert SaberEngine(SaberConfig(execution=execution)).accelerator is None


def test_device_slots_table():
    hybrid = device_slots(SaberConfig(execution="hybrid", cpu_workers=3))
    assert hybrid == (
        DeviceSlot("CPU", "thread", 3),
        DeviceSlot("GPGPU", "accelerator", 1),
    )
    accel = device_slots(SaberConfig(execution="accelerator"))
    assert accel == (DeviceSlot("GPGPU", "accelerator", 1),)
    sim = device_slots(SaberConfig(execution="sim", cpu_workers=2))
    assert sim[-1] == DeviceSlot("GPGPU", "gpu-model", 1)


# -- backend equivalence (bitwise against sim) ---------------------------------


@pytest.mark.parametrize("execution", ["accelerator", "hybrid"])
def test_selection_equivalence(execution):
    sim, __ = run_backend("sim", lambda: select_query(16, pass_rate=0.5), [7])
    out, __ = run_backend(execution, lambda: select_query(16, pass_rate=0.5), [7])
    assert_identical(sim, out)


@pytest.mark.parametrize("execution", ["accelerator", "hybrid"])
def test_projection_equivalence(execution):
    sim, __ = run_backend("sim", lambda: proj_query(4), [9])
    out, __ = run_backend(execution, lambda: proj_query(4), [9])
    assert_identical(sim, out)


@pytest.mark.parametrize("execution", ["accelerator", "hybrid"])
def test_groupby_equivalence(execution):
    make = lambda: groupby_query(5, functions=["cnt", "sum"])  # noqa: E731
    kwargs = dict(task_tuples=250, source_kwargs=dict(groups=5))
    sim, __ = run_backend("sim", make, [11], **kwargs)
    out, __ = run_backend(execution, make, [11], **kwargs)
    assert_identical(sim, out)


@pytest.mark.parametrize("execution", ["accelerator", "hybrid"])
def test_join_equivalence(execution):
    kwargs = dict(task_tuples=100, n_tasks=8)
    sim, __ = run_backend("sim", lambda: join_query(1), [17, 18], **kwargs)
    out, __ = run_backend(execution, lambda: join_query(1), [17, 18], **kwargs)
    assert_identical(sim, out)


def test_accelerator_executes_every_task():
    """On the accelerator-only backend no task may bypass the device."""
    __, engine = run_backend(
        "accelerator", lambda: select_query(8, pass_rate=0.5), [19], n_tasks=10
    )
    assert engine.accelerator.stats.snapshot()["tasks"] == 10
    assert all(r.processor == GPU for r in engine.measurements.records)


def test_movein_is_the_only_copy_of_a_device_bound_task():
    """A task bound for the device is read in place (a view of the ring)
    and staged by movein: what the kernel sees never aliases the ring."""
    engine = SaberEngine(
        SaberConfig(execution="accelerator", task_size_bytes=333 * TUPLE_SIZE)
    )
    query = select_query(8, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=19)])
    (ring,) = engine.runs[0].dispatcher.buffers
    stage_in = engine.accelerator._stage_in
    seen = []

    def spy(inputs):
        staged, bytes_in = stage_in(inputs)
        seen.append(
            (
                np.shares_memory(inputs[0].batch.data, ring._store.array),
                np.shares_memory(staged[0].batch.data, ring._store.array),
            )
        )
        return staged, bytes_in

    engine.accelerator._stage_in = spy
    engine.run(tasks_per_query=10)
    assert seen == [(True, False)] * 10  # 10 tasks do not wrap the 96-task ring


def test_hybrid_repeated_runs_shake_out_races():
    """Many tasks + tiny queue vary the CPU/accelerator interleavings."""
    for seed in (1, 2, 3):
        make = lambda: select_query(8, pass_rate=0.4)  # noqa: E731
        kwargs = dict(task_tuples=128, n_tasks=40, cpu_workers=4, queue_capacity=4)
        sim, __ = run_backend("sim", make, [seed], **kwargs)
        hyb, __ = run_backend("hybrid", make, [seed], **kwargs)
        assert_identical(sim, hyb)


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 3,
    reason="the hybrid leg runs 2 CPU workers + the accelerator: on fewer than 3 cores "
    "the devices time-slice and the comparison is noise",
)
def test_hybrid_beats_both_single_devices_on_two_workloads():
    """The paper's headline claim in wall-clock time (``slow``: run by hand with ``-m slow``)."""
    workloads = {
        "PROJ4": (lambda: proj_query(4), [31]),
        "SELECT16": (lambda: select_query(16, pass_rate=0.5), [32]),
        "AGG*": (
            lambda: agg_query(["avg", "sum", "min", "max", "count"], name="AGGstar"),
            [33],
        ),
        "GROUP-BY8": (lambda: groupby_query(8, functions=["cnt", "sum"]), [34]),
        "JOIN1": (lambda: join_query(1), [35, 36]),
    }
    legs = {
        "cpu": ("threads", {"use_gpu": False}),
        "accelerator": ("accelerator", {}),
        "hybrid": ("hybrid", {}),
    }

    def rate(execution, extra, make, seeds):
        __, engine = run_backend(
            execution,
            make,
            seeds,
            task_tuples=8192,
            n_tasks=64,
            cpu_workers=2,
            queue_capacity=16,
            source_kwargs=dict(groups=8),
            **extra,
        )
        return engine.measurements.throughput_bytes()

    wins = []
    for label, (make, seeds) in workloads.items():
        # Best of three per leg: interference from the box only ever slows a run.
        best = {
            leg: max(rate(execution, extra, make, seeds) for __ in range(3))
            for leg, (execution, extra) in legs.items()
        }
        if best["hybrid"] > max(best["cpu"], best["accelerator"]):
            wins.append(label)
    assert len(wins) >= 2, wins


# -- HLS feedback under a skewed device ----------------------------------------


def _hybrid_counts(throttle_seconds, seed=31, n_tasks=40):
    engine = SaberEngine(
        SaberConfig(
            execution="hybrid",
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=2,
            queue_capacity=8,
        )
    )
    # The skew knob lives on the device, not in the engine configuration.
    engine.accelerator.throttle_seconds = throttle_seconds
    query = select_query(8, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=seed)])
    out = engine.run(tasks_per_query=n_tasks).outputs[query.name]
    gpu_tasks = sum(1 for r in engine.measurements.records if r.processor == GPU)
    return out, engine, gpu_tasks


def test_hls_migrates_off_throttled_accelerator():
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
    out, engine, gpu_tasks = _hybrid_counts(0.03, n_tasks=n_tasks)
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


def test_unthrottled_hybrid_keeps_device_productive():
    """Without skew, sustained load reaches the accelerator too."""
    out, engine, gpu_tasks = _hybrid_counts(0.0, n_tasks=60)
    assert out is not None
    # The backlog fallback alone guarantees the device sees work under
    # sustained dispatch; zero would mean the GPGPU slot is dead.
    assert gpu_tasks > 0
    assert engine.accelerator.stats.snapshot()["tasks"] == gpu_tasks


# -- metrics export ------------------------------------------------------------


def _engine_registry(engine):
    from repro.metrics import MetricsRegistry, engine_samples

    registry = MetricsRegistry()
    registry.register_collector(lambda: engine_samples(engine, tenant="t"))
    return registry


def test_accelerator_metrics_exported():
    engine = SaberEngine(
        SaberConfig(
            execution="hybrid",
            task_size_bytes=128 * TUPLE_SIZE,
            cpu_workers=2,
            queue_capacity=8,
        )
    )
    registry = _engine_registry(engine)
    query = select_query(4, pass_rate=0.5)
    engine.add_query(query, [SyntheticSource(seed=41)])
    engine.run(tasks_per_query=30)

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


def test_non_accelerator_engine_exports_no_accel_series():
    engine = SaberEngine(SaberConfig(execution="threads", cpu_workers=2))
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
        out = self._run(capsys, "--execution", "hybrid")
        assert "devices    : CPU:threadx2, GPGPU:acceleratorx1" in out
        assert "wall-clock" in out

    def test_accelerator_only_execution(self, capsys):
        out = self._run(capsys, "--execution", "accelerator")
        assert "devices    : GPGPU:acceleratorx1" in out

