"""Device slots: which workers an engine configuration brings up.

The HLS scheduler reasons about *processor names* ("CPU", "GPGPU" —
the throughput-matrix row keys), while the engine brings up *workers*
(simulated, threads, forked processes, or the executable accelerator)
to fill those slots.  This module is the single place where
``SaberConfig.execution`` is interpreted: :data:`EXECUTION_MODES` maps
each public value to an :class:`ExecutionMode` and :func:`device_slots`
applies that row to a configuration.  ``SaberConfig`` validation, the
executors' worker spawning, the engine's device wiring and the CLI
banner all read this table instead of re-deriving it.

The processor names are string literals here (matching
``repro.core.scheduler.CPU``/``GPU``) rather than imports, because the
core engine imports this package — importing core back would cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError

#: processor slot names, mirroring ``repro.core.scheduler``.
CPU_SLOT = "CPU"
GPU_SLOT = "GPGPU"


@dataclass(frozen=True)
class ExecutionMode:
    """What one ``SaberConfig.execution`` value means.

    ``substrate`` is what runs the workers and owns the clock ("sim" —
    virtual-time event loop, "thread", "process"), and is the ``kind``
    of the CPU slot; ``gpu_kind`` names what occupies the GPGPU slot;
    ``topology`` is ``"config"`` when ``use_cpu``/``use_gpu`` choose the
    slots, ``"gpu-only"`` when the mode brings up the GPGPU slot alone
    whatever the flags say, ``"both"`` when it needs both slots live.
    """

    substrate: str
    gpu_kind: str
    topology: str = "config"


#: the five public ``execution`` values.  The GPGPU slot runs the
#: calibrated cost model under ``sim``, the executable accelerator
#: under ``accelerator``/``hybrid`` (on the thread substrate), and a
#: plain worker running the bare GPGPU kernels otherwise.
EXECUTION_MODES: "dict[str, ExecutionMode]" = {
    "sim": ExecutionMode("sim", "gpu-model"),
    "threads": ExecutionMode("thread", "thread"),
    "processes": ExecutionMode("process", "process"),
    "accelerator": ExecutionMode("thread", "accelerator", "gpu-only"),
    "hybrid": ExecutionMode("thread", "accelerator", "both"),
}


@dataclass(frozen=True)
class DeviceSlot:
    """One processor slot of a configured engine.

    ``processor`` is the scheduler-facing slot name ("CPU" or "GPGPU");
    ``kind`` names the substrate occupying it; ``workers`` how many
    workers serve the slot (always 1 for the GPGPU slot).
    """

    processor: str
    kind: str  # "sim" | "thread" | "process" | "accelerator" | "gpu-model"
    workers: int


def device_slots(config) -> "tuple[DeviceSlot, ...]":
    """Slot table for a ``SaberConfig`` (duck-typed to avoid a cycle).

    Raises :class:`~repro.errors.SimulationError` for a configuration
    that brings up no workable topology — this is ``SaberConfig``'s
    validation of ``execution``/``use_cpu``/``use_gpu``/``cpu_workers``.
    """
    mode = EXECUTION_MODES.get(config.execution)
    if mode is None:
        raise SimulationError(
            f"unknown execution backend {config.execution!r} "
            f"(expected one of {', '.join(map(repr, EXECUTION_MODES))})"
        )
    use_cpu, use_gpu = config.use_cpu, config.use_gpu
    if mode.topology == "gpu-only":
        # The device occupies the GPGPU worker slot and no CPU workers
        # come up (scheduling degenerates to FCFS on the single slot,
        # exactly like use_cpu=False sim runs).
        use_cpu, use_gpu = False, True
    elif mode.topology == "both" and not (use_cpu and use_gpu):
        raise SimulationError(
            f"execution={config.execution!r} needs both device slots live "
            "(use_cpu and use_gpu)"
        )
    if not (use_cpu or use_gpu):
        raise SimulationError("enable at least one processor type")
    if use_cpu and config.cpu_workers <= 0:
        raise SimulationError("cpu_workers must be positive when use_cpu")
    slots = []
    if use_cpu:
        slots.append(DeviceSlot(CPU_SLOT, mode.substrate, config.cpu_workers))
    if use_gpu:
        slots.append(DeviceSlot(GPU_SLOT, mode.gpu_kind, 1))
    return tuple(slots)
