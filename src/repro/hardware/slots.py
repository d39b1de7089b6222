"""Device slots: which workers an engine configuration brings up.

The HLS scheduler reasons about *processor names* ("CPU", "GPGPU" —
the throughput-matrix row keys), while the engine brings up *workers*
to fill those slots.  Two orthogonal settings decide them:
``SaberConfig.execution`` names the substrate that runs the workers
and owns the clock (:data:`EXECUTIONS`), and ``use_cpu``/``use_gpu``
are the topology.  :func:`device_slots` is the single place the two
are combined; the executors' worker spawning, the engine's device
wiring and the CLI banner all read it.

The processor names are string literals here (matching
``repro.core.scheduler.CPU``/``GPU``) rather than imports, because the
core engine imports this package — importing core back would cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

#: processor slot names, mirroring ``repro.core.scheduler``.
CPU_SLOT = "CPU"
GPU_SLOT = "GPGPU"

#: the public ``execution`` values — the substrate: a virtual-time
#: event loop, worker threads, or forked worker processes.
EXECUTIONS = ("sim", "threads", "processes")
#: the substrates that run on the wall clock (serving and cluster shards).
WALL_CLOCK_EXECUTIONS = ("threads", "processes")


@dataclass(frozen=True)
class DeviceSlot:
    """One processor slot of a configured engine.

    ``processor`` is the scheduler-facing slot name ("CPU" or "GPGPU");
    ``kind`` names what occupies it — the substrate for the CPU slot;
    the calibrated cost model (``"gpu-model"``) under ``sim`` and the
    executable :class:`~repro.gpu.accelerator.AcceleratorDevice`
    (``"accelerator"``) everywhere else for the GPGPU slot; ``workers``
    how many workers serve the slot (always 1 for the GPGPU slot).
    """

    processor: str
    kind: str  # "sim" | "threads" | "processes" | "gpu-model" | "accelerator"
    workers: int


def device_slots(config) -> "tuple[DeviceSlot, ...]":
    """Slot table for a validated ``SaberConfig`` (duck-typed to avoid
    a cycle)."""
    slots = []
    if config.use_cpu:
        slots.append(DeviceSlot(CPU_SLOT, config.execution, config.cpu_workers))
    if config.use_gpu:
        gpu_kind = "gpu-model" if config.execution == "sim" else "accelerator"
        slots.append(DeviceSlot(GPU_SLOT, gpu_kind, 1))
    return tuple(slots)
