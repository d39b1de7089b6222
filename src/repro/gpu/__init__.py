"""GPGPU substrate: simulated device models + the executable accelerator."""

from .device import DEFAULT_GPU, GpuDeviceSpec
from .pcie import DEFAULT_PCIE, PcieBus
from .pipeline import STAGES, MovementPipeline, StageTiming
from .kernels import gpu_join, gpu_kernel, gpu_selection
from .jit import HAVE_NUMBA, compact_mask
from .accelerator import AcceleratorDevice, AcceleratorStats

__all__ = [
    "AcceleratorDevice",
    "AcceleratorStats",
    "HAVE_NUMBA",
    "compact_mask",
    "GpuDeviceSpec",
    "DEFAULT_GPU",
    "PcieBus",
    "DEFAULT_PCIE",
    "MovementPipeline",
    "StageTiming",
    "STAGES",
    "gpu_kernel",
    "gpu_selection",
    "gpu_join",
]
