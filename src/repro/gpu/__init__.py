"""GPGPU substrate: simulated device models + the executable accelerator."""

from .device import DEFAULT_GPU, GpuDeviceSpec
from .pcie import DEFAULT_PCIE, PcieBus
from .pipeline import STAGES, MovementPipeline, StageTiming
from .kernels import gpu_kernel, gpu_selection
from .accelerator import AcceleratorDevice, AcceleratorStats

__all__ = [
    "AcceleratorDevice",
    "AcceleratorStats",
    "GpuDeviceSpec",
    "DEFAULT_GPU",
    "PcieBus",
    "DEFAULT_PCIE",
    "MovementPipeline",
    "StageTiming",
    "STAGES",
    "gpu_kernel",
    "gpu_selection",
]
