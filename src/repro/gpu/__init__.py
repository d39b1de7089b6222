"""GPGPU substrate: simulated device models + the executable accelerator."""

from .device import DEFAULT_GPU, GpuDeviceSpec
from .pcie import DEFAULT_PCIE, PcieBus
from .pipeline import STAGES, MovementPipeline, StageTiming
from .hashtable import OpenAddressingTable
from .kernels import gpu_join, gpu_kernel, gpu_selection, reduction_tree
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
    "OpenAddressingTable",
    "gpu_kernel",
    "gpu_selection",
    "gpu_join",
    "reduction_tree",
]
