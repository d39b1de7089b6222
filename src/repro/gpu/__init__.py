"""GPGPU substrate: simulated data path models + the executable accelerator."""

from .pcie import DEFAULT_PCIE, PcieBus
from .pipeline import STAGES, MovementPipeline, StageTiming
from .accelerator import AcceleratorDevice, AcceleratorStats

__all__ = [
    "AcceleratorDevice",
    "AcceleratorStats",
    "PcieBus",
    "DEFAULT_PCIE",
    "MovementPipeline",
    "StageTiming",
    "STAGES",
]
