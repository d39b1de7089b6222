"""The executable accelerator device: whole-batch kernels + transfer stage.

:mod:`repro.gpu.kernels` defines what a task computes on the GPGPU
slot; this module is the **executable** device around those kernels: it
really runs each query task's operator as whole-batch numpy operations
behind an explicit host↔device transfer stage standing in for PCIe.

One :class:`AcceleratorDevice` occupies the engine's GPGPU worker slot
on every real substrate (``execution="threads"`` or ``"processes"``
with ``use_gpu``) — alone under ``use_cpu=False``, or next to the CPU
workers with HLS picking the device per task from observed throughput
feedback.  Its :meth:`~AcceleratorDevice.execute` is the per-task path:

* **movein** — every input batch is staged into fresh device-side
  storage (a real memcpy, the wall-clock stand-in for the DMA
  transfer), and the modelled PCIe cost of the same bytes
  (:meth:`~repro.gpu.pcie.PcieBus.transfer_seconds`) is recorded next
  to the measured copy time;
* **kernel** — :func:`repro.gpu.kernels.gpu_kernel`, the same dispatch
  the simulated GPGPU slot runs — which is what keeps outputs **bitwise
  identical** to the sim backend and the CPU workers (float reductions
  are never re-ordered);
* **moveout** — complete output rows are copied back out of the staged
  storage, with the modelled PCIe cost of the output bytes recorded
  alongside.

The device keeps cumulative :class:`AcceleratorStats` (tasks, bytes
each way, measured vs modelled transfer seconds, kernel seconds) that
:func:`repro.metrics.engine_samples` exports as ``saber_accel_*``
series at scrape time.  On ``processes`` the device runs in a forked
worker, which hands each task's accounting back to the parent instead
of taking the stats lock (:mod:`repro.core.executor_mp`).
``throttle_seconds`` artificially slows every task — the knob
the HLS skew tests (``tests/test_accelerator.py``) use to prove that
throughput-matrix feedback migrates tasks back to the CPU workers when
the accelerator degrades.
"""

from __future__ import annotations

import time

from ..analysis.lockdep import make_lock
from ..errors import non_negative_finite
from ..operators.base import BatchResult, Operator, StreamSlice
from .kernels import gpu_kernel
from .pcie import DEFAULT_PCIE, PcieBus

__all__ = ["AcceleratorDevice", "AcceleratorStats"]


class AcceleratorStats:
    """Cumulative accelerator counters, updated once per executed task.

    Snapshots are read concurrently by metrics collectors, so updates
    and reads go through one (uncontended) lock.
    """

    def __init__(self) -> None:
        self._lock = make_lock("gpu.accelerator.AcceleratorStats._lock")
        self.tasks = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.transfer_seconds_measured = 0.0
        self.transfer_seconds_modeled = 0.0
        self.kernel_seconds = 0.0

    def record(
        self,
        bytes_in: int,
        bytes_out: int,
        measured: float,
        modeled: float,
        kernel: float,
    ) -> None:
        """Fold one task's transfer/kernel accounting into the totals."""
        with self._lock:
            self.tasks += 1
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out
            self.transfer_seconds_measured += measured
            self.transfer_seconds_modeled += modeled
            self.kernel_seconds += kernel

    def snapshot(self) -> "dict[str, float]":
        """Point-in-time copy of every counter (for metrics and tests)."""
        with self._lock:
            return {
                "tasks": float(self.tasks),
                "bytes_in": float(self.bytes_in),
                "bytes_out": float(self.bytes_out),
                "transfer_seconds_measured": self.transfer_seconds_measured,
                "transfer_seconds_modeled": self.transfer_seconds_modeled,
                "kernel_seconds": self.kernel_seconds,
            }


class AcceleratorDevice:
    """Executable accelerator occupying the engine's GPGPU worker slot."""

    def __init__(
        self,
        pcie: PcieBus = DEFAULT_PCIE,
        throttle_seconds: float = 0.0,
    ) -> None:
        self.pcie = pcie
        self.throttle_seconds = non_negative_finite(
            throttle_seconds, "throttle_seconds", ValueError
        )
        self.stats = AcceleratorStats()

    # -- per-task path ------------------------------------------------------

    def _stage_in(self, inputs: "list[StreamSlice]") -> "tuple[list[StreamSlice], int]":
        """Movein: copy every input batch into device-side storage."""
        staged = []
        bytes_in = 0
        for slice_ in inputs:
            batch = slice_.batch
            bytes_in += batch.size_bytes
            staged.append(StreamSlice(batch.copy(), slice_.windows, slice_.global_start))
        return staged, bytes_in

    def execute(self, operator: Operator, inputs: "list[StreamSlice]") -> BatchResult:
        """Run one query task: movein → kernel → moveout, with accounting."""
        t0 = time.perf_counter()
        staged, bytes_in = self._stage_in(inputs)
        movein_measured = time.perf_counter() - t0

        k0 = time.perf_counter()
        result = gpu_kernel(operator, staged)
        kernel_seconds = time.perf_counter() - k0

        m0 = time.perf_counter()
        bytes_out = 0
        if result.complete is not None:
            # Moveout: the complete rows leave device storage by copy.
            bytes_out = result.complete.size_bytes
            result.complete = result.complete.copy()
        moveout_measured = time.perf_counter() - m0

        modeled = self.pcie.transfer_seconds(bytes_in) + self.pcie.transfer_seconds(
            bytes_out
        )
        self.stats.record(
            bytes_in,
            bytes_out,
            movein_measured + moveout_measured,
            modeled,
            kernel_seconds,
        )
        if self.throttle_seconds > 0:
            # Deliberate skew knob: makes the device observably slow so
            # HLS feedback tests can assert migration back to the CPU.
            time.sleep(self.throttle_seconds)
        return result
