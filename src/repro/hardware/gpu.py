"""GPGPU worker cost model.

Produces the five stage durations of the data-movement pipeline (§5.2)
plus the CPU-side window-boundary cost that SABER's implementation keeps
on the host (§6.4's explanation for Fig. 12c).

Kernel time comes from an operation-count model: every tuple costs a few
core-operations (load, lazy deserialisation), plus operator-specific work
(all predicate lanes for selection — SIMD lanes do not short-circuit —
reduction-tree updates for aggregation, atomic hash updates for GROUP-BY,
candidate pairs for joins), spread over the device's cores, plus a fixed
kernel-launch overhead and a per-work-group (window-fragment) charge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.pcie import DEFAULT_PCIE, PcieBus
from ..operators.base import CostProfile
from .specs import DEFAULT_SPEC, HardwareSpec


@dataclass(frozen=True)
class GpuModel:
    """Analytic execution-time model for the simulated GPGPU."""

    spec: HardwareSpec = DEFAULT_SPEC
    pcie: PcieBus = DEFAULT_PCIE

    def kernel_seconds(
        self,
        profile: CostProfile,
        tuples: int,
        stats: "dict[str, float]",
    ) -> float:
        """Kernel execution time for one query task."""
        s = self.spec
        ops = tuples * s.gpu_tuple_base_ops
        # SIMD lanes evaluate every atomic predicate for every tuple.
        ops += tuples * profile.predicate_count
        # Projection arithmetic is memory-bound (global-memory attribute
        # reads/writes per expression) — charged separately below.
        memory_seconds = (
            tuples
            * profile.ops_per_tuple
            * s.gpu_memory_op
            / s.gpu_cores
        )
        atomic_seconds = 0.0
        if profile.kind == "aggregation":
            ops += tuples * max(1, profile.aggregate_count) * s.gpu_aggregate_ops
            if profile.has_group_by:
                # Atomic updates serialise per hash slot: few live groups
                # mean heavy contention (GROUP-BY1 fully serialises).
                groups = max(1.0, float(stats.get("groups", 16.0)))
                atomic_seconds = (
                    tuples * s.gpu_atomic_seconds / min(groups, s.gpu_cores)
                )
        elif profile.kind == "join":
            pairs = float(stats.get("pairs", 0.0))
            ops += pairs * max(1, profile.join_predicate_count) * s.gpu_join_pair_ops
        # Stateful operators assign one work group per window fragment
        # (§5.4); stateless scans are window-agnostic and pay nothing per
        # fragment — which keeps GPGPU selection flat in the slide
        # (Fig. 11a).
        fragment_cost = 0.0
        if profile.kind in ("aggregation", "join"):
            fragments = float(stats.get("fragments", 0.0))
            fragment_cost = fragments * s.gpu_fragment_launch
        return (
            s.gpu_kernel_launch_seconds
            + ops * s.gpu_seconds_per_core_op / s.gpu_cores
            + memory_seconds
            + atomic_seconds
            + fragment_cost
        )

    def boundary_seconds(
        self, profile: CostProfile, tuples: int, stats: "dict[str, float]"
    ) -> float:
        """Host-side window-boundary computation, serial per task.

        For joins the host pairs the two streams' window extents with a
        nested scan over the task's tuples, so the serial cost grows
        quadratically with the task's tuple count — the mechanism behind
        Fig. 12c's GPGPU-only collapse beyond 512 KB tasks (while small-
        window 1 MB join tasks in Fig. 10b stay viable).
        """
        if profile.kind not in ("aggregation", "join", "udf"):
            return 0.0  # stateless operators never materialise windows
        fragments = float(stats.get("fragments", 0.0))
        cost = fragments * self.spec.gpu_boundary_per_window
        if profile.kind == "join":
            cost += self.spec.gpu_boundary_join_tuples_sq * float(tuples) ** 2
        return cost

    def stage_durations(
        self,
        profile: CostProfile,
        input_bytes: int,
        output_bytes: int,
        tuples: int,
        stats: "dict[str, float]",
    ) -> "dict[str, float]":
        """Durations of the five pipeline stages for one query task."""
        heap = self.spec.heap_copy_bandwidth
        return {
            "copyin": input_bytes / heap,
            "movein": self.pcie.transfer_seconds(input_bytes),
            "execute": self.kernel_seconds(profile, tuples, stats),
            "moveout": self.pcie.transfer_seconds(output_bytes),
            "copyout": output_bytes / heap,
        }
