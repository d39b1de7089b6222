"""Unit tests for the CPU/GPGPU cost models and their paper-shaped trends."""

import pytest

from repro.hardware.cpu import CpuModel
from repro.hardware.gpu import GpuModel
from repro.hardware.specs import DEFAULT_SPEC
from repro.operators.base import CostProfile
from repro.relational.expressions import col, conjunction


def selection_profile(n, cpu_evals=None):
    predicate = conjunction([col("a") < k for k in range(n)])
    return CostProfile(
        kind="selection", predicate_tree=predicate, cpu_evals_fn=cpu_evals
    )


class TestCpuModel:
    def setup_method(self):
        self.cpu = CpuModel(DEFAULT_SPEC)

    def test_selection_cost_grows_with_predicates(self):
        stats = {"selectivity": 1.0}
        costs = [
            self.cpu.task_seconds(selection_profile(n), 32768, stats)
            for n in (1, 8, 64)
        ]
        assert costs[0] < costs[1] < costs[2]
        # dominated by the per-predicate term at n=64
        assert costs[2] / costs[0] > 10

    def test_selection_short_circuit_depends_on_selectivity(self):
        profile = selection_profile(500, cpu_evals=lambda s: 1 + s * 499)
        cheap = self.cpu.task_seconds(profile, 1000, {"selectivity": 0.01})
        costly = self.cpu.task_seconds(profile, 1000, {"selectivity": 0.5})
        assert costly > 5 * cheap

    def test_aggregation_cost_independent_of_fragment_count(self):
        # Incremental computation: halving the slide (doubling fragments)
        # must barely move the per-task cost (Fig. 11b's flat CPU curve).
        profile = CostProfile(kind="aggregation", aggregate_count=1)
        few = self.cpu.task_seconds(profile, 32768, {"fragments": 32.0})
        many = self.cpu.task_seconds(profile, 32768, {"fragments": 1024.0})
        assert many < few * 2

    def test_group_by_costs_more(self):
        plain = CostProfile(kind="aggregation", aggregate_count=1)
        grouped = CostProfile(kind="aggregation", aggregate_count=1, has_group_by=True)
        stats = {"fragments": 32.0}
        assert self.cpu.task_seconds(grouped, 1000, stats) > self.cpu.task_seconds(
            plain, 1000, stats
        )

    def test_join_cost_scales_with_pairs(self):
        profile = CostProfile(kind="join", join_predicate_count=2)
        small = self.cpu.task_seconds(profile, 1000, {"pairs": 1e4})
        large = self.cpu.task_seconds(profile, 1000, {"pairs": 1e6})
        assert large > 50 * small

    def test_contention_beyond_physical_cores(self):
        assert self.cpu.contention_factor(15) == 1.0
        assert self.cpu.contention_factor(16) == 1.0
        assert self.cpu.contention_factor(32) > 1.0


class TestGpuModel:
    def setup_method(self):
        self.gpu = GpuModel(DEFAULT_SPEC)

    def test_gpu_charges_all_predicates(self):
        # Short-circuit structure is irrelevant on SIMD lanes.
        profile = selection_profile(64, cpu_evals=lambda s: 1.0)
        k = self.gpu.kernel_seconds(profile, 32768, {"selectivity": 0.0})
        base = self.gpu.kernel_seconds(selection_profile(1), 32768, {})
        assert k > base

    def test_stage_durations_shape(self):
        profile = selection_profile(4)
        stages = self.gpu.stage_durations(profile, 1 << 20, 1 << 19, 32768, {})
        assert set(stages) == {"copyin", "movein", "execute", "moveout", "copyout"}
        # For a cheap kernel the data path dominates.
        assert stages["copyin"] > stages["execute"]
        assert stages["movein"] > stages["moveout"]  # output is half the input

    def test_selection_throughput_flat_in_predicates(self):
        # GPGPU selection is data-path-bound: 1 vs 64 predicates barely
        # moves the bottleneck stage (Fig. 10a's flat GPGPU line).
        def bottleneck(n):
            stages = self.gpu.stage_durations(
                selection_profile(n), 1 << 20, 1 << 20, 32768, {}
            )
            return max(stages.values())

        assert bottleneck(64) < bottleneck(1) * 1.2

    def test_join_boundary_cost_quadratic_in_task_tuples(self):
        profile = CostProfile(kind="join", join_predicate_count=1)
        few = self.gpu.boundary_seconds(profile, 16384, {"fragments": 16.0})
        many = self.gpu.boundary_seconds(profile, 131072, {"fragments": 16.0})
        assert many > 30 * few  # superlinear (Fig. 12c collapse)

    def test_non_join_boundary_linear(self):
        profile = CostProfile(kind="aggregation", aggregate_count=1)
        one = self.gpu.boundary_seconds(profile, 1000, {"fragments": 10.0})
        ten = self.gpu.boundary_seconds(profile, 1000, {"fragments": 100.0})
        assert ten == pytest.approx(10 * one)

    def test_kernel_launch_floor(self):
        profile = CostProfile(kind="projection")
        assert self.gpu.kernel_seconds(profile, 0, {}) >= (
            self.gpu.spec.gpu_kernel_launch_seconds
        )


class TestCrossoverShapes:
    """The relative CPU/GPGPU shapes the scheduler relies on."""

    def test_fig10a_crossover_between_8_and_64_predicates(self):
        cpu = CpuModel(DEFAULT_SPEC)
        gpu = GpuModel(DEFAULT_SPEC)
        tuples = 32768
        size = 1 << 20

        def cpu_rate(n):
            t = cpu.task_seconds(selection_profile(n), tuples, {"selectivity": 1.0})
            return DEFAULT_SPEC.default_cpu_workers * size / t

        def gpu_rate(n):
            stages = gpu.stage_durations(selection_profile(n), size, size, tuples, {})
            return size / max(stages.values())

        assert cpu_rate(1) > gpu_rate(1)       # CPU wins simple queries
        assert cpu_rate(64) < gpu_rate(64)     # GPGPU wins complex ones

    def test_compute_heavy_projection_prefers_gpu(self):
        # PROJ6* (600 arithmetic ops/tuple): §6.6 W1 anchor.
        cpu = CpuModel(DEFAULT_SPEC)
        gpu = GpuModel(DEFAULT_SPEC)
        profile = CostProfile(kind="projection", ops_per_tuple=600.0)
        tuples, size = 32768, 1 << 20
        cpu_time = cpu.task_seconds(profile, tuples, {})
        gpu_time = max(
            gpu.stage_durations(profile, size, size, tuples, {}).values()
        )
        cpu_rate = DEFAULT_SPEC.default_cpu_workers * size / cpu_time
        assert size / gpu_time > cpu_rate
