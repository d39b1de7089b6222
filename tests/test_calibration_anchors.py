"""Regression tests pinning the cost models to the paper's anchors.

Every constant in ``hardware/specs.py`` is calibrated against a number
in the paper (§6.1, §6.6, Figs. 7–16).  These tests assert the derived
throughputs stay at those anchors, so future model changes cannot
silently drift the reproduction.
"""

import pytest

from repro.hardware.cpu import CpuModel
from repro.hardware.gpu import GpuModel
from repro.hardware.specs import DEFAULT_SPEC
from repro.operators.base import CostProfile

TASK = 1 << 20
TUPLES_32B = TASK // 32
WORKERS = DEFAULT_SPEC.default_cpu_workers


def cpu_rate(profile, stats, tuples=TUPLES_32B):
    t = CpuModel(DEFAULT_SPEC).task_seconds(profile, tuples, stats)
    return WORKERS * TASK / t


def gpu_rate(profile, stats, tuples=TUPLES_32B, output=TASK):
    stages = GpuModel(DEFAULT_SPEC).stage_durations(profile, TASK, output, tuples, stats)
    return TASK / max(stages.values())


class TestSection66Anchors:
    """§6.6's W1 isolation numbers, the sharpest calibration targets."""

    def test_proj6_star_cpu_292_mbps(self):
        profile = CostProfile(kind="projection", ops_per_tuple=600.0)
        assert cpu_rate(profile, {}) == pytest.approx(292e6, rel=0.4)

    def test_proj6_star_gpu_1475_mbps(self):
        profile = CostProfile(kind="projection", ops_per_tuple=600.0)
        assert gpu_rate(profile, {}) == pytest.approx(1475e6, rel=0.15)

    def test_agg_cnt_groupby1_cpu_2362_mbps(self):
        profile = CostProfile(kind="aggregation", aggregate_count=1, has_group_by=True)
        stats = {"groups": 1.0, "fragments": 64.0}
        assert cpu_rate(profile, stats) == pytest.approx(2362e6, rel=0.15)

    def test_agg_cnt_groupby1_gpu_372_mbps(self):
        profile = CostProfile(kind="aggregation", aggregate_count=1, has_group_by=True)
        stats = {"groups": 1.0, "fragments": 64.0}
        assert gpu_rate(profile, stats) == pytest.approx(372e6, rel=0.25)


class TestFig10Anchors:
    def test_selection_dispatcher_bound_region(self):
        # SELECT_n for n <= 4 is dispatcher-bound at ~8 GB/s.
        rate = DEFAULT_SPEC.dispatch_bandwidth
        per_task = TASK / rate + DEFAULT_SPEC.dispatch_task_overhead
        assert TASK / per_task == pytest.approx(7.2e9, rel=0.1)

    def test_selection_cpu_decay_formula(self):
        # ~480/(10 + 7n) GB/s (the calibration anchors in ``hardware/specs.py``).
        from repro.relational.expressions import col, conjunction

        for n in (8, 16, 64):
            predicate = conjunction([col("a") < k for k in range(n)])
            profile = CostProfile(
                kind="selection", predicate_tree=predicate,
                cpu_evals_fn=lambda s, n=n: float(n),
            )
            expected = 480.0 / (10 + 7 * n) * 1e9
            assert cpu_rate(profile, {"selectivity": 1.0}) == pytest.approx(
                expected, rel=0.1
            )

    def test_gpu_selection_data_path_bound(self):
        # Flat ~5 GB/s: the pinned-memory copy stage dominates.
        profile = CostProfile(kind="selection")
        assert gpu_rate(profile, {}) == pytest.approx(
            DEFAULT_SPEC.heap_copy_bandwidth, rel=0.1
        )


class TestFig12Anchors:
    def test_join_gpu_collapse_ratio(self):
        """GPGPU-only JOIN4 at 4 MB is <40% of its 512 KB throughput."""
        gpu = GpuModel(DEFAULT_SPEC)
        profile = CostProfile(kind="join", join_predicate_count=4)

        def throughput(task_bytes):
            tuples = task_bytes // 32
            windows = (tuples / 2) / 1024
            pairs = windows * 1024 * 1024
            stats = {"pairs": pairs, "fragments": windows}
            boundary = gpu.boundary_seconds(profile, tuples, stats)
            stages = gpu.stage_durations(
                profile, task_bytes, int(pairs * 0.01 * 64), tuples, stats
            )
            return task_bytes / max(boundary, max(stages.values()))

        assert throughput(4 << 20) < 0.4 * throughput(512 << 10)


class TestNetworkAnchor:
    def test_10gbe_bound(self):
        assert DEFAULT_SPEC.network_bandwidth == pytest.approx(1.25e9)
        # Fig. 7's saturated bars are ~1,150 MB/s of the 1,250 MB/s link.
