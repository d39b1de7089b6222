"""Unit tests for the workload generators and the Table 1 query registry."""

import numpy as np
import pytest

from repro.core.engine import SaberConfig, SaberEngine
from repro.workloads import (
    APPLICATION_QUERIES,
    ClusterMonitoringSource,
    LinearRoadSource,
    SmartGridSource,
    SyntheticSource,
    build,
    surge_select_query,
)
from repro.workloads.cluster_monitoring import EVENT_FAIL
from repro.workloads.smartgrid import DerivedLoadSource
from repro.workloads.synthetic import (
    SYNTHETIC_SCHEMA,
    agg_query,
    groupby_query,
    join_query,
    proj_query,
    select_query,
)


class TestSources:
    @pytest.mark.parametrize(
        "source",
        [
            SyntheticSource(seed=1),
            ClusterMonitoringSource(seed=1),
            SmartGridSource(seed=1),
            LinearRoadSource(seed=1),
        ],
    )
    def test_timestamps_non_decreasing(self, source):
        a = source.next_tuples(500)
        b = source.next_tuples(500)
        ts = np.concatenate([a.timestamps, b.timestamps])
        assert (np.diff(ts) >= 0).all()

    def test_synthetic_tuple_size_is_32_bytes(self):
        assert SYNTHETIC_SCHEMA.tuple_size == 32

    def test_synthetic_deterministic_by_seed(self):
        a = SyntheticSource(seed=9).next_tuples(100)
        b = SyntheticSource(seed=9).next_tuples(100)
        assert np.array_equal(a.data, b.data)

    def test_synthetic_group_cardinality(self):
        src = SyntheticSource(seed=1, groups=8)
        data = src.next_tuples(4000)
        assert set(np.unique(data.column("a2"))) <= set(range(8))

    def test_cluster_failure_surge(self):
        surge = (1000, 0.5, 0.5)
        src = ClusterMonitoringSource(seed=1, failure_surge=surge)
        data = src.next_tuples(10_000)
        events = np.asarray(data.column("eventType"))
        idx = np.arange(10_000)
        in_surge = (idx % 1000) >= 500
        fail = events == EVENT_FAIL
        assert fail[in_surge].mean() > 10 * max(fail[~in_surge].mean(), 1e-4)

    def test_derived_streams_consistent(self):
        derived = DerivedLoadSource(seed=1, plugs=16)
        local = derived.stream("local")
        global_ = derived.stream("global")
        lb = local.next_tuples(32)   # two logical seconds
        gb = global_.next_tuples(2)
        for second in range(2):
            sel = np.asarray(lb.timestamps) == second
            mean_local = float(np.asarray(lb.column("localAvgLoad"))[sel].mean())
            assert mean_local == pytest.approx(
                float(gb.column("globalAvgLoad")[second]), rel=1e-5
            )

    def test_linear_road_congested_segments_exist(self):
        src = LinearRoadSource(seed=2)
        data = src.next_tuples(20_000)
        seg = np.asarray(data.column("position")) // 5280
        speed = np.asarray(data.column("speed"))
        means = [speed[seg == s].mean() for s in np.unique(seg)[:50]]
        assert min(means) < 40.0 < max(means)


class TestSyntheticQueries:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            proj_query(0)
        with pytest.raises(ValueError):
            select_query(0)
        with pytest.raises(ValueError):
            join_query(0)

    def test_projection_star_ops(self):
        q = proj_query(6, expressions_per_attribute=100)
        assert q.operator.cost_profile().ops_per_tuple == 600

    def test_select_n_predicate_count(self):
        q = select_query(16)
        assert q.operator.cost_profile().predicate_count == 16
        assert q.operator.cost_profile().cpu_predicate_evaluations(0.3) == 16

    def test_stat_models_present(self):
        for q in [proj_query(2), select_query(2), agg_query("avg"),
                  groupby_query(4), join_query(2)]:
            stats = q.stat_model(32768)
            assert "selectivity" in stats and "output_bytes" in stats

    def test_join_stat_model_pairs(self):
        q = join_query(2)
        stats = q.stat_model(256)  # 128 tuples/stream, window 128 rows
        assert stats["pairs"] == pytest.approx(128 * 128, rel=0.1)


class TestApplicationRegistry:
    @pytest.mark.parametrize("name", APPLICATION_QUERIES)
    def test_every_query_runs_and_is_deterministic(self, name):
        def run():
            query, sources = build(name, seed=4)
            engine = SaberEngine(
                SaberConfig(task_size_bytes=24 << 10, cpu_workers=3)
            )
            engine.add_query(query, sources)
            report = engine.run(tasks_per_query=6)
            return report.elapsed_seconds, report.output_rows[query.name]

        first, second = run(), run()
        assert first == second
        assert first[0] > 0

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            build("CM9")

    def test_surge_query_cost_structure(self):
        q = surge_select_query(100)
        profile = q.operator.cost_profile()
        assert profile.predicate_count == 100
        assert profile.cpu_predicate_evaluations(0.0) == pytest.approx(1.0)
        assert profile.cpu_predicate_evaluations(1.0) == pytest.approx(100.0)

    def test_surge_query_selectivity_tracks_failures(self):
        q = surge_select_query(50)
        src = ClusterMonitoringSource(seed=3, base_failure_rate=0.2)
        data = src.next_tuples(5000)
        mask = q.operator.predicate.evaluate(data)
        assert mask.mean() == pytest.approx(0.2, abs=0.05)
