#!/usr/bin/env python3
"""Cluster monitoring with adaptive hybrid scheduling (CM workload, Fig. 16).

Part 1 runs the paper's CM1/CM2 monitoring queries over a synthetic
Google-cluster-style task-event stream.

Part 2 reproduces the Fig. 16 experiment at example scale: a SELECT
query whose cost explodes when task-failure events surge.  Watch the
heterogeneous lookahead scheduler move tasks from the CPU (which
short-circuits the predicate when failures are rare) to the GPGPU
(whose SIMD cost is selectivity-independent) as the surge hits.

Run with::

    python examples/cluster_monitoring.py
"""

from repro import SaberConfig, SaberSession
from repro.workloads.cluster_monitoring import (
    ClusterMonitoringSource,
    cm1_query,
    cm2_query,
    surge_select_query,
)


def run_monitoring_queries() -> None:
    print("== CM1/CM2 cluster monitoring ==")
    with SaberSession(task_size_bytes=48 << 10, cpu_workers=8) as session:
        handles = [
            session.submit(
                query,
                sources=[ClusterMonitoringSource(seed=1, tuples_per_second=64)],
            )
            for query in (cm1_query(), cm2_query())
        ]
        report = session.run(tasks_per_query=10)
        for handle in handles:
            out = handle.output()
            print(
                f"  {handle.name}: "
                f"{report.query_throughput(handle.name) / 1e6:7.1f} MB/s, "
                f"{handle.output_rows} rows"
            )
            if out is not None and len(out):
                row = out.to_rows()[0]
                print(f"    first row: {row}")


def run_adaptive_scheduling() -> None:
    print("\n== Fig. 16-style adaptivity: failure surges ==")
    query = surge_select_query(predicates=500)
    # Surge cycles of 100 tasks, the last 40% of each at a 50% failure
    # rate; the scheduler's response lags by the queue + in-flight
    # backlog, as in the paper's time series.
    source = ClusterMonitoringSource(
        seed=3,
        base_failure_rate=0.005,
        failure_surge=(100 * 1024, 0.4, 0.5),
    )
    config = SaberConfig(
        task_size_bytes=48 << 10,
        cpu_workers=15,
        matrix_refresh_seconds=1e-4,
        switch_threshold=10,
        collect_output=False,
    )
    with SaberSession(config) as session:
        session.submit(query, sources=[source])
        report = session.run(tasks_per_query=400)

    records = sorted(report.measurements.records, key=lambda r: r.created)
    bucket = 20
    print("  task bucket -> GPGPU share (surges push work to the GPGPU)")
    for i in range(0, len(records), bucket):
        chunk = records[i : i + bucket]
        gpu = sum(1 for r in chunk if r.processor == "GPGPU") / len(chunk)
        bar = "#" * int(gpu * 30)
        print(f"  {i // bucket:3d}: {gpu:5.0%} {bar}")


def main() -> None:
    run_monitoring_queries()
    run_adaptive_scheduling()


if __name__ == "__main__":
    main()
