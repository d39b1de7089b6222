"""Cluster-eligible Table-1 workloads and equivalence runners.

Two workloads anchor the cluster's correctness story, both time-windowed
GROUP-BY queries whose key domain partitions cleanly:

* ``GROUP-BY`` — the synthetic benchmark stream (``Syn``, 32-byte
  tuples) grouped by ``a2``;
* ``CM1`` — the cluster-monitoring CPU-per-category aggregation over
  Google task events.

:func:`materialise` draws a finite prefix of the workload stream
*once* (the generator sources interleave RNG draws per pull, so data is
only reproducible for identical pull granularities — materialising
pins one canonical dataset); :func:`reference_output` replays it
through one engine and :func:`run_cluster` replays it key-partitioned
over N shards, optionally killing a shard mid-run to exercise
recovery.  The two byte-compare equal — the invariant
``tests/test_cluster.py`` and ``repro cluster`` both pin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from ..api import SaberSession
from ..io.memory import MemorySource
from ..relational.tuples import TupleBatch
from ..workloads.cluster_monitoring import ClusterMonitoringSource
from ..workloads.synthetic import SyntheticSource
from .session import ClusterSession

__all__ = [
    "ClusterWorkload",
    "CLUSTER_WORKLOADS",
    "materialise",
    "reference_output",
    "run_cluster",
]


@dataclass(frozen=True)
class ClusterWorkload:
    """One named cluster workload: stream, query and source factory."""

    name: str
    stream: str
    cql: str
    source_factory: "Callable[[int, int | None], Any]"

    def make_source(self, seed: int = 1, limit: "int | None" = None) -> Any:
        """A fresh, deterministically seeded source instance."""
        return self.source_factory(seed, limit)


#: Syn grouped by a2 over a one-second time window (1024 tuples/s).
_GROUP_BY = ClusterWorkload(
    name="GROUP-BY",
    stream="Syn",
    cql=(
        "select timestamp, a2, sum(a1) as total "
        "from Syn [range 4 slide 4] group by a2"
    ),
    source_factory=lambda seed, limit: SyntheticSource(seed=seed, limit=limit),
)

#: CM1: CPU per task-event category over a sliding 60s window.
_CM1 = ClusterWorkload(
    name="CM1",
    stream="TaskEvents",
    cql=(
        "select timestamp, category, sum(cpu) as totalCpu "
        "from TaskEvents [range 60 slide 1] group by category"
    ),
    source_factory=lambda seed, limit: ClusterMonitoringSource(
        seed=seed, limit=limit
    ),
)

CLUSTER_WORKLOADS: "dict[str, ClusterWorkload]" = {
    w.name: w for w in (_GROUP_BY, _CM1)
}


def materialise(
    workload: ClusterWorkload, limit: int, seed: int = 1
) -> TupleBatch:
    """Draw the canonical ``limit``-tuple prefix of the workload stream.

    Drawn in one pull: the generator sources interleave their RNG draws
    column-by-column per call, so the data a consumer sees depends on
    its pull granularity.  Materialising once pins one dataset that the
    single-engine reference and every cluster topology replay
    identically (via :class:`~repro.io.MemorySource`)."""
    source = workload.make_source(seed=seed, limit=None)
    return source.next_tuples(limit)


def reference_output(
    workload: ClusterWorkload,
    data: TupleBatch,
    execution: str = "threads",
    cpu_workers: int = 2,
    task_size_bytes: int = 64 << 10,
) -> "TupleBatch | None":
    """The single-engine output for one materialised dataset."""
    with SaberSession(
        execution=execution,
        cpu_workers=cpu_workers,
        use_gpu=False,
        task_size_bytes=task_size_bytes,
    ) as session:
        session.register_stream(
            workload.stream, MemorySource(data.schema, data)
        )
        handle = session.sql(workload.cql, name=workload.name)
        session.start()
        session.wait()
        return handle.output()


def run_cluster(
    workload: ClusterWorkload,
    data: TupleBatch,
    kill_slot: "int | None" = None,
    kill_after_windows: int = 2,
    kill_timeout: float = 30.0,
    wait_timeout: "float | None" = 120.0,
    **cluster_kwargs: Any,
) -> "tuple[TupleBatch | None, dict[str, Any]]":
    """Run the workload key-partitioned; returns (merged output, stats).

    ``kill_slot`` injects a shard failure once ``kill_after_windows``
    windows have merged (so the kill lands mid-stream, with settled
    *and* in-flight state to recover).
    """
    with ClusterSession(**cluster_kwargs) as session:
        session.register_stream(
            workload.stream, MemorySource(data.schema, data)
        )
        handle = session.sql(workload.cql, name=workload.name)
        session.start()
        if kill_slot is not None:
            _await_merged_windows(session, kill_after_windows, kill_timeout)
            session.kill_shard(kill_slot)
        session.wait(wait_timeout)
        return handle.output(), session.stats()


def _await_merged_windows(
    session: ClusterSession, windows: int, timeout: float
) -> None:
    """Block until ``windows`` windows have merged (kill staging)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        merge = session.stats().get("merge") or {}
        if merge.get("merged_windows", 0) >= windows:
            return
        time.sleep(0.01)
