"""Registry of the Table 1 benchmark queries with their sources.

Each entry builds a fresh (query, sources) pair so benchmark code can run
any application query by name::

    from repro.workloads.queries import build
    query, sources = build("CM1", seed=7)
"""

from __future__ import annotations

from ..core.query import Query
from ..errors import QueryError
from . import cluster_monitoring, linearroad, smartgrid


def build(
    name: str, seed: int = 1, tuples_per_second: "int | None" = None
) -> "tuple[Query, list]":
    """Build a named application query and its (fresh) sources.

    ``tuples_per_second`` overrides the source's logical-time density —
    smoke runs pass a low rate so that long time windows (e.g. SG1's
    3,600 s range) close within a small number of tasks.
    """
    rate = {} if tuples_per_second is None else {
        "tuples_per_second": tuples_per_second
    }
    if name == "CM1":
        return cluster_monitoring.cm1_query(), [
            cluster_monitoring.ClusterMonitoringSource(seed=seed, **rate)
        ]
    if name == "CM2":
        return cluster_monitoring.cm2_query(), [
            cluster_monitoring.ClusterMonitoringSource(seed=seed, **rate)
        ]
    if name == "SG1":
        return smartgrid.sg1_query(), [smartgrid.SmartGridSource(seed=seed, **rate)]
    if name == "SG2":
        return smartgrid.sg2_query(), [smartgrid.SmartGridSource(seed=seed, **rate)]
    if name == "SG3":
        derived = smartgrid.DerivedLoadSource(seed=seed)
        return smartgrid.sg3_query(), [
            derived.stream("local"),
            derived.stream("global"),
        ]
    if name == "LRB1":
        return linearroad.lrb1_query(), [linearroad.LinearRoadSource(seed=seed, **rate)]
    if name == "LRB2":
        return linearroad.lrb2_query(), [linearroad.LinearRoadSource(seed=seed, **rate)]
    if name == "LRB3":
        return linearroad.lrb3_query(), [linearroad.LinearRoadSource(seed=seed, **rate)]
    if name == "LRB4":
        return linearroad.lrb4_query(), [linearroad.LinearRoadSource(seed=seed, **rate)]
    raise QueryError(
        f"unknown application query {name!r}; known: {', '.join(APPLICATION_QUERIES)}"
    )


#: per-query source rates that let time windows close within a short
#: smoke run (Table 1 benchmark): roughly (window span × rate) tuples must
#: fit into the run's data volume.
SMOKE_RATES = {
    "CM1": 64, "CM2": 64,
    "SG1": 4, "SG2": 4, "SG3": None,
    "LRB1": None, "LRB2": 128, "LRB3": 12, "LRB4": 128,
}


APPLICATION_QUERIES = (
    "CM1", "CM2", "SG1", "SG2", "SG3", "LRB1", "LRB2", "LRB3", "LRB4",
)
