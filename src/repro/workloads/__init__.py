"""Evaluation workloads: synthetic, cluster monitoring, smart grid, LRB."""

from .synthetic import (
    SYNTHETIC_SCHEMA,
    TUPLE_SIZE,
    SyntheticSource,
    agg_query,
    groupby_query,
    join_query,
    proj_query,
    select_project_query,
    select_query,
    spa_query,
    window_bytes,
)
from .cluster_monitoring import (
    TASK_EVENTS_SCHEMA,
    ClusterMonitoringSource,
    cm1_query,
    cm2_query,
    surge_select_query,
)
from .smartgrid import (
    SMART_GRID_SCHEMA,
    DerivedLoadSource,
    SmartGridSource,
    sg1_query,
    sg2_query,
    sg3_query,
)
from .linearroad import (
    POS_SPEED_SCHEMA,
    LinearRoadSource,
    lrb1_query,
    lrb2_query,
    lrb3_query,
    lrb4_query,
)
from .queries import APPLICATION_QUERIES, build

__all__ = [
    "SYNTHETIC_SCHEMA",
    "TUPLE_SIZE",
    "SyntheticSource",
    "proj_query",
    "select_query",
    "select_project_query",
    "spa_query",
    "agg_query",
    "groupby_query",
    "join_query",
    "window_bytes",
    "TASK_EVENTS_SCHEMA",
    "ClusterMonitoringSource",
    "cm1_query",
    "cm2_query",
    "surge_select_query",
    "SMART_GRID_SCHEMA",
    "SmartGridSource",
    "DerivedLoadSource",
    "sg1_query",
    "sg2_query",
    "sg3_query",
    "POS_SPEED_SCHEMA",
    "LinearRoadSource",
    "lrb1_query",
    "lrb2_query",
    "lrb3_query",
    "lrb4_query",
    "APPLICATION_QUERIES",
    "build",
]
