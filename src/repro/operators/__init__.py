"""Streaming relational operators with the fragment/assembly decomposition."""

from .base import BatchResult, CostProfile, Operator, PartialRun, StreamSlice
from .aggregate_functions import AggregateSpec, SUPPORTED_FUNCTIONS
from .projection import Projection, identity_projection
from .selection import Selection
from .groupby import GroupedAggregation
from .join import ThetaJoin
from .distinct import DistinctProjection
from .compose import FilteredWindows, ProjectedWindows
from .udf import WindowUdf, partition_join

__all__ = [
    "Operator",
    "StreamSlice",
    "BatchResult",
    "PartialRun",
    "CostProfile",
    "AggregateSpec",
    "SUPPORTED_FUNCTIONS",
    "Projection",
    "identity_projection",
    "Selection",
    "GroupedAggregation",
    "ThetaJoin",
    "DistinctProjection",
    "FilteredWindows",
    "ProjectedWindows",
    "WindowUdf",
    "partition_join",
]
