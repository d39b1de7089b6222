"""Streaming relational operators with the fragment/assembly decomposition."""

from .base import BatchResult, CostProfile, Operator, StreamSlice
from .aggregate_functions import Accumulator, AggregateSpec, SUPPORTED_FUNCTIONS
from .projection import Projection, identity_projection
from .selection import Selection
from .groupby import GroupedAggregation, GroupedWindowAccumulator
from .join import JoinPartial, ThetaJoin
from .distinct import DistinctProjection
from .compose import FilteredWindows, ProjectedWindows
from .udf import WindowUdf, partition_join

__all__ = [
    "Operator",
    "StreamSlice",
    "BatchResult",
    "CostProfile",
    "Accumulator",
    "AggregateSpec",
    "SUPPORTED_FUNCTIONS",
    "Projection",
    "identity_projection",
    "Selection",
    "GroupedAggregation",
    "GroupedWindowAccumulator",
    "ThetaJoin",
    "JoinPartial",
    "DistinctProjection",
    "FilteredWindows",
    "ProjectedWindows",
    "WindowUdf",
    "partition_join",
]
