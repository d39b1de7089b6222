"""Window semantics: definitions, boundary assignment, incremental range aggregation."""

from .definition import WindowDefinition, WindowMode
from .assigner import (
    FragmentState,
    WindowSet,
    assign_count_windows,
    assign_time_windows,
    assign_windows,
)
from .panes import PrefixRangeAggregator, SparseTableRangeAggregator

__all__ = [
    "WindowDefinition",
    "WindowMode",
    "FragmentState",
    "WindowSet",
    "assign_count_windows",
    "assign_time_windows",
    "assign_windows",
    "PrefixRangeAggregator",
    "SparseTableRangeAggregator",
]
