"""Window semantics: definitions and boundary assignment."""

from .definition import WindowDefinition, WindowMode
from .assigner import (
    FragmentState,
    WindowSet,
    assign_count_windows,
    assign_time_windows,
    assign_windows,
)

__all__ = [
    "WindowDefinition",
    "WindowMode",
    "FragmentState",
    "WindowSet",
    "assign_count_windows",
    "assign_time_windows",
    "assign_windows",
]
