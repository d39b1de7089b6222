"""Window definitions (§2.4).

A window function ω(s, l) is either count-based (``ROW``) or time-based
(``RANGE``) with a window *size* ``s`` and *slide* ``l``.  Window *i*
(``i = 0, 1, ...``) covers

* count-based: tuple indices ``[i·l, i·l + s)``;
* time-based:  timestamps    ``[i·l, i·l + s)``.

``l < s`` gives sliding windows, ``l == s`` tumbling ones.  The paper's
CQL examples use ``[range 60 slide 1]`` style clauses that map directly
onto these definitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import WindowError, instance_of, positive_int


class WindowMode(enum.Enum):
    """How window extents are measured."""

    ROW = "row"      # count-based: size/slide are tuple counts
    RANGE = "range"  # time-based: size/slide are time units


@dataclass(frozen=True)
class WindowDefinition:
    """ω(size, slide) in either the count or the time domain."""

    mode: WindowMode
    size: int
    slide: int

    def __post_init__(self) -> None:
        instance_of(WindowMode)(self.mode, "mode", WindowError)
        positive_int(self.size, "size", WindowError)
        positive_int(self.slide, "slide", WindowError)
        if self.slide > self.size:
            # Sampling windows (slide > size) exist in some systems but the
            # paper's model covers sliding (l < s) and tumbling (l = s) only.
            raise WindowError(
                f"slide {self.slide} exceeds size {self.size}; only sliding "
                "and tumbling windows are supported"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def rows(cls, size: int, slide: "int | None" = None) -> "WindowDefinition":
        """Count-based ω(size, slide); slide defaults to tumbling."""
        return cls(WindowMode.ROW, size, size if slide is None else slide)

    @classmethod
    def time(cls, size: int, slide: "int | None" = None) -> "WindowDefinition":
        """Time-based ω(size, slide); slide defaults to tumbling."""
        return cls(WindowMode.RANGE, size, size if slide is None else slide)

    # -- properties ----------------------------------------------------------

    @property
    def is_tumbling(self) -> bool:
        return self.size == self.slide

    @property
    def is_count_based(self) -> bool:
        return self.mode is WindowMode.ROW

    @property
    def is_time_based(self) -> bool:
        return self.mode is WindowMode.RANGE

    def window_start(self, window_id: int) -> int:
        """Inclusive start (index or timestamp) of window ``window_id``."""
        if window_id < 0:
            raise WindowError(f"window id must be non-negative, got {window_id}")
        return window_id * self.slide

    def window_end(self, window_id: int) -> int:
        """Exclusive end (index or timestamp) of window ``window_id``."""
        return self.window_start(window_id) + self.size

    def windows_of(self, position: int) -> range:
        """Window ids containing a tuple index/timestamp ``position``."""
        if position < 0:
            raise WindowError(f"position must be non-negative, got {position}")
        first = max(0, (position - self.size) // self.slide + 1)
        last = position // self.slide
        return range(first, last + 1)

    def __str__(self) -> str:
        unit = "rows" if self.is_count_based else "time"
        return f"w({self.size},{self.slide} {unit})"
