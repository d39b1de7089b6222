"""Window-boundary computation inside a stream batch (§3, §4.3).

The dispatcher cuts batches by *size*, independent of window definitions.
Window boundaries are therefore computed at task-execution time, inside the
(parallel) execution stage.  For every window intersecting a batch we
derive a :class:`WindowFragment` and classify it the way §5.3 stores
results in four buffers:

* ``COMPLETE`` — the window both opens and closes in this batch;
* ``OPENING``  — it opens here and spills into later batches;
* ``CLOSING``  — it opened earlier and closes here;
* ``PENDING``  — it spans the whole batch (neither opens nor closes).

All per-window quantities are numpy arrays so that batches with thousands
of fragments (small slides) stay vectorised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import WindowError
from .definition import WindowDefinition


class FragmentState(enum.IntEnum):
    """Window-fragment classification relative to its batch."""

    COMPLETE = 0
    OPENING = 1
    CLOSING = 2
    PENDING = 3


@dataclass
class WindowSet:
    """Vectorised description of all window fragments in one batch.

    ``starts``/``ends`` are row offsets *within the batch* (clipped to the
    batch extent), ``window_ids`` are global window indices, ``states``
    holds :class:`FragmentState` values.
    """

    window_ids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.window_ids)
        if not (len(self.starts) == len(self.ends) == len(self.states) == n):
            raise WindowError("WindowSet arrays must have equal length")

    def __len__(self) -> int:
        return len(self.window_ids)

    def mask(self, state: FragmentState) -> np.ndarray:
        return self.states == int(state)

    def closing_ids(self) -> np.ndarray:
        """Windows whose results can be finalised once this batch is done."""
        done = (self.states == int(FragmentState.COMPLETE)) | (
            self.states == int(FragmentState.CLOSING)
        )
        return self.window_ids[done]

    @classmethod
    def empty(cls) -> "WindowSet":
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.copy(), zero.copy(), zero.copy())


def _classify(opens: np.ndarray, closes: np.ndarray) -> np.ndarray:
    """Map (opens-here, closes-here) booleans onto fragment states."""
    states = np.full(len(opens), int(FragmentState.PENDING), dtype=np.int64)
    states[opens & closes] = int(FragmentState.COMPLETE)
    states[opens & ~closes] = int(FragmentState.OPENING)
    states[~opens & closes] = int(FragmentState.CLOSING)
    return states


def assign_count_windows(
    window: WindowDefinition, batch_start: int, batch_end: int
) -> WindowSet:
    """Window fragments of a count-based window over a batch.

    ``batch_start``/``batch_end`` are the batch's global tuple indices
    (``[batch_start, batch_end)``), i.e. the dispatcher's start and end
    pointers translated to tuple counts.
    """
    if not window.is_count_based:
        raise WindowError("assign_count_windows needs a count-based window")
    if batch_end <= batch_start:
        return WindowSet.empty()
    size, slide, length = window.size, window.slide, batch_end - batch_start
    # First window whose end extends past the batch start...
    first = max(0, (batch_start - size) // slide + 1)
    # ...through the last window starting before the batch end.
    last = (batch_end - 1) // slide
    if last < first:
        return WindowSet.empty()
    ids = np.arange(first, last + 1, dtype=np.int64)
    # Window starts form an arithmetic progression, so each state is a
    # contiguous run of ids between two cuts: windows before ``opens_at``
    # opened in an earlier batch, windows before ``closes_by`` end at or
    # before ``batch_end`` (every chosen window ends after ``batch_start``).
    opens_at = min(-(-batch_start // slide), last + 1) - first
    closes_by = min(max((batch_end - size) // slide + 1, first), last + 1) - first
    starts = ids * slide - batch_start
    ends = starts + size
    np.maximum(starts, 0, out=starts)
    np.minimum(ends, length, out=ends)
    states = np.empty(len(ids), dtype=np.int64)
    low, high = min(opens_at, closes_by), max(opens_at, closes_by)
    states[:low] = int(FragmentState.CLOSING)
    states[low:high] = int(
        FragmentState.COMPLETE if opens_at < closes_by else FragmentState.PENDING
    )
    states[high:] = int(FragmentState.OPENING)
    return WindowSet(ids, starts, ends, states)


def assign_time_windows(
    window: WindowDefinition,
    timestamps: np.ndarray,
    previous_last_timestamp: "int | None",
) -> WindowSet:
    """Window fragments of a time-based window over a batch.

    ``timestamps`` are the batch's (non-decreasing) tuple timestamps.
    ``previous_last_timestamp`` is the last timestamp of the preceding
    batch of the same stream (``None`` for the first batch); it decides
    which windows *open* and *close* within this batch:

    * a window closes in the first batch whose max timestamp reaches the
      window end (later tuples cannot belong to it since the stream is
      timestamp-ordered);
    * it opens in the first batch whose max timestamp reaches the window
      start.
    """
    if not window.is_time_based:
        raise WindowError("assign_time_windows needs a time-based window")
    if len(timestamps) == 0:
        return WindowSet.empty()
    ts = np.asarray(timestamps)
    prev_last = -1 if previous_last_timestamp is None else int(previous_last_timestamp)
    last = int(ts[-1])
    size, slide = window.size, window.slide
    # First window not already closed by a previous batch (end > prev_last).
    first = max(0, (prev_last - size) // slide + 1)
    # Last window already started (start <= last timestamp seen).
    last_id = last // slide
    if last_id < first:
        return WindowSet.empty()
    ids = np.arange(first, last_id + 1, dtype=np.int64)
    w_start = ids * slide
    w_end = w_start + size
    starts = np.searchsorted(ts, w_start, side="left")
    ends = np.searchsorted(ts, w_end, side="left")
    opens = (w_start > prev_last) & (w_start <= last)
    closes = (w_end > prev_last) & (w_end <= last)
    return WindowSet(ids, starts, ends, _classify(opens, closes))


def assign_windows(
    window: WindowDefinition,
    batch_start: int,
    batch_end: int,
    timestamps: "np.ndarray | None" = None,
    previous_last_timestamp: "int | None" = None,
    force_assembly: bool = False,
) -> WindowSet:
    """Dispatch to the count- or time-based assigner for one batch.

    ``force_assembly`` downgrades COMPLETE fragments to CLOSING, so every
    window travels through the result stage's assembly path and surfaces
    with its window id (the cluster merge contract); the emitted rows are
    identical either way since a CLOSING fragment covering the whole
    window finalises from exactly the same fragment table.
    """
    if window.is_count_based:
        windows = assign_count_windows(window, batch_start, batch_end)
    else:
        if timestamps is None:
            raise WindowError("time-based windows require batch timestamps")
        windows = assign_time_windows(window, timestamps, previous_last_timestamp)
    if force_assembly and len(windows):
        complete = windows.states == int(FragmentState.COMPLETE)
        windows.states[complete] = int(FragmentState.CLOSING)
    return windows
