"""Unit tests for window-boundary computation and fragment classification."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import assign_count_windows_by_masks
from repro.errors import WindowError
from repro.windows.assigner import (
    FragmentState,
    WindowSet,
    assign_count_windows,
    assign_time_windows,
    assign_windows,
)
from repro.windows.definition import WindowDefinition


class TestCountWindows:
    def test_paper_figure2_small_windows(self):
        # Fig. 2: batch of 5 tuples, ω(3,1): windows w1..w3 complete,
        # w4, w5 are fragments continuing into the next batch.
        w = WindowDefinition.rows(3, 1)
        ws = assign_count_windows(w, 0, 5)
        assert list(ws.window_ids) == [0, 1, 2, 3, 4]
        states = [FragmentState(s) for s in ws.states]
        assert states[:3] == [FragmentState.COMPLETE] * 3
        assert states[3:] == [FragmentState.OPENING] * 2

    def test_paper_figure2_large_windows(self):
        # Fig. 2: ω(7,2) over the first 5-tuple batch: only fragments.
        w = WindowDefinition.rows(7, 2)
        ws = assign_count_windows(w, 0, 5)
        assert list(ws.window_ids) == [0, 1, 2]
        assert all(FragmentState(s) == FragmentState.OPENING for s in ws.states)

    def test_second_batch_closes_windows(self):
        w = WindowDefinition.rows(3, 1)
        ws = assign_count_windows(w, 5, 10)
        # w4 (rows 3..5) and w5 (rows 4..6) close here.
        by_id = dict(zip(ws.window_ids.tolist(), ws.states.tolist()))
        assert FragmentState(by_id[3]) == FragmentState.CLOSING
        assert FragmentState(by_id[4]) == FragmentState.CLOSING

    def test_pending_window_spans_batch(self):
        w = WindowDefinition.rows(10, 10)
        ws = assign_count_windows(w, 3, 7)  # inside window 0
        assert list(ws.window_ids) == [0]
        assert FragmentState(ws.states[0]) == FragmentState.PENDING

    def test_tumbling_aligned_batches_all_complete(self):
        w = WindowDefinition.rows(4, 4)
        ws = assign_count_windows(w, 8, 16)
        assert list(ws.window_ids) == [2, 3]
        assert all(FragmentState(s) == FragmentState.COMPLETE for s in ws.states)

    def test_fragment_offsets_are_batch_relative(self):
        w = WindowDefinition.rows(4, 2)
        ws = assign_count_windows(w, 6, 10)
        by_id = {
            int(i): (int(s), int(e))
            for i, s, e in zip(ws.window_ids, ws.starts, ws.ends)
        }
        assert by_id[3] == (0, 4)    # window rows [6,10)
        assert by_id[2] == (0, 2)    # window rows [4,8): only [6,8) here
        assert by_id[4] == (2, 4)    # window rows [8,12): only [8,10) here

    def test_empty_batch(self):
        w = WindowDefinition.rows(4, 2)
        assert len(assign_count_windows(w, 5, 5)) == 0

    def test_wrong_mode_raises(self):
        with pytest.raises(WindowError):
            assign_count_windows(WindowDefinition.time(4, 2), 0, 5)

    def test_coverage_invariant(self):
        # Concatenating a window's fragments across all batches yields
        # exactly the window's rows.
        w = WindowDefinition.rows(7, 3)
        batch_edges = [0, 5, 9, 14, 20, 29]
        coverage: dict[int, list[int]] = {}
        for b0, b1 in zip(batch_edges, batch_edges[1:]):
            ws = assign_count_windows(w, b0, b1)
            for wid, s, e in zip(ws.window_ids, ws.starts, ws.ends):
                coverage.setdefault(int(wid), []).extend(range(b0 + s, b0 + e))
        for wid, rows in coverage.items():
            start = wid * 3
            expected = list(range(start, min(start + 7, 29)))
            assert rows == expected, f"window {wid}"


@st.composite
def count_batches(draw):
    """(window, batch_start, batch_end): any slide <= size, any offset, and
    batches from one tuple up to several windows long."""
    size = draw(st.integers(1, 96))
    slide = draw(st.integers(1, size))
    start = draw(st.integers(0, 4 * size))
    length = draw(st.one_of(st.integers(1, slide), st.integers(1, 3 * size)))
    return WindowDefinition.rows(size, slide), start, start + length


class TestCountWindowsMatchMasks:
    """The closed-form state cuts equal the per-window masks they replaced."""

    @given(count_batches())
    @example((WindowDefinition.rows(1, 1), 0, 1))       # one tuple, one window
    @example((WindowDefinition.rows(8, 8), 3, 4))       # one tuple mid-window
    @example((WindowDefinition.rows(8, 3), 10, 11))     # shorter than the slide
    @example((WindowDefinition.rows(50, 7), 20, 30))    # windows outlive the batch
    @example((WindowDefinition.rows(4, 4), 8, 16))      # aligned tumbling
    @example((WindowDefinition.rows(6, 2), 5, 9))       # closes exactly at the end
    def test_values_and_dtypes(self, case):
        window, start, end = case
        got = assign_count_windows(window, start, end)
        want = assign_count_windows_by_masks(window, start, end)
        for name in ("window_ids", "starts", "ends", "states"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            assert g.tobytes() == w.tobytes(), name


class TestTimeWindows:
    def test_basic_tumbling(self):
        w = WindowDefinition.time(10, 10)
        ts = np.array([0, 3, 5, 9, 10, 12, 19, 20])
        ws = assign_time_windows(w, ts, None)
        by_id = dict(zip(ws.window_ids.tolist(), ws.states.tolist()))
        assert FragmentState(by_id[0]) == FragmentState.COMPLETE
        assert FragmentState(by_id[1]) == FragmentState.COMPLETE
        assert FragmentState(by_id[2]) == FragmentState.OPENING

    def test_fragment_rows_by_searchsorted(self):
        w = WindowDefinition.time(10, 5)
        ts = np.array([0, 4, 5, 9, 11, 14])
        ws = assign_time_windows(w, ts, None)
        by_id = {
            int(i): (int(s), int(e))
            for i, s, e in zip(ws.window_ids, ws.starts, ws.ends)
        }
        assert by_id[0] == (0, 4)   # [0,10): ts 0,4,5,9
        assert by_id[1] == (2, 6)   # [5,15): ts 5,9,11,14

    def test_previous_timestamp_prevents_reopen(self):
        w = WindowDefinition.time(10, 10)
        first = assign_time_windows(w, np.array([0, 5, 12]), None)
        second = assign_time_windows(w, np.array([13, 25]), 12)
        # Window 0 ([0,10)) closed in the first batch: max ts 12 >= 10.
        assert 0 not in second.window_ids.tolist()
        by_id = dict(zip(second.window_ids.tolist(), second.states.tolist()))
        assert FragmentState(by_id[1]) == FragmentState.CLOSING
        first_by_id = dict(zip(first.window_ids.tolist(), first.states.tolist()))
        assert FragmentState(first_by_id[0]) == FragmentState.COMPLETE
        assert FragmentState(first_by_id[1]) == FragmentState.OPENING

    def test_window_with_no_tuples_still_closes(self):
        # Data gap: window 1 ([5,10)) has no tuples but must still be
        # reported as closing so downstream state is released.
        w = WindowDefinition.time(5, 5)
        ws = assign_time_windows(w, np.array([2, 3, 17]), None)
        by_id = {
            int(i): (int(s), int(e), int(st))
            for i, s, e, st in zip(ws.window_ids, ws.starts, ws.ends, ws.states)
        }
        assert by_id[1][:2] == (2, 2)  # empty fragment
        assert FragmentState(by_id[1][2]) == FragmentState.COMPLETE

    def test_ties_at_batch_boundary(self):
        w = WindowDefinition.time(4, 4)
        first = assign_time_windows(w, np.array([0, 1, 3]), None)
        # max ts 3 < 4: window 0 not closed yet.
        assert FragmentState(first.states[0]) == FragmentState.OPENING
        second = assign_time_windows(w, np.array([3, 3, 4]), 3)
        by_id = dict(zip(second.window_ids.tolist(), second.states.tolist()))
        assert FragmentState(by_id[0]) == FragmentState.CLOSING
        ranges = {
            int(i): (int(s), int(e))
            for i, s, e in zip(second.window_ids, second.starts, second.ends)
        }
        assert ranges[0] == (0, 2)  # the two tied ts=3 tuples belong to w0

    def test_empty_timestamps(self):
        w = WindowDefinition.time(4, 4)
        assert len(assign_time_windows(w, np.array([], dtype=np.int64), None)) == 0

    def test_requires_timestamps_via_dispatch(self):
        w = WindowDefinition.time(4, 4)
        with pytest.raises(WindowError):
            assign_windows(w, 0, 5)


class TestWindowSet:
    def test_mask_and_closing_ids(self):
        w = WindowDefinition.rows(3, 1)
        ws = assign_count_windows(w, 5, 10)
        closing = set(ws.closing_ids().tolist())
        complete = set(ws.window_ids[ws.mask(FragmentState.COMPLETE)].tolist())
        assert complete <= closing

    def test_length_validation(self):
        with pytest.raises(WindowError):
            WindowSet(
                np.arange(3), np.arange(2), np.arange(3), np.arange(3)
            )
