"""Unit tests for window definitions."""

import pytest

from repro.errors import WindowError
from repro.windows.definition import WindowDefinition, WindowMode


class TestConstruction:
    def test_rows_default_tumbling(self):
        w = WindowDefinition.rows(8)
        assert w.is_tumbling and w.is_count_based and w.slide == 8

    def test_time_sliding(self):
        w = WindowDefinition.time(60, 1)
        assert w.is_time_based and not w.is_tumbling

    def test_invalid_size(self):
        with pytest.raises(WindowError):
            WindowDefinition.rows(0)

    def test_invalid_slide(self):
        with pytest.raises(WindowError):
            WindowDefinition(WindowMode.ROW, 4, 0)

    def test_slide_larger_than_size_rejected(self):
        with pytest.raises(WindowError):
            WindowDefinition.rows(4, 8)


class TestGeometry:
    def test_window_start_end(self):
        w = WindowDefinition.rows(8, 2)
        assert w.window_start(0) == 0
        assert w.window_start(3) == 6
        assert w.window_end(3) == 14

    def test_negative_window_id_rejected(self):
        with pytest.raises(WindowError):
            WindowDefinition.rows(8, 2).window_start(-1)

    def test_windows_of_position(self):
        w = WindowDefinition.rows(4, 2)
        assert list(w.windows_of(0)) == [0]
        assert list(w.windows_of(5)) == [1, 2]
        assert list(w.windows_of(2)) == [0, 1]

    def test_windows_of_negative_position(self):
        with pytest.raises(WindowError):
            WindowDefinition.rows(4, 2).windows_of(-1)

    def test_every_position_is_covered(self):
        w = WindowDefinition.rows(6, 2)
        for pos in range(40):
            ids = list(w.windows_of(pos))
            assert ids, pos
            for wid in ids:
                assert w.window_start(wid) <= pos < w.window_end(wid)

    def test_str(self):
        assert "rows" in str(WindowDefinition.rows(4))
        assert "time" in str(WindowDefinition.time(4))
