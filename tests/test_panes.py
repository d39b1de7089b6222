"""Unit tests for incremental range aggregation structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WindowError
from repro.windows.panes import PrefixRangeAggregator, SparseTableRangeAggregator


class TestPrefixRangeAggregator:
    def test_matches_naive_sums(self):
        rng = np.random.default_rng(0)
        values = rng.random(100)
        agg = PrefixRangeAggregator(values)
        starts = np.array([0, 10, 50, 99, 30])
        ends = np.array([100, 20, 55, 100, 30])
        out = agg.query(starts, ends)
        for s, e, v in zip(starts, ends, out):
            assert v == pytest.approx(values[s:e].sum())

    def test_empty_range_is_zero(self):
        agg = PrefixRangeAggregator(np.arange(5))
        assert agg.query(np.array([2]), np.array([2]))[0] == 0.0

    def test_invalid_range_raises(self):
        agg = PrefixRangeAggregator(np.arange(5))
        with pytest.raises(WindowError):
            agg.query(np.array([3]), np.array([2]))

    def test_empty_values(self):
        agg = PrefixRangeAggregator(np.zeros(0))
        assert agg.query(np.array([0]), np.array([0]))[0] == 0.0


class TestSparseTable:
    @pytest.mark.parametrize("combine", ["min", "max"])
    def test_matches_naive(self, combine):
        rng = np.random.default_rng(1)
        values = rng.normal(size=257)
        table = SparseTableRangeAggregator(values, combine)
        starts = np.array([0, 3, 100, 255, 17])
        ends = np.array([257, 4, 200, 257, 18])
        out = table.query(starts, ends)
        fn = np.min if combine == "min" else np.max
        for s, e, v in zip(starts, ends, out):
            assert v == pytest.approx(fn(values[s:e]))

    def test_empty_range_gives_nan(self):
        # NOT the ±inf merge identities: a sentinel infinity answered
        # for an empty fragment would be indistinguishable from a real
        # extreme value and could leak into emitted MIN/MAX results.
        table = SparseTableRangeAggregator(np.arange(8), "max")
        assert np.isnan(table.query(np.array([3]), np.array([3]))[0])
        table = SparseTableRangeAggregator(np.arange(8), "min")
        assert np.isnan(table.query(np.array([3]), np.array([3]))[0])

    def test_mixed_empty_and_nonempty_ranges(self):
        table = SparseTableRangeAggregator(np.arange(8), "max")
        out = table.query(np.array([0, 4, 8]), np.array([4, 4, 8]))
        assert out[0] == 3.0
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_single_element(self):
        table = SparseTableRangeAggregator(np.array([42.0]), "max")
        assert table.query(np.array([0]), np.array([1]))[0] == 42.0

    def test_invalid_combine(self):
        with pytest.raises(WindowError):
            SparseTableRangeAggregator(np.arange(4), "median")

    def test_invalid_range(self):
        table = SparseTableRangeAggregator(np.arange(4), "max")
        with pytest.raises(WindowError):
            table.query(np.array([2]), np.array([1]))


class TestSparseTableProperties:
    """Property: every range answers exactly like the naive slice —
    including zero-length ranges, which answer NaN and never a sentinel
    infinity (the satellite bugfix this pins)."""

    @given(
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        data=st.data(),
        combine=st.sampled_from(["min", "max"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_query_matches_naive_including_empty_ranges(self, values, data, combine):
        arr = np.asarray(values, dtype=np.float64)
        n = len(arr)
        table = SparseTableRangeAggregator(arr, combine)
        starts = np.array(
            [data.draw(st.integers(min_value=0, max_value=n)) for __ in range(8)]
        )
        ends = np.array(
            [data.draw(st.integers(min_value=s, max_value=n)) for s in starts]
        )
        out = table.query(starts, ends)
        fn = np.min if combine == "min" else np.max
        for s, e, got in zip(starts, ends, out):
            if e == s:
                assert np.isnan(got)
                assert not np.isinf(got)
            else:
                assert got == fn(arr[s:e])
