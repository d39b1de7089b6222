"""Unit tests for the GPGPU kernels' scan and compaction primitives.

The exclusive scan (§5.4's Blelloch-style prefix sum) and the
scan-based compaction behind the selection and join kernels live in
:mod:`repro.gpu.jit`; both of its paths (numba-compiled, numpy) must
satisfy these properties.
"""

import numpy as np
import pytest

from repro.gpu.jit import compact_mask, exclusive_scan


class TestBlellochScan:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 64, 100, 1023])
    def test_matches_cumsum(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 10, n)
        expected = np.concatenate([[0], np.cumsum(values)[:-1]]) if n else []
        assert np.array_equal(exclusive_scan(values), expected)

    def test_exclusive_first_element_is_zero(self):
        out = exclusive_scan(np.array([5, 1, 2]))
        assert out[0] == 0

    def test_all_zeros(self):
        assert np.array_equal(exclusive_scan(np.zeros(16, dtype=int)), np.zeros(16))


class TestCompaction:
    def test_selected_indices(self):
        mask = np.array([True, False, True, True, False])
        assert np.array_equal(compact_mask(mask), [0, 2, 3])

    def test_empty_mask(self):
        assert len(compact_mask(np.array([], dtype=bool))) == 0

    def test_none_selected(self):
        assert len(compact_mask(np.zeros(10, dtype=bool))) == 0

    def test_all_selected(self):
        assert np.array_equal(compact_mask(np.ones(5, dtype=bool)), np.arange(5))

    def test_output_is_ordered(self):
        rng = np.random.default_rng(3)
        mask = rng.random(500) < 0.3
        out = compact_mask(mask)
        assert np.array_equal(out, np.nonzero(mask)[0])
