"""Unit tests for the GPGPU kernels' compaction primitive.

The scan-based compaction behind the selection and join kernels lives
in :mod:`repro.gpu.jit`; both of its paths (numba-compiled, numpy) must
satisfy these properties.
"""

import numpy as np

from repro.gpu.jit import compact_mask


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
