"""Incremental range aggregation ([41], [12], [50]; §5.3).

A sliding-window aggregation over a batch must compute one aggregate per
window fragment.  Recomputing each fragment from scratch costs
O(fragments × window size); SABER instead computes *incrementally*.  We
provide the two classic strategies:

* :class:`PrefixRangeAggregator` — for invertible, associative functions
  (sum, count, and avg = sum/count): a single prefix-sum pass over the
  batch, after which any fragment range is an O(1) difference;
* :class:`SparseTableRangeAggregator` — for associative but non-invertible
  functions (min, max): a sparse table of doubling-length partials, after
  which any range is an O(1) combination of two overlapping blocks.

Both answer vectorised range queries ``[starts, ends)`` and are exactly
the computational skeleton of the paper's incremental batch operator
functions.
"""

from __future__ import annotations

import numpy as np

from ..errors import WindowError


class PrefixRangeAggregator:
    """O(1) range sums over a batch after one prefix pass."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self._prefix = np.zeros(len(values) + 1, dtype=np.float64)
        np.cumsum(values, dtype=np.float64, out=self._prefix[1:])

    def query(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Sums of ``values[starts[i]:ends[i]]`` for all i, vectorised."""
        starts = np.asarray(starts)
        ends = np.asarray(ends)
        if np.any(starts > ends):
            raise WindowError("range query with start > end")
        return self._prefix[ends] - self._prefix[starts]


class SparseTableRangeAggregator:
    """O(1) range min/max over a batch after an O(n log n) build.

    Zero-length ranges answer **NaN** (SQL's NULL for aggregates over
    nothing), *not* the ±inf merge identities: a sentinel infinity
    returned for an empty fragment would be indistinguishable from a
    real extreme value and could leak into emitted MIN/MAX results.
    The merge identities stay internal to the aggregation layer, which
    substitutes them when building mergeable partials for empty
    fragments.
    """

    def __init__(self, values: np.ndarray, combine: str = "max") -> None:
        if combine not in ("min", "max"):
            raise WindowError(f"combine must be 'min' or 'max', got {combine!r}")
        values = np.asarray(values, dtype=np.float64)
        self._combine = np.minimum if combine == "min" else np.maximum
        n = len(values)
        self._n = n
        levels = max(1, int(np.floor(np.log2(n))) + 1) if n else 1
        self._table = [values]
        for level in range(1, levels):
            span = 1 << level
            prev = self._table[-1]
            if len(prev) < 2:
                break
            half = span >> 1
            merged = self._combine(prev[: len(prev) - half], prev[half:])
            self._table.append(merged)

    def query(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """min/max of ``values[starts[i]:ends[i]]``; NaN for empty ranges."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if np.any(starts > ends):
            raise WindowError("range query with start > end")
        lengths = ends - starts
        out = np.full(len(starts), np.nan, dtype=np.float64)
        nonempty = lengths > 0
        if not np.any(nonempty):
            return out
        length = lengths[nonempty]
        level = np.floor(np.log2(length)).astype(np.int64)
        s = starts[nonempty]
        e = ends[nonempty]
        result = np.empty(len(s), dtype=np.float64)
        for lv in np.unique(level):
            table = self._table[lv]
            sel = level == lv
            span = 1 << int(lv)
            left = table[s[sel]]
            right = table[e[sel] - span]
            result[sel] = self._combine(left, right)
        out[nonempty] = result
        return out
