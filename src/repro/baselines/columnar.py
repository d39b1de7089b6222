"""MonetDB-like baseline: in-memory columnar one-off join executor (§6.2).

The paper compares SABER against MonetDB on a θ-join of two 1 MB tables
(32-byte tuples, 1 % selectivity), partitioned so the engine evaluates
partial joins in parallel across 15 threads.  Three mechanisms decide the
comparison and all are modelled (and really executed, on numpy columns):

* **partitioned parallel θ-join** — a full cross-product scan per
  partition pair, parallelised across threads: MonetDB ≈ SABER
  (980 ms vs 1,088 ms);
* **output reconstruction** — a columnar engine must re-assemble output
  tuples column by column after the join; with ``select *`` this costs
  ≈40 % of the runtime, making MonetDB ≈2× slower than SABER;
* **hash equi-join** — for equality predicates MonetDB's optimised hash
  join avoids the scan entirely and is ≈2.7× faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError, positive_int
from ..hardware.specs import DEFAULT_SPEC, HardwareSpec


@dataclass(frozen=True)
class ColumnarCosts:
    """Per-operation costs of the columnar executor (virtual seconds)."""

    pair_scan: float = 8.5e-9         # evaluate θ-predicate on one pair
    hash_row: float = 60e-9           # build/probe one row
    output_row_two_columns: float = 35e-9  # emit the two join columns
    reconstruct_column: float = 7e-9  # gather one extra column value


@dataclass
class ColumnarJoinResult:
    """Measured outcome of one join execution."""

    rows: int
    elapsed_seconds: float
    matches: np.ndarray  # (k, 2) matched index pairs


class ColumnarEngine:
    """In-memory columnar query executor for one-off (non-streaming) joins."""

    def __init__(
        self,
        threads: int = 15,
        costs: "ColumnarCosts | None" = None,
        spec: HardwareSpec = DEFAULT_SPEC,
    ) -> None:
        self.threads = positive_int(threads, "threads", SimulationError)
        self.costs = costs or ColumnarCosts()
        self.spec = spec

    # -- joins ------------------------------------------------------------------

    def theta_join(
        self,
        left: np.ndarray,
        right: np.ndarray,
        select_all_columns: int = 0,
        partitions: "int | None" = None,
    ) -> ColumnarJoinResult:
        """Partitioned parallel θ-join (``left[i] < right[j]`` band form).

        ``left``/``right`` are the join columns.  ``select_all_columns``
        is the number of *extra* output columns that must be
        reconstructed per result row (0 for a two-column output).
        ``partitions`` defaults to the thread count; partial joins run
        pairwise so every partition pair is scanned.
        """
        parts = partitions or self.threads
        nl, nr = len(left), len(right)
        matches = self._scan_join(left, right)
        pairs = float(nl) * float(nr)
        # Pairwise partition joins scan the full cross product in parallel.
        scan_time = pairs * self.costs.pair_scan / self.threads
        out_time = len(matches) * self.costs.output_row_two_columns
        out_time += (
            len(matches) * select_all_columns * self.costs.reconstruct_column
        )
        __ = parts  # partition count does not change total scanned pairs
        return ColumnarJoinResult(len(matches), scan_time + out_time, matches)

    def equi_join(
        self,
        left: np.ndarray,
        right: np.ndarray,
        select_all_columns: int = 0,
    ) -> ColumnarJoinResult:
        """Hash equi-join: build on the smaller side, probe the larger."""
        build, probe = (left, right) if len(left) <= len(right) else (right, left)
        order = np.argsort(build, kind="stable")
        sorted_build = build[order]
        lo = np.searchsorted(sorted_build, probe, side="left")
        hi = np.searchsorted(sorted_build, probe, side="right")
        counts = hi - lo
        total = int(counts.sum())
        probe_idx = np.repeat(np.arange(len(probe)), counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
        positions = np.arange(total) - np.repeat(offsets, counts)
        build_idx = order[np.repeat(lo, counts) + positions]
        if len(left) <= len(right):
            matches = np.column_stack([build_idx, probe_idx])
        else:
            matches = np.column_stack([probe_idx, build_idx])
        time = (len(build) + len(probe)) * self.costs.hash_row / self.threads
        time += total * self.costs.output_row_two_columns
        time += total * select_all_columns * self.costs.reconstruct_column
        return ColumnarJoinResult(total, time, matches)

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _scan_join(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Materialised cross-product scan (the real computation)."""
        li, ri = np.nonzero(left[:, None] < right[None, :])
        return np.column_stack([li, ri])
