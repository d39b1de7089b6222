"""The cluster's global merge stage: ordered, exact, shard-crash-safe.

Every shard runs the same compiled query over its key-disjoint
sub-stream and reports *per-window* results (window id + rows) in
strictly increasing window-id order — the contract
:attr:`~repro.core.query.Query.force_assembly` plus
:attr:`~repro.core.result_stage.ResultStage.on_window` provide.  The
merge stage recombines them into the exact byte sequence a single
engine would emit:

* **ordering** — a window is merged once every live shard's *frontier*
  (highest window id reported) has passed it, so windows are emitted in
  globally increasing window-id order with no timeouts or heuristics;
* **rows** — per window, the shards' row blocks are concatenated and
  re-sorted by the query's group-key columns.  Keys are disjoint across
  shards (each group lives on exactly one shard), so the lexsort
  reproduces the single-engine within-window order bit-for-bit;
* **timestamps** — the single-engine window timestamp is the timestamp
  of the window's last tuple; the shard holding that tuple reports it,
  so the merged window's timestamp is the max over shard timestamps.

**Crash safety.**  Shard slots carry an *epoch*: killing a shard and
replaying its sub-stream onto a replacement bumps the slot's epoch
(:meth:`MergeStage.reset_shard`), which drops the dead shard's
unsettled contributions and ignores any late reports it still makes.
Replayed windows at or below the settled frontier are already merged
(their content is deterministic, so the emitted bytes stay exact) and
are skipped.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..analysis.lockdep import make_lock
from ..api.session import ChunkBacklog
from ..errors import ExecutionError, positive_int
from ..relational.schema import TIMESTAMP_ATTRIBUTE
from ..relational.tuples import TupleBatch

__all__ = ["MergeStage"]

#: frontier value of a shard that reported end-of-stream: no window id
#: can exceed it, so a closed shard never gates emission.
_CLOSED_FRONTIER = 1 << 62


class MergeStage:
    """K-way ordered merge of per-shard window results.

    Thread-safe: shards report concurrently from their engines' worker
    threads (or transport pump threads); merged windows queue in
    :attr:`backlog` for a consumer, and :meth:`output` holds them all
    once :attr:`done`.
    """

    def __init__(self, shards: int, group_columns: "list[str]") -> None:
        self.shards = positive_int(shards, "shards", ExecutionError)
        self.group_columns = list(group_columns)
        self._lock = make_lock("cluster.merge.MergeStage._lock")
        self._epochs = [0] * shards
        self._frontiers = [-1] * shards
        #: monotonic time of each slot's last report this epoch.
        self._reported = [0.0] * shards
        self._pending: "dict[int, dict[int, TupleBatch]]" = {}
        self._settled = -1
        #: merged windows awaiting a consumer, tagged with their ids;
        #: closed once every shard has closed, or to unblock consumers.
        self.backlog = ChunkBacklog()
        self._emitted: "list[TupleBatch]" = []
        self._done = False
        #: merged windows / rows, for stats and the cluster metrics.
        self.merged_windows = 0
        self.merged_rows = 0

    # -- shard-facing ----------------------------------------------------------

    def epoch(self, shard: int) -> int:
        """The slot's current epoch (bind it into the shard's sink)."""
        with self._lock:
            return self._epochs[shard]

    def closed(self, shard: int) -> bool:
        """Whether the slot has reported end-of-stream this epoch."""
        with self._lock:
            return self._frontiers[shard] >= _CLOSED_FRONTIER

    def last_report(self, shard: int) -> float:
        """Monotonic time the slot last reported a window this epoch
        (replayed windows count), or was reset."""
        with self._lock:
            return self._reported[shard]

    def lag(self, shard: int) -> int:
        """Windows this shard trails the furthest shard by."""
        with self._lock:
            lead = max(
                (f for f in self._frontiers if f < _CLOSED_FRONTIER),
                default=-1,
            )
            mine = min(self._frontiers[shard], lead)
            return max(lead - mine, 0)

    def backlog_windows(self) -> int:
        """Windows buffered awaiting slower shards' frontiers."""
        with self._lock:
            return len(self._pending)

    def on_window(
        self, shard: int, epoch: int, wid: int, rows: TupleBatch
    ) -> None:
        """One shard's next finalised window (its ids strictly increase).

        Reports from a stale epoch (a killed shard's engine draining, or
        a replacement replaying already-settled windows) are discarded.
        """
        with self._lock:
            if self._done or epoch != self._epochs[shard]:
                return
            self._reported[shard] = time.monotonic()
            if wid <= self._settled:
                return  # replayed window, already merged
            contributions = self._pending.setdefault(wid, {})
            if shard in contributions:
                raise ExecutionError(
                    f"shard {shard} reported window {wid} twice"
                )
            contributions[shard] = rows
            if wid > self._frontiers[shard]:
                self._frontiers[shard] = wid
            self._advance()

    def close_shard(self, shard: int, epoch: int) -> None:
        """The shard's stream ended: it will report no further windows."""
        with self._lock:
            if epoch != self._epochs[shard]:
                return
            self._frontiers[shard] = _CLOSED_FRONTIER
            self._advance()
            if all(f >= _CLOSED_FRONTIER for f in self._frontiers):
                self._done = True
                self.backlog.close()

    def reset_shard(self, shard: int) -> int:
        """Forget a dead shard's unsettled state; returns the slot's new
        epoch, which the replacement's sink must carry.

        Already-merged windows keep the dead shard's contributions —
        replay reproduces them byte-identically, so the emitted prefix
        stays exact; everything unsettled is re-reported by the
        replacement."""
        with self._lock:
            self._epochs[shard] += 1
            self._frontiers[shard] = self._settled
            self._reported[shard] = time.monotonic()
            for contributions in self._pending.values():
                contributions.pop(shard, None)
            return self._epochs[shard]

    # -- the merge -------------------------------------------------------------

    def _advance(self) -> None:
        """Merge every window all live frontiers have passed (caller
        holds the lock)."""
        horizon = min(self._frontiers)
        if horizon <= self._settled:
            return
        for wid in sorted(w for w in self._pending if w <= horizon):
            contributions = self._pending.pop(wid)
            merged = self._merge_window(contributions)
            self.merged_windows += 1
            self.merged_rows += len(merged)
            self.backlog.append(wid, merged)
            self._emitted.append(merged)
        self._settled = horizon

    def _merge_window(
        self, contributions: "dict[int, TupleBatch]"
    ) -> TupleBatch:
        """Recombine one window's shard blocks into single-engine bytes."""
        parts = [contributions[shard] for shard in sorted(contributions)]
        rows = parts[0] if len(parts) == 1 else TupleBatch.concat(parts)
        keys = np.stack(
            [rows.column(c).astype(np.int64) for c in self.group_columns],
            axis=1,
        )
        order = np.lexsort(keys.T[::-1])
        merged = rows.take(order)
        # The single-engine window timestamp is the window's last tuple's
        # timestamp; the shard holding that tuple reported the max.
        merged.data[TIMESTAMP_ATTRIBUTE] = rows.timestamps.max()
        return merged

    # -- consumer-facing -------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every shard closed and every buffered window merged."""
        with self._lock:
            return self._done

    def wait_done(self, timeout: "float | None" = None) -> bool:
        """Block until every shard has closed; ``False`` on timeout or
        when :meth:`wake` unblocked the wait first."""
        return self.backlog.wait_closed(timeout) and self.done

    def output(self) -> "TupleBatch | None":
        """The full merged output stream emitted so far, concatenated."""
        with self._lock:
            emitted = [e for e in self._emitted if len(e)]
        if not emitted:
            return None
        return TupleBatch.concat(emitted)

    def wake(self) -> None:
        """Unblock consumers (cluster shutdown and failure paths);
        :attr:`done` keeps its meaning."""
        self.backlog.close()

    def stats(self) -> "dict[str, Any]":
        """Point-in-time merge statistics."""
        with self._lock:
            return {
                "merged_windows": self.merged_windows,
                "merged_rows": self.merged_rows,
                "pending_windows": len(self._pending),
                "settled": self._settled,
                "frontiers": [
                    "eos" if f >= _CLOSED_FRONTIER else f
                    for f in self._frontiers
                ],
                "done": self._done,
            }
