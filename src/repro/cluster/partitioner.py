"""Key partitioning: a bucketed hash plan over N shards.

The cluster session splits a keyed stream across shard engines the same
way SABER's dispatcher splits it across heterogeneous executors —
deterministically, so a distributed run is replayable and checkable
against a single-engine run.  The plan is two-level:

* a *stable* hash maps each key to one of ``buckets`` buckets (many
  more buckets than shards);
* an explicit ``bucket -> shard`` assignment array maps buckets onto
  shard slots.

The indirection is the rebalance hook: moving a bucket between shards
is a single array write, and never changes which bucket a key hashes
to.  Every tuple of one key lands on exactly one shard, which is what
makes per-shard GROUP-BY results disjoint and the global merge exact
(see :mod:`repro.cluster.merge`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError, positive_int
from ..relational.tuples import TupleBatch

__all__ = ["HashPartitioner"]


class HashPartitioner:
    """Stable multiplicative-hash partitioning over integer keys.

    The plan owns the ``bucket -> shard`` assignment and splits batches
    by a key column.  It is deterministic: the same batch always splits
    the same way, because shard recovery *replays* a dead shard's
    retained sub-stream onto a replacement engine and relies on
    reproducing it exactly.  The hash is the splitmix64 finaliser —
    platform-independent uint64 arithmetic, so the plan is stable
    across runs, machines and shard transports.  Buckets start
    round-robin across shards, which for the workloads' small uniform
    key domains is also close to balanced.
    """

    def __init__(self, shards: int, buckets: int = 64) -> None:
        positive_int(shards, "shards")
        if positive_int(buckets, "buckets") < shards:
            raise ValidationError(
                f"need at least one bucket per shard: {buckets} buckets "
                f"for {shards} shards"
            )
        self.shards = shards
        #: number of hash buckets (the rebalance granularity).
        self.buckets = int(buckets)
        #: ``bucket -> shard`` assignment (int64 array of length ``buckets``).
        self.assignment = np.arange(self.buckets, dtype=np.int64) % shards

    def bucket_of(self, keys: np.ndarray) -> np.ndarray:
        """Map each key to its bucket via the splitmix64 finalizer."""
        v = keys.astype(np.uint64, copy=True)
        v ^= v >> np.uint64(30)
        v *= np.uint64(0xBF58476D1CE4E5B9)
        v ^= v >> np.uint64(27)
        v *= np.uint64(0x94D049BB133111EB)
        v ^= v >> np.uint64(31)
        return (v % np.uint64(self.buckets)).astype(np.int64)

    def partition(self, batch: TupleBatch, key: str) -> "list[TupleBatch | None]":
        """Split one batch into per-shard sub-batches (hash, then
        assignment).

        Tuple order *within* each sub-batch preserves the input order
        (timestamp order in particular), so each shard sees a valid
        timestamp-ordered sub-stream.  Returns ``None`` for shards that
        receive no tuples of this batch.
        """
        keys = batch.column(key).astype(np.int64, copy=False)
        owners = self.assignment[self.bucket_of(keys)]
        parts: "list[TupleBatch | None]" = []
        for shard in range(self.shards):
            mask = owners == shard
            parts.append(batch.filter(mask) if mask.any() else None)
        return parts

    def reassign(self, bucket: int, shard: int) -> None:
        """Move one bucket to another shard (the rebalance primitive)."""
        if not 0 <= bucket < self.buckets:
            raise ValidationError(
                f"bucket {bucket} out of range [0, {self.buckets})"
            )
        self.assignment[bucket] = shard
