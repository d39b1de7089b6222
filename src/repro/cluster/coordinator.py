"""The sharding coordinator: one keyed stream, N engines, one answer.

:class:`ClusterCoordinator` owns the cluster's partitioning plan
(:class:`~repro.cluster.partitioner.HashPartitioner` by default), spawns
one shard engine per slot (:mod:`repro.cluster.shards`), fans the
registered stream out by key, runs the *same* compiled query on every
shard and recombines the per-shard window results through the global
:class:`~repro.cluster.merge.MergeStage` — producing output
byte-identical to a single-engine run.

**Eligibility.**  Not every query partitions: the coordinator accepts
single-input, time-windowed GROUP-BY queries whose partition key is one
of the grouping columns (a ``where`` pre-filter is fine — filtering
commutes with key partitioning).  Count-based windows are refused:
their extents derive from global tuple *positions*, which per-shard
sub-streams cannot see.

**Failure handling.**  A liveness monitor watches shard health; the
ingest pump additionally notices push failures immediately.  A dead
shard's slot is *resubmitted*: the merge stage drops the dead epoch's
unsettled windows, a replacement engine is spawned, and the slot's
retained sub-stream (the coordinator logs every partitioned sub-batch)
is replayed onto it.  Partitioning and shard engines are deterministic,
so the replay reproduces the settled prefix bit-for-bit and the merged
output is unchanged by the failure.  A shard that stops making progress
after end-of-stream — no window report for ``completion_timeout``
seconds since end-of-stream or its last report — is declared dead and
resubmitted the same way; if its replacement stalls as long again, the
run fails with :class:`~repro.errors.ExecutionError` instead of
replaying forever.

**Threads and locks.**  Only the ingest pump pushes and only one actor
recovers at a time — the pump while ingest is active (the monitor just
flags dead slots), the monitor afterwards.  The coordinator lock is
held for state snapshots only, never across a push or an engine call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterator

from ..analysis.lockdep import make_lock
from ..core.cql import compile_statement
from ..errors import (
    EndOfStream,
    ExecutionError,
    IngestInterrupted,
    SaberError,
    ValidationError,
)
from ..io.base import validate_source
from ..metrics import MetricsRegistry
from ..operators.groupby import GroupedAggregation
from ..relational.tuples import TupleBatch
from .merge import MergeStage
from .partitioner import HashPartitioner, Partitioner
from .shards import LocalShard, ProcessShard

__all__ = ["ClusterConfig", "ClusterCoordinator"]

_TRANSPORTS = ("local", "serve")
_EXECUTIONS = ("threads", "processes")


@dataclass
class ClusterConfig:
    """Sizing and policy knobs for a key-partitioned cluster."""

    #: number of shard engines.
    shards: int = 2
    #: shard transport: ``local`` (in-process engines) or ``serve``
    #: (one spawned ``repro serve`` daemon per shard — the remote shape).
    transport: str = "local"
    #: engine backend inside each *local* shard (``threads`` or
    #: ``processes``); serve shards always run the threads backend.
    execution: str = "threads"
    #: worker threads/processes per shard engine.
    cpu_workers: int = 2
    #: hash buckets of the partitioning plan (rebalance granularity).
    buckets: int = 64
    #: partition key column; defaults to the query's first group column.
    partition_key: "str | None" = None
    #: fan-out granularity: tuples pulled from the source per batch.
    batch_tuples: int = 4096
    #: per-shard ingress queue bound (tuples).
    capacity_tuples: int = 1 << 16
    #: per-shard engine task size.
    task_size_bytes: int = 64 << 10
    #: shard liveness probe interval (seconds).
    liveness_interval: float = 0.25
    #: after end-of-stream, seconds a shard may go without reporting a
    #: window before it is declared dead and resubmitted; a replacement
    #: that stalls as long again fails the run.
    completion_timeout: float = 30.0
    #: resubmit dead shards' key ranges onto replacement engines; with
    #: recovery off a shard death fails the run instead.
    recover: bool = True

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValidationError(f"shard count must be positive, got {self.shards}")
        if self.transport not in _TRANSPORTS:
            raise ValidationError(
                f"unknown transport {self.transport!r}; expected one of {_TRANSPORTS}"
            )
        if self.execution not in _EXECUTIONS:
            raise ValidationError(
                f"unknown shard execution {self.execution!r}; "
                f"expected one of {_EXECUTIONS}"
            )
        for name in (
            "cpu_workers",
            "batch_tuples",
            "capacity_tuples",
            "task_size_bytes",
            "liveness_interval",
            "completion_timeout",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")


class ClusterCoordinator:
    """Owns the partitioning plan, the shard fleet and the merge stage."""

    def __init__(
        self,
        config: "ClusterConfig | None" = None,
        registry: "MetricsRegistry | None" = None,
        partitioner: "Partitioner | None" = None,
        **config_kwargs: Any,
    ) -> None:
        if config is not None and config_kwargs:
            raise ValidationError(
                "pass either a ClusterConfig or config kwargs, not both"
            )
        self.config = config if config is not None else ClusterConfig(**config_kwargs)
        self.partitioner = (
            partitioner
            if partitioner is not None
            else HashPartitioner(self.config.shards, buckets=self.config.buckets)
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tuples_pushed = self.registry.counter(
            "saber_cluster_tuples_pushed_total",
            "Tuples fanned out to shard engines, by shard (replays included).",
        )
        self.resubmits = self.registry.counter(
            "saber_cluster_resubmits_total",
            "Shard-failure recoveries: key ranges resubmitted to a "
            "replacement engine, by shard slot.",
        )
        self.shards_live = self.registry.gauge(
            "saber_cluster_shards_live",
            "Shard engines currently alive.",
        )
        self._collector = self.registry.register_collector(self._samples)
        self._lock = make_lock("cluster.coordinator.ClusterCoordinator._lock")
        self._stream: "str | None" = None
        self._source: Any = None
        self._schema: Any = None
        self._cql: "str | None" = None
        self._query_name = "cluster"
        self._group_columns: "list[str]" = []
        self._key: "str | None" = None
        self._merge: "MergeStage | None" = None
        self._shards: "list[Any]" = []
        self._log: "list[list[TupleBatch]]" = []
        self._dead: "set[int]" = set()
        self._started = False
        self._ingest_active = False
        self._eos_at: "float | None" = None
        #: slots already resubmitted for the completion timeout.
        self._timed_out: "set[int]" = set()
        self._error: "str | None" = None
        self._stop = threading.Event()
        self._pump: "threading.Thread | None" = None
        self._monitor: "threading.Thread | None" = None

    # -- setup -----------------------------------------------------------------

    def register_stream(self, name: str, source: Any) -> "ClusterCoordinator":
        """Register the cluster's (single) input stream.

        The source is the pull/push connector SPI of
        :mod:`repro.io` — the coordinator pulls batches from it and fans
        them out; push-capable sources (:class:`~repro.io.PushSource`)
        ingest via :meth:`push`.
        """
        if self._stream is not None:
            raise ValidationError(
                f"cluster already has stream {self._stream!r}; "
                "key partitioning takes exactly one input stream"
            )
        validate_source(name, source)
        self._stream = name
        self._source = source
        self._schema = source.schema
        return self

    def submit(self, cql: str, name: "str | None" = None) -> "ClusterCoordinator":
        """Compile and validate the cluster query (one per cluster)."""
        if self._stream is None:
            raise ValidationError("register_stream() the input before submit()")
        if self._cql is not None:
            raise ValidationError(
                "cluster already has a query; one query per cluster"
            )
        query_name = name or "cluster"
        query = compile_statement(
            cql, {self._stream: self._schema}, name=query_name
        )
        self._group_columns, self._key = self._validate(query)
        self._cql = cql
        self._query_name = query_name
        self._merge = MergeStage(self.config.shards, self._group_columns)
        return self

    def _validate(self, query: Any) -> "tuple[list[str], str]":
        """Check the query is cluster-eligible; returns (group cols, key)."""
        if query.arity != 1:
            raise ValidationError(
                f"query {query.name!r}: key partitioning takes single-input "
                f"queries, got arity {query.arity}"
            )
        window = query.windows[0]
        if window is None or window.is_count_based:
            raise ValidationError(
                f"query {query.name!r}: key partitioning needs a time-based "
                "window — count-window extents derive from global tuple "
                "positions, which per-shard sub-streams cannot reproduce"
            )
        operator = query.operator
        while hasattr(operator, "inner"):  # where/select wrappers commute
            operator = operator.inner
        if not isinstance(operator, GroupedAggregation):
            raise ValidationError(
                f"query {query.name!r}: key partitioning needs a GROUP-BY "
                f"aggregation, got {type(operator).__name__}"
            )
        group_columns = list(operator.group_columns)
        key = self.config.partition_key or group_columns[0]
        if key not in group_columns:
            raise ValidationError(
                f"query {query.name!r}: partition key {key!r} must be one of "
                f"the group columns {group_columns} — otherwise one group's "
                "rows straddle shards and the merge is not exact"
            )
        if self._schema.attribute(key).dtype.kind not in "iu":
            raise ValidationError(
                f"query {query.name!r}: partition key {key!r} must be an "
                "integer column"
            )
        missing = [c for c in group_columns if c not in query.output_schema]
        if missing:
            raise ValidationError(
                f"query {query.name!r}: group columns {missing} are not in "
                "the output schema; the merge stage re-sorts merged windows "
                "by the group key"
            )
        return group_columns, key

    def rebalance(self, bucket: int, shard: int) -> None:
        """Move one hash bucket to another shard (pre-ingest only).

        Mid-stream moves would let one key's open windows straddle two
        shards, breaking merge exactness, so the plan is frozen once
        ingest starts; rebalance between runs.
        """
        if self._started:
            raise ValidationError(
                "rebalance after start() would split a key's open windows "
                "across shards; rebalance before ingest begins"
            )
        if not 0 <= shard < self.config.shards:
            raise ValidationError(
                f"shard {shard} out of range [0, {self.config.shards})"
            )
        self.partitioner.reassign(bucket, shard)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ClusterCoordinator":
        """Spawn the shard fleet and begin fanning the stream out."""
        if self._cql is None or self._merge is None:
            raise ValidationError("submit() a query before start()")
        if self._started:
            raise ValidationError("cluster already started")
        self._started = True
        self._ingest_active = True
        self._shards = [self._spawn(slot) for slot in range(self.config.shards)]
        for shard in self._shards:
            shard.start()
        self.shards_live.set(self.config.shards)
        self._log = [[] for _ in range(self.config.shards)]
        self._pump = threading.Thread(
            target=self._pump_loop, name="cluster-pump", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._pump.start()
        self._monitor.start()
        return self

    def _spawn(self, slot: int) -> Any:
        """Build one shard engine bound to the slot's current epoch."""
        assert self._merge is not None
        epoch = self._merge.epoch(slot)
        on_window = partial(self._merge.on_window, slot, epoch)
        on_eos = partial(self._merge.close_shard, slot, epoch)
        if self.config.transport == "serve":
            return ProcessShard(
                slot,
                self._stream,
                self._schema,
                self._cql,
                self._query_name,
                on_window,
                on_eos,
                cpu_workers=self.config.cpu_workers,
                task_size_bytes=self.config.task_size_bytes,
                capacity_tuples=self.config.capacity_tuples,
            )
        return LocalShard(
            slot,
            self._stream,
            self._schema,
            self._cql,
            self._query_name,
            on_window,
            on_eos,
            execution=self.config.execution,
            cpu_workers=self.config.cpu_workers,
            task_size_bytes=self.config.task_size_bytes,
            capacity_tuples=self.config.capacity_tuples,
        )

    def push(self, records: Any) -> int:
        """Push records into a push-capable registered source."""
        if self._source is None or not callable(getattr(self._source, "push", None)):
            raise ValidationError(
                "the registered source is not push-capable; register a "
                "PushSource to ingest by pushing"
            )
        return self._source.push(records)

    def close_stream(self) -> None:
        """Signal end-of-stream on the registered source: the pump
        drains, shards flush their tail windows, and the merge completes."""
        if self._source is not None:
            self._source.close()

    def kill_shard(self, slot: int) -> None:
        """Failure injection: kill one shard engine abruptly.  The
        liveness machinery detects the death and resubmits the slot."""
        with self._lock:
            shard = self._shards[slot]
        if shard is not None:
            shard.kill()

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the merged output is complete (all shards closed);
        raises :class:`~repro.errors.ExecutionError` if the run failed."""
        assert self._merge is not None
        finished = self._merge.wait_done(timeout)
        if self._error is not None:
            raise ExecutionError(self._error)
        return finished

    def output(self) -> "TupleBatch | None":
        """The merged output stream emitted so far, concatenated."""
        assert self._merge is not None
        return self._merge.output()

    def results(self):
        """Consume merged windows in global order (single consumer)."""
        assert self._merge is not None
        return self._merge.results()

    @property
    def done(self) -> bool:
        """True once every window has been merged and emitted."""
        return self._merge is not None and self._merge.done

    def shutdown(self) -> None:
        """Stop the cluster and release every shard engine (idempotent)."""
        self._stop.set()
        if self._source is not None:
            try:
                self._source.close()
            except SaberError:
                pass
        for thread in (self._pump, self._monitor):
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=30.0)
        self._pump = self._monitor = None
        with self._lock:
            shards, self._shards = list(self._shards), []
        for shard in shards:
            if shard is not None:
                shard.shutdown()
        self.shards_live.set(0)
        self.registry.unregister_collector(self._collector)
        if self._merge is not None:
            self._merge.wake()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- ingest pump -----------------------------------------------------------

    def _pump_loop(self) -> None:
        """Pull → partition → log → push, until end-of-stream.

        The pump is the only pusher; it also performs recovery while
        ingest is active (the monitor just flags dead slots), so replay
        never races new pushes.
        """
        try:
            while not self._stop.is_set() and self._error is None:
                self._recover_flagged()
                try:
                    batch = self._source.next_tuples(self.config.batch_tuples)
                except EndOfStream as eos:
                    tail = eos.remainder
                    if tail is not None and len(tail):
                        self._fan_out(tail)
                    break
                except IngestInterrupted:
                    break
                self._fan_out(batch)
            self._recover_flagged()
        except SaberError as exc:
            self._fail(f"cluster ingest failed: {exc}")
        finally:
            self._finish_ingest()

    def _fan_out(self, batch: TupleBatch) -> None:
        assert self._key is not None
        parts = self.partitioner.partition(batch, self._key, self.config.shards)
        for slot, part in enumerate(parts):
            if part is None:
                continue
            with self._lock:
                self._log[slot].append(part)
                shard = self._shards[slot]
            try:
                shard.push(part)
            except Exception:
                # The part is already logged, so recovery's replay
                # covers it — no retry needed here.
                self._recover_slot(slot, force=True)
            else:
                self.tuples_pushed.inc(len(part), shard=str(slot))

    def _finish_ingest(self) -> None:
        """End-of-stream: close every live shard and arm the
        completion timeout; recovery ownership passes to the monitor."""
        with self._lock:
            shards = list(enumerate(self._shards))
        for slot, shard in shards:
            if shard is None or not shard.alive:
                continue
            try:
                shard.close()
            except Exception:
                with self._lock:
                    self._dead.add(slot)
        with self._lock:
            self._ingest_active = False
            self._eos_at = time.monotonic()

    # -- failure detection and recovery ----------------------------------------

    def _monitor_loop(self) -> None:
        """Probe shard liveness; recover dead slots once ingest is over."""
        assert self._merge is not None
        while not self._stop.wait(self.config.liveness_interval):
            if self._merge.done:
                continue
            with self._lock:
                ingest = self._ingest_active
                shards = list(enumerate(self._shards))
                flagged = set(self._dead)
            dead = flagged | {
                slot
                for slot, shard in shards
                if shard is not None and not shard.alive
            }
            # Completion timeout: shards silent for too long after
            # end-of-stream are stuck — declare them dead.
            dead |= {slot for slot, _ in shards if self._stalled(slot)}
            self.shards_live.set(self.config.shards - len(dead))
            if not dead:
                continue
            if ingest:
                with self._lock:
                    self._dead |= dead  # the pump recovers mid-ingest
                continue
            for slot in sorted(dead):
                if self._stop.is_set():
                    break
                self._recover_slot(slot)

    def _recover_flagged(self) -> None:
        """Pump-side recovery of slots the monitor flagged dead."""
        with self._lock:
            dead, self._dead = self._dead, set()
        for slot in sorted(dead):
            self._recover_slot(slot)

    def _recover_slot(self, slot: int, force: bool = False) -> None:
        """Resubmit one slot's key range onto a replacement engine.

        Callers are serialised by construction: the pump while ingest is
        active, the monitor afterwards — so the slot's retained log is
        frozen for the duration of the replay.  Without ``force`` the
        slot's health is re-checked first: a flag raised against a shard
        that has since been replaced must not kill the healthy
        replacement.
        """
        assert self._merge is not None
        with self._lock:
            old = self._shards[slot]
            log = list(self._log[slot])
            replay_and_close = not self._ingest_active
            self._dead.discard(slot)
        if not force and old is not None and old.alive:
            if not self._stalled(slot):
                return  # stale flag: the slot was already recovered
            if slot in self._timed_out:
                self._fail(
                    f"shard {slot} reported no window for completion_timeout="
                    f"{self.config.completion_timeout} s after end-of-stream, "
                    "again after it was resubmitted for the same timeout"
                )
                return
            self._timed_out.add(slot)
        if old is not None:
            old.kill()
            old.shutdown()
        if not self.config.recover:
            self._fail(
                f"shard {slot} died and recovery is disabled "
                f"(ClusterConfig.recover=False)"
            )
            return
        self._merge.reset_shard(slot)
        self.resubmits.inc(shard=str(slot))
        replacement = self._spawn(slot)  # binds the slot's new epoch
        replacement.start()
        with self._lock:
            self._shards[slot] = replacement
        try:
            for part in log:
                replacement.push(part)
                self.tuples_pushed.inc(len(part), shard=str(slot))
            if replay_and_close:
                replacement.close()
        except Exception:
            with self._lock:
                self._dead.add(slot)  # replacement died too: go again

    def _stalled(self, slot: int) -> bool:
        """Whether the slot is past its completion timeout: unfinished,
        with no window report since end-of-stream or its last report
        for ``completion_timeout`` seconds."""
        assert self._merge is not None
        with self._lock:
            eos_at = self._eos_at
        if eos_at is None or self._merge.closed(slot):
            return False
        quiet_since = max(eos_at, self._merge.last_report(slot))
        return time.monotonic() - quiet_since > self.config.completion_timeout

    def _fail(self, message: str) -> None:
        """Record a fatal cluster error and unblock every consumer."""
        self._error = message
        if self._merge is not None:
            self._merge.wake()

    # -- observability ---------------------------------------------------------

    def _samples(self) -> "Iterator[tuple]":
        """The coordinator's registry collector: the merge stage's
        counters, backlog and per-shard lag, read at scrape time."""
        merge = self._merge
        if merge is None:
            return
        yield (
            "saber_cluster_windows_merged_total",
            "counter",
            "Windows the global merge stage has emitted.",
            {},
            merge.merged_windows,
        )
        yield (
            "saber_cluster_rows_merged_total",
            "counter",
            "Output rows the global merge stage has emitted.",
            {},
            merge.merged_rows,
        )
        yield (
            "saber_cluster_merge_backlog_windows",
            "gauge",
            "Windows buffered in the merge stage awaiting slower shards.",
            {},
            merge.backlog_windows(),
        )
        for slot in range(self.config.shards):
            yield (
                "saber_cluster_shard_lag_windows",
                "gauge",
                "Windows a shard trails the furthest shard's frontier by.",
                {"shard": str(slot)},
                merge.lag(slot),
            )

    def stats(self) -> "dict[str, Any]":
        """Point-in-time cluster statistics."""
        with self._lock:
            shards = [s.stats() for s in self._shards if s is not None]
            retained = [len(log) for log in self._log]
        return {
            "config": {
                "shards": self.config.shards,
                "transport": self.config.transport,
                "execution": self.config.execution,
                "partition_key": self._key,
            },
            "shards": shards,
            "retained_batches": retained,
            "merge": self._merge.stats() if self._merge is not None else None,
            "resubmits": self.resubmits.total(),
            "error": self._error,
        }
