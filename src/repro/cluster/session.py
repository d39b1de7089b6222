"""Session front door to a key-partitioned cluster.

:class:`ClusterSession` mirrors :class:`~repro.api.SaberSession` for
multi-engine runs: register a stream, submit CQL, start, consume — the
same shapes, backed by a :class:`~repro.cluster.coordinator.ClusterCoordinator`
instead of one engine::

    with ClusterSession(shards=4, transport="local") as session:
        session.register_stream("Syn", SyntheticSource(seed=1, limit=1 << 18))
        handle = session.sql(
            "select timestamp, a2, sum(a5) as total "
            "from Syn [range 1024 slide 1024] group by a2",
            name="GROUP-BY",
        )
        session.start()
        session.wait()
        merged = handle.output()       # byte-identical to a single engine

The session accepts exactly one stream and one query — a cluster is a
single partitioned pipeline; run several sessions for several queries.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..analysis.lockdep import make_lock
from ..errors import SessionError
from ..metrics import MetricsRegistry
from ..relational.tuples import TupleBatch
from .coordinator import ClusterConfig, ClusterCoordinator
from .partitioner import Partitioner

__all__ = ["ClusterHandle", "ClusterSession"]


class ClusterHandle:
    """Per-query view of a cluster run: merged results and output."""

    def __init__(self, session: "ClusterSession", name: str) -> None:
        self._session = session
        self.name = name

    @property
    def done(self) -> bool:
        """Whether the merged output is complete (every shard closed)."""
        return self._session._coordinator.done

    def results(self) -> "Iterator[TupleBatch]":
        """Consume merged windows in global order (single consumer)."""
        return self._session._coordinator.results()

    def output(self) -> "TupleBatch | None":
        """The merged output stream emitted so far, concatenated —
        byte-identical to the single-engine run once :attr:`done`."""
        return self._session._coordinator.output()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterHandle({self.name!r}, done={self.done})"


class ClusterSession:
    """Long-lived, context-managed front door to a shard cluster."""

    def __init__(
        self,
        config: "ClusterConfig | None" = None,
        registry: "MetricsRegistry | None" = None,
        partitioner: "Partitioner | None" = None,
        **config_kwargs: Any,
    ) -> None:
        """Either pass a prepared :class:`ClusterConfig` or its keyword
        arguments (``ClusterSession(shards=4, transport="serve")``)."""
        self._coordinator = ClusterCoordinator(
            config, registry=registry, partitioner=partitioner, **config_kwargs
        )
        self._lock = make_lock("cluster.session.ClusterSession._lock")
        self._stream: "str | None" = None
        self._handle: "ClusterHandle | None" = None
        self._started = False
        self._closed = False

    @property
    def config(self) -> ClusterConfig:
        """The cluster configuration this session was built with."""
        return self._coordinator.config

    @property
    def registry(self) -> MetricsRegistry:
        """The cluster metrics registry (per-shard throughput, lag,
        resubmits, merge counters)."""
        return self._coordinator.registry

    # -- setup -----------------------------------------------------------------

    def register_stream(self, name: str, source: Any) -> "ClusterSession":
        """Register the cluster's single input stream (pull or push
        connector)."""
        with self._lock:
            self._check_open()
            self._coordinator.register_stream(name, source)
            self._stream = name
        return self

    def sql(self, text: str, name: "str | None" = None) -> ClusterHandle:
        """Compile, validate and submit the cluster query; returns its
        handle.  Raises :class:`~repro.errors.ValidationError` for
        queries that cannot be key-partitioned (see
        :meth:`ClusterCoordinator.submit`)."""
        with self._lock:
            self._check_open()
            if self._handle is not None:
                raise SessionError(
                    "cluster session already has a query; a cluster is one "
                    "partitioned pipeline — run another session for another "
                    "query"
                )
            self._coordinator.submit(text, name=name)
            self._handle = ClusterHandle(self, name or "cluster")
            return self._handle

    def rebalance(self, bucket: int, shard: int) -> "ClusterSession":
        """Move one hash bucket to another shard (pre-ingest only)."""
        self._coordinator.rebalance(bucket, shard)
        return self

    # -- running ---------------------------------------------------------------

    def start(self) -> "ClusterSession":
        """Spawn the shard fleet and begin fanning the stream out."""
        with self._lock:
            self._check_open()
            if self._started:
                raise SessionError("cluster session already started")
            self._started = True
        self._coordinator.start()
        return self

    def push(self, name: str, records: Any) -> int:
        """Push records into the registered push-capable stream."""
        self._require_stream(name)
        return self._coordinator.push(records)

    def close_stream(self, name: str) -> None:
        """Signal end-of-stream: shards drain, tail windows flush, and
        the merged output completes."""
        self._require_stream(name)
        self._coordinator.close_stream()

    def kill_shard(self, slot: int) -> None:
        """Failure injection: kill one shard; its key range is
        resubmitted onto a replacement engine."""
        self._coordinator.kill_shard(slot)

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the merged output is complete; ``False`` on
        timeout.  Raises if the cluster run failed."""
        return self._coordinator.wait(timeout)

    @property
    def handle(self) -> "ClusterHandle | None":
        """The submitted query's handle, or ``None`` before ``sql()``."""
        return self._handle

    def stats(self) -> "dict[str, Any]":
        """Point-in-time cluster statistics (shards, merge, resubmits)."""
        return self._coordinator.stats()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut the cluster down and release every shard (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._coordinator.shutdown()

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("cluster session is closed")

    def _require_stream(self, name: str) -> None:
        if name != self._stream:
            raise SessionError(
                f"unknown stream {name!r}; this cluster's stream is "
                f"{self._stream!r}"
            )
