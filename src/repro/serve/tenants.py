"""Per-tenant session hosting for the serving daemon.

Each tenant admitted by the server owns one :class:`Tenant`: a
:class:`~repro.api.SaberSession` plus the resource quotas and result
plumbing the protocol layer needs.  The engine's submit-all-then-run
contract is surfaced as a tenant *lifecycle*:

1. ``register`` streams and ``submit`` queries freely;
2. the first ``push`` (with queries submitted) or ``results`` request
   *activates* the tenant — an unbounded background run starts;
3. after activation, further ``submit``/``register`` requests are
   refused with the stable error code ``session-active`` (the engine
   cannot add queries to a live run);
4. ``close`` per stream is end-of-stream: queued data drains, tail
   windows flush, and the tenant's queries complete (``done``).

Results are delivered through per-query bounded backlogs: a sink
callback appends every ordered output chunk as the engine's own
:class:`~repro.relational.tuples.TupleBatch` (no copy: emitted batches
are never reused) and ``results`` requests drain them; rows become
dicts only when a chunk goes out to a JSON connection.  The backlog
cap (:attr:`TenantQuotas.max_result_backlog_chunks`) bounds a slow
consumer's memory; overflow drops the *oldest* chunk and
counts it (``saber_result_backlog_dropped_total``) — under the
``block`` ingest policy and a live consumer this never fires, which is
exactly what the soak test asserts.

Metrics are read, not pushed: each tenant registers one collector with
the server's registry (:meth:`Tenant._samples` — its engine's series
plus ingress and backlog depths, all labelled ``tenant``) and
unregisters it on shutdown, so an evicted tenant leaves nothing behind.

Load shedding composes from the PR 3 backpressure SPI: every stream is
a :class:`~repro.io.PushSource` whose per-tenant default policy
(:attr:`TenantQuotas.backpressure`) is overridable per ``register``
frame — ``block`` applies backpressure to the pushing client,
``error`` turns a full queue into a ``backpressure`` error frame, and
``drop_oldest`` shingles the queue (drops counted and exported).
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import Any, Iterator

from ..analysis.lockdep import make_condition, make_lock
from ..api import SaberSession
from ..errors import (
    BackpressureError,
    CQLSyntaxError,
    QueryError,
    SaberError,
    SchemaError,
    SessionError,
    ValidationError,
)
from ..io.base import BackpressurePolicy
from ..io.push import PushSource
from ..metrics import MetricsRegistry, engine_samples
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .protocol import ProtocolError, decode_binary

__all__ = ["TenantQuotas", "Tenant"]

#: belt-and-braces re-check interval for results() waits; every emitted
#: chunk and every run transition notifies the condition.
_RESULTS_WAIT = 0.05


@dataclasses.dataclass(frozen=True)
class TenantQuotas:
    """Admission-control limits applied to one tenant.

    The server holds one default instance (configurable via the
    ``repro serve`` CLI) and applies it to every admitted tenant;
    embedders can pass per-tenant instances to
    :meth:`~repro.serve.server.SaberServer.admit`.
    """

    #: concurrent queries a tenant may submit.
    max_queries: int = 8
    #: push streams a tenant may register.
    max_streams: int = 8
    #: engine-side circular buffer capacity, in tasks per input stream
    #: (the :attr:`~repro.core.engine.SaberConfig.buffer_capacity_tasks`
    #: quota of the tenant's session).
    buffer_capacity_tasks: int = 96
    #: default ingress queue capacity per stream, in tuples
    #: (overridable per ``register`` frame, capped at this value).
    push_capacity_tuples: int = 1 << 16
    #: result chunks buffered per query awaiting ``results`` requests;
    #: beyond this the oldest chunk is dropped (and counted).
    max_result_backlog_chunks: int = 4096
    #: default ingress backpressure policy: ``block`` | ``error`` |
    #: ``drop_oldest`` (overridable per ``register`` frame).
    backpressure: str = "block"
    #: worker threads in the tenant's session.
    cpu_workers: int = 2
    #: query task size phi, in bytes.  Serving keeps this well below the
    #: batch-oriented 1 MiB default: one task's tuple count must fit the
    #: ingress queue (:attr:`push_capacity_tuples`), or a ``block``
    #: stream could never satisfy a dispatcher pull before end-of-stream.
    task_size_bytes: int = 64 << 10

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "backpressure":
                BackpressurePolicy.of(value)
            elif isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValidationError(
                    f"TenantQuotas.{field.name} must be a positive integer, got {value!r}"
                )


class _ResultQueue:
    """Bounded backlog of one query's output chunks.

    Entries are ``(window, rows)``: the global window id (windows-mode
    queries only, else ``None``) and the chunk's batch.
    """

    def __init__(self, cap: int) -> None:
        self._cond = make_condition("serve.tenants._ResultQueue._cond")
        self._chunks: "deque[tuple[int | None, TupleBatch]]" = deque()
        self._cap = cap
        #: chunks discarded because the backlog hit its cap.
        self.dropped = 0

    def append(self, window: "int | None", rows: TupleBatch) -> None:
        """Queue one chunk, dropping (and counting) the oldest when full."""
        with self._cond:
            if len(self._chunks) >= self._cap:
                self._chunks.popleft()
                self.dropped += 1
            self._chunks.append((window, rows))
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake blocked drainers (used when the tenant shuts down)."""
        with self._cond:
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._chunks)

    def drain(
        self, max_chunks: int, timeout: float, done: Any
    ) -> "list[tuple[int | None, TupleBatch]]":
        """Up to ``max_chunks`` chunks, waiting ``timeout`` seconds for
        the first one unless ``done()`` says the query has completed."""
        deadline = time.monotonic() + timeout
        chunks: "list[tuple[int | None, TupleBatch]]" = []
        with self._cond:
            while not self._chunks:
                if done():
                    return chunks
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return chunks
                self._cond.wait(min(remaining, _RESULTS_WAIT))
            while self._chunks and len(chunks) < max_chunks:
                chunks.append(self._chunks.popleft())
        return chunks


class Tenant:
    """One tenant's session, streams, queries and result backlogs."""

    def __init__(
        self,
        name: str,
        quotas: TenantQuotas,
        registry: MetricsRegistry,
        execution: str = "threads",
    ) -> None:
        self.name = name
        self.quotas = quotas
        self.registry = registry
        self.session = SaberSession(
            execution=execution,
            cpu_workers=quotas.cpu_workers,
            use_gpu=False,
            collect_output=False,
            buffer_capacity_tasks=quotas.buffer_capacity_tasks,
            task_size_bytes=quotas.task_size_bytes,
        )
        self._lock = make_lock("serve.tenants.Tenant._lock")
        self._streams: "dict[str, PushSource]" = {}
        self._queries: "dict[str, _ResultQueue]" = {}
        self._active = False
        self._closed = False
        #: monotonic timestamp of the last client frame touching this
        #: tenant; the server's idle-eviction loop compares it against
        #: :attr:`~repro.serve.server.ServeConfig.tenant_idle_timeout`.
        self.last_activity = time.monotonic()
        self._collector = registry.register_collector(self._samples)

    # -- registration ----------------------------------------------------------

    def register(
        self,
        stream: str,
        schema_spec: str,
        capacity: "int | None" = None,
        policy: "str | None" = None,
    ) -> "dict[str, Any]":
        """Create a push stream; returns the ``ok`` frame fields."""
        with self._lock:
            self._check_open()
            if self._active:
                raise ProtocolError(
                    "session-active",
                    "cannot register streams after the session started "
                    "running; register every stream before the first push",
                )
            if stream in self._streams:
                raise ProtocolError(
                    "bad-field", f"stream {stream!r} is already registered"
                )
            if len(self._streams) >= self.quotas.max_streams:
                raise ProtocolError(
                    "quota",
                    f"tenant {self.name!r} is at its stream quota "
                    f"({self.quotas.max_streams})",
                )
            try:
                schema = Schema.parse(schema_spec, name=stream)
            except SchemaError as exc:
                raise ProtocolError("bad-schema", str(exc)) from None
            cap = self.quotas.push_capacity_tuples
            if capacity is not None:
                if capacity <= 0:
                    raise ProtocolError(
                        "bad-field", f"capacity must be positive, got {capacity}"
                    )
                cap = min(capacity, self.quotas.push_capacity_tuples)
            try:
                chosen = BackpressurePolicy.of(policy or self.quotas.backpressure)
            except (SaberError, ValueError, KeyError) as exc:
                raise ProtocolError("bad-field", str(exc)) from None
            source = PushSource(schema, capacity_tuples=cap, policy=chosen)
            self.session.register_stream(stream, source)
            self._streams[stream] = source
            return {
                "stream": stream,
                "capacity": cap,
                "policy": chosen.value,
            }

    def touch(self) -> None:
        """Record client activity (any frame) for idle-timeout eviction."""
        self.last_activity = time.monotonic()

    def submit(
        self, cql: str, name: "str | None" = None, windows: bool = False
    ) -> "dict[str, Any]":
        """Compile and submit a CQL statement; returns ``ok`` fields.

        ``windows=True`` switches the query to per-window delivery: the
        engine routes every window through the result-stage assembly
        path (:attr:`~repro.core.query.Query.force_assembly`) and the
        backlog queues one chunk per finalised window, tagged with its
        id, in strictly increasing window-id order.  The rows are
        byte-for-byte the same either way; this is the cluster
        session's remote-shard transport."""
        with self._lock:
            self._check_open()
            if self._active:
                raise ProtocolError(
                    "session-active",
                    "cannot submit queries after the session started "
                    "running; submit every query before the first push",
                )
            if len(self._queries) >= self.quotas.max_queries:
                raise ProtocolError(
                    "quota",
                    f"tenant {self.name!r} is at its query quota "
                    f"({self.quotas.max_queries})",
                )
            query_name = name or f"q{len(self._queries)}"
            if query_name in self._queries:
                raise ProtocolError(
                    "bad-field", f"query {query_name!r} already exists"
                )
            backlog = _ResultQueue(self.quotas.max_result_backlog_chunks)
            try:
                handle = self.session.sql(cql, name=query_name)
            except CQLSyntaxError as exc:
                raise ProtocolError("bad-cql", str(exc)) from None
            except (QueryError, SchemaError, SessionError) as exc:
                raise ProtocolError("bad-cql", str(exc)) from None
            # Sinks run on the emitting worker thread: only enqueue there.
            if windows:
                handle.query.force_assembly = True
                handle.add_window_sink(
                    lambda wid, rows: backlog.append(int(wid), rows)
                )
                # The window sink carries every output row; a no-op row
                # sink keeps the handle from double-buffering chunks.
                handle.add_sink(lambda batch: None)
            else:
                handle.add_sink(lambda batch: backlog.append(None, batch))
            self._queries[query_name] = backlog
            return {
                "query": query_name,
                "schema": handle.query.output_schema.spec,
            }

    # -- the data plane --------------------------------------------------------

    def push(self, stream: str, rows: "list[Any] | bytes") -> int:
        """Ingest rows — JSON rows, or a binary frame's packed payload;
        activates the session on first data.  Returns the number of
        tuples accepted."""
        source = self._stream(stream)
        self._maybe_activate()
        if isinstance(rows, bytes):
            rows = decode_binary(source.schema, rows)
        try:
            return source.push(rows)
        except BackpressureError as exc:
            raise ProtocolError("backpressure", str(exc)) from None
        except ValidationError as exc:
            code = "closed" if source.closed else "bad-rows"
            raise ProtocolError(code, str(exc)) from None
        except (TypeError, ValueError, KeyError) as exc:
            raise ProtocolError("bad-rows", f"rows do not fit the schema: {exc}") from None

    def results(
        self,
        query: str,
        max_chunks: int = 16,
        timeout: float = 5.0,
    ) -> "tuple[list[tuple[int | None, TupleBatch]], bool]":
        """Drain up to ``max_chunks`` buffered ``(window, rows)`` chunks
        for ``query``, waiting up to ``timeout`` seconds for the first
        one; returns ``(chunks, done)``."""
        with self._lock:
            self._check_open()
            backlog = self._queries.get(query)
            if backlog is None:
                raise ProtocolError(
                    "unknown-query",
                    f"unknown query {query!r} "
                    f"(submitted: {sorted(self._queries) or 'none'})",
                )
            handle = self.session.handles[query]
        self._maybe_activate()
        chunks = backlog.drain(max_chunks, timeout, lambda: self._done(handle))
        return chunks, self._done(handle) and not len(backlog)

    def _done(self, handle: Any) -> bool:
        """The query can produce no further chunks."""
        if self._closed:
            return True
        return handle.done or (self._active and not self.session.is_running)

    def close_stream(self, stream: str) -> None:
        """End-of-stream: queued data drains and tail windows flush."""
        self._stream(stream).close()

    def _stream(self, name: str) -> PushSource:
        with self._lock:
            self._check_open()
            source = self._streams.get(name)
        if source is None:
            raise ProtocolError(
                "unknown-stream",
                f"unknown stream {name!r} "
                f"(registered: {sorted(self._streams) or 'none'})",
            )
        return source

    def _maybe_activate(self) -> None:
        """Start the unbounded background run once queries exist."""
        with self._lock:
            if self._active or self._closed or not self._queries:
                return
            self._active = True
        self.session.start()

    # -- lifecycle -------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the tenant's background run has started."""
        return self._active

    def stats(self) -> "dict[str, Any]":
        """A compact per-tenant statistics snapshot (``stats`` frames)."""
        with self._lock:
            streams = {
                name: {
                    "queued_tuples": source.queued_tuples,
                    "dropped_tuples": source.dropped_tuples,
                    "closed": source.closed,
                    "policy": source.policy.value,
                }
                for name, source in self._streams.items()
            }
            queries = {
                name: {
                    "backlog_chunks": len(backlog),
                    "dropped_chunks": backlog.dropped,
                }
                for name, backlog in self._queries.items()
            }
            active = self._active
        for name, backlog in queries.items():
            handle = self.session.handles.get(name)
            if handle is not None:
                backlog["done"] = self._done(handle)
        return {
            "tenant": self.name,
            "active": active,
            "streams": streams,
            "queries": queries,
        }

    def _samples(self) -> "Iterator[tuple]":
        """The tenant's registry collector: the engine's series plus the
        ingress queues and result backlogs, read at scrape time."""
        with self._lock:
            streams = list(self._streams.items())
            queries = list(self._queries.items())
        yield from engine_samples(self.session.engine, tenant=self.name)
        for stream, source in streams:
            labels = {"tenant": self.name, "stream": stream}
            yield (
                "saber_ingest_rows_total",
                "counter",
                "Rows accepted into ingress queues via push frames.",
                labels,
                source.pushed_tuples,
            )
            yield (
                "saber_ingress_queued_tuples",
                "gauge",
                "Tuples currently queued in a stream's ingress queue.",
                labels,
                source.queued_tuples,
            )
            yield (
                "saber_ingress_dropped_tuples_total",
                "counter",
                "Tuples evicted from ingress queues under drop_oldest.",
                labels,
                source.dropped_tuples,
            )
        for query, backlog in queries:
            labels = {"tenant": self.name, "query": query}
            yield (
                "saber_result_backlog_chunks",
                "gauge",
                "Output chunks queued awaiting results requests.",
                labels,
                len(backlog),
            )
            yield (
                "saber_result_backlog_dropped_total",
                "counter",
                "Output chunks discarded because a result backlog was full.",
                labels,
                backlog.dropped,
            )

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("closed", f"tenant {self.name!r} session is closed")

    def shutdown(self, drain: bool = True, drain_timeout: float = 30.0) -> None:
        """Stop the tenant and release its engine resources.  Idempotent.

        ``drain=True`` is the graceful path (SIGTERM): open streams are
        closed first (end-of-stream), the background run is given up to
        ``drain_timeout`` seconds to process the queued tail and flush
        windows naturally, and only then is the run stopped.  With
        ``drain=False`` the run is cut short immediately; queued ingress
        data is discarded with the session.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            streams = list(self._streams.values())
            was_active = self._active
        try:
            if drain:
                for source in streams:
                    source.close()
                if was_active:
                    # EOS makes the unbounded run finish on its own once
                    # the tails are processed; the timeout is a backstop
                    # against a wedged worker, after which close() cuts
                    # the run short.
                    self.session.wait(timeout=drain_timeout)
        finally:
            try:
                self.session.close()
            finally:
                self.registry.unregister_collector(self._collector)
                for backlog in self._queries.values():
                    backlog.wake()
