"""Long-lived session over the SABER engine.

:class:`SaberSession` replaces the ad-hoc ``SaberEngine`` wiring
(construct engine → ``add_query`` → one-shot ``run``) with a single
coherent surface::

    with SaberSession(cpu_workers=8) as session:
        session.register_stream("TaskEvents", ClusterMonitoringSource(seed=1))
        handle = session.sql(
            "select timestamp, category, sum(cpu) as totalCpu "
            "from TaskEvents [range 60 slide 1] group by category",
            name="CM1",
        )
        session.run(tasks_per_query=32)          # blocking, incremental
        for chunk in handle.results():           # ordered output chunks
            ...

Sessions are *long-lived*: ``run`` may be called repeatedly (each call
processes N more tasks per query on top of what ran before, over either
backend), or a run can be started in the background with :meth:`start`
and consumed incrementally through :meth:`QueryHandle.results`, then
ended with :meth:`stop` — the engine's cooperative stop drains in-flight
tasks, and ``stop(drain=True)`` additionally finalises still-open
windows.

For unbounded streaming deployments pass ``collect_output=False``:
sinks and ``results()`` still receive every full output chunk
(``collect_output`` governs engine-side *retention* for
:meth:`QueryHandle.output`, not delivery).  Consumed chunks are
released immediately; a query nobody consumes keeps at most the last
``max_buffered`` chunks in its :class:`ChunkBacklog` (oldest dropped,
counted on ``handle.dropped_chunks``), so memory stays bounded either
way.

Source binding is three-way, checked in order: explicit ``sources=`` at
:meth:`submit`; sources bound into the :class:`~repro.api.Stream` plan
via ``Stream.source``; and the session's stream registry
(:meth:`register_stream`), matched by stream name.  Sources and sinks
are :mod:`repro.io` connectors (or anything satisfying the SPI, which
is validated eagerly at registration): finite sources end their query
handles (``handle.done``), push-capable sources ingest via
:meth:`push`/:meth:`push_handle` and close via :meth:`close_stream`.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from typing import Any, Callable, Iterator

from ..analysis.lockdep import make_condition, make_lock
from ..core.cql import compile_statement
from ..core.engine import Report, SaberConfig, SaberEngine
from ..core.query import Query
from ..errors import SessionError, positive_int
from ..io.base import SinkConnector, validate_source
from ..io.push import PushHandle
from ..relational.tuples import TupleBatch
from .builder import Stream

__all__ = ["ChunkBacklog", "QueryHandle", "SaberSession"]

#: default cap on a backlog of chunks emitted but not yet consumed:
#: beyond it the oldest chunks are discarded (and counted), so an
#: unconsumed query cannot grow memory without bound during a long-lived
#: run.  Queries that need every chunk consume them (results(), drain(),
#: sinks) or retain engine-side via ``collect_output=True`` + ``output()``.
_MAX_BUFFERED_CHUNKS = 8192


class ChunkBacklog:
    """Bounded, single-consumer queue of one query's output chunks.

    The one place output waits for a consumer: a session's query
    handles, serve tenants (through those handles) and the cluster merge
    stage all queue here.  Entries are ``(window, rows)``: the global
    window id under windowed delivery, else ``None``, and the chunk's
    :class:`~repro.relational.tuples.TupleBatch` (no copy: emitted
    batches are never reused).  A full backlog drops its oldest entry and
    counts it in :attr:`dropped`.  The backlog is *open* while a producer
    may still append; :meth:`close` wakes every waiting consumer.
    """

    def __init__(self, cap: int = _MAX_BUFFERED_CHUNKS) -> None:
        positive_int(cap, "max_buffered", SessionError)
        self._cond = make_condition("api.session.ChunkBacklog._cond")
        self._chunks: "deque[tuple[int | None, TupleBatch]]" = deque(maxlen=cap)
        self._open = True
        #: entries discarded because the backlog was full.
        self.dropped = 0

    def append(self, window: "int | None", rows: TupleBatch) -> None:
        """Queue one chunk, dropping (and counting) the oldest when full."""
        with self._cond:
            if len(self._chunks) == self._chunks.maxlen:
                self.dropped += 1    # the deque discards the oldest
            self._chunks.append((window, rows))
            self._cond.notify_all()

    def open(self) -> None:
        """A producer is live again: consumers wait for its chunks."""
        with self._cond:
            self._open = True

    def close(self) -> None:
        """No producer is live: wake consumers; they drain what is left."""
        with self._cond:
            self._open = False
            self._cond.notify_all()

    @property
    def exhausted(self) -> bool:
        """Closed and empty: no chunk is queued and none is coming."""
        with self._cond:
            return not self._open and not self._chunks

    def __len__(self) -> int:
        with self._cond:
            return len(self._chunks)

    def drain(
        self, max_chunks: int, timeout: "float | None" = None
    ) -> "list[tuple[int | None, TupleBatch]]":
        """Up to ``max_chunks`` entries, oldest first.  While the backlog
        is open and empty, waits up to ``timeout`` seconds (``None``: no
        limit) for the first; an empty list means the wait lapsed or the
        backlog is :attr:`exhausted`."""
        with self._cond:
            self._wait(lambda: self._chunks or not self._open, timeout)
            count = min(max_chunks, len(self._chunks))
            return [self._chunks.popleft() for _ in range(count)]

    def wait_closed(self, timeout: "float | None" = None) -> bool:
        """Block until the backlog is closed; ``False`` on timeout."""
        with self._cond:
            return self._wait(lambda: not self._open, timeout)

    def _wait(self, ready: "Callable[[], Any]", timeout: "float | None") -> Any:
        """Wait for ``ready()`` (caller holds the condition).  A timeout
        beyond what a lock wait accepts, such as a client's ``inf``,
        waits without limit."""
        if timeout is not None and timeout > threading.TIMEOUT_MAX:
            timeout = None
        return self._cond.wait_for(ready, timeout)

    def __iter__(self) -> "Iterator[TupleBatch]":
        """Each chunk's rows, once, until the backlog is exhausted."""
        while chunks := self.drain(1):
            yield chunks[0][1]


class QueryHandle:
    """Per-query view of a session: incremental results, sinks, output."""

    def __init__(
        self,
        session: "SaberSession",
        query: Query,
        max_buffered: int = _MAX_BUFFERED_CHUNKS,
    ) -> None:
        self._session = session
        self.query = query
        self.name = query.name
        #: output chunks awaiting a consumer (:meth:`results`, :meth:`drain`).
        self.backlog = ChunkBacklog(max_buffered)
        self._sinks: "list[Callable[[TupleBatch], None]]" = []
        self._sink_connectors: "list[SinkConnector]" = []
        self._windowed = False

    # -- engine-facing ---------------------------------------------------------

    def _on_emit(self, record) -> None:
        """Result-stage sink hook (worker thread, result-stage lock).

        With sinks attached, the sinks *are* the consumers and nothing is
        buffered; otherwise row chunks queue in the backlog (windowed
        delivery queues windows instead), which releases them as they
        are consumed — either way a long-lived streaming run does not
        accumulate output in the handle.
        """
        sinks = list(self._sinks)
        if sinks:
            for sink in sinks:
                sink(record.rows)
        elif not self._windowed:
            self.backlog.append(None, record.rows)

    def _close(self) -> None:
        for connector in self._sink_connectors:
            connector.close()
        self.backlog.close()

    # -- public ----------------------------------------------------------------

    def add_sink(
        self, sink: "SinkConnector | Callable[[TupleBatch], None]"
    ) -> "QueryHandle":
        """Register a per-query sink — a :class:`~repro.io.SinkConnector`
        or a plain callback — fired live for every ordered output chunk
        *on the emitting worker's thread*: keep it fast and do not call
        back into the session from it.  Sinks take over result
        consumption: chunks emitted while any sink is attached are not
        buffered for :meth:`results`.  Connector sinks are opened with
        the query's output schema here and closed when the session
        closes."""
        if isinstance(sink, SinkConnector):
            sink.open(self.query.output_schema)
            self._sink_connectors.append(sink)
            self._sinks.append(sink.write)
        elif callable(sink):
            self._sinks.append(sink)
        else:
            raise SessionError(
                f"query {self.name!r}: sink must be a SinkConnector or a "
                f"callable, got {type(sink).__name__}"
            )
        return self

    def deliver_windows(
        self, on_window: "Callable[[int, TupleBatch], None] | None" = None
    ) -> "QueryHandle":
        """Switch to per-window delivery (before the session runs).

        Every window travels the result stage's assembly path
        (:attr:`~repro.core.query.Query.force_assembly`), and each
        finalised window with non-empty rows is handed over as
        ``(wid, rows)`` in strictly increasing window-id order: to
        ``on_window`` on the emitting worker's thread, or else into the
        backlog tagged with its id.  Row chunks stop being buffered; the
        rows are byte-for-byte the same either way."""
        self.query.force_assembly = True
        self._windowed = True
        stage = self._session.engine.run_for(self.query).result_stage
        stage.on_window = on_window or self.backlog.append
        return self

    @property
    def done(self) -> bool:
        """Whether this query's finite stream is fully processed: the
        sources ended, every task completed, and the tail windows were
        flushed.  Always ``False`` for unbounded streams."""
        return self._session.engine.run_for(self.query).eos_flushed

    @property
    def dropped_chunks(self) -> int:
        """Chunks discarded because the backlog hit its cap."""
        return self.backlog.dropped

    def drain(
        self, max_chunks: int, timeout: "float | None" = None
    ) -> "list[tuple[int | None, TupleBatch]]":
        """Up to ``max_chunks`` queued ``(window, rows)`` chunks, waiting
        up to ``timeout`` seconds for the first while a run is live
        (:meth:`ChunkBacklog.drain`); the batch form of :meth:`results`."""
        return self.backlog.drain(max_chunks, timeout)

    def results(self) -> "Iterator[TupleBatch]":
        """Consume the query's ordered output chunks (single consumer).

        If the session never ran, a blocking :meth:`SaberSession.run`
        with the session's default task budget happens first.  While a
        background run (:meth:`SaberSession.start`) is active, iteration
        is *incremental*: chunks are yielded as workers emit them and the
        iterator blocks awaiting more until the run finishes.  Each chunk
        is delivered exactly once and released afterwards, so unbounded
        streaming runs hold only the unconsumed backlog; the full
        concatenated output remains available via :meth:`output` when
        the engine collects it.
        """
        self._session._ensure_ran()
        yield from self.backlog

    def output(self) -> "TupleBatch | None":
        """The concatenated output stream (requires ``collect_output``)."""
        run = self._session.engine.run_for(self.query)
        return run.result_stage.output()

    @property
    def output_rows(self) -> int:
        """Total output rows the query has emitted so far."""
        return self._session.engine.run_for(self.query).result_stage.output_rows

    @property
    def tasks_completed(self) -> int:
        """Tasks the engine has completed for this query."""
        return self._session.engine.run_for(self.query).tasks_completed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryHandle({self.name!r}, pending_chunks={len(self.backlog)})"


class SaberSession:
    """Long-lived, context-managed front door to the SABER engine."""

    def __init__(
        self,
        config: "SaberConfig | None" = None,
        *,
        tasks_per_query: int = 64,
        **config_kwargs: Any,
    ) -> None:
        """Either pass a prepared :class:`SaberConfig` or its keyword
        arguments (``SaberSession(execution="threads", cpu_workers=8)``);
        ``tasks_per_query`` is the default per-``run`` task budget."""
        if config is not None and config_kwargs:
            raise SessionError("pass either a SaberConfig or config kwargs, not both")
        self.config = config if config is not None else SaberConfig(**config_kwargs)
        self.engine = SaberEngine(self.config)
        self._default_tasks = tasks_per_query
        self._streams: "dict[str, Any]" = {}
        self._handles: "dict[str, QueryHandle]" = {}
        self._lock = make_lock("api.session.SaberSession._lock")
        self._target = 0            # cumulative tasks per query across runs
        self._report: "Report | None" = None
        self._thread: "threading.Thread | None" = None
        self._run_error: "BaseException | None" = None
        self._running = False
        self._run_seq = 0           # bumped per run; lets a stopper detect
                                    # that the run it targeted has ended
        self._run_cond = make_condition("api.session.SaberSession._lock", lock=self._lock)
        self._run_done = threading.Event()   # set whenever no run is active
        self._run_done.set()
        self._closed = False

    # -- stream registry -------------------------------------------------------

    def register_stream(self, name: str, source: Any) -> "SaberSession":
        """Register a named source once; ``sql``/``submit`` resolve FROM
        clauses and unbound plans against the registry by stream name.

        The source is validated against the connector SPI *here* — a
        missing/wrong ``schema`` or absent ``next_tuples`` raises
        :class:`~repro.errors.ValidationError` naming the stream,
        instead of failing deep inside dispatch.
        """
        validate_source(name, source)
        self._streams[name] = source
        return self

    def stream(self, name: str) -> Stream:
        """A builder plan over a registered stream (source already bound)."""
        source = self._source_for(name)
        return Stream.source(source, name=name)

    def _source_for(self, name: str) -> Any:
        try:
            return self._streams[name]
        except KeyError:
            raise SessionError(
                f"unknown stream {name!r}; register_stream() it first "
                f"(registered: {sorted(self._streams) or 'none'})"
            ) from None

    # -- push ingestion --------------------------------------------------------

    def push(self, name: str, records: Any) -> int:
        """Push records into a registered push-capable stream; returns
        the number of tuples accepted.  Thread-safe; callable while a
        background run is live (that is the streaming deployment shape).
        Records may be a ``TupleBatch``, a structured numpy array, or
        rows (dicts / sequences)."""
        return self.push_handle(name).push(records)

    def push_handle(self, name: str) -> PushHandle:
        """A producer-facing :class:`~repro.io.PushHandle` for a
        registered push-capable stream (raises if the source has no
        ``push``)."""
        source = self._source_for(name)
        if not callable(getattr(source, "push", None)):
            raise SessionError(
                f"stream {name!r} is not push-capable "
                f"({type(source).__name__} has no .push); register a "
                "PushSource to ingest by pushing"
            )
        return PushHandle(source)

    def close_stream(self, name: str) -> None:
        """Signal end-of-stream on a registered source (finite-stream
        close): queued data drains, the query's tail windows flush, and
        its handle completes."""
        source = self._source_for(name)
        close = getattr(source, "close", None)
        if not callable(close):
            raise SessionError(
                f"stream {name!r}: {type(source).__name__} has no close()"
            )
        close()

    # -- submission ------------------------------------------------------------

    def sql(
        self,
        text: str,
        name: "str | None" = None,
        max_buffered: int = _MAX_BUFFERED_CHUNKS,
    ) -> QueryHandle:
        """Parse a CQL statement against the registered streams and
        submit it; sources are resolved from the registry by FROM-clause
        stream name.  ``max_buffered`` caps the handle's backlog of
        unconsumed chunks."""
        schemas = {n: s.schema for n, s in self._streams.items()}
        query = compile_statement(
            text, schemas, name=name or f"query{len(self._handles)}"
        )
        sources = None
        if self.config.execute_data:
            sources = [self._source_for(n) for n in query.stream_names]
            self._check_distinct_sources(query, sources)
        return self._register(query, sources, max_buffered)

    def submit(
        self,
        query: "Query | Stream",
        sources: "list[Any] | None" = None,
        sink: "SinkConnector | Callable[[TupleBatch], None] | None" = None,
        name: "str | None" = None,
    ) -> QueryHandle:
        """Submit a built :class:`Query` or an unbuilt :class:`Stream`
        plan; returns the query's :class:`QueryHandle`.

        Sources resolve in order: explicit ``sources=``; sources bound in
        the plan (``Stream.source``); the registry, by plan stream name
        (for plans) or input-schema name (for queries).  Simulation-only
        engines (``execute_data=False``) skip resolution entirely.
        """
        if isinstance(query, Stream):
            plan = query
            query = plan.build(name or f"query{len(self._handles)}")
            stream_names = plan.stream_names
        elif isinstance(query, Query):
            if name is not None and name != query.name:
                # Honor the caller's name for built queries too (e.g.
                # submitting the same workload query twice under run
                # labels); copy rather than mutate the caller's object.
                query = dataclasses.replace(query, name=name)
            # Builder-built queries carry their plan's stream names, so
            # registry resolution is identical before and after build();
            # hand-built queries fall back to their input schemas' names.
            stream_names = query.stream_names or [
                s.name for s in query.input_schemas
            ]
        else:
            raise SessionError(
                f"submit() takes a Stream plan or a Query, got {type(query).__name__}"
            )
        if sources is None and self.config.execute_data:
            bound = query.bound_sources or [None] * query.arity
            sources = [
                b if b is not None else self._source_for(stream_name)
                for b, stream_name in zip(bound, stream_names)
            ]
            self._check_distinct_sources(query, sources)
        handle = self._register(query, sources)
        if sink is not None:
            handle.add_sink(sink)
        return handle

    @staticmethod
    def _check_distinct_sources(query: Query, sources: "list[Any]") -> None:
        """Reject implicit resolution that shares one source object.

        A source is a stateful cursor: binding the same object to both
        inputs of a self-join would hand each side a disjoint interleaved
        half of the stream, silently corrupting the join.  Explicit
        ``sources=`` keeps the caller in charge of such wiring.
        """
        if len({id(s) for s in sources}) != len(sources):
            raise SessionError(
                f"query {query.name!r}: multiple inputs resolved to the same "
                "registered source object; a source is a single consuming "
                "cursor, so each input needs its own instance — pass "
                "explicit sources= (e.g. two identically-seeded sources) "
                "for self-joins"
            )

    def _register(
        self,
        query: Query,
        sources: "list[Any] | None",
        max_buffered: int = _MAX_BUFFERED_CHUNKS,
    ) -> QueryHandle:
        if sources is not None and self.config.execute_data:
            names = query.stream_names or [s.name for s in query.input_schemas]
            for stream_name, source in zip(names, sources):
                validate_source(stream_name, source)
        with self._lock:
            if self._closed:
                raise SessionError("session is closed")
            if self._running or self._target:
                raise SessionError(
                    "cannot submit after the session has run; submit every "
                    "query first, then run()/start()"
                )
            if query.name in self._handles:
                raise SessionError(f"duplicate query name {query.name!r}")
            handle = QueryHandle(self, query, max_buffered)
            self.engine.add_query(
                query,
                sources if self.config.execute_data else None,
                on_emit=handle._on_emit,
            )
            self._handles[query.name] = handle
            return handle

    # -- running ---------------------------------------------------------------

    @property
    def handles(self) -> "dict[str, QueryHandle]":
        """Submitted queries' handles, by query name (a copy)."""
        return dict(self._handles)

    @property
    def report(self) -> "Report | None":
        """The latest run's report (``None`` before the first run)."""
        return self._report

    @property
    def is_running(self) -> bool:
        """Whether a background run (:meth:`start`) is currently live."""
        return self._running

    def run(
        self, tasks_per_query: "int | None" = None, flush: bool = False
    ) -> Report:
        """Process ``tasks_per_query`` *more* tasks per query (blocking).

        Incremental by design: a second ``run(n)`` continues the same
        dispatch cursors, window state and throughput matrix, so a
        long-lived session alternates running and inspecting results.
        """
        n = self._default_tasks if tasks_per_query is None else tasks_per_query
        self._begin_run(n)
        try:
            return self._run_engine(flush)
        finally:
            self._finish_run()

    def start(self, tasks_per_query: "int | None" = None) -> "SaberSession":
        """Begin a background run; pair with :meth:`stop` (or iterate
        handles' :meth:`QueryHandle.results` and then ``stop``).

        ``tasks_per_query=None`` here means *run until stopped* (an
        effectively unbounded task budget), which is the streaming
        deployment shape; pass a number for a bounded background run.
        """
        unbounded = tasks_per_query is None
        n = (1 << 62) - self._target if unbounded else tasks_per_query
        self._begin_run(n)
        self._thread = threading.Thread(
            target=self._background, name="saber-session", daemon=True
        )
        self._thread.start()
        return self

    def _begin_run(self, n: int) -> None:
        """Reserve the run slot under the lock, then reopen the handles'
        backlogs for the run's chunks."""
        with self._lock:
            if self._closed:
                raise SessionError("session is closed")
            if self._running:
                raise SessionError("a run is already active; stop() it first")
            if self._run_error is not None:
                # A failed background run whose error was never retrieved via
                # wait()/stop() must not be silently discarded.
                error, self._run_error = self._run_error, None
                raise error
            if self.engine._drained:
                raise SessionError(
                    "session was drained (stop(drain=True) / run(flush=True) is "
                    "end-of-stream): flushed windows would re-emit from their "
                    "tail fragments — create a new session to keep processing"
                )
            positive_int(n, "tasks_per_query", SessionError)
            if not self._handles:
                raise SessionError("no queries submitted")
            # Clear a stale stop *before* the run becomes stoppable, so a
            # stop() issued after this point is never lost to a reset:
            # stop() keys off _running, which flips true under this lock.
            self.engine.clear_stop()
            self._target += n
            self._run_seq += 1
            self._running = True
            self._run_done.clear()
        for handle in self._handles.values():
            handle.backlog.open()

    def _run_engine(self, flush: bool = False) -> Report:
        report = self.engine.run(tasks_per_query=self._target, flush=flush)
        self._report = report
        return report

    def _finish_run(self) -> None:
        with self._lock:      # pairs with _begin_run: no lost target updates
            self._running = False
            # Drop the background-thread handle: once a run has finished,
            # a stale dead handle must not satisfy a later stop()/wait()
            # aimed at a *new* run (e.g. a blocking run() in another
            # thread, which has no handle of its own).  Anyone needing to
            # join captured the reference under the lock while running.
            self._thread = None
            # Re-anchor the cumulative target at the furthest query's
            # dispatch count, so the next incremental run() processes n
            # more tasks even after a stop() cut this one short.  A stop
            # can land mid-round-robin, leaving queries one task apart;
            # anchoring on the leader means a lagging query catches up by
            # at most one extra task on the next run (the engine shares
            # one target).
            if self.engine.runs:
                self._target = max(r.tasks_dispatched for r in self.engine.runs)
            self._run_done.set()
            self._run_cond.notify_all()
        for handle in self._handles.values():
            handle.backlog.close()

    def _background(self) -> None:
        try:
            self._run_engine()
        except BaseException as exc:  # re-raised in stop()/join()
            self._run_error = exc
        finally:
            self._finish_run()

    def _ensure_ran(self) -> None:
        """results() convenience: a never-run idle session runs once."""
        with self._lock:
            idle_and_unran = not self._running and self._target == 0
        if idle_and_unran:
            self.run()

    # -- stopping --------------------------------------------------------------

    def wait(self, timeout: "float | None" = None) -> "Report | None":
        """Wait for a *bounded* background run (``start(n)``) to finish
        without cutting it short; returns the report (or ``None`` on
        timeout).  For unbounded runs use :meth:`stop`."""
        if not self._run_done.wait(timeout):
            return None
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None
        self._raise_pending_error()
        return self._report

    def stop(self, drain: bool = False) -> "Report | None":
        """End a running session: stop dispatching, wait for in-flight
        tasks to drain, and return the run's report.

        The run-state check happens under the session lock (the same
        lock ``run``/``start`` reserve the run under), so a ``stop``
        racing ``start`` either lands on that run or strictly precedes
        it — a stop that wins the race is a no-op and never blocks on a
        run that began after the call.  ``drain=True`` additionally
        finalises still-open windows (end-of-stream semantics for finite
        inputs); without it, partial windows stay pending, as streaming
        semantics require.  Idempotent when nothing is running.
        """
        with self._lock:
            running = self._running
            seq = self._run_seq
            thread = self._thread if running else None
            if running:
                self.engine.request_stop()
        if running:
            if thread is not None:
                thread.join()           # exactly the run we stopped
                if self._thread is thread:
                    self._thread = None
            else:
                # Blocking run() in another thread: wait until *that*
                # run generation ends.  A predicate wait (not the shared
                # event) means a back-to-back next run — which clears the
                # stop flag and the event — cannot re-block or starve
                # this stopper; if the targeted run ended naturally the
                # stop is simply done.
                with self._run_cond:
                    self._run_cond.wait_for(
                        lambda: not self._running or self._run_seq != seq
                    )
        self._raise_pending_error()
        report = self._report
        if drain and report is not None and self.config.execute_data:
            self._report = report = self.engine.drain()
        return report

    def _raise_pending_error(self) -> None:
        """Surface an unretrieved failure from a background run."""
        if self._run_error is not None:
            error, self._run_error = self._run_error, None
            raise error

    def close(self) -> None:
        """Stop any background run, close connectors and seal the
        session.

        Connector lifecycle ends with the session: sink connectors are
        flushed/closed and every source the session consumed (registered
        or submitted) has its ``close()`` called, releasing sockets,
        reader threads and file handles.  Connector ``close`` is
        idempotent and terminal, so double closes are harmless.

        Engine resources end here too: ``stop()`` already drained and
        joined any worker processes (the processes backend forks workers
        per run and always reaps them when the run returns), and
        ``engine.shutdown()`` then unlinks the shared-memory buffer
        segments that incremental runs kept alive.
        """
        if self._closed:
            return
        try:
            self.stop()
        finally:
            self._closed = True
            for handle in self._handles.values():
                handle._close()
            seen: "set[int]" = set()
            sources = list(self._streams.values())
            for run in self.engine.runs:
                sources.extend(run.dispatcher.sources or [])
            for source in sources:
                if id(source) in seen:
                    continue
                seen.add(id(source))
                close = getattr(source, "close", None)
                if callable(close):
                    close()
            self.engine.shutdown()

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "SaberSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

