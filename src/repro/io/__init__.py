"""Data-plane connectors: pluggable sources and sinks (the I/O SPI).

How data gets **in**:

* :class:`MemorySource` — finite, from in-memory rows or a batch;
* :class:`PushSource` / :class:`PushHandle` — producer-driven ingestion
  through a bounded ingress queue (``session.push(name, records)``);
* :class:`FileReplaySource` — JSONL/CSV replay, optionally paced by a
  :class:`ReplayClock`;
* :class:`SocketSource` — TCP line protocol (one producer connection);
* :class:`GeneratorSource` — base class of the bundled workload
  generators; ``limit=`` makes any of them finite (any bare object
  with ``schema`` + ``next_tuples`` also works: the dispatcher
  duck-types).

How data gets **out** (attach to a query via ``submit(..., sink=...)``
or ``handle.add_sink``):

* :class:`MemorySink`, :class:`CallbackSink`, :class:`FileSink`,
  :class:`SocketSink`.

Finite sources end with :class:`~repro.errors.EndOfStream`; the engine
drains the query, flushes its still-open windows and completes its
handle.  Bounded stages apply a :class:`BackpressurePolicy` (block /
drop-oldest / error).  See ``docs/api.md`` for the SPI contract.
"""

from .base import (
    BackpressurePolicy,
    GeneratorSource,
    SinkConnector,
    SourceConnector,
    validate_source,
)
from .files import FileReplaySource, FileSink, ReplayClock, write_batch
from .memory import CallbackSink, MemorySink, MemorySource
from .push import PushHandle, PushSource
from .records import as_batch, batch_to_rows, rows_to_batch
from .sockets import SocketSink, SocketSource

__all__ = [
    "BackpressurePolicy",
    "SourceConnector",
    "SinkConnector",
    "GeneratorSource",
    "validate_source",
    "MemorySource",
    "MemorySink",
    "CallbackSink",
    "PushSource",
    "PushHandle",
    "FileReplaySource",
    "FileSink",
    "ReplayClock",
    "write_batch",
    "SocketSource",
    "SocketSink",
    "as_batch",
    "rows_to_batch",
    "batch_to_rows",
]
