"""TCP line-protocol connectors.

:class:`SocketSource` accepts one producer connection and parses
newline-delimited records (JSONL objects or CSV values in schema order)
into a bounded ingress queue — it *is* a :class:`~repro.io.PushSource`
fed by a reader thread, so backpressure policies and EOS semantics are
identical to in-process push ingestion.  The producer closing its
connection is end-of-stream.

:class:`SocketSink` is the matching producer side: it connects to a
line-protocol endpoint and writes query output (or recorded batches —
the benchmark uses it as a load generator) as JSONL/CSV lines.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable

from ..errors import EndOfStream, ValidationError, choice
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .base import BackpressurePolicy, SinkConnector, SourceConnector
from .push import PushSource
from .files import FORMATS
from .records import batch_to_csv, batch_to_jsonl, csv_to_rows, jsonl_to_rows

__all__ = ["SocketSource", "SocketSink"]

#: parsed-line batching granularity of the reader thread.
_READ_CHUNK_LINES = 256


class SocketSource(SourceConnector):
    """Listens for one TCP producer and exposes its lines as a stream.

    Binds immediately (``port=0`` picks an ephemeral port — read
    :attr:`address` to learn it) and accepts in a daemon reader thread,
    so construction never blocks.  Disconnect = end of stream.
    """

    def __init__(
        self,
        schema: Schema,
        host: str = "127.0.0.1",
        port: int = 0,
        format: str = "jsonl",
        capacity_tuples: int = 1 << 16,
        policy: "BackpressurePolicy | str" = BackpressurePolicy.BLOCK,
    ) -> None:
        self.schema = schema
        self.format = choice(FORMATS)(format, "format")
        self._queue = PushSource(schema, capacity_tuples=capacity_tuples, policy=policy)
        self._error: "ValidationError | None" = None
        self._server = socket.create_server((host, port))
        self.address: "tuple[str, int]" = self._server.getsockname()[:2]
        self._reader = threading.Thread(
            target=self._read_loop, name="saber-socket-source", daemon=True
        )
        self._reader.start()

    # -- reader thread -------------------------------------------------------

    def _read_loop(self) -> None:
        parse = jsonl_to_rows if self.format == "jsonl" else csv_to_rows
        try:
            conn, __ = self._server.accept()
        except OSError:
            self._queue.close()  # listener closed before any producer
            return
        try:
            with conn, conn.makefile("r", encoding="utf-8") as lines:
                pending: "list[str]" = []
                for line in lines:
                    pending.append(line)
                    if len(pending) >= _READ_CHUNK_LINES:
                        self._queue.push(parse(self.schema, pending))
                        pending.clear()
                if pending:
                    self._queue.push(parse(self.schema, pending))
        except ValidationError as exc:
            # Malformed line: a corrupt stream, not a clean end — the
            # consumer re-raises this instead of reporting end-of-stream.
            # (Unless the queue was closed under the reader: that is a
            # shutdown race, not corruption.)
            if not self._queue.closed:
                self._error = exc
        except OSError:
            pass  # disconnect ends the stream below
        finally:
            self._queue.close()
            try:
                self._server.close()
            except OSError:
                pass

    # -- pull SPI (delegated to the ingress queue) ---------------------------

    def next_tuples(self, count: int) -> TupleBatch:
        if self._error is not None:
            raise self._error
        try:
            return self._queue.next_tuples(count)
        except EndOfStream:
            if self._error is not None:
                raise self._error from None
            raise

    def bind_stop(self, check: "Callable[[], bool]") -> None:
        self._queue.bind_stop(check)

    @property
    def dropped_tuples(self) -> int:
        return self._queue.dropped_tuples

    @property
    def queued_tuples(self) -> int:
        return self._queue.queued_tuples

    def close(self) -> None:
        self._queue.close()
        try:
            self._server.close()
        except OSError:
            pass


class SocketSink(SinkConnector):
    """Writes batches as newline-delimited records to a TCP endpoint."""

    def __init__(self, host: str, port: int, format: str = "jsonl", timeout: float = 10.0) -> None:
        self.format = choice(FORMATS)(format, "format")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._sock: "socket.socket | None" = None
        self.rows_written = 0

    def open(self, schema: "Schema | None" = None) -> None:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)

    def write(self, batch: TupleBatch) -> None:
        self.open()
        encode = batch_to_jsonl if self.format == "jsonl" else batch_to_csv
        self._sock.sendall(encode(batch).encode("utf-8"))
        self.rows_written += len(batch)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            self._sock.close()
            self._sock = None
