"""A small blocking client for the ``repro serve`` protocol.

:class:`ServeClient` wraps one TCP connection in request/response
method calls — the protocol is strictly one terminal ``ok``/``error``
frame per request, with ``results`` additionally streaming zero or
more ``chunk`` frames first, so a blocking client needs no reader
thread.  Error frames are raised as
:class:`~repro.serve.protocol.ProtocolError` carrying the server's
stable error code.

This is the client the daemon's own tests, the soak test and
documentation examples use::

    with ServeClient("127.0.0.1", 7070, tenant="acme") as client:
        client.register("trades", "timestamp:long, price:float")
        client.submit(
            "select timestamp, sum(price) as total "
            "from trades [rows 128 slide 128]",
            name="sums",
        )
        client.push("trades", [{"timestamp": i, "price": 1.0} for i in range(256)])
        client.close_stream("trades")
        chunks, done = client.results("sums", timeout=10.0)

Rows cross the wire as bytes wherever the client can do it: it asks
for binary ``chunk`` frames at ``hello`` and pushes every stream it
registered itself as a binary ``push`` (rows packed in the stream's
tuple layout).  Rows that do not pack, and streams registered on
another connection, go as JSON rows, so the server validates them
exactly as it validates any JSON client.  :meth:`ServeClient.results`
decodes binary chunks to the same dicts a JSON chunk carries;
:meth:`ServeClient.window_results` hands them over as the decoded
batches themselves.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from ..errors import SaberError
from ..io.records import as_batch, batch_to_rows, rows_to_batch
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_binary,
    encode_binary,
    encode_frame,
)

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking request/response client for one tenant connection."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        timeout: "float | None" = 30.0,
    ) -> None:
        """Connect and perform the ``hello`` handshake; ``timeout`` is
        the socket-level cap on waiting for any single server frame."""
        self.tenant = tenant
        #: schemas of the streams registered on this connection.
        self._schemas: "dict[str, Schema]" = {}
        #: parsed ``schema`` specs of binary chunks seen so far.
        self._chunk_schemas: "dict[str, Schema]" = {}
        #: output schemas of the queries submitted on this connection
        #: (a JSON chunk names none).
        self._query_schemas: "dict[str, Schema]" = {}
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._closed = False
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.server_info = self.request(
                {"type": "hello", "tenant": tenant, "codec": "binary"}
            )
        except BaseException:
            self._drop()
            raise

    # -- plumbing --------------------------------------------------------------

    def _read_frame(self) -> "dict[str, Any]":
        raw = self._reader.readline(MAX_FRAME_BYTES + 2)
        if not raw:
            raise ProtocolError("closed", "the server closed the connection")
        try:
            frame = json.loads(raw)
        except ValueError:
            frame = None
        if not isinstance(frame, dict) or "type" not in frame:
            raise ProtocolError("bad-frame", f"unintelligible server frame: {raw!r}")
        if frame["type"] == "chunk" and "bytes" in frame:
            frame["batch"] = self._read_chunk_batch(frame)
        return frame

    def _read_chunk_batch(self, frame: "dict[str, Any]") -> TupleBatch:
        """Read a binary chunk's payload and decode it to a batch."""
        size, spec = frame["bytes"], frame.get("schema")
        if not isinstance(size, int) or size < 0 or not isinstance(spec, str):
            raise ProtocolError("bad-frame", f"malformed binary chunk header: {frame!r}")
        payload = self._reader.read(size)
        if len(payload) < size:
            raise ProtocolError(
                "closed", f"the server closed the connection {len(payload)} "
                f"bytes into a {size}-byte chunk"
            )
        schema = self._chunk_schemas.get(spec)
        if schema is None:
            try:
                schema = Schema.parse(spec, name=str(frame.get("query")))
            except SaberError as exc:
                raise ProtocolError("bad-frame", f"bad chunk schema: {exc}") from None
            self._chunk_schemas[spec] = schema
        return decode_binary(schema, payload)

    def request(self, frame: "dict[str, Any]") -> "dict[str, Any]":
        """Send one frame and return the terminal ``ok`` frame's fields
        (raising :class:`ProtocolError` on an ``error`` frame).  Any
        ``chunk`` frames are collected under the key ``"chunk_frames"``."""
        return self._exchange(encode_frame(frame))

    def _exchange(self, data: bytes) -> "dict[str, Any]":
        """Send one encoded request and read frames up to its reply."""
        if self._closed:
            raise ProtocolError("closed", "client is closed")
        self._sock.sendall(data)
        chunks: "list[dict[str, Any]]" = []
        while True:
            reply = self._read_frame()
            if reply["type"] == "chunk":
                chunks.append(reply)
                continue
            if reply["type"] == "error":
                raise ProtocolError(reply.get("code", "internal"), reply.get("message", ""))
            if reply["type"] == "ok":
                if chunks:
                    reply = {**reply, "chunk_frames": chunks}
                return reply
            raise ProtocolError(
                "bad-frame", f"unexpected server frame type {reply['type']!r}"
            )

    # -- the protocol verbs ----------------------------------------------------

    def register(
        self,
        stream: str,
        schema: str,
        capacity: "int | None" = None,
        policy: "str | None" = None,
    ) -> "dict[str, Any]":
        """Register a push stream; returns the server's ``ok`` fields."""
        frame: "dict[str, Any]" = {"type": "register", "stream": stream, "schema": schema}
        if capacity is not None:
            frame["capacity"] = capacity
        if policy is not None:
            frame["policy"] = policy
        reply = self.request(frame)
        # The server parsed the same spec, so this cannot fail.
        self._schemas[stream] = Schema.parse(schema, name=stream)
        return reply

    def submit(
        self, cql: str, name: "str | None" = None, windows: bool = False
    ) -> "dict[str, Any]":
        """Submit a CQL statement; returns ``{"query": ..., "schema": ...}``.

        ``windows=True`` requests per-window result chunks, each tagged
        with its global window id (drain them via
        :meth:`window_results`)."""
        frame: "dict[str, Any]" = {"type": "submit", "cql": cql}
        if name is not None:
            frame["name"] = name
        if windows:
            frame["windows"] = True
        reply = self.request(frame)
        self._query_schemas[reply["query"]] = Schema.parse(
            reply["schema"], name=reply["query"]
        )
        return reply

    def push(self, stream: str, rows: "list[Any] | TupleBatch") -> int:
        """Push rows (or a batch) into a registered stream; returns
        tuples accepted.

        A stream registered on this connection goes as one binary frame
        when the rows pack into its schema; anything else goes as JSON
        rows for the server to validate (and reject) as usual."""
        schema = self._schemas.get(stream)
        if schema is not None:
            try:
                batch = as_batch(schema, rows)
            except (SaberError, TypeError, ValueError):
                pass
            else:
                frame = {"type": "push", "stream": stream}
                return int(self._exchange(encode_binary(frame, batch))["accepted"])
        if isinstance(rows, TupleBatch):
            rows = batch_to_rows(rows)
        reply = self.request({"type": "push", "stream": stream, "rows": rows})
        return int(reply["accepted"])

    def _results(
        self, query: str, max_chunks: int, timeout: float
    ) -> "tuple[list[dict[str, Any]], bool]":
        """One ``results`` request: its chunk frames and ``done``."""
        reply = self.request(
            {
                "type": "results",
                "query": query,
                "max_chunks": max_chunks,
                "timeout": timeout,
            }
        )
        return reply.get("chunk_frames", []), bool(reply["done"])

    def results(
        self,
        query: str,
        max_chunks: int = 16,
        timeout: float = 5.0,
    ) -> "tuple[list[list[dict[str, Any]]], bool]":
        """Drain up to ``max_chunks`` output chunks as row dicts; returns
        ``(chunks, done)`` where ``done`` means the query can produce
        no further output."""
        frames, done = self._results(query, max_chunks, timeout)
        return [
            batch_to_rows(f["batch"]) if "batch" in f else f["rows"] for f in frames
        ], done

    def window_results(
        self,
        query: str,
        max_chunks: int = 16,
        timeout: float = 5.0,
    ) -> "tuple[list[tuple[int | None, TupleBatch]], bool]":
        """Like :meth:`results` for windows-mode queries, but as batches:
        returns ``([(window_id, batch), ...], done)`` with each chunk's
        global window id (``None`` for chunks of a non-windows query).
        A binary chunk's batch is its decoded payload; a JSON chunk's
        rows are packed into the output schema of a query submitted on
        this connection."""
        frames, done = self._results(query, max_chunks, timeout)
        return [
            (
                f.get("window"),
                f["batch"] if "batch" in f
                else rows_to_batch(self._query_schemas[query], f["rows"]),
            )
            for f in frames
        ], done

    def close_stream(self, stream: str) -> None:
        """Signal end-of-stream on one of this tenant's streams."""
        self.request({"type": "close", "stream": stream})

    def stats(self) -> "dict[str, Any]":
        """The server's statistics snapshot."""
        return self.request({"type": "stats"})["stats"]

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        return bool(self.request({"type": "ping"}).get("pong"))

    def close(self) -> None:
        """Send a connection ``close`` (best-effort) and drop the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(encode_frame({"type": "close"}))
            self._reader.readline(MAX_FRAME_BYTES)  # the 'bye' ok frame
        except OSError:
            pass
        finally:
            self._drop()

    def _drop(self) -> None:
        """Close the socket without a goodbye."""
        self._closed = True
        for closeable in (self._reader, self._sock):
            try:
                closeable.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
