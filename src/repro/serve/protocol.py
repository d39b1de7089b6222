"""The ``repro serve`` wire protocol: newline-delimited JSON frames.

The daemon speaks the same line discipline as the PR 3 socket
connectors — one JSON object per ``\\n``-terminated line — lifted from
raw tuples to a small verb set.  Client-to-server frames carry a
``type`` field:

=============  =============================================================
``hello``      open a tenant context: ``{"type":"hello","tenant":"acme"}``;
               optional ``codec`` (``json``/``binary``) picks how this
               connection receives ``chunk`` frames (default ``json``)
``register``   register a push stream: ``stream``, ``schema`` (a
               ``"name:type, ..."`` spec), optional ``capacity`` (tuples)
               and ``policy`` (``block``/``error``/``drop_oldest``)
``submit``     submit a CQL statement: ``cql``, optional ``name``; optional
               ``windows`` (bool) asks for *per-window* result chunks, each
               ``chunk`` frame then carrying the global window id in a
               ``window`` field (the cluster shard transport)
``push``       ingest rows: ``stream`` and exactly one of ``rows`` (list of
               objects keyed by attribute name, or arrays in schema order)
               or ``bytes`` (a binary frame, below)
``results``    drain ordered output chunks: ``query``, optional
               ``max_chunks`` and ``timeout`` (seconds)
``close``      with ``stream``: end-of-stream for that stream; without:
               close the connection
``stats``      one-shot server statistics snapshot
``ping``       liveness probe
=============  =============================================================

Server-to-client frames are ``ok`` (request-specific fields), ``chunk``
(``query`` + ``rows``, zero or more preceding the ``ok`` of a
``results`` request) and ``error`` (``code`` + ``message``).  Every
request produces exactly one terminal ``ok``/``error`` frame, so a
client can run the protocol strictly request-response.

**Binary frames.**  A frame whose header line carries ``bytes: N`` is
followed by exactly N raw bytes: rows packed in the stream's
:attr:`~repro.relational.schema.Schema.dtype`, the engine's own tuple
layout, read back with ``np.frombuffer``.  The server accepts a binary
``push`` (``{"type":"push","stream":S,"bytes":N}``) on any connection,
since the header describes itself.  It sends binary chunks
(``{"type":"chunk","query":Q,"schema":SPEC,"bytes":N}``, plus
``window`` in windows mode) only on a connection whose ``hello`` asked
for ``"codec":"binary"``; that ``hello``'s ``ok`` echoes ``codec``.
JSON stays the ``nc``-able debug path: a connection that never asks
sees exactly the JSON frames above.

Malformed input is rejected with a typed :class:`ProtocolError` whose
``code`` is stable for clients to dispatch on (``bad-json``,
``bad-frame``, ``unknown-type``, ``bad-field``, ``frame-too-large``);
server-side failures reuse the same error frame shape with codes like
``quota``, ``unknown-stream``, ``bad-cql``, ``session-active``,
``backpressure`` and ``shutting-down`` (catalogued in
``docs/operations.md``).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..errors import SaberError
from ..io.records import batch_to_rows
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "CODECS",
    "ProtocolError",
    "parse_frame",
    "encode_frame",
    "encode_binary",
    "decode_binary",
    "ok_frame",
    "error_frame",
    "chunk_frame",
    "encode_chunk",
]

#: protocol revision carried in the ``hello`` response.
PROTOCOL_VERSION = 1

#: reject lines (and binary payloads) longer than this before reading
#: them; a push of ~64 K numeric rows stays comfortably below it.
MAX_FRAME_BYTES = 8 << 20

#: the ``codec`` values a ``hello`` may ask for.
CODECS = ("json", "binary")


class ProtocolError(SaberError):
    """A frame violates the wire protocol (or a request was refused).

    ``code`` is a stable, machine-readable slug mirrored into the
    ``error`` frame; ``message`` is the human-readable detail.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        #: stable error slug (``bad-json``, ``quota``, ``bad-cql``, ...).
        self.code = code


#: per-type field contracts: ``{field: (types, required)}``.  Unknown
#: extra fields are tolerated (forward compatibility); known fields
#: with the wrong JSON type are rejected.
_FRAME_FIELDS: "dict[str, dict[str, tuple[tuple[type, ...], bool]]]" = {
    "hello": {
        "tenant": ((str,), True),
        "codec": ((str,), False),
    },
    "register": {
        "stream": ((str,), True),
        "schema": ((str,), True),
        "capacity": ((int,), False),
        "policy": ((str,), False),
    },
    "submit": {
        "cql": ((str,), True),
        "name": ((str,), False),
        "windows": ((bool,), False),
    },
    "push": {
        "stream": ((str,), True),
        "rows": ((list,), False),
        "bytes": ((int,), False),
    },
    "results": {
        "query": ((str,), True),
        "max_chunks": ((int,), False),
        "timeout": ((int, float), False),
    },
    "close": {
        "stream": ((str,), False),
    },
    "stats": {},
    "ping": {},
}


def parse_frame(line: "str | bytes") -> "dict[str, Any]":
    """Parse and validate one client frame line.

    Returns the frame as a dict; raises :class:`ProtocolError` with a
    stable ``code`` on any violation — oversized line, invalid JSON, a
    non-object payload, a missing/unknown ``type``, or a required or
    mistyped field.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
        )
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-json", f"frame is not valid UTF-8: {exc}") from None
    text = line.strip()
    if not text:
        raise ProtocolError("bad-frame", "empty frame")
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            "bad-frame", f"frame must be a JSON object, got {type(frame).__name__}"
        )
    frame_type = frame.get("type")
    if frame_type is None:
        raise ProtocolError("bad-frame", "frame has no 'type' field")
    if not isinstance(frame_type, str):
        raise ProtocolError(
            "bad-frame", f"'type' must be a string, got {type(frame_type).__name__}"
        )
    fields = _FRAME_FIELDS.get(frame_type)
    if fields is None:
        raise ProtocolError(
            "unknown-type",
            f"unknown frame type {frame_type!r}; expected one of "
            f"{sorted(_FRAME_FIELDS)}",
        )
    for name, (types, required) in fields.items():
        if name not in frame:
            if required:
                raise ProtocolError(
                    "bad-field", f"{frame_type!r} frame is missing field {name!r}"
                )
            continue
        value = frame[name]
        # bool is an int subclass; an int-typed field must not accept it.
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            expected = "/".join(t.__name__ for t in types)
            raise ProtocolError(
                "bad-field",
                f"{frame_type!r} frame field {name!r} must be {expected}, "
                f"got {type(value).__name__}",
            )
    if frame_type == "hello" and frame.get("codec", "json") not in CODECS:
        raise ProtocolError(
            "bad-field",
            f"'hello' frame field 'codec' must be one of {list(CODECS)}, "
            f"got {frame['codec']!r}",
        )
    if frame_type == "push":
        # Carrying both is refused by the server once the payload has
        # been read, so the connection stays in step.
        if "rows" not in frame and "bytes" not in frame:
            raise ProtocolError(
                "bad-field", "'push' frame is missing field 'rows'"
            )
        if frame.get("bytes", 0) < 0:
            raise ProtocolError(
                "bad-field", f"'push' frame field 'bytes' is negative: {frame['bytes']}"
            )
    return frame


def encode_frame(frame: "dict[str, Any]") -> bytes:
    """Serialise a frame as one UTF-8 JSON line (trailing newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def encode_binary(frame: "dict[str, Any]", batch: TupleBatch) -> bytes:
    """A binary frame: ``frame`` plus ``bytes: N`` as the header line,
    then the N bytes of ``batch``'s packed rows."""
    payload = batch.data.tobytes()
    return encode_frame({**frame, "bytes": len(payload)}) + payload


def decode_binary(schema: Schema, payload: bytes) -> TupleBatch:
    """The rows of a binary frame's payload, as a read-only batch view.

    Raises ``bad-rows`` unless the payload is a whole number of tuples.
    """
    if len(payload) % schema.tuple_size:
        raise ProtocolError(
            "bad-rows",
            f"{len(payload)} bytes is not a whole number of "
            f"{schema.tuple_size}-byte tuples of {schema.name!r}",
        )
    return TupleBatch(schema, np.frombuffer(payload, dtype=schema.dtype))


def ok_frame(**fields: Any) -> "dict[str, Any]":
    """A terminal success frame with request-specific fields."""
    return {"type": "ok", **fields}


def error_frame(code: str, message: str) -> "dict[str, Any]":
    """A terminal failure frame carrying a stable error ``code``."""
    return {"type": "error", "code": code, "message": message}


def chunk_frame(
    query: str, rows: "list[dict[str, Any]]", window: "int | None" = None
) -> "dict[str, Any]":
    """One ordered output chunk of a ``results`` request.  ``window``
    tags the chunk with its global window id (windows-mode queries)."""
    frame = {"type": "chunk", "query": query, "rows": rows}
    if window is not None:
        frame["window"] = int(window)
    return frame


def encode_chunk(
    query: str, batch: TupleBatch, window: "int | None", binary: bool
) -> bytes:
    """One encoded ``chunk`` frame: JSON rows, or with ``binary`` the
    batch's packed rows under a header naming their schema."""
    if not binary:
        return encode_frame(chunk_frame(query, batch_to_rows(batch), window))
    header: "dict[str, Any]" = {"type": "chunk", "query": query, "schema": batch.schema.spec}
    if window is not None:
        header["window"] = int(window)
    return encode_binary(header, batch)
