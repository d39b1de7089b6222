"""The serve protocol's binary frames over real sockets.

A binary frame is a JSON header line carrying ``bytes: N`` followed by
exactly N bytes of rows packed in the stream's tuple layout.  These
tests hold the framing to its edges (oversized, ragged, ambiguous and
truncated payloads), keep JSON as the differential oracle — a
JSON-only client must see exactly the rows a binary one does — and pin
the client's failure paths against a scripted server.
"""

import contextlib
import gc
import json
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.io.records import batch_to_rows, rows_to_batch
from repro.relational.schema import Schema
from repro.serve import (
    MAX_FRAME_BYTES,
    ProtocolError,
    SaberServer,
    ServeClient,
    ServeConfig,
    TenantQuotas,
)

SCHEMA = "timestamp:long, value:float"
PACKED = Schema.parse(SCHEMA, name="s")
SUM_CQL = "select timestamp, sum(value) as total from s [rows 64 slide 64]"


@pytest.fixture
def server():
    with SaberServer(ServeConfig(port=0, stats_interval=None)) as srv:
        yield srv


def connect(server, tenant="default", cls=ServeClient):
    host, port = server.address
    return cls(host, port, tenant=tenant)


class JsonClient(ServeClient):
    """A JSON-only client: no ``codec`` at ``hello``, rows always as JSON."""

    def request(self, frame):
        if frame["type"] == "hello":
            frame = {k: v for k, v in frame.items() if k != "codec"}
        return super().request(frame)

    def push(self, stream, rows):
        return int(self.request({"type": "push", "stream": stream, "rows": rows})["accepted"])


class RawConnection:
    """A hand-driven socket: write anything, read reply lines."""

    def __init__(self, server, hello=None):
        self.sock = socket.create_connection(server.address, timeout=10)
        self.reader = self.sock.makefile("rb")
        if hello is not None:
            assert self.request(hello)["type"] == "ok"

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> dict:
        line = self.reader.readline()
        return json.loads(line) if line else {}

    def request(self, frame: dict, payload: bytes = b"") -> dict:
        self.send(json.dumps(frame).encode() + b"\n" + payload)
        return self.reply()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@contextlib.contextmanager
def raw(server, hello=None):
    conn = RawConnection(server, hello)
    try:
        yield conn
    finally:
        conn.close()


def rows(n, start=0):
    return [{"timestamp": start + i, "value": (start + i) * 0.1} for i in range(n)]


def packed(n, start=0) -> bytes:
    return rows_to_batch(PACKED, rows(n, start)).data.tobytes()


def serve_conn_threads():
    return sum(1 for t in threading.enumerate() if t.name == "serve-conn")


def wait_until(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def drain(client, query, windows=False, deadline=30.0):
    """Every chunk of ``query`` until done, as ``window_results`` pairs
    (windows mode) or row lists."""
    out, done = [], False
    end = time.monotonic() + deadline
    while not done:
        assert time.monotonic() < end, "query did not complete in time"
        if windows:
            chunks, done = client.window_results(query, timeout=2.0)
            chunks = [(wid, batch_to_rows(batch)) for wid, batch in chunks]
        else:
            chunks, done = client.results(query, timeout=2.0)
        out.extend(chunks)
    return out


class TestFraming:
    HELLO = {"type": "hello", "tenant": "t"}

    def registered(self, server):
        conn = RawConnection(server, self.HELLO)
        assert conn.request({"type": "register", "stream": "s", "schema": SCHEMA})["type"] == "ok"
        return conn

    def test_binary_push_on_a_json_connection(self, server):
        conn = self.registered(server)
        try:
            reply = conn.request({"type": "push", "stream": "s", "bytes": 12 * 64}, packed(64))
            assert reply == {"type": "ok", "accepted": 64}
            assert conn.request({"type": "ping"})["pong"] is True
        finally:
            conn.close()

    def test_oversized_payload_closes_the_connection(self, server):
        conn = self.registered(server)
        try:
            reply = conn.request({"type": "push", "stream": "s", "bytes": MAX_FRAME_BYTES + 1})
            assert reply["code"] == "frame-too-large"
            assert conn.reader.readline() == b""
        finally:
            conn.close()
        assert server.errors_total.value(code="frame-too-large") == 1

    def test_ragged_payload_is_bad_rows_and_the_connection_survives(self, server):
        conn = self.registered(server)
        try:
            reply = conn.request({"type": "push", "stream": "s", "bytes": 13}, packed(2)[:13])
            assert reply["code"] == "bad-rows"
            assert "13 bytes is not a whole number of 12-byte tuples" in reply["message"]
            assert conn.request({"type": "ping"})["pong"] is True
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "frame, payload",
        [
            ({"rows": rows(1), "bytes": 12}, packed(1)),
            ({}, b""),
            ({"bytes": -12}, b""),
        ],
        ids=["both", "neither", "negative"],
    )
    def test_push_needs_exactly_one_non_negative_body(self, server, frame, payload):
        conn = self.registered(server)
        try:
            reply = conn.request({"type": "push", "stream": "s", **frame}, payload)
            assert reply["code"] == "bad-field"
            assert conn.request({"type": "ping"})["pong"] is True
        finally:
            conn.close()
        assert server.admit("t")._streams["s"].pushed_tuples == 0

    def test_disconnect_mid_payload_pushes_nothing(self, server):
        before = serve_conn_threads()
        conn = self.registered(server)
        wait_until(lambda: serve_conn_threads() == before + 1)
        conn.send(json.dumps({"type": "push", "stream": "s", "bytes": 12 * 64}).encode() + b"\n")
        conn.send(packed(64)[:100])
        conn.close()
        wait_until(lambda: serve_conn_threads() == before)
        assert server.stats()["connections"] == 0
        assert server.admit("t")._streams["s"].pushed_tuples == 0

    def test_hello_without_codec_gets_json_chunks(self, server):
        with raw(server, self.HELLO) as conn:
            conn.request({"type": "register", "stream": "s", "schema": SCHEMA})
            conn.request({"type": "submit", "cql": SUM_CQL, "name": "q"})
            conn.request({"type": "push", "stream": "s", "bytes": 12 * 64}, packed(64))
            conn.request({"type": "close", "stream": "s"})
            conn.send(b'{"type": "results", "query": "q", "timeout": 5}\n')
            chunk = conn.reply()
            assert chunk["type"] == "chunk" and "bytes" not in chunk
            assert [r["timestamp"] for r in chunk["rows"]] == [63]

    def test_binary_codec_is_echoed_and_chunks_carry_bytes(self, server):
        with raw(server) as conn:
            hello = conn.request({"type": "hello", "tenant": "t", "codec": "binary"})
            assert hello["codec"] == "binary"
            conn.request({"type": "register", "stream": "s", "schema": SCHEMA})
            conn.request({"type": "submit", "cql": SUM_CQL, "name": "q"})
            conn.request({"type": "push", "stream": "s", "bytes": 12 * 64}, packed(64))
            conn.request({"type": "close", "stream": "s"})
            conn.send(b'{"type": "results", "query": "q", "timeout": 5}\n')
            chunk = conn.reply()
            assert chunk == {
                "type": "chunk",
                "query": "q",
                "schema": "timestamp:long, total:float",
                "bytes": 12,
            }
            payload = conn.reader.read(12)
            out = Schema.parse(chunk["schema"])
            assert np.frombuffer(payload, dtype=out.dtype)["timestamp"].tolist() == [63]
            assert conn.reply()["type"] == "ok"

    def test_unknown_codec_is_bad_field(self, server):
        with raw(server) as conn:
            reply = conn.request({"type": "hello", "tenant": "t", "codec": "msgpack"})
            assert reply["code"] == "bad-field"


class TestJsonIsTheOracle:
    """A JSON-only client sees exactly the rows a binary client does."""

    PUSHES = [
        rows(100),
        [(100 + i, -1.5 * i) for i in range(50)],
        [[150 + i, 1e30] for i in range(30)],
        rows(76, start=180),
    ]

    def run(self, server, cls, cql, windows, tenant):
        with connect(server, tenant, cls) as client:
            client.register("s", SCHEMA)
            client.submit(cql, name="q", windows=windows)
            for batch in self.PUSHES:
                client.push("s", batch)
            client.close_stream("s")
            return drain(client, "q", windows=windows)

    SLIDING = "select timestamp, count(*) as n, max(value) as top from s [rows 32 slide 16]"

    @pytest.mark.parametrize(
        "cql, windows",
        [
            (SUM_CQL, False),
            ("select timestamp, value from s [rows 64 slide 64] where value > 0.5", False),
            (SLIDING, False),
            (SUM_CQL, True),
            (SLIDING, True),
        ],
        ids=["sum", "select", "sliding", "sum-windows", "sliding-windows"],
    )
    def test_identical_rows(self, server, cql, windows):
        binary = self.run(server, ServeClient, cql, windows, "binary")
        plain = self.run(server, JsonClient, cql, windows, "json")
        assert binary and json.dumps(binary) == json.dumps(plain)

    def test_bad_rows_are_rejected_as_on_the_json_path(self, server):
        bad = [{"timestamp": 1, "value": "oops"}]
        codes, messages = [], []
        for tenant, cls in (("binary", ServeClient), ("json", JsonClient)):
            with connect(server, tenant, cls) as client:
                client.register("s", SCHEMA)
                with pytest.raises(ProtocolError) as err:
                    client.push("s", bad)
                codes.append(err.value.code)
                messages.append(str(err.value))
        assert codes == ["bad-rows", "bad-rows"]
        assert messages[0] == messages[1]
        assert server.errors_total.value(code="bad-rows") == 2

    def test_a_stream_registered_elsewhere_goes_as_json(self, server):
        with connect(server, "t") as owner, connect(server, "t") as other:
            owner.register("s", SCHEMA)
            sent = []
            sendall = other._sock.sendall
            other._sock = _Spy(other._sock, lambda data: (sent.append(data), sendall(data)))
            assert other.push("s", rows(8)) == 8
            assert owner.push("s", rows_to_batch(PACKED, rows(8))) == 8
        assert b'"rows":' in sent[0] and b'"bytes":' not in sent[0]

    def test_backlog_batches_are_not_overwritten(self):
        """Result batches wait in the backlog while the input ring wraps
        many times over; each must still hold its own rows."""
        quotas = TenantQuotas(buffer_capacity_tasks=2, task_size_bytes=768)
        with SaberServer(ServeConfig(port=0, quotas=quotas)) as srv:
            with connect(srv) as client:
                client.register("s", SCHEMA)
                client.submit("select timestamp, value from s [rows 64 slide 64]", name="q")
                for start in range(0, 4096, 256):
                    client.push("s", rows(256, start))
                client.close_stream("s")
                got = [row for chunk in drain(client, "q") for row in chunk]
        assert json.dumps(got) == json.dumps(
            [{"timestamp": r["timestamp"], "value": float(np.float32(r["value"]))}
             for r in rows(4096)]
        )


class _Spy:
    """A socket stand-in that reports every ``sendall``."""

    def __init__(self, sock, sendall):
        self._sock = sock
        self.sendall = sendall

    def __getattr__(self, name):
        return getattr(self._sock, name)


@contextlib.contextmanager
def scripted_server(*replies: bytes):
    """A one-connection server answering each request line with the next
    scripted reply, then hanging up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            for reply in replies:
                if not reader.readline():
                    return
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(10)


HELLO_OK = b'{"type":"ok","server":"repro-serve","version":1,"tenant":"t"}\n'


class TestClientFailures:
    @pytest.mark.parametrize("code", ["quota", "shutting-down"])
    def test_refused_hello_closes_the_socket(self, code):
        refusal = json.dumps({"type": "error", "code": code, "message": "no"}).encode()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with scripted_server(refusal + b"\n") as (host, port):
                with pytest.raises(ProtocolError) as err:
                    ServeClient(host, port, tenant="t")
                assert err.value.code == code
                del err
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_session_cap_refusal_closes_the_socket(self):
        with SaberServer(ServeConfig(port=0, max_sessions=1)) as srv:
            with connect(srv, "first"), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ProtocolError):
                    connect(srv, "second")
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize(
        "line", [b"not json at all\n", b'{"type": "ok", "po'], ids=["garbage", "truncated"]
    )
    def test_unintelligible_server_line_is_bad_frame(self, line):
        with scripted_server(HELLO_OK, line) as (host, port):
            with ServeClient(host, port, tenant="t") as client:
                with pytest.raises(ProtocolError) as err:
                    client.ping()
                assert err.value.code == "bad-frame"

    def test_short_binary_chunk_is_closed(self):
        header = b'{"type":"chunk","query":"q","schema":"timestamp:long","bytes":16}\n'
        with scripted_server(HELLO_OK, header + b"\x00" * 5) as (host, port):
            with ServeClient(host, port, tenant="t") as client:
                with pytest.raises(ProtocolError) as err:
                    client.results("q")
                assert err.value.code == "closed"
