"""The ``repro serve`` daemon: a long-lived multi-tenant query server.

One process hosts many tenants, each with its own
:class:`~repro.serve.tenants.Tenant` session, behind a single TCP
listener speaking the newline-delimited JSON frame protocol
(:mod:`repro.serve.protocol`).  A connection opens with a ``hello``
frame naming its tenant; connections from the same tenant share that
tenant's session, streams and queries, so a producer connection can
push while a consumer connection drains ``results``.

Admission control is two-level: the server caps distinct tenants
(:attr:`ServeConfig.max_sessions`) and every tenant carries
:class:`~repro.serve.tenants.TenantQuotas` bounding its queries,
streams, ingress capacity and result backlog.  Exceeding either
returns a ``quota`` error frame — the connection stays usable.

Observability is served out-of-band: a Prometheus-style text endpoint
(``/metrics`` on :attr:`ServeConfig.metrics_port`, with ``/healthz``
for liveness) scraping the shared
:class:`~repro.metrics.MetricsRegistry` — which *reads* each tenant's
numbers through the collector the tenant registered, at scrape time —
and an optional periodic ``--stats`` log line fed by the same reads.

Shutdown is graceful by default: :meth:`SaberServer.shutdown` (or a
SIGTERM/SIGINT under :meth:`SaberServer.serve_forever`) stops
admitting data, closes every open stream (end-of-stream), lets each
tenant's run drain its queued tail and flush windows, then releases
engine resources — including the processes backend's shared-memory
segments under ``/dev/shm``.
"""

from __future__ import annotations

import dataclasses
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator

from ..analysis.lockdep import make_lock
from ..errors import SaberError, ValidationError, check_fields, checked, choice, instance_of
from ..errors import optional, positive_int, wait_seconds
from ..errors import port as tcp_port
from ..hardware.slots import WALL_CLOCK_EXECUTIONS
from ..metrics import MetricsRegistry
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_chunk,
    encode_frame,
    error_frame,
    ok_frame,
    parse_frame,
)
from .tenants import Tenant, TenantQuotas

__all__ = ["ServeConfig", "SaberServer"]

logger = logging.getLogger("repro.serve")


@dataclasses.dataclass
class ServeConfig:
    """Daemon configuration (the ``repro serve`` CLI mirrors it 1:1)."""

    #: listen address; bind port 0 for an ephemeral port (tests).
    host: str = checked("127.0.0.1", instance_of(str))
    port: int = checked(7070, tcp_port)
    #: Prometheus endpoint port (``None`` disables it; 0 = ephemeral).
    metrics_port: "int | None" = checked(None, optional(tcp_port))
    #: distinct tenants admitted concurrently.
    max_sessions: int = checked(64, positive_int)
    #: per-tenant resource quotas.
    quotas: TenantQuotas = checked(TenantQuotas(), instance_of(TenantQuotas))
    #: execution backend for tenant sessions (``threads``/``processes``:
    #: serving runs on the wall clock).
    execution: str = checked("threads", choice(WALL_CLOCK_EXECUTIONS))
    #: seconds between ``--stats`` log lines (``None`` disables them).
    stats_interval: "float | None" = checked(None, optional(wait_seconds))
    #: graceful-drain backstop per tenant on shutdown, in seconds.
    drain_timeout: float = checked(30.0, wait_seconds)
    #: evict tenant sessions that have not seen a client frame for this
    #: many seconds (``None`` disables eviction).  An evicted tenant is
    #: drained like a shutdown — streams closed, tails flushed, engine
    #: resources released — and counted on
    #: ``saber_server_tenants_evicted_total``; a later ``hello`` for the
    #: same name admits a fresh session.
    tenant_idle_timeout: "float | None" = checked(None, optional(wait_seconds))

    def __post_init__(self) -> None:
        check_fields(self, ValidationError)


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (Prometheus text) and ``/healthz``."""

    registry: MetricsRegistry  # injected via the dynamic subclass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Answer a scrape: the registry rendering, or a liveness ack."""
        if self.path.split("?")[0] == "/metrics":
            body = self.registry.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", MetricsRegistry.CONTENT_TYPE)
        elif self.path.split("?")[0] == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
        else:
            body = b"not found\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs to the library logger (debug level)."""
        logger.debug("metrics: " + format, *args)


class SaberServer:
    """The serving daemon: listener, tenant registry, metrics endpoint."""

    def __init__(
        self,
        config: "ServeConfig | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self._lock = make_lock("serve.server.SaberServer._lock")
        self._tenants: "dict[str, Tenant]" = {}
        self._connections: "set[socket.socket]" = set()
        self._threads: "list[threading.Thread]" = []
        self._listener: "socket.socket | None" = None
        self._metrics_server: "ThreadingHTTPServer | None" = None
        self._stats_stop = threading.Event()
        self._shutdown_signal = threading.Event()
        self._draining = False
        self._closed = False
        self.frames_total = self.registry.counter(
            "saber_server_frames_total",
            "Client frames processed, by frame type.",
        )
        self.errors_total = self.registry.counter(
            "saber_server_errors_total",
            "Error frames returned, by error code.",
        )
        self.tenants_evicted = self.registry.counter(
            "saber_server_tenants_evicted_total",
            "Tenant sessions evicted by the idle timeout.",
        )
        self._collector = self.registry.register_collector(self._samples)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SaberServer":
        """Bind the listener (and metrics endpoint) and begin accepting."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(512)
        self._listener = listener
        accept = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        if self.config.metrics_port is not None:
            handler = type(
                "BoundMetricsHandler",
                (_MetricsHandler,),
                {"registry": self.registry},
            )
            self._metrics_server = ThreadingHTTPServer(
                (self.config.host, self.config.metrics_port), handler
            )
            self._metrics_server.daemon_threads = True
            scrape = threading.Thread(
                target=self._metrics_server.serve_forever,
                name="serve-metrics",
                daemon=True,
            )
            scrape.start()
            self._threads.append(scrape)
        if self.config.stats_interval is not None:
            stats = threading.Thread(
                target=self._stats_loop, name="serve-stats", daemon=True
            )
            stats.start()
            self._threads.append(stats)
        if self.config.tenant_idle_timeout is not None:
            evict = threading.Thread(
                target=self._eviction_loop, name="serve-evict", daemon=True
            )
            evict.start()
            self._threads.append(evict)
        logger.info(
            "repro serve listening on %s:%d (metrics: %s)",
            *self.address,
            "%s:%d" % self.metrics_address if self.metrics_address else "off",
        )
        return self

    @property
    def address(self) -> "tuple[str, int]":
        """The bound listen address (resolves an ephemeral port 0)."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    @property
    def metrics_address(self) -> "tuple[str, int] | None":
        """The bound metrics address, or ``None`` when disabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.server_address[:2]

    def install_signal_handlers(self) -> None:
        """Arrange for SIGTERM/SIGINT to trigger a graceful drain (only
        callable from the main thread; :meth:`serve_forever` then
        returns after the drain completes)."""
        import signal

        def _on_signal(signum: int, frame: Any) -> None:
            logger.info("signal %d: draining", signum)
            self._shutdown_signal.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def serve_forever(self) -> None:
        """Block until a shutdown signal, then drain gracefully."""
        # Timed, not indefinite: when the kernel hands SIGTERM to a worker
        # thread CPython only marks it pending, and a main thread parked
        # in an untimed wait never wakes to run the handler.
        while not self._shutdown_signal.wait(0.2):
            pass
        self.shutdown(drain=True)

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon.  With ``drain=True`` (the graceful path):
        stop admitting new data, end every open stream, let tenants
        process their queued tails and flush windows, then release
        engine resources and close all sockets.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._draining = True
            if not drain:
                self._closed = True
            tenants = list(self._tenants.values())
        for tenant in tenants:
            try:
                tenant.shutdown(
                    drain=drain, drain_timeout=self.config.drain_timeout
                )
            except SaberError as exc:
                logger.warning("tenant %r drain: %s", tenant.name, exc)
        with self._lock:
            self._closed = True
            connections = list(self._connections)
        if self._listener is not None:
            # close() alone leaves a thread blocked in accept() asleep
            # forever on Linux; shutdown() is what wakes it.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
            self._metrics_server.server_close()
        self._stats_stop.set()
        self._shutdown_signal.set()
        self.registry.unregister_collector(self._collector)
        logger.info("repro serve stopped (%d tenants drained)", len(tenants))

    def __enter__(self) -> "SaberServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- admission -------------------------------------------------------------

    def admit(
        self, name: str, quotas: "TenantQuotas | None" = None
    ) -> Tenant:
        """Get or create the named tenant, enforcing the session cap."""
        with self._lock:
            if self._draining:
                raise ProtocolError(
                    "shutting-down", "the server is draining; try again later"
                )
            tenant = self._tenants.get(name)
            if tenant is not None:
                return tenant
            if len(self._tenants) >= self.config.max_sessions:
                raise ProtocolError(
                    "quota",
                    f"the server is at its session cap "
                    f"({self.config.max_sessions} tenants)",
                )
            tenant = Tenant(
                name,
                quotas or self.config.quotas,
                self.registry,
                execution=self.config.execution,
            )
            self._tenants[name] = tenant
            logger.info("admitted tenant %r", name)
            return tenant

    # -- server statistics -----------------------------------------------------

    def stats(self) -> "dict[str, Any]":
        """A point-in-time snapshot for ``stats`` frames and log lines."""
        with self._lock:
            tenants = list(self._tenants.values())
            connections = len(self._connections)
        return {
            "connections": connections,
            "tenants": [t.stats() for t in tenants],
            "frames": {
                "/".join(k for _, k in key): value
                for key, value in self.frames_total.samples().items()
            },
            "errors": {
                "/".join(k for _, k in key): value
                for key, value in self.errors_total.samples().items()
            },
        }

    def _samples(self) -> "Iterator[tuple]":
        """The server's own registry collector (two point-in-time gauges)."""
        yield (
            "saber_server_connections",
            "gauge",
            "Open client connections.",
            {},
            len(self._connections),
        )
        yield (
            "saber_server_tenants",
            "gauge",
            "Admitted tenant sessions.",
            {},
            len(self._tenants),
        )

    def _eviction_loop(self) -> None:
        """Evict tenants idle beyond ``tenant_idle_timeout``.

        Runs until shutdown; eviction is a graceful per-tenant drain, so
        an idle-but-active tenant's queued tail is still processed and
        its windows flushed before the engine resources are released.
        """
        timeout = self.config.tenant_idle_timeout
        assert timeout is not None
        interval = max(min(timeout / 4.0, 1.0), 0.05)
        while not self._stats_stop.wait(interval) and not self._draining:
            self._evict_idle(timeout)

    def _evict_idle(self, timeout: float) -> None:
        """One eviction sweep — in its own frame, so this long-lived
        thread keeps no evicted tenant alive in a loop variable."""
        now = time.monotonic()
        with self._lock:
            if self._draining:
                return
            idle = [
                tenant
                for tenant in self._tenants.values()
                if now - tenant.last_activity > timeout
            ]
            for tenant in idle:
                del self._tenants[tenant.name]
        for tenant in idle:
            self.tenants_evicted.inc(tenant=tenant.name)
            logger.info("evicting idle tenant %r", tenant.name)
            try:
                tenant.shutdown(drain=True, drain_timeout=self.config.drain_timeout)
            except SaberError as exc:
                logger.warning("tenant %r eviction: %s", tenant.name, exc)

    def _stats_loop(self) -> None:
        while not self._stats_stop.wait(self.config.stats_interval):
            snapshot = self.stats()
            ingest = self.registry.total("saber_ingest_rows_total")
            rows = self.registry.total("saber_result_rows_total")
            tasks = self.registry.total("saber_tasks_completed_total")
            logger.info(
                "stats: connections=%d tenants=%d ingest_rows=%d "
                "result_rows=%d tasks=%d errors=%d",
                snapshot["connections"],
                len(snapshot["tenants"]),
                int(ingest),
                int(rows),
                int(tasks),
                int(self.errors_total.total()),
            )

    # -- the accept/connection loops -------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._connections.add(conn)
            worker = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="serve-conn",
                daemon=True,
            )
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One client connection: hello-first admission, then frames."""
        link = _Connection(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = conn.makefile("rb")
            while True:
                raw = reader.readline(MAX_FRAME_BYTES + 2)
                if not raw:
                    return  # client went away
                if len(raw) > MAX_FRAME_BYTES and not raw.endswith(b"\n"):
                    # An oversized line cannot be resynchronised reliably;
                    # report and end the connection.
                    self._send(
                        conn,
                        error_frame(
                            "frame-too-large",
                            f"frame exceeds {MAX_FRAME_BYTES} bytes",
                        ),
                    )
                    return
                try:
                    frame = parse_frame(raw)
                except ProtocolError as exc:
                    self.errors_total.inc(code=exc.code)
                    self._send(conn, error_frame(exc.code, str(exc)))
                    continue
                payload = None
                if frame["type"] == "push" and "bytes" in frame:
                    size = frame["bytes"]
                    if size > MAX_FRAME_BYTES:
                        # Skipping the payload would mean reading it.
                        self.errors_total.inc(code="frame-too-large")
                        self._send(
                            conn,
                            error_frame(
                                "frame-too-large",
                                f"binary payload of {size} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte limit",
                            ),
                        )
                        return
                    payload = reader.read(size)
                    if len(payload) < size:
                        return  # client went away mid-payload: push nothing
                self.frames_total.inc(type=frame["type"])
                if frame["type"] == "close" and "stream" not in frame:
                    self._send(conn, ok_frame(bye=True))
                    return
                try:
                    if link.tenant is None and frame["type"] != "hello":
                        raise ProtocolError(
                            "bad-frame",
                            "the first frame must be 'hello' naming a tenant",
                        )
                    self._handle(link, frame, payload)
                except ProtocolError as exc:
                    self.errors_total.inc(code=exc.code)
                    self._send(conn, error_frame(exc.code, str(exc)))
                except SaberError as exc:
                    self.errors_total.inc(code="internal")
                    self._send(conn, error_frame("internal", str(exc)))
                if link.tenant is not None:
                    link.tenant.touch()
        except (OSError, ValueError):
            return  # connection torn down mid-frame
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(
        self, link: "_Connection", frame: "dict[str, Any]", payload: "bytes | None"
    ) -> None:
        """Dispatch one parsed frame (``payload``: a binary push's rows)."""
        kind = frame["type"]
        conn = link.sock
        if kind == "ping":
            self._send(conn, ok_frame(pong=True))
            return
        if kind == "hello":
            link.tenant = self.admit(frame["tenant"])
            fields = {"codec": frame["codec"]} if "codec" in frame else {}
            link.binary = frame.get("codec") == "binary"
            self._send(
                conn,
                ok_frame(
                    server="repro-serve",
                    version=PROTOCOL_VERSION,
                    tenant=link.tenant.name,
                    **fields,
                ),
            )
            return
        tenant = link.tenant
        assert tenant is not None  # enforced by the caller
        if kind == "stats":
            self._send(conn, ok_frame(stats=self.stats()))
            return
        if self._draining and kind in ("register", "submit", "push"):
            raise ProtocolError(
                "shutting-down", "the server is draining; no new work admitted"
            )
        if kind == "register":
            fields = tenant.register(
                frame["stream"],
                frame["schema"],
                capacity=frame.get("capacity"),
                policy=frame.get("policy"),
            )
            self._send(conn, ok_frame(**fields))
        elif kind == "submit":
            fields = tenant.submit(
                frame["cql"],
                name=frame.get("name"),
                windows=frame.get("windows", False),
            )
            self._send(conn, ok_frame(**fields))
        elif kind == "push":
            if payload is not None and "rows" in frame:
                raise ProtocolError(
                    "bad-field", "'push' frame carries both 'rows' and 'bytes'"
                )
            rows = frame["rows"] if payload is None else payload
            accepted = tenant.push(frame["stream"], rows)
            self._send(conn, ok_frame(accepted=accepted))
        elif kind == "results":
            query = frame["query"]
            chunks, done = tenant.results(
                query,
                max_chunks=frame.get("max_chunks", 16),
                timeout=float(frame.get("timeout", 5.0)),
            )
            reply = [
                encode_chunk(query, batch, window, link.binary)
                for window, batch in chunks
            ]
            reply.append(encode_frame(ok_frame(query=query, chunks=len(chunks), done=done)))
            conn.sendall(b"".join(reply))
        elif kind == "close":
            tenant.close_stream(frame["stream"])
            self._send(conn, ok_frame(stream=frame["stream"], closed=True))
        else:  # pragma: no cover - parse_frame already rejects unknowns
            raise ProtocolError("unknown-type", f"unhandled frame type {kind!r}")

    @staticmethod
    def _send(conn: socket.socket, frame: "dict[str, Any]") -> None:
        conn.sendall(encode_frame(frame))


class _Connection:
    """One client connection's state: its socket, tenant and codec."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.tenant: "Tenant | None" = None
        #: the ``hello`` asked for binary ``chunk`` frames.
        self.binary = False
