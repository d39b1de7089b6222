"""End-to-end serving-daemon tests over real sockets.

Every test binds ephemeral ports (port 0) and uses the blocking
:class:`~repro.serve.client.ServeClient`; the SIGTERM test runs the
actual ``python -m repro serve`` process and asserts a graceful drain.
"""

import dataclasses
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
import weakref
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.io.records import batch_to_rows
from repro.serve import (
    ProtocolError,
    SaberServer,
    ServeClient,
    ServeConfig,
    TenantQuotas,
)

SCHEMA = "timestamp:long, value:float"
SUM_CQL = "select timestamp, sum(value) as total from {stream} [rows 64 slide 64]"


@pytest.fixture
def server():
    config = ServeConfig(port=0, metrics_port=0, stats_interval=None)
    with SaberServer(config) as srv:
        yield srv


def connect(server, tenant="default", **kwargs):
    host, port = server.address
    return ServeClient(host, port, tenant=tenant, **kwargs)


def push_rows(client, stream, n, start=0):
    client.push(
        stream,
        [{"timestamp": start + i, "value": 1.0} for i in range(n)],
    )


def drain_total(client, query, deadline=30.0):
    """Sum the ``total`` column over every chunk until the query is done."""
    total = 0.0
    end = time.monotonic() + deadline
    done = False
    while not done:
        assert time.monotonic() < end, "query did not complete in time"
        chunks, done = client.results(query, timeout=2.0)
        for rows in chunks:
            total += sum(r["total"] for r in rows)
    return total


class TestEndToEnd:
    def test_push_close_drain_exact_sum(self, server):
        with connect(server, "acme") as client:
            assert client.server_info["tenant"] == "acme"
            client.register("trades", SCHEMA)
            client.submit(SUM_CQL.format(stream="trades"), name="sums")
            for round_ in range(4):
                push_rows(client, "trades", 256, start=round_ * 256)
            client.close_stream("trades")
            assert drain_total(client, "sums") == 1024.0

    def test_submit_reports_output_schema(self, server):
        with connect(server) as client:
            client.register("s", SCHEMA)
            reply = client.submit(SUM_CQL.format(stream="s"), name="q")
            assert reply["schema"] == "timestamp:long, total:float"

    def test_two_tenants_are_isolated(self, server):
        with connect(server, "a") as first, connect(server, "b") as second:
            for client, stream in ((first, "s"), (second, "s")):
                client.register(stream, SCHEMA)
                client.submit(SUM_CQL.format(stream=stream), name="q")
            push_rows(first, "s", 128)
            push_rows(second, "s", 64)
            first.close_stream("s")
            second.close_stream("s")
            assert drain_total(first, "q") == 128.0
            assert drain_total(second, "q") == 64.0

    def test_two_connections_share_one_tenant(self, server):
        with connect(server, "shared") as producer:
            producer.register("s", SCHEMA)
            producer.submit(SUM_CQL.format(stream="s"), name="q")
            with connect(server, "shared") as consumer:
                push_rows(producer, "s", 192)
                producer.close_stream("s")
                assert drain_total(consumer, "q") == 192.0

    def test_ping_and_stats(self, server):
        with connect(server, "acme") as client:
            assert client.ping()
            client.register("s", SCHEMA)
            stats = client.stats()
            tenants = {t["tenant"] for t in stats["tenants"]}
            assert "acme" in tenants

    def test_metrics_endpoint_scrapes(self, server):
        with connect(server, "acme") as client:
            client.register("s", SCHEMA)
            client.submit(SUM_CQL.format(stream="s"), name="q")
            push_rows(client, "s", 128)
            client.close_stream("s")
            drain_total(client, "q")
        host, port = server.metrics_address
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as reply:
            assert "version=0.0.4" in reply.headers["Content-Type"]
            text = reply.read().decode()
        assert 'saber_ingest_rows_total{stream="s",tenant="acme"} 128' in text
        assert "saber_result_latency_seconds_bucket" in text
        with urllib.request.urlopen(f"http://{host}:{port}/healthz") as reply:
            assert reply.read() == b"ok\n"


class TestTenantQuotas:
    INTEGER_FIELDS = [
        "max_queries",
        "max_streams",
        "buffer_capacity_tasks",
        "push_capacity_tuples",
        "max_result_backlog_chunks",
        "cpu_workers",
        "task_size_bytes",
    ]

    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_non_positive_or_non_integer_field_rejected(self, field, value):
        # max_result_backlog_chunks=0 used to raise IndexError on the
        # first result chunk; the others were accepted silently.
        with pytest.raises(ValidationError, match=field):
            TenantQuotas(**{field: value})

    def test_unknown_backpressure_rejected(self):
        with pytest.raises(ValidationError, match="backpressure"):
            TenantQuotas(backpressure="drop_newest")

    def test_every_field_is_checked(self):
        fields = {f.name for f in dataclasses.fields(TenantQuotas)}
        assert fields == set(self.INTEGER_FIELDS) | {"backpressure"}


class TestErrorFrames:
    def expect_code(self, code, fn, *args, **kwargs):
        with pytest.raises(ProtocolError) as err:
            fn(*args, **kwargs)
        assert err.value.code == code

    def test_hello_must_come_first(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b'{"type": "ping"}\n')
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["type"] == "error"
        assert reply["code"] == "bad-frame"

    def test_malformed_json_keeps_connection_usable(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"{broken\n")
            assert json.loads(reader.readline())["code"] == "bad-json"
            sock.sendall(b'{"type": "hello", "tenant": "t"}\n')
            assert json.loads(reader.readline())["type"] == "ok"

    def test_unknown_stream_and_query(self, server):
        with connect(server) as client:
            self.expect_code("unknown-stream", client.push, "ghost", [{}])
            self.expect_code("unknown-query", client.results, "ghost")

    def test_bad_schema_and_bad_cql(self, server):
        with connect(server) as client:
            self.expect_code("bad-schema", client.register, "s", "value:decimal")
            client.register("s", SCHEMA)
            self.expect_code("bad-cql", client.submit, "selcet nothing")

    def test_query_quota_returns_error_frame(self):
        config = ServeConfig(
            port=0, quotas=TenantQuotas(max_queries=1, max_streams=1)
        )
        with SaberServer(config) as server, connect(server) as client:
            client.register("s", SCHEMA)
            self.expect_code("quota", client.register, "s2", SCHEMA)
            client.submit(SUM_CQL.format(stream="s"), name="q0")
            self.expect_code(
                "quota", client.submit, SUM_CQL.format(stream="s"), name="q1"
            )
            # The connection survives quota refusals.
            assert client.ping()

    def test_session_cap_refuses_new_tenants(self):
        with SaberServer(ServeConfig(port=0, max_sessions=1)) as server:
            with connect(server, "first") as client:
                assert client.ping()
                with pytest.raises(ProtocolError) as err:
                    connect(server, "second")
                assert err.value.code == "quota"

    def test_submit_after_activation_is_refused(self, server):
        with connect(server) as client:
            client.register("s", SCHEMA)
            client.submit(SUM_CQL.format(stream="s"), name="q")
            push_rows(client, "s", 64)   # activates the session
            self.expect_code(
                "session-active",
                client.submit,
                SUM_CQL.format(stream="s"),
                name="late",
            )
            self.expect_code("session-active", client.register, "s2", SCHEMA)

    def test_backpressure_error_policy(self, server):
        with connect(server) as client:
            client.register("s", SCHEMA, capacity=64, policy="error")
            client.submit(SUM_CQL.format(stream="s"), name="q")
            # A push larger than the queue capacity can never fit: under
            # the error policy it must be refused with a typed frame
            # rather than blocking the connection.
            self.expect_code(
                "backpressure",
                client.push,
                "s",
                [{"timestamp": i, "value": 1.0} for i in range(128)],
            )

    def test_push_after_close_is_typed(self, server):
        with connect(server) as client:
            client.register("s", SCHEMA)
            client.submit(SUM_CQL.format(stream="s"), name="q")
            client.close_stream("s")
            self.expect_code("closed", client.push, "s", [{"timestamp": 1, "value": 1.0}])


class TestGracefulShutdown:
    def test_drain_flushes_queued_data(self):
        server = SaberServer(ServeConfig(port=0)).start()
        client = connect(server, "acme")
        client.register("s", SCHEMA)
        client.submit(SUM_CQL.format(stream="s"), name="q")
        push_rows(client, "s", 256)
        # Shut down without the client closing its stream: the drain
        # closes it (end-of-stream), processes the queued tail and
        # flushes windows before releasing the engine.
        server.shutdown(drain=True)
        handle = server._tenants["acme"].session.handles["q"]
        assert handle.backlog.exhausted is False  # the flushed tail waits
        total = 0.0
        for batch in handle.results():  # the closed backlog ends the loop
            total += sum(r["total"] for r in batch_to_rows(batch))
        assert total == 256.0 and handle.backlog.exhausted

    def test_shutdown_is_idempotent(self):
        server = SaberServer(ServeConfig(port=0)).start()
        server.shutdown()
        server.shutdown()

    @pytest.mark.slow
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--drain-timeout", "30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            # Log lines (stderr is merged) may interleave with the
            # address announcement; scan for the plain print line.
            for _ in range(20):
                line = proc.stdout.readline()
                if line.startswith("listening on "):
                    break
            else:
                pytest.fail("server never announced its address")
            host, port = line.split()[-1].rsplit(":", 1)
            with ServeClient(host, int(port), tenant="t") as client:
                client.register("s", SCHEMA)
                client.submit(SUM_CQL.format(stream="s"), name="q")
                push_rows(client, "s", 128)
                proc.send_signal(signal.SIGTERM)
                returncode = proc.wait(timeout=60)
            assert returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestSoak:
    """Many clients, one daemon: the invariants of ``block`` backpressure."""

    @pytest.mark.parametrize(
        "connections, tenants, rows",
        [
            pytest.param(16, 4, 256, id="16-connections-4-tenants"),
            pytest.param(200, 8, 512, id="200-connections-8-tenants", marks=pytest.mark.slow),
        ],
    )
    def test_exact_delivery_zero_drops_no_leaks(self, connections, tenants, rows):
        threads_before = threading.active_count()
        shm_before = set(os.listdir("/dev/shm"))
        names = [f"tenant{i}" for i in range(tenants)]
        config = ServeConfig(
            port=0,
            metrics_port=0,
            max_sessions=tenants,
            quotas=TenantQuotas(
                backpressure="block", push_capacity_tuples=1 << 16, cpu_workers=2
            ),
        )
        server = SaberServer(config).start()
        try:
            for name in names:
                with connect(server, name, timeout=60.0) as client:
                    client.register("s", SCHEMA)
                    client.submit(SUM_CQL.format(stream="s"), name="agg")

            errors = []

            def producer(tenant):
                try:
                    with connect(server, tenant, timeout=120.0) as client:
                        for start in range(0, rows, 128):
                            push_rows(client, "s", min(128, rows - start), start=start)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(f"{tenant}: {type(exc).__name__}: {exc}")

            # Every connection alive and pushing at once.
            fleet = [
                threading.Thread(target=producer, args=(names[i % tenants],))
                for i in range(connections)
            ]
            for thread in fleet:
                thread.start()
            for thread in fleet:
                thread.join(300.0)
            assert not any(thread.is_alive() for thread in fleet)
            assert errors == []

            # Exact delivery and no starvation: every tenant drains to
            # ``done`` and its windows sum to every row pushed for it.
            for i, name in enumerate(names):
                pushed = rows * len(range(i, connections, tenants))
                with connect(server, name, timeout=120.0) as client:
                    client.close_stream("s")
                    assert drain_total(client, "agg", deadline=300.0) == pushed, name

            host, port = server.metrics_address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as reply:
                assert reply.status == 200 and b"saber_" in reply.read()
            registry = server.registry
            assert len(registry.snapshot()["saber_result_backlog_dropped_total"]) == tenants
            assert registry.total("saber_result_backlog_dropped_total") == 0
            assert registry.total("saber_ingress_dropped_tuples_total") == 0
            assert registry.total("saber_ingest_rows_total") == rows * connections
        finally:
            server.shutdown(drain=True)

        # No leaks: threads and shared-memory segments return to baseline.
        deadline = time.monotonic() + 10.0
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert threading.active_count() <= threads_before
        assert set(os.listdir("/dev/shm")) <= shm_before


class TestIdleEviction:
    def test_idle_tenant_is_evicted_and_counted(self):
        config = ServeConfig(
            port=0, metrics_port=0, stats_interval=None, tenant_idle_timeout=0.3
        )
        with SaberServer(config) as srv:
            client = connect(srv, tenant="sleepy")
            client.register("s", SCHEMA)
            push_rows(client, "s", 16)
            # Go silent: the eviction loop reaps the tenant, drains its
            # engine gracefully, and counts the eviction.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if srv.tenants_evicted.total() >= 1.0:
                    break
                time.sleep(0.05)
            assert srv.tenants_evicted.total() == 1.0
            assert srv.stats()["tenants"] == []

    def test_evicted_tenant_leaves_nothing_behind(self):
        """After the idle timeout reaps a tenant its session is garbage
        and ``/metrics`` names it on the eviction counter only."""
        config = ServeConfig(
            port=0, metrics_port=0, stats_interval=None, tenant_idle_timeout=0.3
        )
        with SaberServer(config) as srv:
            with connect(srv, tenant="t1") as client:
                client.register("s", SCHEMA)
                client.submit(SUM_CQL.format(stream="s"), name="q")
                push_rows(client, "s", 128)
                assert 'tenant="t1"' in srv.registry.render()
            session = weakref.ref(srv.admit("t1").session)
            deadline = time.monotonic() + 15.0
            while srv.tenants_evicted.total() < 1.0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert srv.tenants_evicted.total() == 1.0
            # The counter ticks before the drain finishes: wait it out.
            while session() is not None and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.05)
            assert session() is None
            host, port = srv.metrics_address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as reply:
                text = reply.read().decode()
            assert [line for line in text.splitlines() if '"t1"' in line] == [
                'saber_server_tenants_evicted_total{tenant="t1"} 1'
            ]

    def test_tenant_churn_leaves_only_the_servers_collector(self):
        config = ServeConfig(
            port=0, metrics_port=None, stats_interval=None, tenant_idle_timeout=0.2
        )
        with SaberServer(config) as srv:
            refs = []
            for i in range(50):
                # Eviction may already run between admissions (they can take
                # longer than the timeout), but it only unregisters: the
                # registry's token count says how many collectors each
                # admission registered, whatever was evicted meanwhile.
                registered = srv.registry._next_token
                tenant = srv.admit(f"churn{i}")
                tenant.register("s", SCHEMA)
                tenant.submit(SUM_CQL.format(stream="s"), name="q")
                assert srv.registry._next_token == registered + 1
                assert tenant._collector == registered + 1
                refs += [weakref.ref(tenant), weakref.ref(tenant.session)]
            del tenant
            assert srv.registry._next_token == 51
            deadline = time.monotonic() + 30.0
            while (
                srv.tenants_evicted.total() < 50 or len(srv.registry._collectors) > 1
            ) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert srv.tenants_evicted.total() == 50
            # Exactly one collector left — the server's own — and no
            # tenant or session object survives anywhere, let alone
            # reachable from the registry.
            assert len(srv.registry._collectors) == 1
            gc.collect()
            assert [ref for ref in refs if ref() is not None] == []
            assert srv.registry.value("saber_server_tenants") == 0

    def test_active_tenant_is_not_evicted(self):
        config = ServeConfig(
            port=0, metrics_port=0, stats_interval=None, tenant_idle_timeout=0.4
        )
        with SaberServer(config) as srv:
            client = connect(srv, tenant="busy")
            client.register("s", SCHEMA)
            # Keep talking for several timeout periods: any frame counts
            # as activity, so the tenant must survive.
            end = time.monotonic() + 1.5
            while time.monotonic() < end:
                assert client.ping()
                time.sleep(0.1)
            assert srv.tenants_evicted.total() == 0.0
            assert len(srv.stats()["tenants"]) == 1


class TestWindowsMode:
    def test_window_results_are_tagged_and_ordered(self, server):
        client = connect(server)
        client.register("s", SCHEMA)
        client.submit(SUM_CQL.format(stream="s"), name="q", windows=True)
        push_rows(client, "s", 256)
        client.close_stream("s")
        wids, total = [], 0.0
        done = False
        end = time.monotonic() + 30.0
        while not done:
            assert time.monotonic() < end, "windows-mode query never drained"
            chunks, done = client.window_results("q", timeout=2.0)
            for wid, batch in chunks:
                wids.append(wid)
                total += sum(r["total"] for r in batch_to_rows(batch))
        # 256 tuples through tumbling 64-row windows: four windows, in
        # strictly increasing window-id order, summing to every value.
        assert wids == sorted(wids) and len(set(wids)) == len(wids)
        assert len(wids) == 4
        assert total == 256.0
