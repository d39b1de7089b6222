"""Shard engines: one SABER instance per key range, local or remote.

A shard hosts the cluster's single compiled query over one key-disjoint
sub-stream and reports per-window results to the cluster session's
merge stage.  Two transports implement the same small surface:

* :class:`LocalShard` — an in-process
  :class:`~repro.api.SaberSession` (over the ``threads`` or
  ``processes`` engine backend) fed through a
  :class:`~repro.io.PushSource`.  Windowed delivery
  (:meth:`~repro.api.QueryHandle.deliver_windows`) hands each window
  straight from the shard engine's result stage to the merge stage;
* :class:`ProcessShard` — a ``repro serve`` daemon spawned as a child
  process, spoken to over the serve protocol's windows mode
  (``submit {"windows": true}``); a pump thread drains window-tagged
  batches back to the merge stage.  This is the remote-transport shape:
  the child could equally be another machine.

Both expose ``kill()`` for failure injection: the session's liveness
monitor sees ``alive`` go false and replays the shard's retained
sub-stream onto a replacement (see
:class:`~repro.cluster.session.ClusterSession`).
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
from typing import Callable

from ..api import SaberSession
from ..errors import SaberError
from ..io.push import PushSource
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

__all__ = ["LocalShard", "ProcessShard"]

#: serve-protocol drain granularity for the remote pump.
_PUMP_CHUNKS = 64
_PUMP_TIMEOUT = 0.5

#: per-shard engine task size.
_TASK_SIZE_BYTES = 64 << 10
#: per-shard ingress queue bound (tuples).
_CAPACITY_TUPLES = 1 << 16


class LocalShard:
    """One in-process shard engine behind a push-ingested session."""

    def __init__(
        self,
        shard_id: int,
        stream: str,
        schema: Schema,
        cql: str,
        query_name: str,
        on_window: "Callable[[int, TupleBatch], None]",
        on_eos: "Callable[[], None]",
        execution: str = "threads",
        cpu_workers: int = 2,
    ) -> None:
        self.shard_id = shard_id
        self.killed = False
        self._failed = False
        self._on_eos = on_eos
        self._source = PushSource(schema, capacity_tuples=_CAPACITY_TUPLES)
        self._session = SaberSession(
            execution=execution,
            cpu_workers=cpu_workers,
            use_gpu=False,
            collect_output=False,
            task_size_bytes=_TASK_SIZE_BYTES,
        )
        self._session.register_stream(stream, self._source)
        self._handle = self._session.sql(cql, name=query_name)
        self._handle.deliver_windows(on_window)
        self._watcher: "threading.Thread | None" = None

    def start(self) -> None:
        """Begin the unbounded background run and the EOS watcher."""
        self._session.start()
        self._watcher = threading.Thread(
            target=self._watch, name=f"shard{self.shard_id}-eos", daemon=True
        )
        self._watcher.start()

    def _watch(self) -> None:
        """Report end-of-stream once the run drains the closed input."""
        try:
            self._session.wait()
        except SaberError:
            self._failed = True
            return
        if not self.killed and self._handle.done:
            self._on_eos()

    def push(self, batch: TupleBatch) -> int:
        """Ingest one key-disjoint sub-batch; returns tuples accepted."""
        return self._source.push(batch)

    def close(self) -> None:
        """End-of-stream: queued data drains and tail windows flush."""
        self._source.close()

    @property
    def alive(self) -> bool:
        """False once the shard was killed or its engine run failed."""
        return not self.killed and not self._failed

    @property
    def done(self) -> bool:
        """True once the shard's query has drained its closed input."""
        return self._handle.done

    def kill(self) -> None:
        """Failure injection: die abruptly, mid-stream, without drain."""
        self.killed = True
        try:
            self._source.close()
            self._session.engine.request_stop()
            self._session.close()
        except SaberError:
            pass

    def shutdown(self) -> None:
        """Release engine resources (idempotent)."""
        try:
            self._session.close()
        except SaberError:
            pass


class ProcessShard:
    """One shard served by a spawned ``repro serve`` daemon.

    The child binds an ephemeral port and announces it on stdout
    (``listening on host:port``); the session then drives it over
    the serve protocol exactly as a remote engine would be driven over
    TCP.  Ingest batches cross as binary push frames (the packed rows
    themselves) and window results come back as binary chunks, so the
    merged output stays byte-identical to a single-engine run.
    """

    def __init__(
        self,
        shard_id: int,
        stream: str,
        schema: Schema,
        cql: str,
        query_name: str,
        on_window: "Callable[[int, TupleBatch], None]",
        on_eos: "Callable[[], None]",
        cpu_workers: int = 2,
        spawn_timeout: float = 30.0,
    ) -> None:
        # Imported here: only this transport needs the client.
        from ..serve.client import ServeClient

        self.shard_id = shard_id
        self.stream = stream
        self.query_name = query_name
        self.killed = False
        self._on_window = on_window
        self._on_eos = on_eos
        env = dict(os.environ)
        # The directory *containing* the repro package, so the child's
        # `-m repro` resolves even when the parent runs from a checkout
        # that is not pip-installed.
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--execution",
                "threads",
                "--workers",
                str(cpu_workers),
                "--task-size",
                str(_TASK_SIZE_BYTES),
                "--push-capacity",
                str(_CAPACITY_TUPLES),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self._clients: "list[ServeClient]" = []
        self._pump: "threading.Thread | None" = None
        try:
            host, port = self._await_listening(spawn_timeout)
            # Two connections, one tenant: the protocol is strictly
            # request/response per connection, so the ingest path and the
            # long-polling result pump must not share a socket (interleaved
            # replies would cross-deliver).
            for _ in range(2):
                self._clients.append(
                    ServeClient(host, port, tenant=f"shard{shard_id}")
                )
            self._client, self._results_client = self._clients
            self._client.register(stream, schema.spec, capacity=_CAPACITY_TUPLES)
            self._client.submit(cql, name=query_name, windows=True)
        except BaseException:
            # A failed start leaves nothing behind: sockets closed, the
            # child killed *and* reaped, its pipe closed.
            self._close_clients()
            self._reap(grace=0.0)
            raise

    def _await_listening(self, timeout: float) -> "tuple[str, int]":
        """Parse the child's ``listening on host:port`` banner, waiting
        at most ``timeout`` seconds for it."""
        assert self._process.stdout is not None
        fd = self._process.stdout.fileno()
        deadline = time.monotonic() + timeout
        banner = b""
        while b"\n" not in banner:
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic())
            )
            if not ready:
                raise SaberError(
                    f"shard {self.shard_id}: serve child printed no banner "
                    f"within {timeout:g} s"
                )
            chunk = os.read(fd, 4096)
            if not chunk:
                break  # EOF: the child exited before announcing a port
            banner += chunk
        line = banner.decode(errors="replace").partition("\n")[0]
        if not line.startswith("listening on "):
            raise SaberError(
                f"shard {self.shard_id}: serve child failed to start "
                f"(got {line!r})"
            )
        host, _, port = line.removeprefix("listening on ").strip().rpartition(":")
        return host, int(port)

    def start(self) -> None:
        """Start the result pump draining window-tagged chunks."""
        self._pump = threading.Thread(
            target=self._pump_results,
            name=f"shard{self.shard_id}-pump",
            daemon=True,
        )
        self._pump.start()

    def _pump_results(self) -> None:
        from ..serve.protocol import ProtocolError

        while True:
            try:
                chunks, done = self._results_client.window_results(
                    self.query_name,
                    max_chunks=_PUMP_CHUNKS,
                    timeout=_PUMP_TIMEOUT,
                )
            except (ProtocolError, OSError):
                return  # child died (or was killed): the monitor recovers
            for wid, rows in chunks:
                self._on_window(wid, rows)
            if done:
                if not self.killed:
                    self._on_eos()
                return

    def push(self, batch: TupleBatch) -> int:
        """Ingest one sub-batch over the serve protocol (a binary push)."""
        return self._client.push(self.stream, batch)

    def close(self) -> None:
        """End-of-stream: close the child's ingest stream."""
        self._client.close_stream(self.stream)

    @property
    def alive(self) -> bool:
        """False once the shard was killed or the child process exited."""
        return not self.killed and self._process.poll() is None

    @property
    def done(self) -> bool:
        """True once the child exited or the result pump has drained."""
        return self._process.poll() is not None or not (
            self._pump is not None and self._pump.is_alive()
        )

    def kill(self) -> None:
        """Failure injection: kill the child process outright."""
        self.killed = True
        self._process.kill()
        self._close_clients()

    def shutdown(self) -> None:
        """Close the clients and terminate the child (idempotent)."""
        self._close_clients()
        self._reap(grace=10.0)

    def _reap(self, grace: float) -> None:
        """Terminate the child (``grace`` seconds to exit, then SIGKILL),
        wait for it and close its stdout pipe."""
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        if self._process.stdout is not None:
            self._process.stdout.close()

    def _close_clients(self) -> None:
        from ..serve.protocol import ProtocolError

        for client in self._clients:
            try:
                client.close()
            except (ProtocolError, OSError):
                pass
