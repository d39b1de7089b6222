"""The ``serve-wire`` workload: the engine behind its network daemon.

An in-process :class:`~repro.serve.server.SaberServer` hosts one tenant.
A closed loop of exactly two :class:`~repro.serve.client.ServeClient`
connections drives it: a blocking *pusher* that sends 512-row JSON
``push`` frames (the server's ingress queue is what pushes back), and a
*drainer* that long-polls ``results``.  A segment is a fixed number of
pushes, timed from the first push to the last result chunk those pushes
produce.  Latency is measured per result chunk, from the start of the
push that carried the chunk's newest row.

The traced pass (:func:`_wire_layers`) replays one segment's real
payloads through the wire codec — ``encode_frame`` / ``parse_frame`` /
``rows_to_batch`` on the way in, ``batch_to_rows`` / ``encode_frame`` on
the way out — around the same hand-driven engine pipeline the other
workloads use, and an in-process ``PushSource`` run of the same query
and rows gives the no-wire reference the wire tax is measured against.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from pathlib import Path

import numpy as np

from . import oracle
from .measure import (
    TRACED_E2E_SHARE,
    cpu_times,
    end_to_end_layers,
    layer_metrics,
    peak_rss_mib,
    percentile,
    pipeline_layers,
    strip_latencies,
    summarise,
    timed_segments,
)
from .tracing import Layers, Tracer, serial_pass
from .workloads import (
    SERVE_CQL,
    SERVE_SCHEMA,
    SERVE_SCHEMA_SPEC,
    LoopSource,
    serve_block,
    serve_reference,
)

_clock = time.perf_counter

#: a segment whose results stop arriving for this long has lost chunks.
_DRAIN_STALL_SECONDS = 20.0


def _columns(rows: "list[dict]") -> "list[np.ndarray]":
    """Row dicts (schema order) as positional columns for the oracle."""
    names = list(rows[0])
    return [np.array([row[n] for row in rows]) for n in names]


class _WireLoop:
    """The two-connection closed loop and what it observed."""

    def __init__(
        self, pusher, drainer, source: LoopSource, push_rows: int, task_rows: int, seed: int
    ) -> None:
        self.pusher = pusher
        self.drainer = drainer
        self.source = source
        self.push_rows = push_rows
        self.task_rows = task_rows
        self.push_rtt: "list[float]" = []
        self.results_rtt: "list[float]" = []
        #: result chunks (lists of row dicts) kept for the oracle.
        self.reservoir = oracle.ChunkReservoir(seed)
        self.requests = 0
        self.errors = 0

    def _push(self, pushes: int) -> None:
        from repro.serve.protocol import ProtocolError

        for __ in range(pushes):
            rows = self.source.next_tuples(self.push_rows).data.tolist()
            began = _clock()
            try:
                self.pusher.push("s", rows)
            except ProtocolError:
                self.errors += 1
            self.push_rtt.append(_clock() - began)
        self.requests += pushes

    def segment(self, pushes: int) -> dict:
        expected = pushes * self.push_rows // self.task_rows
        crc = 0
        latencies = []
        received = 0
        self.source.begin_segment()
        user0, sys0 = cpu_times()
        started = last_progress = _clock()
        pusher = threading.Thread(target=self._push, args=(pushes,), name="bench-pusher")
        pusher.start()
        while received < expected and _clock() - last_progress < _DRAIN_STALL_SECONDS:
            began = _clock()
            chunks, __ = self.drainer.results("q", max_chunks=16, timeout=1.0)
            now = _clock()
            self.results_rtt.append(now - began)
            self.requests += 1
            for rows in chunks:
                newest = max(row["timestamp"] for row in rows)
                latencies.append(
                    (now - self.source.handed_at(newest // self.push_rows)) * 1e3
                )
                crc = zlib.crc32(json.dumps(rows).encode(), crc)
                self.reservoir.offer(newest // self.task_rows, rows)
            if chunks:
                received += len(chunks)
                last_progress = now
        wall = _clock() - started
        pusher.join()
        user1, sys1 = cpu_times()
        self.errors += expected - received  # chunks that never arrived
        return {
            "wall_s": wall,
            "tuples": pushes * self.push_rows,
            "tasks": expected,
            "cpu_user_s": user1 - user0,
            "cpu_sys_s": sys1 - sys0,
            "digest": f"{crc:08x}",
            "latencies_ms": latencies,
        }


def run_serve(spec: dict, args, min_segments: int) -> dict:
    from repro.serve.client import ServeClient
    from repro.serve.server import SaberServer, ServeConfig
    from repro.serve.tenants import TenantQuotas

    push_rows = spec["push_rows"]
    block = serve_block(spec["block_pushes"] * push_rows, [args.seed])
    quotas = TenantQuotas(cpu_workers=spec["cpu_workers"])
    task_rows = quotas.task_size_bytes // SERVE_SCHEMA.tuple_size
    server = SaberServer(ServeConfig(host="127.0.0.1", port=0, quotas=quotas)).start()
    clients = []
    try:
        host, port = server.address
        clients = [ServeClient(host, port, tenant="bench") for __ in range(2)]
        pusher, drainer = clients
        pusher.register("s", SERVE_SCHEMA_SPEC)
        pusher.submit(SERVE_CQL, name="q")
        loop = _WireLoop(
            pusher, drainer, LoopSource(SERVE_SCHEMA, block.copy()), push_rows, task_rows,
            args.seed,
        )
        for __ in range(spec["warmup_segments"]):
            loop.segment(spec["warmup_pushes"])
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        loop.push_rtt.clear()
        loop.results_rtt.clear()
        loop.requests = 0
        seconds = args.seconds * (TRACED_E2E_SHARE if args.trace else 1.0)
        segments = timed_segments(
            lambda: loop.segment(spec["segment_pushes"]), seconds, min_segments
        )
    finally:
        for client in clients:
            client.close()
        server.shutdown(drain=False)

    kept = {task: _columns(rows) for task, rows in loop.reservoir.chunks().items()}
    checked, failed = oracle.check(serve_reference(), [block], kept, task_rows, args.seed)
    result = {
        "setup_s": setup_s,
        "end_to_end": summarise(segments),
        "segments": strip_latencies(segments),
        "attempted": loop.requests + checked,
        "failed": failed + loop.errors,
        "windows_checked": checked,
        "peak_rss_mib": peak_rss_mib(),
    }
    if not args.trace:
        return result
    throughput = result["end_to_end"]["throughput_ktuples_s"]["value"]
    values = _wire_layers(block, spec, task_rows, Path(args.out_dir))
    values.update(
        end_to_end_layers(segments, result["end_to_end"], values["trace.serial_ktuples_s"])
    )
    local = _local_ktuples_s(block, spec, quotas, task_rows)
    values.update({
        "serve.server.push_rtt_p50_ms": percentile(loop.push_rtt, 50) * 1e3,
        "serve.server.push_rtt_p90_ms": percentile(loop.push_rtt, 90) * 1e3,
        "serve.server.results_rtt_p50_ms": percentile(loop.results_rtt, 50) * 1e3,
        "serve.server.local_ktuples_s": local,
        "serve.server.wire_tax_ratio": local / throughput,
    })
    result["per_layer"] = layer_metrics(values)
    return result


# -- the no-wire reference -------------------------------------------------------


def _local_ktuples_s(block, spec: dict, quotas, task_rows: int) -> float:
    """The same query and rows through an in-process ``PushSource``."""
    from repro.api import SaberSession
    from repro.io.push import PushSource
    from repro.relational.tuples import TupleBatch

    push_rows = spec["push_rows"]
    pushes = spec["segment_pushes"]
    expected = pushes * push_rows // task_rows
    arrived = threading.Semaphore(0)
    source = PushSource(SERVE_SCHEMA, capacity_tuples=quotas.push_capacity_tuples)
    loop = LoopSource(SERVE_SCHEMA, block.copy())
    session = SaberSession(
        execution="threads",
        cpu_workers=spec["cpu_workers"],
        use_gpu=False,
        collect_output=False,
        buffer_capacity_tasks=quotas.buffer_capacity_tasks,
        task_size_bytes=quotas.task_size_bytes,
    )
    try:
        session.register_stream("s", source)
        session.sql(SERVE_CQL, name="q").add_sink(lambda chunk: arrived.release())
        session.start()
        started = _clock()
        for __ in range(pushes):
            source.push(TupleBatch(SERVE_SCHEMA, loop.next_tuples(push_rows).data))
        for __ in range(expected):
            if not arrived.acquire(timeout=_DRAIN_STALL_SECONDS):
                raise RuntimeError("local PushSource run lost result chunks")
        wall = _clock() - started
    finally:
        session.close()
    return pushes * push_rows / wall / 1e3


# -- the traced pass --------------------------------------------------------------


class _WireSource:
    """Pull SPI over the wire codec: a pull is decoded from push frames."""

    def __init__(self, source: LoopSource, push_rows: int, layers: Layers, tally: dict):
        self.schema = source.schema
        self._source = source
        self._push_rows = push_rows
        self._layers = layers
        self._tally = tally

    def next_tuples(self, count: int):
        from repro.io.records import rows_to_batch
        from repro.relational.tuples import TupleBatch
        from repro.serve.protocol import encode_frame, parse_frame

        layers = self._layers
        parts = []
        for __ in range(count // self._push_rows):
            with layers.span("harness.loadgen"):
                rows = self._source.next_tuples(self._push_rows).data.tolist()
            with layers.span("serve.protocol.encode"):
                line = encode_frame({"type": "push", "stream": "s", "rows": rows})
            with layers.span("serve.protocol.parse"):
                frame = parse_frame(line)
            with layers.span("io.records.rows_to_batch"):
                parts.append(rows_to_batch(self.schema, frame["rows"]).data)
            self._tally["wire_bytes"] += len(line)
            self._tally["rows"] += self._push_rows
        return TupleBatch(self.schema, np.concatenate(parts))


class _WireSink:
    """The way out: rows, a ``chunk`` frame, and the client's parse."""

    def __init__(self, layers: Layers, tally: dict) -> None:
        self._layers = layers
        self._tally = tally

    def __call__(self, chunk) -> None:
        from repro.io.records import batch_to_rows
        from repro.serve.protocol import chunk_frame, encode_frame

        layers = self._layers
        with layers.span("io.records.batch_to_rows"):
            rows = batch_to_rows(chunk)
        with layers.span("serve.protocol.encode"):
            line = encode_frame(chunk_frame("q", rows))
        with layers.span("serve.protocol.parse"):
            json.loads(line)
        self._tally["wire_bytes"] += len(line)


def _wire_layers(block, spec: dict, task_rows: int, out_dir: Path) -> dict:
    """The serial pass, untraced and traced, over one segment's payloads."""
    from repro.core.cql import compile_statement

    tasks = spec["segment_pushes"] * spec["push_rows"] // task_rows
    warmup = spec["warmup_segments"] * spec["warmup_pushes"] * spec["push_rows"] // task_rows
    tally = {"wire_bytes": 0, "rows": 0}
    tracer = Tracer()
    layers = Layers(tracer)
    source = _WireSource(
        LoopSource(SERVE_SCHEMA, block.copy()), spec["push_rows"], layers, tally
    )
    query = compile_statement(SERVE_CQL, {"s": SERVE_SCHEMA}, name="q")
    untraced, traced = serial_pass(
        [query],
        [[source]],
        [task_rows * SERVE_SCHEMA.tuple_size],
        tasks,
        [_WireSink(layers, tally)],
        layers,
        warmup_tasks=warmup,
    )
    values = pipeline_layers(untraced, traced, tracer)
    values["serve.protocol.wire_bytes_per_row"] = tally["wire_bytes"] / tally["rows"]
    tracer.write(out_dir / "trace-serve-wire.jsonl")
    return values
