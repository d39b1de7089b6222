"""One workload in one fresh process: set-up, warm-up, timed segments, check.

The runner (:mod:`saberbench.cli`) spawns this module with a pinned
environment and reads one JSON object from the last line of its
standard output.  The run shape is fixed (see the README): one
long-lived ``SaberSession`` per workload; warm-up segments that allocate
and fault in every buffer; then timed segments of a frozen task count,
each one ``session.run(tasks_per_query=K)``, repeated until
``--seconds`` have been measured (at least five).  ``--trace 1``
shortens the end-to-end part and adds the hand-driven serial pass of
:mod:`saberbench.tracing`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import zlib
from pathlib import Path

from . import oracle
from .measure import (
    TRACED_E2E_SHARE,
    cpu_times,
    end_to_end_layers,
    layer_metrics,
    peak_rss_mib,
    pipeline_layers,
    strip_latencies,
    summarise,
    timed_segments,
)
from .config import load_sizes, workload_names
from .workloads import LoopSource, engine_queries, synthetic_block

_clock = time.perf_counter


class ChunkSink:
    """The consumer at the end of a query: stamps, digests, keeps samples.

    Called on the emitting worker's thread for every ordered output
    chunk.  It records the receive time and the chunk's newest
    timestamp (which names the task whose hand-out time latency is
    measured from), folds the chunk's bytes into an order-sensitive
    CRC, and offers the chunk to the oracle's bounded reservoir.
    """

    def __init__(self, task_tuples: int, seed: int) -> None:
        self._task_tuples = task_tuples
        self.events: "list[tuple[float, int]]" = []
        self.crc = 0
        self.reservoir = oracle.ChunkReservoir(seed)
        self._next_task = 0
        #: chunks that did not belong to the next task in order.
        self.out_of_order = 0

    def __call__(self, chunk) -> None:
        received = _clock()
        data = chunk.data
        task = int(data["timestamp"].max()) // self._task_tuples
        self.events.append((received, task))
        self.crc = zlib.crc32(data.view("u1"), self.crc)
        if task != self._next_task:
            self.out_of_order += 1
        self._next_task = task + 1
        self.reservoir.offer(task, data)

    def begin_segment(self) -> None:
        self.events = []
        self.crc = 0

    def checked_chunks(self) -> "dict[int, list]":
        """``task id → output columns`` of the chunks kept for the oracle."""
        return {
            task: [data[n] for n in data.dtype.names]
            for task, data in self.reservoir.chunks().items()
        }


def run_segment(session, tasks: int, sinks, sources, tuples: int) -> dict:
    """One timed ``session.run``; latencies are worked out afterwards."""
    for sink, source in zip(sinks, sources):
        sink.begin_segment()
        source.begin_segment()
    user0, sys0 = cpu_times()
    started = _clock()
    session.run(tasks_per_query=tasks)
    wall = _clock() - started
    user1, sys1 = cpu_times()
    latencies = [
        (received - source.handed_at(task)) * 1e3
        for sink, source in zip(sinks, sources)
        for received, task in sink.events
    ]
    return {
        "wall_s": wall,
        "tuples": tuples,
        "tasks": tasks * len(sinks),
        "cpu_user_s": user1 - user0,
        "cpu_sys_s": sys1 - sys0,
        "digest": "-".join(f"{sink.crc:08x}" for sink in sinks),
        "latencies_ms": latencies,
    }


# -- engine workloads ----------------------------------------------------------


def _engine_inputs(name: str, spec: dict, seed: int):
    """Fresh queries, references, blocks and looping sources."""
    pairs = engine_queries(name)
    block_tuples = spec["block_tasks"] * spec["task_tuples"]
    blocks, sources = [], []
    for q, (query, __) in enumerate(pairs):
        per_query = [
            synthetic_block(block_tuples, [seed, q, i])
            for i in range(query.arity)
        ]
        blocks.append(per_query)
        sources.append(
            [LoopSource(s, b.view(s.dtype)) for s, b in zip(query.input_schemas, per_query)]
        )
    return pairs, blocks, sources


def run_engine(name: str, spec: dict, args, min_segments: int) -> dict:
    from repro.api import SaberSession
    from repro.workloads.synthetic import TUPLE_SIZE

    from .tracing import Layers, Tracer, serial_pass

    pairs, blocks, sources = _engine_inputs(name, spec, args.seed)
    task_tuples = spec["task_tuples"]
    arity = pairs[0][0].arity
    task_bytes = task_tuples * TUPLE_SIZE * arity
    hybrid = spec["execution"] == "hybrid"
    sinks = [ChunkSink(task_tuples, args.seed) for __ in pairs]
    session = SaberSession(
        execution=spec["execution"],
        cpu_workers=spec["cpu_workers"],
        use_gpu=hybrid,
        queue_capacity=spec["queue_capacity"],
        task_size_bytes=task_bytes,
        collect_output=False,
    )
    try:
        for (query, __), query_sources, sink in zip(pairs, sources, sinks):
            session.submit(query, sources=query_sources, sink=sink)
        for __ in range(spec["warmup_segments"]):
            session.run(tasks_per_query=spec["warmup_tasks"])
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        tasks = spec["segment_tasks"]
        tuples = tasks * task_tuples * arity * len(pairs)
        first = [source[0] for source in sources]
        seconds = args.seconds * (TRACED_E2E_SHARE if args.trace else 1.0)
        segments = timed_segments(
            lambda: run_segment(session, tasks, sinks, first, tuples),
            seconds,
            min_segments,
        )
        share = session.report.processor_share().get("GPGPU", 0.0)
    finally:
        session.close()

    checked = failed = 0
    for (__, reference), query_blocks, sink in zip(pairs, blocks, sinks):
        c, f = oracle.check(
            reference, query_blocks, sink.checked_chunks(), task_tuples, args.seed
        )
        checked += c
        failed += f + sink.out_of_order
    result = {
        "setup_s": setup_s,
        "end_to_end": summarise(segments),
        "segments": strip_latencies(segments),
        "attempted": sum(s["tasks"] for s in segments) + checked,
        "failed": failed,
        "windows_checked": checked,
        "peak_rss_mib": peak_rss_mib(),
    }
    if not args.trace:
        return result

    fresh, __, fresh_sources = _engine_inputs(name, spec, args.seed)
    tracer = Tracer()
    untraced, traced = serial_pass(
        [query for query, __ in fresh],
        fresh_sources,
        [task_bytes] * len(fresh),
        spec["segment_tasks"],
        [ChunkSink(task_tuples, args.seed) for __ in fresh],
        Layers(tracer),
        hybrid=hybrid,
        warmup_tasks=spec["warmup_segments"] * spec["warmup_tasks"],
    )
    values = pipeline_layers(untraced, traced, tracer)
    values.update(
        end_to_end_layers(segments, result["end_to_end"], values["trace.serial_ktuples_s"])
    )
    values["core.scheduler.gpgpu_task_share"] = share
    result["per_layer"] = layer_metrics(values)
    tracer.write(Path(args.out_dir) / f"trace-{name}.jsonl")
    return result


# -- entry point ---------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="saberbench.child", description=__doc__)
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    sizes = load_sizes(args.size)
    spec = sizes[args.workload]
    if args.workload == "serve-wire":
        from .servewire import run_serve

        result = run_serve(spec, args, sizes["min_timed_segments"])
    else:
        result = run_engine(args.workload, spec, args, sizes["min_timed_segments"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
