"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run`` — execute a named application query (Table 1) or an ad-hoc CQL
  string over one of the bundled workloads and print a run report;
* ``replay`` — replay a recorded JSONL/CSV stream file through a query
  (named or ad-hoc CQL) and optionally write the output to a file sink;
* ``record`` — record a bundled workload stream to a JSONL/CSV file
  (the replay-side inverse, for producing test fixtures);
* ``serve`` — run the long-lived multi-tenant query daemon (newline-
  delimited JSON frames over TCP, Prometheus metrics endpoint; see
  ``docs/operations.md`` for the runbook);
* ``list`` — list the bundled application queries;
* ``hardware`` — print the calibrated hardware spec;
* ``check`` — run the static project-invariant analyzer over a source
  tree (``repro check src/``; see ``docs/analysis.md``).

Examples::

    python -m repro list
    python -m repro run CM1 --tasks 16 --task-size 65536
    python -m repro run --cql "select timestamp, avg(value) as a \\
        from SmartGridStr [range 60 slide 10]" --workload smartgrid
    python -m repro record cluster events.jsonl --tuples 100000
    python -m repro replay events.jsonl CM1 --sink totals.jsonl
    python -m repro serve --port 7070 --metrics-port 9100 --stats 10
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .api import SaberSession
from .cluster import CLUSTER_WORKLOADS, ClusterConfig, materialise, reference_output, run_cluster
from .core.engine import SaberConfig
from .errors import QueryError, SaberError
from .hardware.slots import EXECUTIONS, WALL_CLOCK_EXECUTIONS, device_slots
from .hardware.specs import DEFAULT_SPEC
from .io import FileReplaySource, FileSink, write_batch
from .io.base import POLICIES
from .serve import SaberServer, ServeConfig, TenantQuotas
from .workloads import cluster_monitoring, linearroad, smartgrid
from .workloads.queries import APPLICATION_QUERIES, build

#: ad-hoc CQL runs pick a source (and its stream name) per workload.
_WORKLOADS = {
    "cluster": ("TaskEvents", cluster_monitoring.TASK_EVENTS_SCHEMA,
                lambda seed, rate: cluster_monitoring.ClusterMonitoringSource(
                    seed=seed, tuples_per_second=rate)),
    "smartgrid": ("SmartGridStr", smartgrid.SMART_GRID_SCHEMA,
                  lambda seed, rate: smartgrid.SmartGridSource(
                      seed=seed, tuples_per_second=rate)),
    "linearroad": ("SegSpeedStr", linearroad.POS_SPEED_SCHEMA,
                   lambda seed, rate: linearroad.LinearRoadSource(
                       seed=seed, tuples_per_second=rate)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SABER reproduction: hybrid window-based stream processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a query on the hybrid engine")
    run.add_argument("query", nargs="?", help="application query name (e.g. CM1)")
    run.add_argument("--cql", help="ad-hoc CQL string instead of a named query")
    run.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="smartgrid",
        help="source workload for --cql runs",
    )
    run.add_argument("--tasks", type=int, default=32, help="tasks to process")
    run.add_argument(
        "--task-size", type=int, default=1 << 20, help="query task size phi in bytes"
    )
    run.add_argument("--workers", type=int, default=15, help="CPU worker threads")
    run.add_argument("--no-gpu", action="store_true", help="disable the GPGPU")
    run.add_argument(
        "--scheduler", choices=["hls", "fcfs"], default="hls",
        help="task scheduling policy",
    )
    run.add_argument(
        "--execution",
        choices=EXECUTIONS,
        default="sim",
        help="execution substrate: virtual-time simulation, real threads, "
             "or forked worker processes (shared memory, POSIX only); "
             "outside sim the GPGPU slot is the executable accelerator",
    )
    run.add_argument("--seed", type=int, default=1, help="workload seed")
    run.add_argument(
        "--rate", type=int, default=256,
        help="source tuples per logical second (time-window density)",
    )
    run.add_argument(
        "--show-rows", type=int, default=5, help="result rows to print"
    )

    replay = sub.add_parser(
        "replay", help="replay a recorded JSONL/CSV stream file through a query"
    )
    replay.add_argument("input", help="stream file to replay (.jsonl or .csv)")
    replay.add_argument(
        "query", nargs="?", help="application query name (e.g. CM1)"
    )
    replay.add_argument("--cql", help="ad-hoc CQL string instead of a named query")
    replay.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default=None,
        help="workload whose stream name/schema the replayed file carries "
        "(--cql runs; default: cluster)",
    )
    replay.add_argument(
        "--format", choices=["jsonl", "csv"], default=None,
        help="input format (default: inferred from the file suffix)",
    )
    replay.add_argument(
        "--rate", type=float, default=None,
        help="paced replay: tuples per wall-clock second (default: unpaced)",
    )
    replay.add_argument(
        "--sink", help="write query output to this file (.jsonl or .csv)"
    )
    replay.add_argument(
        "--task-size", type=int, default=64 << 10,
        help="query task size phi in bytes",
    )
    replay.add_argument("--workers", type=int, default=4, help="CPU worker threads")
    replay.add_argument("--no-gpu", action="store_true", help="disable the GPGPU")
    replay.add_argument(
        "--execution",
        choices=EXECUTIONS,
        default="threads",
        help="execution backend (threads by default: replay is real I/O)",
    )
    replay.add_argument(
        "--backpressure", choices=POLICIES,
        default="block", help="policy when the input buffers fill",
    )
    replay.add_argument(
        "--show-rows", type=int, default=5, help="result rows to print"
    )

    record = sub.add_parser(
        "record", help="record a bundled workload stream to a JSONL/CSV file"
    )
    record.add_argument("workload", choices=sorted(_WORKLOADS))
    record.add_argument("output", help="file to write (.jsonl or .csv)")
    record.add_argument(
        "--tuples", type=int, default=65536, help="number of tuples to record"
    )
    record.add_argument("--seed", type=int, default=1, help="workload seed")
    record.add_argument(
        "--rate", type=int, default=256,
        help="source tuples per logical second (time-window density)",
    )

    serve = sub.add_parser(
        "serve", help="run the long-lived multi-tenant query daemon"
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port", type=int, default=7070,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="Prometheus /metrics endpoint port (0 = ephemeral; "
             "omit to disable)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64,
        help="distinct tenants admitted concurrently",
    )
    serve.add_argument(
        "--max-queries", type=int, default=8, help="queries per tenant"
    )
    serve.add_argument(
        "--max-streams", type=int, default=8, help="push streams per tenant"
    )
    serve.add_argument(
        "--buffer-tasks", type=int, default=96,
        help="per-tenant circular buffer capacity, in tasks per stream",
    )
    serve.add_argument(
        "--push-capacity", type=int, default=1 << 16,
        help="default ingress queue capacity per stream, in tuples",
    )
    serve.add_argument(
        "--backpressure", choices=POLICIES,
        default="block",
        help="default ingress policy when a stream's queue fills "
             "(overridable per register frame)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="CPU workers per tenant session"
    )
    serve.add_argument(
        "--task-size", type=int, default=64 << 10,
        help="query task size phi in bytes (per tenant session)",
    )
    serve.add_argument(
        "--execution", choices=WALL_CLOCK_EXECUTIONS, default="threads",
        help="execution backend for tenant sessions",
    )
    serve.add_argument(
        "--stats", type=float, default=None, metavar="SECONDS",
        help="log a periodic statistics line every SECONDS",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="graceful-drain backstop per tenant on SIGTERM, in seconds",
    )
    serve.add_argument(
        "--tenant-idle-timeout", type=float, default=None, metavar="SECONDS",
        help="evict tenant sessions idle for SECONDS (drains their "
             "queries first; omit to keep idle tenants forever)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="run a workload key-partitioned over N shard engines and "
             "check the merged output against a single engine",
    )
    cluster.add_argument(
        "--workload", choices=list(CLUSTER_WORKLOADS), default="GROUP-BY",
        help="cluster-eligible Table-1 workload",
    )
    cluster.add_argument(
        "--shards", type=int, default=2, help="shard engine count"
    )
    cluster.add_argument(
        "--transport", choices=ClusterConfig.TRANSPORTS, default="local",
        help="shard transport: in-process engines or spawned "
             "'repro serve' daemons",
    )
    cluster.add_argument(
        "--execution", choices=WALL_CLOCK_EXECUTIONS, default="threads",
        help="engine backend inside each local shard",
    )
    cluster.add_argument(
        "--tuples", type=int, default=1 << 15,
        help="stream prefix length to process",
    )
    cluster.add_argument(
        "--workers", type=int, default=2, help="CPU workers per shard"
    )
    cluster.add_argument("--seed", type=int, default=1, help="workload seed")
    cluster.add_argument(
        "--kill-shard", type=int, default=None, metavar="SLOT",
        help="failure injection: kill shard SLOT mid-run and recover it",
    )
    cluster.add_argument(
        "--skip-check", action="store_true",
        help="skip the single-engine equivalence check",
    )

    sub.add_parser("list", help="list the bundled application queries")
    sub.add_parser("hardware", help="print the calibrated hardware spec")

    # ``check`` owns its argument parsing (repro.analysis.cli); the stub
    # here makes it show up in --help, while main() dispatches before
    # this parser ever sees its arguments.
    check = sub.add_parser(
        "check",
        help="static project-invariant analyzer (see docs/analysis.md)",
        add_help=False,
    )
    check.add_argument("args", nargs=argparse.REMAINDER)
    return parser


def _command_list(args: argparse.Namespace) -> int:
    for name in APPLICATION_QUERIES:
        query, __ = build(name)
        profile = query.operator.cost_profile()
        windows = ", ".join(str(w) if w else "unbounded" for w in query.windows)
        print(f"{name:6s} kind={profile.kind:12s} windows=[{windows}]")
    return 0


def _command_hardware(args: argparse.Namespace) -> int:
    for field in dataclasses.fields(DEFAULT_SPEC):
        print(f"{field.name:32s} {getattr(DEFAULT_SPEC, field.name)}")
    return 0


def _one_query(args: argparse.Namespace) -> None:
    if bool(args.query) == bool(args.cql):
        raise QueryError("pass either a query name or --cql")


def _clock(execution: str) -> str:
    """Which clock a run's reported times are on."""
    return "virtual" if execution == "sim" else "wall-clock"


def _command_run(args: argparse.Namespace) -> int:
    _one_query(args)
    config = SaberConfig(
        task_size_bytes=args.task_size,
        cpu_workers=args.workers,
        use_gpu=not args.no_gpu,
        scheduler=args.scheduler,
        execution=args.execution,
    )
    with SaberSession(config) as session:
        if args.cql:
            stream, __, make_source = _WORKLOADS[args.workload]
            session.register_stream(stream, make_source(args.seed, args.rate))
            handle = session.sql(args.cql, name="cli")
        else:
            query, sources = build(
                args.query, seed=args.seed, tuples_per_second=args.rate
            )
            handle = session.submit(query, sources=sources)
        query = handle.query
        slots = device_slots(config)
        if any(s.kind == "accelerator" for s in slots):
            banner = ", ".join(f"{s.processor}:{s.kind}x{s.workers}" for s in slots)
            print(f"devices    : {banner}")
        report = session.run(tasks_per_query=args.tasks)
    clock = _clock(args.execution)
    print(f"query      : {query.name}")
    print(f"throughput : {report.throughput_bytes / 1e6:.1f} MB/s ({clock})")
    print(f"latency    : {report.latency_mean * 1e3:.2f} ms mean")
    shares = ", ".join(
        f"{p}={s:.0%}" for p, s in sorted(report.processor_share().items())
    )
    print(f"split      : {shares}")
    print(f"output     : {report.output_rows[query.name]} rows")
    output = report.outputs[query.name]
    if output is not None and len(output) and args.show_rows:
        print(f"first {min(args.show_rows, len(output))} rows:")
        for row in output.to_rows()[: args.show_rows]:
            print(f"  {row}")
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    _one_query(args)
    config = SaberConfig(
        task_size_bytes=args.task_size,
        cpu_workers=args.workers,
        use_gpu=not args.no_gpu,
        execution=args.execution,
        backpressure=args.backpressure,
        collect_output=True,
    )
    sink = FileSink(args.sink) if args.sink else None
    with SaberSession(config) as session:
        if args.cql:
            stream, schema, __ = _WORKLOADS[args.workload or "cluster"]
            session.register_stream(
                stream,
                FileReplaySource(
                    args.input, schema, format=args.format, rate=args.rate
                ),
            )
            handle = session.sql(args.cql, name="replay")
        else:
            query, __ = build(args.query)
            if query.arity != 1:
                raise QueryError(
                    f"{args.query} takes {query.arity} input streams; "
                    "replay supports single-input queries"
                )
            replay_source = FileReplaySource(
                args.input, query.input_schemas[0],
                format=args.format, rate=args.rate,
            )
            handle = session.submit(query, sources=[replay_source])
        if sink is not None:
            handle.add_sink(sink)
        query = handle.query
        # A replayed file is finite: run until end-of-stream completes
        # the query (EOS cuts dispatch short well before this budget).
        report = session.run(tasks_per_query=1 << 30)
    clock = _clock(args.execution)
    print(f"query      : {query.name}")
    print(f"replayed   : {args.input}")
    print(f"complete   : {handle.done}")
    print(f"throughput : {report.throughput_bytes / 1e6:.1f} MB/s ({clock})")
    print(f"output     : {handle.output_rows} rows")
    if sink is not None:
        print(f"sink       : {args.sink} ({sink.rows_written} rows)")
    output = handle.output()
    if output is not None and len(output) and args.show_rows:
        print(f"first {min(args.show_rows, len(output))} rows:")
        for row in output.to_rows()[: args.show_rows]:
            print(f"  {row}")
    return 0


def _command_record(args: argparse.Namespace) -> int:
    stream, __, make_source = _WORKLOADS[args.workload]
    source = make_source(args.seed, args.rate)
    write_batch(args.output, source.next_tuples(args.tuples))
    print(f"recorded {args.tuples} tuples of {stream} to {args.output}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    config = ServeConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        max_sessions=args.max_sessions,
        quotas=TenantQuotas(
            max_queries=args.max_queries,
            max_streams=args.max_streams,
            buffer_capacity_tasks=args.buffer_tasks,
            push_capacity_tuples=args.push_capacity,
            backpressure=args.backpressure,
            cpu_workers=args.workers,
            task_size_bytes=args.task_size,
        ),
        execution=args.execution,
        stats_interval=args.stats,
        drain_timeout=args.drain_timeout,
        tenant_idle_timeout=args.tenant_idle_timeout,
    )
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    server = SaberServer(config).start()
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    metrics = server.metrics_address
    if metrics is not None:
        print(f"metrics on http://{metrics[0]}:{metrics[1]}/metrics", flush=True)
    server.install_signal_handlers()
    server.serve_forever()   # returns after a SIGTERM/SIGINT drain
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    config = ClusterConfig(
        shards=args.shards,
        transport=args.transport,
        execution=args.execution,
        cpu_workers=args.workers,
    )
    workload = CLUSTER_WORKLOADS[args.workload]
    data = materialise(workload, args.tuples, seed=args.seed)
    merged, stats = run_cluster(workload, data, kill_slot=args.kill_shard, config=config)
    merge = stats["merge"] or {}
    print(
        f"{workload.name}: {args.tuples} tuples over {args.shards} "
        f"{args.transport} shard(s), {merge.get('merged_windows', 0)} "
        f"windows / {merge.get('merged_rows', 0)} rows merged, "
        f"{int(stats['resubmits'])} resubmit(s)"
    )
    if args.skip_check:
        return 0
    reference = reference_output(workload, data, cpu_workers=args.workers)
    ref_bytes = reference.to_bytes() if reference is not None else b""
    out_bytes = merged.to_bytes() if merged is not None else b""
    if ref_bytes == out_bytes:
        print("merged output is byte-identical to the single-engine run")
        return 0
    print(
        "MISMATCH: merged output differs from the single-engine run "
        f"({len(out_bytes)} vs {len(ref_bytes)} bytes)"
    )
    return 1


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # Imported lazily: the analyzer is pure stdlib and must stay
        # importable without the engine's numpy dependency tree.
        from .analysis.cli import main as _check_main

        return _check_main(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    command = {
        "run": _command_run, "replay": _command_replay, "record": _command_record,
        "serve": _command_serve, "cluster": _command_cluster,
        "list": _command_list, "hardware": _command_hardware,
    }[args.command]
    # Every bad argument surfaces as a library error before anything
    # binds, forks or spawns; files and sockets the user named fail as
    # OSError.
    try:
        return command(args)
    except (SaberError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
