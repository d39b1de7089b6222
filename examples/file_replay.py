"""Replay a recorded stream file through a query into a file sink.

The connector-SPI quickstart: record a cluster-monitoring trace to
JSONL, replay it through CM1 (total requested CPU per category over a
sliding window), and write the query's output stream to another JSONL
file — the whole pipeline is file → dispatcher → workers → file.

Because the replayed stream is *finite*, the run ends by itself at
end-of-stream: the engine drains the query, flushes its still-open
windows and completes the handle (``handle.done``).

Run::

    python examples/file_replay.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import FileReplaySource, FileSink, SaberSession, write_batch
from repro.core.engine import SaberConfig
from repro.workloads.cluster_monitoring import (
    TASK_EVENTS_SCHEMA,
    ClusterMonitoringSource,
    cm1_query,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="saber_replay_"))
    trace = workdir / "task_events.jsonl"
    output = workdir / "cm1_totals.jsonl"

    # 1. Record a finite trace (in production this is your captured data).
    source = ClusterMonitoringSource(seed=42, tuples_per_second=64)
    write_batch(trace, source.next_tuples(16_384))
    print(f"recorded 16384 task events -> {trace}")

    # 2. Replay it through CM1 on the threaded backend, into a file sink.
    config = SaberConfig(
        execution="threads", cpu_workers=4, task_size_bytes=48 << 10
    )
    with SaberSession(config) as session:
        session.register_stream(
            "TaskEvents", FileReplaySource(trace, TASK_EVENTS_SCHEMA)
        )
        handle = session.submit(cm1_query(), sink=FileSink(output))
        session.run(tasks_per_query=1 << 30)  # finite: stops at end-of-stream

        print(f"stream complete : {handle.done}")
        print(f"tasks processed : {handle.tasks_completed}")
        print(f"output rows     : {handle.output_rows} -> {output}")

    # 3. The output file is itself a replayable stream.
    head = output.read_text().splitlines()[:3]
    for line in head:
        print(f"  {line}")


if __name__ == "__main__":
    main()
