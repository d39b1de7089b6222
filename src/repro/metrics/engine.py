"""The engine's exported series, read off the engine at scrape time.

:func:`engine_samples` is the body of a registry collector: it walks a
live :class:`~repro.core.engine.SaberEngine` (duck-typed — this package
imports nothing from the engine) and reports what the engine already
counts for its own purposes.  Nothing here is called per task; queries
registered after the collector was installed simply show up on the next
scrape because ``engine.runs`` is walked every time::

    registry.register_collector(lambda: engine_samples(engine, tenant="acme"))

Present only where the engine has the thing: the ``saber_accel_*``
series whenever ``use_gpu`` is on a real substrate (``threads`` or
``processes``), the ``saber_hls_*`` series under the HLS scheduler.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["engine_samples"]


def engine_samples(engine: Any, **labels: str) -> "Iterator[tuple]":
    """``(name, kind, help, labels, value)`` samples for one engine;
    ``labels`` (e.g. ``tenant="acme"``) are stamped on every series."""
    measurements = engine.measurements
    for (query, processor), (tasks, nbytes, tuples) in measurements.task_totals().items():
        cell = {**labels, "query": query, "processor": processor}
        yield (
            "saber_tasks_completed_total",
            "counter",
            "Query tasks completed, by query and processor.",
            cell,
            tasks,
        )
        yield (
            "saber_task_bytes_total",
            "counter",
            "Input bytes of completed query tasks.",
            cell,
            nbytes,
        )
        yield (
            "saber_task_tuples_total",
            "counter",
            "Input tuples of completed query tasks.",
            cell,
            tuples,
        )
    for key, sample in measurements.latency.samples().items():
        yield (
            "saber_result_latency_seconds",
            "histogram",
            measurements.latency.help_text,
            {**labels, **dict(key)},
            sample,
        )
    runs = list(engine.runs)
    for run in runs:
        per_query = {**labels, "query": run.query.name}
        yield (
            "saber_tasks_dispatched_total",
            "counter",
            "Query tasks cut by the dispatcher.",
            per_query,
            run.dispatcher.tasks_cut,
        )
        yield (
            "saber_dispatched_bytes_total",
            "counter",
            "Bytes the dispatcher moved into circular input buffers.",
            per_query,
            run.dispatcher.bytes_cut,
        )
        yield (
            "saber_buffer_shed_tuples_total",
            "counter",
            "Tuples shed at the circular buffers under drop_oldest.",
            per_query,
            run.dispatcher.shed_tuples,
        )
        yield (
            "saber_result_chunks_total",
            "counter",
            "Ordered output chunks emitted by the result stage.",
            per_query,
            run.result_stage.chunks_emitted,
        )
        yield (
            "saber_result_rows_total",
            "counter",
            "Output rows emitted by the result stage.",
            per_query,
            run.result_stage.output_rows,
        )
    accelerator = engine.accelerator
    if accelerator is not None:
        stats = accelerator.stats.snapshot()
        yield (
            "saber_accel_tasks_total",
            "counter",
            "Tasks executed on the accelerator device.",
            labels,
            stats["tasks"],
        )
        for direction in ("in", "out"):
            yield (
                "saber_accel_bytes_total",
                "counter",
                "Bytes moved across the accelerator transfer stage, by direction.",
                {**labels, "direction": direction},
                stats[f"bytes_{direction}"],
            )
        for kind in ("measured", "modeled"):
            yield (
                "saber_accel_transfer_seconds_total",
                "counter",
                "Accelerator host<->device transfer time, measured vs modeled.",
                {**labels, "kind": kind},
                stats[f"transfer_seconds_{kind}"],
            )
        yield (
            "saber_accel_kernel_seconds_total",
            "counter",
            "Time spent inside accelerator batch kernels.",
            labels,
            stats["kernel_seconds"],
        )
    matrix = getattr(engine.scheduler, "matrix", None)
    if matrix is not None:
        yield (
            "saber_hls_matrix_refreshes_total",
            "counter",
            "HLS throughput-matrix refresh count this session.",
            labels,
            len(matrix.history),
        )
        for run in runs:
            for processor in ("CPU", "GPGPU"):
                yield (
                    "saber_hls_matrix_throughput",
                    "gauge",
                    "HLS observed throughput matrix C, tasks/s by query and processor.",
                    {**labels, "query": run.query.name, "processor": processor},
                    matrix.value(run.query.name, processor),
                )
