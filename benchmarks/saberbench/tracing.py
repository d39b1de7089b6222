"""The traced pass: spans around the calls into each layer.

Spans are recorded from here, the benchmark's own files, around the
engine's *public* layer entry points — nothing inside the engine is
instrumented.  :func:`serial_pass` drives the tuple's whole path by
hand, single-threaded::

    wrapped source → Dispatcher.create_task → BatchRef.read
        → assign_windows → operator.process_batch (fused when eligible)
        → ResultStage.submit → wrapped sink

and, for the hybrid workload, routes every task through
``HlsScheduler.select`` over a 16-deep queue and runs the accelerator's
share through ``AcceleratorDevice.execute``.  The pass alternates
blocks of tasks with a live :class:`Tracer`, which yield the per-layer
self times, and blocks with none, which are the single-threaded
baseline; the ratio of the two wall times is the tracing overhead.

A span is ``(id, name, start, end, parent, task)``; a layer's *self
time* is its spans' duration minus the duration of their child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.core.dispatcher import Dispatcher
from repro.core.fusion import fuse_operator
from repro.core.result_stage import ResultStage
from repro.core.scheduler import CPU, GPU, HlsScheduler, ThroughputMatrix
from repro.gpu.accelerator import AcceleratorDevice
from repro.operators.base import StreamSlice
from repro.windows.assigner import assign_windows

__all__ = ["Layers", "Tracer", "serial_pass"]

#: queued tasks the hand-driven HLS loop keeps ahead of the "workers".
_HLS_QUEUE_DEPTH = 16

#: most untraced/traced block pairs one serial pass interleaves.
_MAX_BLOCKS = 16

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; written out once, when the pass ends."""

    def __init__(self) -> None:
        #: ``[id, name, start, end, parent, task]`` per span, in open order.
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self.task: "int | None" = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [index, name, _clock(), 0.0, parent, self.task]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = _clock()
            self._stack.pop()

    def self_times(self) -> "dict[str, float]":
        """Seconds of self time per span name."""
        child_time = defaultdict(float)
        for __, __, start, end, parent, __ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: "dict[str, float]" = defaultdict(float)
        for index, name, start, end, __, __ in self.spans:
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def counts(self) -> "dict[str, int]":
        totals: "dict[str, int]" = defaultdict(int)
        for span in self.spans:
            totals[span[1]] += 1
        return dict(totals)

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent, task."""
        keys = ("id", "name", "start", "end", "parent", "task")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextmanager
def _no_span():
    yield


class Layers:
    """Span factory that degrades to a no-op when tracing is off."""

    def __init__(self, tracer: "Tracer | None") -> None:
        self.tracer = tracer

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else _no_span()

    def set_task(self, task: "int | None") -> None:
        if self.tracer is not None:
            self.tracer.task = task


class _TracedSource:
    """Pull-SPI wrapper: one ``io.source.pull`` span per pull."""

    def __init__(self, source, layers: Layers) -> None:
        self.schema = source.schema
        self._source = source
        self._layers = layers

    def next_tuples(self, count: int):
        with self._layers.span("io.source.pull"):
            return self._source.next_tuples(count)


class _Pipeline:
    """One query's hand-wired dispatcher, operator and result stage."""

    def __init__(self, query, sources, task_bytes: int, layers: Layers, sink) -> None:
        self.query = query
        self.layers = layers
        query.fused_operator = fuse_operator(query.operator)
        self.operator = query.execution_operator
        self.dispatcher = Dispatcher(
            query, [_TracedSource(s, layers) for s in sources], task_bytes
        )
        self.stage = ResultStage(
            query,
            collect_output=False,
            on_release=self.dispatcher.release,
            on_emit=self._emit,
        )
        self._sink = sink
        self.counts = defaultdict(int)
        self.next_task = 0

    def _emit(self, record) -> None:
        with self.layers.span("io.sink.write"):
            self._sink(record.rows)
        self.counts["core.result_stage.emissions"] += 1

    def cut(self, now: float):
        with self.layers.span("core.dispatcher.cut"):
            task = self.dispatcher.create_task(now)
        self.next_task += 1
        self.counts["core.dispatcher.tasks"] += 1
        self.counts["core.dispatcher.bytes_in"] += task.size_bytes
        return task

    def materialise(self, task) -> "list[StreamSlice]":
        slices = []
        for ref, window in zip(task.batches, self.query.windows):
            with self.layers.span("relational.buffer.read"):
                batch = ref.read()
            self.counts["relational.buffer.bytes_read"] += batch.size_bytes
            with self.layers.span("windows.assigner.assign"):
                windows = assign_windows(window, ref.start, ref.stop)
            self.counts["windows.assigner.fragments"] += len(windows)
            self.counts["operators.rows_in"] += len(batch)
            slices.append(StreamSlice(batch, windows, ref.start))
        return slices

    def finish(self, task, result, now: float) -> None:
        self.counts["operators.partials_out"] += len(result.partials)
        if result.complete is not None:
            self.counts["operators.complete_rows_out"] += len(result.complete)
        with self.layers.span("core.result_stage.submit"):
            self.stage.submit(task, result, now)

    def close(self) -> None:
        self.dispatcher.close()


def _boundary_counts(pipelines: "list[_Pipeline]", loop) -> Counter:
    """Every boundary count so far, keyed by the per-layer metric it is."""
    total = Counter(loop.counts)
    for pipeline in pipelines:
        total.update(pipeline.counts)
        total["core.result_stage.rows_out"] += pipeline.stage.output_rows
        total["core.result_stage.bytes_out"] += pipeline.stage.output_bytes
    return total


def serial_pass(
    queries: list,
    sources: "list[list]",
    task_bytes: "list[int]",
    tasks_per_query: int,
    sinks: list,
    layers: Layers,
    hybrid: bool = False,
    warmup_tasks: int = 0,
) -> "tuple[dict, dict]":
    """Drive every query's tasks through by hand, untraced and traced.

    ``warmup_tasks`` per query run first, untimed and untraced, so the
    circular buffers are faulted in before the pass is measured — the
    same reason the end-to-end run has warm-up segments.  Then
    ``tasks_per_query`` tasks run with span recording off and as many
    with it on (spans accumulate on ``layers.tracer``), in interleaved
    blocks: the two wall times are then taken under the same machine
    conditions, which their ratio — the tracing overhead — needs on a
    host whose speed drifts.  Returns ``(untraced, traced)``, each with
    its input tuples, wall seconds, and the wall seconds had every block
    taken the median block's time (``steady_wall_s``, which one
    interrupted block does not move); ``traced`` also has the boundary
    counts of its blocks, keyed by the per-layer metric they are.
    With ``hybrid`` the tasks go through ``HlsScheduler.select`` with
    the two processors asking in turn, and GPGPU picks run on an
    ``AcceleratorDevice``.
    """
    tracer, layers.tracer = layers.tracer, None
    pipelines = [
        _Pipeline(q, s, b, layers, sink)
        for q, s, b, sink in zip(queries, sources, task_bytes, sinks)
    ]
    loop = _HlsLoop(pipelines, layers) if hybrid else _RoundRobin(pipelines, layers)
    blocks = max(d for d in range(1, _MAX_BLOCKS + 1) if tasks_per_query % d == 0)
    walls: "dict[bool, list[float]]" = {False: [], True: []}
    tuples = {False: 0, True: 0}
    counts: Counter = Counter()
    try:
        if warmup_tasks:
            loop.run(warmup_tasks)
        for block in range(2 * blocks):
            live = block % 4 in (1, 2)  # U T T U …: a steady drift cancels
            layers.tracer = tracer if live else None
            before = _boundary_counts(pipelines, loop)
            started = _clock()
            tuples[live] += loop.run(tasks_per_query // blocks)
            walls[live].append(_clock() - started)
            if live:
                counts.update(_boundary_counts(pipelines, loop))
                counts.subtract(before)
    finally:
        layers.set_task(None)
        layers.tracer = tracer
        for pipeline in pipelines:
            pipeline.close()
    untraced, traced = (
        {
            "wall_s": sum(walls[live]),
            "steady_wall_s": statistics.median(walls[live]) * blocks,
            "tuples": tuples[live],
        }
        for live in (False, True)
    )
    traced["counts"] = dict(counts)
    return untraced, traced


class _RoundRobin:
    """The single-device loop: one task of each query in turn."""

    def __init__(self, pipelines: "list[_Pipeline]", layers: Layers) -> None:
        self.pipelines = pipelines
        self.layers = layers
        self.counts: dict = defaultdict(int)

    def run(self, tasks_per_query: int) -> int:
        layers = self.layers
        tuples = 0
        for __ in range(tasks_per_query):
            for pipeline in self.pipelines:
                layers.set_task(pipeline.next_task)
                with layers.span("task"):
                    task = pipeline.cut(_clock())
                    tuples += task.tuple_count
                    slices = pipeline.materialise(task)
                    with layers.span("operators.process"):
                        result = pipeline.operator.process_batch(slices)
                    pipeline.finish(task, result, _clock())
        return tuples


class _HlsLoop:
    """Single-threaded HLS: a 16-deep queue, CPU and GPGPU asking in turn."""

    def __init__(self, pipelines: "list[_Pipeline]", layers: Layers) -> None:
        self.pipelines = pipelines
        self.layers = layers
        self.by_query = {id(p.query): p for p in pipelines}
        self.scheduler = HlsScheduler(
            ThroughputMatrix(initial=1000.0, refresh_seconds=0.001),
            switch_threshold=1000,
        )
        self.device = AcceleratorDevice()
        self.counts: dict = defaultdict(int)
        self._turn = 0

    def run(self, tasks_per_query: int) -> int:
        layers, counts, pipelines = self.layers, self.counts, self.pipelines
        before = self.device.stats.snapshot()
        queue: list = []
        cut = [0] * len(pipelines)
        total = tasks_per_query * len(pipelines)
        tuples = done = declined = 0
        while done < total:
            # Refill round-robin, as the engine's dispatcher does.
            while len(queue) < _HLS_QUEUE_DEPTH and sum(cut) < total:
                index = min(range(len(pipelines)), key=lambda i: cut[i])
                layers.set_task(None)
                task = pipelines[index].cut(_clock())
                cut[index] += 1
                tuples += task.tuple_count
                queue.append(task)
            processor = (CPU, GPU)[self._turn % 2]
            self._turn += 1
            with layers.span("core.scheduler.select"):
                position = self.scheduler.select(queue, processor)
            counts["core.scheduler.select_calls"] += 1
            if position is None:
                counts["core.scheduler.none_returns"] += 1
                declined += 1
                if declined < 2:
                    continue
                position = 0  # both processors declined: the starvation guard
            declined = 0
            if position > 0:
                counts["core.scheduler.lookahead_skips"] += 1
            task = queue.pop(position)
            pipeline = self.by_query[id(task.query)]
            layers.set_task(task.task_id)
            with layers.span("task"):
                began = _clock()
                slices = pipeline.materialise(task)
                if processor == GPU:
                    with layers.span("gpu.accelerator.execute"):
                        result = self.device.execute(pipeline.operator, slices)
                else:
                    with layers.span("operators.process"):
                        result = pipeline.operator.process_batch(slices)
                duration = max(_clock() - began, 1e-9)
                now = _clock()
                pipeline.finish(task, result, now)
                self.scheduler.task_finished(task, processor, 1.0 / duration, now)
            done += 1
        spent = {k: v - before[k] for k, v in self.device.stats.snapshot().items()}
        counts["gpu.accelerator.tasks"] += spent["tasks"]
        counts["gpu.accelerator.bytes_moved"] += spent["bytes_in"] + spent["bytes_out"]
        counts["gpu.accelerator.transfer_ms"] += spent["transfer_seconds_measured"] * 1e3
        counts["gpu.accelerator.kernel_ms"] += spent["kernel_seconds"] * 1e3
        return tuples
