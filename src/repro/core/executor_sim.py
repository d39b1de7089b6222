"""Virtual-time executor: §4's worker model as a discrete-event simulation.

``SaberConfig(execution="sim")`` (the default) runs the shared task
lifecycle (:meth:`SaberEngine.execute` / :meth:`SaberEngine.complete`)
on a deterministic event loop.  Operators execute *real data*, so
outputs are exact; *time* comes from the calibrated hardware models,
which is what makes laptop-scale runs reproduce the paper's shapes:

* a sequential **dispatcher** paced by the modelled dispatch bandwidth
  and, optionally, a network ingest bound;
* **CPU workers** charged :class:`~repro.hardware.cpu.CpuModel` time per
  task (including the result stage each worker performs itself);
* one **GPGPU worker** that computes window boundaries on the host and
  feeds the five-stage :class:`~repro.gpu.pipeline.MovementPipeline`
  (§5.2) — it is free to accept the next task before the previous one
  leaves the pipeline;
* a *scheduled* starvation guard where the real executors use
  condition-variable wakeups.

Virtual time is cumulative across incremental runs (``loop.now``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..errors import BackpressureError, IngestInterrupted, SimulationError
from ..gpu.pipeline import MovementPipeline
from ..hardware.cpu import CpuModel
from ..hardware.gpu import GpuModel
from ..operators.base import BatchResult
from .scheduler import CPU
from .task import QueryTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import QueryRun, SaberEngine


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventLoop:
    """Minimal heap-based event loop with virtual time.

    Deterministic by (time, sequence) ordering — events at equal times
    fire in schedule order — so every sim run is exactly reproducible
    from the workload seed.
    """

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._events_processed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = _Event(self.now + delay, next(self._counter), action)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} before current time {self.now}")
        event = _Event(time, next(self._counter), action)
        heapq.heappush(self._heap, event)
        return event

    @staticmethod
    def cancel(event: _Event) -> None:
        event.cancelled = True

    def run(self, until: "float | None" = None, max_events: int = 50_000_000) -> None:
        """Process events until the heap drains or ``until`` is reached."""
        while self._heap:
            event = self._heap[0]
            if until is not None and event.time > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.action()
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationError(f"event budget exceeded ({max_events}); likely a livelock")
        if until is not None:
            self.now = max(self.now, until)


class _Worker:
    __slots__ = ("processor", "busy")

    def __init__(self, processor: str) -> None:
        self.processor = processor
        self.busy = False


class SimExecutor:
    """Runs a configured :class:`SaberEngine`'s queries in virtual time."""

    def __init__(self, engine: "SaberEngine") -> None:
        self.engine = engine
        self.config = engine.config
        self.spec = self.config.spec
        self.cpu_model = CpuModel(self.spec)
        self.gpu_model = GpuModel(self.spec)
        self.loop = EventLoop()
        self.pipeline = MovementPipeline(pipelined=self.config.pipelined)
        self.queue: "list[QueryTask]" = []
        self.workers = [
            _Worker(slot.processor)
            for slot in engine.device_slots()
            for __ in range(slot.workers)
        ]
        self._tasks_per_query = 0
        self._dispatch_blocked = False
        self._dispatch_active = False
        self._inflight = 0
        self._rr_index = 0

    def run(self, tasks_per_query: int) -> float:
        """Execute ``tasks_per_query`` tasks per query; returns virtual s."""
        self._tasks_per_query = tasks_per_query
        self._dispatch_active = True
        self.loop.schedule(0.0, self._dispatch_next)
        self.loop.run()
        if self.queue or self._inflight:
            raise SimulationError(
                f"run ended with {len(self.queue)} queued and "
                f"{self._inflight} in-flight tasks"
            )
        return self.loop.now

    # -- dispatching stage ------------------------------------------------------------

    def _dispatch_next(self) -> None:
        pending = self.engine.pending_runs(self._tasks_per_query)
        if not pending or self.engine.stop_requested:
            self._dispatch_active = False
            return
        if len(self.queue) >= self.config.queue_capacity:
            self._dispatch_blocked = True
            return
        run = pending[self._rr_index % len(pending)]
        self._rr_index += 1
        rate = self.spec.dispatch_bandwidth
        if self.config.ingest_bandwidth is not None:
            rate = min(rate, self.config.ingest_bandwidth)
        cost = run.dispatcher.actual_task_bytes / rate + self.spec.dispatch_task_overhead
        if not run.dispatcher.can_create_task():
            # Buffer backpressure (§5.1): the configured policy decides.
            action = run.dispatcher.backpressure_action(self.config.backpressure)
            if action == "shed":
                self.loop.schedule(cost, lambda r=run: self._shed_dispatch(r))
                return
            if not self._inflight and not self.queue:
                raise BackpressureError(
                    f"query {run.query.name!r}: input buffers are full with "
                    "no task in flight to release space — "
                    "buffer_capacity_tasks is too small for this queue depth"
                )
            self._dispatch_blocked = True
            return
        self.loop.schedule(cost, lambda r=run: self._finish_dispatch(r))

    def _shed_dispatch(self, run: "QueryRun") -> None:
        """drop_oldest under full buffers: discard one task's worth."""
        try:
            run.dispatcher.shed_task()
        except IngestInterrupted:
            self._dispatch_active = False
            return
        self._dispatch_next()

    def _finish_dispatch(self, run: "QueryRun") -> None:
        try:
            task = run.dispatcher.create_task(self.loop.now)
        except IngestInterrupted:
            # Stop requested during a blocking source pull; pulled data
            # stays staged in the dispatcher for the next run.
            self._dispatch_active = False
            return
        if task is None:
            # End of stream with no residual data: the query is done
            # dispatching; idle workers may need a starvation re-check.
            self._wake_workers()
            self._dispatch_next()
            return
        run.tasks_dispatched += 1
        self.queue.append(task)
        self._wake_workers()
        self._dispatch_next()

    def _unblock_dispatcher(self) -> None:
        if self._dispatch_blocked:
            self._dispatch_blocked = False
            self.loop.schedule(0.0, self._dispatch_next)

    # -- scheduling stage ---------------------------------------------------------------

    def _wake_workers(self) -> None:
        for worker in self.workers:
            if not worker.busy:
                self.loop.schedule(0.0, lambda w=worker: self._worker_try(w))

    def _worker_try(self, worker: _Worker) -> None:
        if worker.busy or not self.queue:
            return
        # engine.scheduler is read live: swapping it after construction is
        # a supported ablation hook, and complete() feeds that same object.
        index = self.engine.scheduler.select(self.queue, worker.processor)
        if index is None:
            # Starvation guard: HLS may legitimately leave a worker idle
            # (lookahead).  But if no task is in flight and the
            # dispatcher is blocked or done, nothing would ever wake the
            # workers again — take the queue head instead.
            if self._inflight or (self._dispatch_active and not self._dispatch_blocked):
                return
            index = 0
        task = self.queue.pop(index)
        self._unblock_dispatcher()
        worker.busy = True
        self._inflight += 1
        self._start(worker, task)

    # -- execution stage -------------------------------------------------------------------

    @staticmethod
    def _task_stats(
        task: QueryTask, result: "BatchResult | None"
    ) -> "tuple[dict[str, float], int]":
        """What the cost models charge for: the executed result's
        ``(stats, output_bytes)``, or the ``stat_model``'s prediction in
        simulation-only runs."""
        if result is not None:
            return result.stats, result.output_bytes
        query = task.query
        if query.stat_model is None:
            raise SimulationError(
                f"query {query.name!r} needs a stat_model for "
                "simulation-only runs"
            )
        stats = dict(query.stat_model(task.tuple_count))
        return stats, int(stats.get("output_bytes", task.size_bytes))

    def _start(self, worker: _Worker, task: QueryTask) -> None:
        """Execute ``task`` now; schedule its completion in model time."""
        result = self.engine.execute(task, worker.processor)
        stats, output_bytes = self._task_stats(task, result)
        profile = task.query.operator.cost_profile()
        if worker.processor == CPU:
            duration = self.cpu_model.task_seconds(profile, task.tuple_count, stats)
            duration *= self.cpu_model.contention_factor(self.config.cpu_workers)
            duration += self.cpu_model.result_stage_seconds()
            self.loop.schedule(
                duration, lambda: self._complete_task(worker, task, result, duration)
            )
            return
        boundary = self.gpu_model.boundary_seconds(profile, task.tuple_count, stats)
        durations = self.gpu_model.stage_durations(
            profile, task.size_bytes, output_bytes, task.tuple_count, stats
        )
        start = self.loop.now
        timing = self.pipeline.schedule(start + boundary, durations)
        free_at = max(start + boundary, self.pipeline.next_accept_time())
        interval = max(free_at - start, 1e-12)
        self.loop.schedule_at(
            timing.completion_time,
            lambda: self._complete_task(worker, task, result, interval),
        )
        # The GPGPU worker is free to feed the pipeline again before the
        # task completes; model that by releasing it at the accept time.
        self.loop.schedule_at(free_at, lambda: self._release_worker(worker))

    def _release_worker(self, worker: _Worker) -> None:
        worker.busy = False
        self._worker_try(worker)

    def _complete_task(
        self,
        worker: _Worker,
        task: QueryTask,
        result: "BatchResult | None",
        interval: float,
    ) -> None:
        now = self.loop.now
        self._inflight -= 1
        engine = self.engine
        engine.complete(
            engine.run_for(task.query), task, result, worker.processor, interval, now, now
        )
        # Completing a task released buffer space (the result stage
        # advanced the free pointers), so a buffer-blocked dispatcher
        # can make progress again.
        self._unblock_dispatcher()
        if worker.processor == CPU:
            self._release_worker(worker)
        self._wake_workers()
