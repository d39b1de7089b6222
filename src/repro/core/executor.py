"""Threaded executor: §4's worker model on real threads.

``SaberConfig(execution="threads")`` drives the shared task lifecycle
(:meth:`SaberEngine.execute` / :meth:`SaberEngine.complete`) from one
**dispatcher thread** plus one worker thread per device-slot worker
(``engine.device_slots()``): ``saber-cpu-<i>`` per CPU worker and
``saber-accel`` driving the executable accelerator when the GPGPU slot is
up.  What is specific to this executor:

* the dispatcher alone pulls source data, appends to the circular input
  buffers (single-writer discipline, §4.1) and cuts fixed-size query
  tasks into the bounded system-wide queue, blocking on queue *and*
  buffer backpressure;
* workers claim tasks from the shared queue under the hybrid lookahead
  scheduling discipline — ``Scheduler.select`` runs under the queue
  lock, since it both inspects the queue and mutates the
  switch-threshold counters;
* workers sleep on the queue condition and are woken whenever a task
  arrives, a task completes, or the dispatcher finishes; every claim is
  a ``select`` pick — at queue position 0 Alg. 1 gives the head to
  exactly one processor, so a queued task never waits on a worker that
  may not take it;
* timing is wall-clock (``time.perf_counter`` relative to run start), so
  reported throughput is the real machine's — not the paper server's.
  The *modelled* dispatch bandwidth is deliberately not applied, but a
  user-specified ``ingest_bandwidth`` cap *is* honoured: the dispatcher
  paces task creation so ingested bytes per wall-clock second stay under
  the cap, mirroring the sim executor's network-bound runs.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..analysis.lockdep import make_condition, make_lock
from ..errors import IngestInterrupted, SimulationError
from .scheduler import CPU
from .task import QueryTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..hardware.slots import DeviceSlot
    from .engine import SaberEngine

#: upper bound on a condition wait; a belt-and-braces re-check interval,
#: not a scheduling period — every state change notifies the condition.
_WAIT_TIMEOUT = 0.05


def _worker_name(slot: "DeviceSlot", index: int) -> str:
    """``saber-cpu-<i>`` for CPU workers; ``saber-accel`` for the GPGPU
    slot's one worker, which drives the accelerator."""
    return f"saber-cpu-{index}" if slot.processor == CPU else "saber-accel"


class ThreadedExecutor:
    """Runs a configured :class:`SaberEngine`'s queries on real threads."""

    def __init__(self, engine: "SaberEngine") -> None:
        self.engine = engine
        self.config = engine.config
        self._mutex = make_lock("core.executor.ThreadedExecutor._mutex")
        self._cond = make_condition("core.executor.ThreadedExecutor._mutex", lock=self._mutex)
        self._elapsed = 0.0
        self._begin_run()

    def _begin_run(self) -> None:
        """Reset per-run state and resume the clock.

        The clock continues from the cumulative elapsed time of earlier
        runs, so incremental runs (a long-lived session calling ``run``
        repeatedly) produce monotonically increasing task timestamps and
        throughput derived over the combined processing span — mirroring
        the sim executor's cumulative ``loop.now``.  Idle wall time
        *between* runs is excluded, as it is not processing time.
        """
        self.queue: "list[QueryTask]" = []
        self._inflight = 0
        self._dispatch_done = False
        self._failure: "BaseException | None" = None
        self._t0 = time.perf_counter() - self._elapsed

    def _end_run(self, what: str) -> float:
        """Surface a failed or incomplete run; else bank the elapsed time."""
        if self._failure is not None:
            raise self._failure
        if self.queue or self._inflight:
            raise SimulationError(
                f"{what} run ended with {len(self.queue)} queued and "
                f"{self._inflight} in-flight tasks"
            )
        self._elapsed = self._now()
        return self._elapsed

    # -- clock ---------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    # -- run -----------------------------------------------------------------

    def run(self, tasks_per_query: int) -> float:
        """Execute ``tasks_per_query`` tasks per query; returns elapsed s."""
        self._begin_run()
        threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(tasks_per_query,),
                name="saber-dispatcher",
                daemon=True,
            )
        ]
        threads += [
            threading.Thread(
                target=self._worker_loop,
                args=(slot.processor,),
                name=_worker_name(slot, index),
                daemon=True,
            )
            for slot in self.engine.device_slots()
            for index in range(slot.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self._end_run("threaded")

    def _fail(self, exc: BaseException) -> None:
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    # -- dispatcher thread -----------------------------------------------------

    def _dispatch_loop(self, tasks_per_query: int) -> None:
        try:
            rr_index = 0
            ingest = self.config.ingest_bandwidth
            ingest_credit = 0.0  # wall-clock time already "paid for"
            while True:
                shed = False
                with self._cond:
                    pending = self.engine.pending_runs(tasks_per_query)
                    if not pending or self._failure is not None or self.engine.stop_requested:
                        break
                    run = pending[rr_index % len(pending)]
                    rr_index += 1
                    while True:
                        if self._failure is not None or self.engine.stop_requested:
                            return
                        if len(self.queue) < self.config.queue_capacity:
                            if run.dispatcher.can_create_task():
                                break
                            # Buffer backpressure: the policy decides
                            # (raises the typed error under 'error').
                            action = run.dispatcher.backpressure_action(self.config.backpressure)
                            if action == "shed":
                                shed = True
                                break
                        self._cond.wait(_WAIT_TIMEOUT)
                    if not shed:
                        # Reserve the slot before leaving the lock; only this
                        # thread creates tasks, so the cursors stay coherent.
                        run.tasks_dispatched += 1
                if shed:
                    # drop_oldest: discard one task's worth of incoming
                    # data so ingest stays live (outside the queue lock).
                    try:
                        run.dispatcher.shed_task()
                    except IngestInterrupted:
                        pass  # stop requested; outer loop breaks
                    continue
                # Source pull + buffer insert happen outside the queue
                # lock: the buffers lock their own pointer advancement.
                try:
                    task = run.dispatcher.create_task(self._now())
                except IngestInterrupted:
                    # Stop requested during a blocking pull; staged data
                    # survives in the dispatcher for the next run.
                    task = None
                if task is None:
                    # Nothing was cut (or end of stream with no residual
                    # data): un-reserve and wake workers so they observe
                    # dispatch completion.
                    with self._cond:
                        run.tasks_dispatched -= 1
                        self._cond.notify_all()
                    continue
                with self._cond:
                    self.queue.append(task)
                    self._cond.notify_all()
                if ingest is not None:
                    # Token-bucket pacing against the ingest cap: each
                    # task spends size/rate seconds of wall-clock budget.
                    # Slept in quanta so a stop request interrupts it.
                    ingest_credit = max(ingest_credit, self._now()) + task.size_bytes / ingest
                    delay = ingest_credit - self._now()
                    while delay > 0 and not self.engine.stop_requested:
                        time.sleep(min(delay, _WAIT_TIMEOUT))
                        delay = ingest_credit - self._now()
        except BaseException as exc:  # propagated to run() by _fail
            self._fail(exc)
        finally:
            with self._cond:
                self._dispatch_done = True
                self._cond.notify_all()

    # -- worker threads ---------------------------------------------------------

    def _worker_loop(self, processor: str) -> None:
        try:
            while True:
                with self._cond:
                    task = None
                    while True:
                        if self._failure is not None:
                            return
                        task = self._claim(processor)
                        if task is not None:
                            self._inflight += 1
                            break
                        if self._dispatch_done and not self.queue:
                            return
                        self._cond.wait(_WAIT_TIMEOUT)
                self._execute(task, processor)
        except BaseException as exc:  # propagated to run() by _fail
            self._fail(exc)

    def _claim(self, processor: str) -> "QueryTask | None":
        """Pick a task under the queue lock (scheduler state included)."""
        if not self.queue:
            return None
        # engine.scheduler is read live: swapping it after construction is
        # a supported ablation hook, and complete() feeds that same object.
        index = self.engine.scheduler.select(self.queue, processor)
        if index is None:
            return None
        task = self.queue.pop(index)
        self._cond.notify_all()  # queue space freed; backlog changed
        return task

    def _execute(self, task: QueryTask, processor: str) -> None:
        engine = self.engine
        started = time.perf_counter()
        result = engine.execute(task, processor)
        duration = max(time.perf_counter() - started, 1e-9)
        now = self._now()
        engine.complete(
            engine.run_for(task.query), task, result, processor, duration, now, now
        )
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()
