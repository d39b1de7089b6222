"""Process-parallel executor: §4's worker model on real cores.

``SaberConfig(execution="processes")`` drives the shared task lifecycle
(:meth:`SaberEngine.execute` in the workers, :meth:`SaberEngine.complete`
in the parent) with the Python-level operator work moved out of the
GIL: one forked **worker process** per device-slot worker executes batch
operator functions in parallel, while the parent keeps every piece of
coordination state exactly where the paper puts it.  What is specific
to this executor:

* the **dispatcher** (a parent thread, shared with the threaded
  executor) appends to circular input buffers that are re-homed onto
  :mod:`multiprocessing.shared_memory` segments (``buffer backing
  "shared"``), so an insert made by the parent is immediately visible to
  every worker and task reads stay zero-copy views of the one segment;
* **HLS task selection** runs in the parent: workers do not race for
  the queue — the parent observes per-processor capacity (a bounded
  prefetch of outstanding tasks per worker) and walks
  ``Scheduler.select`` at the latest possible moment, sending the chosen
  task's *descriptor* (pointer ranges, not data) down a per-processor
  task queue;
* the GPGPU slot's worker (``saber-accel``) runs the inherited
  :class:`~repro.gpu.accelerator.AcceleratorDevice`, whose movein copies
  the task out of the shared segment into the child's private memory;
* workers send the :class:`~repro.operators.base.BatchResult` back over
  a **completion queue**; a task's boundary partials cross it as one
  columnar :class:`~repro.operators.base.PartialRun` — an int64
  window-id array, per-input done flags and, per input, the task's
  boundary rows (for GROUP-BY a
  :class:`~repro.operators.groupby.GroupTable`: key rows and one matrix
  of cell counts and partials, dense rows of one cell per task key on
  its prefix path; raw tuples otherwise) with per-window row bounds, so
  a slide-1 task pickles a handful of arrays, linear in its rows,
  however many windows it touches; the result stage and HLS feedback
  run in the parent, from the completion messages.

Workers are forked (never spawned): operator graphs, closures and the
engine object cross into the children by inheritance, so nothing needs
to pickle except task descriptors and results.  Workers live for one
``run()`` call — they inherit the engine state current at that call —
and are always joined before it returns, on every exit path; the shared
segments persist across incremental runs and are unlinked by
``SaberEngine.shutdown()`` (sessions call it from ``close()``).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_lib
import sys
import threading
import time
import traceback
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from .executor import _WAIT_TIMEOUT, ThreadedExecutor, _worker_name
from .task import BatchRef, QueryTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import SaberEngine

#: grace period for workers to consume their shutdown sentinel.
_JOIN_TIMEOUT = 5.0

#: outstanding task descriptors per worker.  1 would reproduce the
#: threaded backend's claim-at-completion discipline exactly, but leaves
#: a worker idle for the completion→feed round-trip over the queues; one
#: task of lookahead hides that latency.  The scheduler still selects
#: under the parent's queue lock — selection is just up to one task
#: earlier than a thread worker's would be.
_PREFETCH_PER_WORKER = 2


def fork_available() -> bool:
    """Whether the platform can run the processes backend (POSIX fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


class ProcessExecutor(ThreadedExecutor):
    """Runs a configured :class:`SaberEngine`'s queries on worker processes.

    Subclasses :class:`ThreadedExecutor` for the parent-side machinery it
    shares verbatim — the dispatcher loop (single-writer buffer inserts,
    backpressure, ingest pacing, round-robin across queries) and the
    locked task claim — and replaces the worker
    threads with forked processes fed over multiprocessing queues.
    """

    def _begin_run(self) -> None:
        super()._begin_run()
        self._query_index = {id(run.query): i for i, run in enumerate(self.engine.runs)}
        #: descriptors in flight: (query_index, task_id) -> parent task.
        self._dispatched: "dict[tuple[int, int], QueryTask]" = {}

    # -- run -----------------------------------------------------------------

    def run(self, tasks_per_query: int) -> float:
        """Execute ``tasks_per_query`` tasks per query; returns elapsed s."""
        self._begin_run()
        ctx = multiprocessing.get_context("fork")
        completions = ctx.Queue()
        slots = self.engine.device_slots()
        task_queues = {slot.processor: ctx.SimpleQueue() for slot in slots}
        free = {slot.processor: slot.workers * _PREFETCH_PER_WORKER for slot in slots}
        #: started workers, each with the task queue its sentinel goes down.
        workers: "list[tuple[Any, Any]]" = []
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(tasks_per_query,),
            name="saber-dispatcher",
            daemon=True,
        )
        try:
            # Fork before starting the dispatcher thread: children must
            # not inherit a running thread (or the locks it might hold).
            # Inside the guarded region, so a fork that fails part-way
            # (EAGAIN, rlimit) still reaps the workers already started.
            for slot in slots:
                tasks = task_queues[slot.processor]
                for index in range(slot.workers):
                    worker = ctx.Process(
                        target=self._worker_main,
                        args=(slot.processor, tasks, completions),
                        name=_worker_name(slot, index),
                        daemon=True,
                    )
                    try:
                        worker.start()
                    except OSError as exc:
                        raise SimulationError(
                            f"could not start worker process {worker.name}: {exc}"
                        ) from exc
                    workers.append((worker, tasks))
            dispatcher.start()
            self._collect(completions, task_queues, free, [w for w, __ in workers])
        except BaseException as exc:  # noqa: BLE001 - re-raised by _end_run
            self._fail(exc)
        finally:
            if dispatcher.ident is not None:  # it was started
                dispatcher.join()
            self._shutdown_workers(workers, task_queues, completions)
        return self._end_run("process")

    # -- parent: feed + collect ----------------------------------------------

    def _collect(self, completions, task_queues, free, workers) -> None:
        """Main parent loop: feed free workers, drain completions."""
        while True:
            with self._cond:
                if self._failure is not None:
                    return
                self._feed(task_queues, free)
                if self._dispatch_done and not self.queue and not self._inflight:
                    return
                if not self._inflight:
                    # No completion can possibly arrive: wait on the
                    # condition the dispatcher notifies when it appends,
                    # so the first task of a run (or after a stall) is
                    # fed the moment it exists instead of on the next
                    # poll tick.
                    self._cond.wait(_WAIT_TIMEOUT)
                    continue
            try:
                message = completions.get(timeout=_WAIT_TIMEOUT)
            except queue_lib.Empty:
                self._check_workers(workers)
                continue
            self._handle_completion(message, free)
            while True:  # completions burst; drain without blocking
                try:
                    message = completions.get_nowait()
                except queue_lib.Empty:
                    break
                self._handle_completion(message, free)

    def _feed(self, task_queues, free) -> None:
        """Assign queued tasks to idle worker capacity (caller holds the
        lock).

        ``Scheduler.select`` runs here, at feed time: with the bounded
        prefetch (``_PREFETCH_PER_WORKER``) each worker may hold up to
        two outstanding descriptors, so selection happens up to one task
        earlier than a worker thread's claim-at-completion would — the
        price of hiding the completion→feed queue round-trip.
        """
        for processor, tasks in task_queues.items():
            while free[processor] > 0:
                task = self._claim(processor)
                if task is None:
                    break
                self._inflight += 1
                free[processor] -= 1
                index = self._query_index[id(task.query)]
                self._dispatched[index, task.task_id] = task
                # The picklable shape of a task: pointer ranges, not data.
                refs = [(r.start, r.stop, r.previous_last_timestamp) for r in task.batches]
                tasks.put((index, task.task_id, refs, task.created_at, task.size_bytes))

    def _handle_completion(self, message: tuple, free) -> None:
        """Result stage + HLS feedback for one worker completion."""
        if message[0] == "error":
            __, processor, text = message
            raise SimulationError(f"worker process ({processor}) failed:\n{text}")
        # ``completed`` is the *worker's* clock reading (same perf_counter
        # base: _t0 predates the fork), so completion timestamps reflect
        # when operators actually finished, not when the parent got
        # around to draining the queue — burst drains would otherwise
        # clump the records and distort the steady-state throughput.
        # Emission happens in the parent, so emit (latency) times use the
        # parent's clock — latency honestly includes the completion-queue
        # hop the processes backend pays.
        __, processor, query_index, task_id, result, duration, completed, transfer = message
        task = self._dispatched.pop((query_index, task_id))
        if transfer is not None:
            self.engine.accelerator.stats.record(*transfer)
        self.engine.complete(
            self.engine.runs[query_index], task, result, processor, duration, completed, self._now()
        )
        with self._cond:
            self._inflight -= 1
            free[processor] += 1
            self._cond.notify_all()  # buffer space freed; dispatcher may resume

    def _check_workers(self, workers) -> None:
        """A worker that died mid-task would hang the run — fail fast."""
        for worker in workers:
            if not worker.is_alive() and worker.exitcode not in (0, None):
                raise SimulationError(
                    f"worker process {worker.name} died with exit code "
                    f"{worker.exitcode}"
                )

    def _shutdown_workers(self, workers, task_queues, completions) -> None:
        """Sentinel, join, then escalate; always reap every started child."""
        for __, tasks in workers:
            try:
                tasks.put(None)
            except (OSError, ValueError):  # pragma: no cover - torn pipe
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for worker, __ in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker, __ in workers:
            if worker.is_alive():  # pragma: no cover - stuck worker escape
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - last resort
                worker.kill()
                worker.join(timeout=1.0)
        for tasks in task_queues.values():
            tasks.close()
        completions.close()
        completions.join_thread()

    # -- child: worker process --------------------------------------------------

    def _worker_main(self, processor: str, tasks, completions) -> None:
        """Forked worker: execute descriptors until the ``None`` sentinel.

        Runs with the parent's engine inherited by fork.  Reads task
        batches as zero-copy views of the shared-memory buffers, executes
        the batch operator function, and ships the result back.  Failures
        are reported as messages (the parent raises), never tracebacks on
        stderr; process exit flushes the completion queue's feeder thread
        so the final message is never lost, and the error path *also*
        exits non-zero so a lost pipe still fails the run via the
        parent's liveness check instead of hanging it.
        """
        engine = self.engine
        try:
            transfers: "list[tuple]" = []
            if engine.accelerator is not None:
                # A parent thread (a /metrics scrape) may have held the
                # stats lock at fork time, and this copy of it is never
                # released: the device accounts into a list here instead;
                # each task's numbers ride its "done" message and the
                # parent folds them in through AcceleratorStats.record.
                engine.accelerator.stats = SimpleNamespace(record=lambda *n: transfers.append(n))
            while True:
                message = tasks.get()
                if message is None:
                    return
                query_index, task_id, refs, created_at, size_bytes = message
                run = engine.runs[query_index]
                batches = [
                    BatchRef(buffer, start, stop, previous_last)
                    for buffer, (start, stop, previous_last) in zip(run.dispatcher.buffers, refs)
                ]
                task = QueryTask(
                    query=run.query,
                    task_id=task_id,
                    batches=batches,
                    created_at=created_at,
                    size_bytes=size_bytes,
                )
                started = time.perf_counter()
                result = engine.execute(task, processor, copy=False)
                duration = max(time.perf_counter() - started, 1e-9)
                completions.put(
                    (
                        "done",
                        processor,
                        query_index,
                        task_id,
                        result,
                        duration,
                        self._now(),
                        transfers.pop() if transfers else None,
                    )
                )
        except BaseException:  # noqa: BLE001 - crosses the process boundary
            try:
                completions.put(("error", processor, traceback.format_exc()))
            except (OSError, ValueError):  # pragma: no cover - parent gone
                pass
            sys.exit(1)
