"""Result stage (§4.3): reordering, window assembly, output streams.

Query tasks complete out of order; the result stage stores each task's
result in a slot of a circular result buffer (slot = task id modulo the
slot count, with more slots than workers so a slot is always consumed
before its reuse), then processes results *in task-id order*:

1. **assembly** — each task's boundary partials arrive as one columnar
   :class:`~repro.operators.base.PartialRun` (ascending window ids,
   per-input done flags and each input's boundary rows), and the stage
   keeps the pending runs in task order, with no per-window state.  A
   window is ready once every input has a done fragment in some pending
   run — one rule for every operator; **one** call of the operator's
   batched assembly function
   (:meth:`~repro.operators.base.Operator.assemble_windows`) locates the
   task's ready windows in every pending run and assembles them.  A run
   is dropped once every window it holds has been assembled;
2. **output construction** — finalised window results are appended to the
   query's output stream in window order, followed by the task's locally
   complete results, preserving the total order the stream function
   requires.

**Concurrency.**  ``submit`` may be called concurrently by worker
threads (the threaded backend); a per-query lock serialises slot
insertion and the in-order drain, so exactly one thread performs the
assembly/output work for any given task id and buffer space is freed in
task order regardless of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.lockdep import make_lock
from ..errors import ExecutionError
from ..operators.base import BatchResult, PartialRun
from ..relational.tuples import TupleBatch
from .query import Query
from .task import QueryTask


#: result-buffer slots per query.  More slots than tasks in flight is an
#: invariant: a slot is always consumed before its reuse.
RESULT_SLOTS = 1024


@dataclass
class EmittedResult:
    """One ordered chunk of a query's output stream."""

    task_id: int
    rows: TupleBatch
    emit_time: float
    data_time: float  # when the underlying task's data was dispatched


@dataclass
class _Slot:
    task: QueryTask
    result: BatchResult
    completion_time: float


@dataclass
class _Pending:
    """A task's run and which of its windows are still to be assembled."""

    run: PartialRun
    open: np.ndarray

    @classmethod
    def of(cls, run: PartialRun) -> "_Pending":
        return cls(run, np.ones(len(run), dtype=bool))


class ResultStage:
    """Per-query result collection, assembly and ordering.

    Results wait in slots until their task id is next; each is then
    processed in task order.  Boundary partials wait in ``_pending`` as
    the tasks' runs (:class:`~repro.operators.base.PartialRun`), never
    per window, and a task's ready windows are assembled by one
    ``operator.assemble_windows(ready_ids, runs)`` call.
    """

    def __init__(
        self,
        query: Query,
        slots: int = RESULT_SLOTS,
        collect_output: bool = True,
        on_release: "Callable[[QueryTask], None] | None" = None,
        on_emit: "Callable[[EmittedResult], None] | None" = None,
    ) -> None:
        """``on_emit`` is the per-query sink hook: called once per ordered
        output chunk, *on the emitting worker's thread and under the
        result-stage lock* — sinks must be fast and must not call back
        into the engine."""
        self.query = query
        self.slots = slots
        self.collect_output = collect_output
        self.on_release = on_release
        self.on_emit = on_emit
        self._buffer: dict[int, _Slot] = {}
        self._next_task = 0
        #: tasks handed to :meth:`submit` so far — the query's completed
        #: task count, kept here because this stage's lock is the one
        #: every completing worker of the query already takes.
        self.tasks_submitted = 0
        self._lock = make_lock("core.result_stage.ResultStage._lock")
        #: boundary-partial runs of processed tasks, in task order, until
        #: every window they hold is assembled.
        self._pending: list[_Pending] = []
        self.emitted: list[EmittedResult] = []
        #: ordered output chunks / rows / bytes emitted so far: written
        #: in :meth:`_emit` (under the stage lock while tasks are in
        #: flight), read by reports and metrics collectors.
        self.chunks_emitted = 0
        self.output_rows = 0
        self.output_bytes = 0
        #: optional per-window sink: called as ``on_window(wid, rows)``
        #: for every finalised window with non-empty rows, in strictly
        #: increasing window-id order (windows close in timestamp order
        #: and tasks drain in task order).  Fired on the emitting worker's
        #: thread — under the result-stage lock in :meth:`submit`, outside
        #: it in :meth:`flush`.  Only windows that travel the assembly
        #: path surface here; set :attr:`Query.force_assembly` to route
        #: COMPLETE fragments through it too (the cluster merge contract).
        self.on_window: "Callable[[int, TupleBatch], None] | None" = None

    # -- stage entry -----------------------------------------------------------

    def submit(
        self, task: QueryTask, result: "BatchResult | None", now: float
    ) -> "list[EmittedResult]":
        """Store one task's result; drain every in-order result available.

        A ``None`` result (a simulation-only run executed no data) is
        counted and emits nothing.
        """
        with self._lock:
            if result is None:
                self.tasks_submitted += 1
                return []
            if task.task_id in self._buffer or task.task_id < self._next_task:
                raise ExecutionError(
                    f"duplicate result for task {task.task_id} of {task.query.name!r}"
                )
            if len(self._buffer) >= self.slots:
                raise ExecutionError("result buffer overflow: increase slots or queue backpressure")
            self.tasks_submitted += 1
            self._buffer[task.task_id] = _Slot(task, result, now)
            emitted: list[EmittedResult] = []
            while self._next_task in self._buffer:
                slot = self._buffer.pop(self._next_task)
                emitted.extend(self._process(slot, now))
                self._next_task += 1
            return emitted

    # -- in-order processing ------------------------------------------------------

    def _process(self, slot: _Slot, now: float) -> "list[EmittedResult]":
        task, result = slot.task, slot.result
        run = result.partials
        ready = run.ids
        if len(run):
            ready = self._ready(run)
            self._pending.append(_Pending.of(run))
        runs = [pending.run for pending in self._pending]
        self._retire(ready)
        assembled = self._assemble(ready, runs)
        chunks = [rows for rows in (assembled, result.complete) if rows is not None and len(rows)]
        emitted: list[EmittedResult] = []
        if chunks:
            rows = TupleBatch.concat(chunks) if len(chunks) > 1 else chunks[0]
            emitted.append(self._emit(rows, task.task_id, now, task.created_at))
        if self.on_release is not None:
            self.on_release(task)
        return emitted

    def _ready(self, run: PartialRun) -> np.ndarray:
        """Windows of the next ``run`` that every input has now closed.

        A window is ready once each input has a done fragment in some
        pending run.  Only a window with a done fragment in ``run`` can
        have become ready; the earlier runs are searched only for those
        still open on another input.
        """
        ready = run.done.all(axis=0)
        waiting = np.flatnonzero(run.done.any(axis=0) & ~ready)
        if len(waiting):
            done = run.done[:, waiting]
            for pending in self._pending:
                at, row = pending.run.locate(run.ids[waiting])
                done[:, at] |= pending.run.done[:, row]
            ready[waiting] = done.all(axis=0)
        return run.ids[ready]

    def _retire(self, ready: np.ndarray) -> None:
        """Mark ``ready`` windows assembled; drop runs with none left open.

        A window is assembled once: no fragment follows its closing one.
        """
        if not len(ready):
            return
        for pending in self._pending:
            pending.open[pending.run.locate(ready)[1]] = False
        self._pending = [pending for pending in self._pending if pending.open.any()]

    def _assemble(self, ready: np.ndarray, runs: "list[PartialRun]") -> "TupleBatch | None":
        """Result rows of ``ready`` windows (ascending id), via the batched f_a."""
        if not len(ready):
            return None
        rows, offsets = self.query.operator.assemble_windows(ready, runs)
        if self.on_window is not None and rows is not None:
            for i in np.flatnonzero(np.diff(offsets)):
                self.on_window(int(ready[i]), rows.slice(offsets[i], offsets[i + 1]))
        return rows

    def _emit(
        self, rows: TupleBatch, task_id: int, emit_time: float, data_time: float
    ) -> EmittedResult:
        """Account, retain (``collect_output`` only) and deliver one chunk.

        ``collect_output`` governs *retention*: with it off the stage
        stays O(1) so sink-driven runs can stream forever, while the
        ``on_emit`` sink still always receives the full rows.
        """
        full = EmittedResult(task_id, rows, emit_time, data_time)
        record = (
            full
            if self.collect_output
            else EmittedResult(task_id, rows.slice(0, 0), emit_time, data_time)
        )
        self.chunks_emitted += 1
        self.output_rows += len(rows)
        self.output_bytes += rows.size_bytes
        if self.collect_output:
            self.emitted.append(record)
        if self.on_emit is not None:
            self.on_emit(full)
        return record

    # -- finishing -----------------------------------------------------------------

    def flush(self, now: float) -> "list[EmittedResult]":
        """Finalise still-open windows at end of a finite run.

        Streaming semantics never emit incomplete windows; examples over
        finite inputs call this to drain the tail.
        """
        with self._lock:
            pending, self._pending = self._pending, []
            if not pending:
                return []
            runs = [p.run for p in pending]
            ready = np.unique(np.concatenate([p.run.ids[p.open] for p in pending]))
        rows = self._assemble(ready, runs)
        if rows is None:
            return []
        return [self._emit(rows, self._next_task, now, now)]

    def output(self) -> "TupleBatch | None":
        """Concatenated output stream (when output collection is on)."""
        batches = [e.rows for e in self.emitted if len(e.rows)]
        if not batches:
            return None
        return TupleBatch.concat(batches)
