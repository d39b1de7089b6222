"""Result stage (§4.3): reordering, window assembly, output streams.

Query tasks complete out of order; the result stage stores each task's
result in a slot of a circular result buffer (slot = task id modulo the
slot count, with more slots than workers so a slot is always consumed
before its reuse), then processes results *in task-id order*:

1. **assembly** — the window-fragment payloads of boundary windows are
   kept per window in task order; a window is ready when its closing
   fragment's task has been processed (or, for multi-input operators,
   when the merged payload reports ready), and every window a task
   makes ready is merged and finalised by **one** call of the
   operator's batched assembly function
   (:meth:`~repro.operators.base.Operator.assemble_windows`);
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

import threading
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.lockdep import make_lock
from ..errors import ExecutionError
from ..operators.base import BatchResult
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


class ResultStage:
    """Per-query result collection, assembly and ordering."""

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
        #: window id -> fragment payloads in task order (multi-input
        #: operators keep the list merged down to one payload).
        self._pending: dict[int, list[Any]] = {}
        self._closed_flags: set[int] = set()  # windows whose close was seen
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
        operator = self.query.operator
        ready: list[int] = []
        self._closed_flags.update(result.closed_ids)
        for wid in sorted(result.partials):
            payloads = self._pending.setdefault(wid, [])
            payloads.append(result.partials[wid])
            if operator.requires_merged_ready:
                # Multi-input operators decide closure from the merged
                # state, so each task's payload is merged in immediately.
                if len(payloads) > 1:
                    payloads[:] = [operator.merge_partials(*payloads)]
                if operator.window_ready(payloads[0]):
                    ready.append(wid)
            elif wid in self._closed_flags:
                # Closure comes from closed_ids: the fragments stay a list
                # until the window finalises, so long-lived (small-slide)
                # windows cost O(1) per task instead of a merge per task.
                ready.append(wid)
        self._closed_flags.difference_update(ready)
        assembled = self._assemble([(wid, self._pending.pop(wid)) for wid in ready])
        chunks = [rows for rows in (assembled, result.complete) if rows is not None and len(rows)]
        emitted: list[EmittedResult] = []
        if chunks:
            rows = TupleBatch.concat(chunks) if len(chunks) > 1 else chunks[0]
            emitted.append(self._emit(rows, task.task_id, now, task.created_at))
        if self.on_release is not None:
            self.on_release(task)
        return emitted

    def _assemble(self, ready: "list[tuple[int, list[Any]]]") -> "TupleBatch | None":
        """Result rows of ``ready`` windows (ascending id), via the batched f_a."""
        if not ready:
            return None
        rows, offsets = self.query.operator.assemble_windows(ready)
        if self.on_window is not None and rows is not None:
            for (wid, __), lo, hi in zip(ready, offsets[:-1], offsets[1:]):
                if hi > lo:
                    self.on_window(wid, rows.slice(lo, hi))
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
            pending = sorted(self._pending.items())
            self._pending.clear()
        rows = self._assemble(pending)
        if rows is None:
            return []
        return [self._emit(rows, self._next_task, now, now)]

    def output(self) -> "TupleBatch | None":
        """Concatenated output stream (when output collection is on)."""
        batches = [e.rows for e in self.emitted if len(e.rows)]
        if not batches:
            return None
        return TupleBatch.concat(batches)
