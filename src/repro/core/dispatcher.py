"""Dispatching stage (§4.1).

The dispatcher owns one circular buffer per input stream and per query,
inserts incoming tuples *without deserialisation*, and cuts fixed-size
query tasks: as soon as the accumulated new data across the query's
input streams exceeds the query task size φ, a task is created carrying
start/end pointers into the buffers.  Window boundary computation is
deferred to the execution stage.

Sources implement :class:`Source` — the connector SPI's pull contract
(see :mod:`repro.io`): ``next_tuples(count)`` returns exactly ``count``
timestamp-ordered tuples, blocking until available, and raises
:class:`~repro.errors.EndOfStream` with the final short batch once the
stream is finite and exhausted.  In *simulation-only* runs the
dispatcher skips buffering and produces data-free tasks whose
statistics come from the query's ``stat_model``.

**End of stream.**  Source pulls are *staged*: all inputs' batches are
pulled before anything is inserted, so a blocking pull interrupted by a
stop request (:class:`~repro.errors.IngestInterrupted`) loses nothing —
already-pulled batches stay staged and the next :meth:`create_task`
resumes from them.  When any input raises EOS, the staged data becomes
one final short task (or none, if empty) and :attr:`exhausted` flips;
the engine then drains the query and completes its handle.

**Concurrency.**  The dispatcher is single-writer by construction: only
the dispatching thread calls :meth:`create_task` (it owns the cursors and
buffer inserts), while :meth:`release` may be called from any worker
thread — it only touches the buffers, whose pointer advancement is
internally locked.  :meth:`can_create_task` lets the engine apply buffer
backpressure before pulling source data (block under the default
policy, raise :class:`~repro.errors.BackpressureError` under ``error``,
or shed via :meth:`shed_task` under ``drop_oldest``).
"""

from __future__ import annotations

from typing import Protocol

from ..errors import BackpressureError, DispatchError, EndOfStream, positive_int
from ..relational.buffer import CircularTupleBuffer
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .query import Query
from .task import BatchRef, QueryTask


class Source(Protocol):
    """A timestamp-ordered stream of tuples (the pull SPI).

    Unbounded generators simply never raise
    :class:`~repro.errors.EndOfStream`; the pre-SPI protocol is a
    subset of the connector contract, so legacy sources keep working.
    """

    schema: Schema

    def next_tuples(self, count: int) -> TupleBatch:
        """The next ``count`` tuples of the stream."""
        ...


class Dispatcher:
    """Creates fixed-size query tasks for one query."""

    def __init__(
        self,
        query: Query,
        sources: "list[Source] | None",
        task_size_bytes: int,
        buffer_capacity_tasks: int = 96,
        buffer_backing: str = "local",
    ) -> None:
        self.query = query
        self.sources = sources
        self.task_size_bytes = positive_int(task_size_bytes, "task_size_bytes", DispatchError)
        #: tasks cut so far (the next task's id) and their total input
        #: bytes; written only by the dispatching thread.
        self.tasks_cut = 0
        self.bytes_cut = 0
        self._schemas = query.input_schemas
        if sources is not None and len(sources) != len(self._schemas):
            raise DispatchError(
                f"query {query.name!r} needs {len(self._schemas)} sources, "
                f"got {len(sources)}"
            )
        rates = query.input_rates or [1.0] * len(self._schemas)
        total_rate = sum(rates)
        self._tuples_per_input = [
            max(1, int(self.task_size_bytes * rate / total_rate) // schema.tuple_size)
            for rate, schema in zip(rates, self._schemas)
        ]
        self.buffers: "list[CircularTupleBuffer | None]" = []
        if sources is None:
            self.buffers = [None] * len(self._schemas)
        else:
            for schema, per_task in zip(self._schemas, self._tuples_per_input):
                capacity = per_task * buffer_capacity_tasks
                self.buffers.append(CircularTupleBuffer(schema, capacity, backing=buffer_backing))
        self._previous_last_ts: "list[int | None]" = [None] * len(self._schemas)
        self._cursor = [0] * len(self._schemas)
        #: staged pulls: batches already taken from the sources but not
        #: yet inserted (survive an interrupted/aborted task cut).
        self._staged: "list[TupleBatch | None]" = [None] * len(self._schemas)
        self._source_done = [False] * len(self._schemas)
        #: no further tasks will ever be produced (EOS observed and the
        #: final short task, if any, already emitted).
        self.exhausted = False
        #: tuples discarded by :meth:`shed_task` (drop_oldest policy).
        self.shed_tuples = 0

    @property
    def actual_task_bytes(self) -> int:
        """Task size realised after rounding to whole tuples."""
        return sum(n * s.tuple_size for n, s in zip(self._tuples_per_input, self._schemas))

    def can_create_task(self) -> bool:
        """Whether every input buffer has room for the next task's tuples.

        The engine consults this before pulling source data; what it
        does on ``False`` is the backpressure policy's call (block,
        shed, or fail).  An exhausted dispatcher always reports ``True``
        so EOS is observed promptly instead of waiting for buffer room
        that is no longer needed.
        """
        if self.sources is None or self.exhausted:
            return True
        return all(
            buffer.free_slots >= count
            for buffer, count in zip(self.buffers, self._tuples_per_input)
        )

    def backpressure_action(self, policy: str) -> str:
        """What to do about full input buffers, per the engine policy.

        Returns ``"wait"`` (block until the result stage releases
        space) or ``"shed"`` (call :meth:`shed_task`); raises the typed
        :class:`~repro.errors.BackpressureError` under ``error``.  One
        decision point shared by both execution backends.
        """
        if policy == "error":
            raise BackpressureError(
                f"query {self.query.name!r}: circular input buffers are "
                "full and backpressure='error'"
            )
        return "shed" if policy == "drop_oldest" else "wait"

    def _pull_staged(self) -> bool:
        """Stage every input's next batch; returns True if any EOS.

        A pull that raises :class:`~repro.errors.IngestInterrupted`
        propagates with earlier inputs' batches kept staged, so an
        interrupted task cut resumes losslessly on the next call.
        """
        eos = False
        for i in range(len(self._schemas)):
            if self._staged[i] is not None or self._source_done[i]:
                eos = eos or self._source_done[i]
                continue
            count = self._tuples_per_input[i]
            try:
                data = self.sources[i].next_tuples(count)
            except EndOfStream as end:
                self._source_done[i] = True
                eos = True
                data = end.remainder
                if data is not None and len(data) == 0:
                    data = None
                if data is not None and len(data) > count:
                    raise DispatchError(
                        f"source {i} EOS remainder has {len(data)} tuples, "
                        f"more than the requested {count}"
                    )
                self._staged[i] = data
                continue
            if len(data) != count:
                raise DispatchError(f"source {i} returned {len(data)} tuples, wanted {count}")
            self._staged[i] = data
        return eos

    def create_task(self, now: float) -> "QueryTask | None":
        """Cut the next query task (pulls source data into the buffers).

        Returns ``None`` — and marks the dispatcher :attr:`exhausted` —
        when the sources ended with no residual data; a final *short*
        task carries any EOS remainders.
        """
        if self.exhausted:
            return None
        if self.sources is not None:
            final = self._pull_staged()
            if final:
                self.exhausted = True
                if all(s is None or len(s) == 0 for s in self._staged):
                    self._staged = [None] * len(self._schemas)
                    return None
        batches: list[BatchRef] = []
        task_bytes = 0
        for i, schema in enumerate(self._schemas):
            count = self._tuples_per_input[i]
            start = self._cursor[i]
            prev_last = self._previous_last_ts[i]
            if self.sources is not None:
                data = self._staged[i]
                self._staged[i] = None
                if data is None:
                    data = TupleBatch.empty(schema)
                stop = start + len(data)
                if len(data):
                    buffer = self.buffers[i]
                    inserted_at = buffer.insert(data)
                    if inserted_at != start:
                        raise DispatchError(f"buffer cursor out of sync: {inserted_at} != {start}")
                    if schema.has_timestamp:
                        self._previous_last_ts[i] = int(data.timestamps[-1])
                batches.append(BatchRef(self.buffers[i], start, stop, prev_last))
                task_bytes += len(data) * schema.tuple_size
            else:
                stop = start + count
                batches.append(BatchRef(None, start, stop, prev_last))
                task_bytes += count * schema.tuple_size
            self._cursor[i] = stop
        task = QueryTask(
            query=self.query,
            task_id=self.tasks_cut,
            batches=batches,
            created_at=now,
            size_bytes=task_bytes,
        )
        self.tasks_cut += 1
        self.bytes_cut += task_bytes
        return task

    def shed_task(self) -> int:
        """Pull one task's worth of data and discard it (load shedding).

        The ``drop_oldest`` engine policy sheds *incoming* data when the
        circular buffers are full — retained buffer data is referenced
        by in-flight tasks and can never be dropped.  Returns the number
        of tuples shed; EOS during a shed marks the dispatcher
        exhausted like a normal pull.
        """
        if self.sources is None or self.exhausted:
            return 0
        final = self._pull_staged()
        shed = sum(len(s) for s in self._staged if s is not None)
        self._staged = [None] * len(self._schemas)
        self.shed_tuples += shed
        if final:
            self.exhausted = True
        return shed

    def release(self, task: QueryTask) -> None:
        """Reclaim buffer space once a task's results were processed."""
        for ref in task.batches:
            if ref.buffer is not None:
                ref.buffer.release(ref.stop)

    def close(self) -> None:
        """Release the input buffers' backing stores (engine shutdown).

        Unlinks shared-memory segments under ``buffer_backing="shared"``;
        a no-op for local backings.  Idempotent.
        """
        for buffer in self.buffers:
            if buffer is not None:
                buffer.close()
