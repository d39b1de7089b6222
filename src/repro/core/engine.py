"""The SABER engine (§4): dispatch → schedule → execute → result stages.

:class:`SaberEngine` owns what is independent of *how* tasks run —
configuration, the registered queries (:class:`QueryRun`: dispatcher +
result stage), the scheduler, the measurements and the report — plus the
two per-task entry points every executor calls,
:meth:`SaberEngine.execute` and :meth:`SaberEngine.complete`.  *When*
tasks run, on which workers and by which clock, is the executor's
business: ``SaberConfig.execution`` names the substrate — virtual time
(:mod:`repro.core.executor_sim`), worker threads
(:mod:`repro.core.executor`) or forked worker processes
(:mod:`repro.core.executor_mp`) — and ``use_cpu``/``use_gpu`` the
topology; :mod:`repro.hardware.slots` combines them into a device-slot
table.  Outside ``sim`` the GPGPU slot is one
:class:`~repro.gpu.accelerator.AcceleratorDevice`.

Outputs are identical across all three ``execution`` values and every
topology: the result stage emits in task-id order whatever completes
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import INT64_MAX, SimulationError, boolean, check_fields, checked, choice
from ..errors import instance_of, int_range, non_negative_finite, optional, positive_finite
from ..errors import positive_int
from ..gpu.accelerator import AcceleratorDevice
from ..hardware.slots import EXECUTIONS, DeviceSlot, device_slots
from ..hardware.specs import DEFAULT_SPEC, HardwareSpec
from ..io.base import POLICIES
from ..metrics import Measurements, TaskRecord
from ..operators.base import BatchResult, StreamSlice
from ..relational.tuples import TupleBatch
from ..windows.assigner import WindowSet, assign_windows
from .dispatcher import Dispatcher, Source
from .executor import ThreadedExecutor
from .executor_mp import ProcessExecutor, fork_available
from .executor_sim import SimExecutor
from .query import Query
from .result_stage import RESULT_SLOTS, ResultStage
from .scheduler import (
    CPU,
    GPU,
    FcfsScheduler,
    HlsScheduler,
    Scheduler,
    StaticScheduler,
    ThroughputMatrix,
)
from .task import QueryTask

#: ``SaberConfig.execution`` (the substrate) -> executor.
_EXECUTORS = {"sim": SimExecutor, "threads": ThreadedExecutor, "processes": ProcessExecutor}


#: Every worker, the accelerator's included, holds at most one task in
#: flight, and the result stage needs more slots than tasks in flight.
worker_count = int_range(1, RESULT_SLOTS - 2)
#: A query holds at most its ring's tasks in flight, so a ring never
#: holds more tasks than the result stage has slots.
ring_tasks = int_range(1, RESULT_SLOTS)
#: The ring (``ring_tasks`` tasks of this many bytes) must be addressable
#: as one numpy array of int64-counted bytes.
task_bytes = int_range(1, INT64_MAX // RESULT_SLOTS)

SCHEDULERS = ("hls", "fcfs", "static")
#: an older spelling of ``threads`` with both slots live (the saberbench
#: sizes table uses it); nothing reads it past ``SaberConfig``.
_HYBRID = "hybrid"


@dataclass
class SaberConfig:
    """Engine configuration (defaults mirror §6.1's server)."""

    cpu_workers: int = checked(15, worker_count)
    use_cpu: bool = checked(True, boolean)
    use_gpu: bool = checked(True, boolean)
    task_size_bytes: int = checked(1 << 20, task_bytes)
    queue_capacity: int = checked(32, positive_int)
    scheduler: str = checked("hls", choice(SCHEDULERS))
    static_assignment: "dict[str, str] | None" = checked(None, optional(instance_of(dict)))
    #: how many consecutive preferred-processor executions before a task
    #: of the query is forced onto the other processor (keeps both
    #: observable).  Each forced task runs on a potentially much slower
    #: processor, so the default keeps forced switches rare; delay-rule
    #: diversions still refresh the non-preferred column.  The Fig. 16
    #: shape test (``tests/test_paper_shapes.py``) lowers it to 10 to make
    #: the calm-phase GPGPU contribution visible, as the paper describes,
    #: and shows what 1 and 1000 cost under a changing workload.
    switch_threshold: int = checked(1000, positive_int)
    #: the paper refreshes the throughput matrix every 100 ms (Fig. 16);
    #: simulated runs cover far less virtual time, so the default is
    #: proportionally tighter.  The Fig. 16 shape test
    #: (``tests/test_paper_shapes.py``) covers 20 ms of virtual time and
    #: passes 0.1 ms; at the paper's 0.1 s the matrix would never
    #: refresh within the run.  0 refreshes on every completion.
    matrix_refresh_seconds: float = checked(0.001, non_negative_finite)
    #: bytes/s ingest cap (e.g. 10 GbE); ``None`` is uncapped.
    ingest_bandwidth: "float | None" = checked(None, optional(positive_finite))
    pipelined: bool = checked(True, boolean)
    execute_data: bool = checked(True, boolean)
    collect_output: bool = checked(True, boolean)
    #: the substrate tasks run on: ``"sim"`` (virtual-time
    #: discrete-event loop), ``"threads"`` (real worker threads,
    #: wall-clock timing) or ``"processes"`` (forked worker processes
    #: over shared-memory buffers — GIL-free operator parallelism; POSIX
    #: only).  ``use_cpu``/``use_gpu`` choose the slots that come up on
    #: it; outside ``sim`` the GPGPU slot is the executable accelerator.
    #: Outputs are identical across all of them; only the timing source
    #: and the parallelism substrate differ.
    execution: str = checked("sim", choice((*EXECUTIONS, _HYBRID)))
    #: what the dispatcher does when a query's circular input buffers
    #: are full: ``"block"`` waits for the result stage to release space
    #: (lossless, the default), ``"error"`` raises a typed
    #: :class:`~repro.errors.BackpressureError`, ``"drop_oldest"`` sheds
    #: incoming source data to keep ingest live (counted on
    #: ``Dispatcher.shed_tuples``; data already referenced by tasks is
    #: never dropped).  Bounded *ingress* queues (push/socket sources)
    #: carry their own per-connector policy.
    backpressure: str = checked("block", choice(POLICIES))
    #: circular input buffer capacity, in query tasks per input stream.
    buffer_capacity_tasks: int = checked(96, ring_tasks)
    spec: HardwareSpec = checked(DEFAULT_SPEC, instance_of(HardwareSpec))

    def __post_init__(self) -> None:
        check_fields(self, SimulationError)
        if self.execution == _HYBRID:
            if not (self.use_cpu and self.use_gpu):
                raise SimulationError("execution='hybrid' needs use_cpu and use_gpu")
            self.execution = "threads"
        if not (self.use_cpu or self.use_gpu):
            raise SimulationError("enable at least one processor type")
        if self.execution == "processes" and not fork_available():
            raise SimulationError(
                "execution='processes' requires the fork start method "
                "(POSIX); use execution='threads' on this platform"
            )
        if self.scheduler == "static" and not self.static_assignment:
            raise SimulationError("static scheduling needs an assignment map")


@dataclass
class QueryRun:
    """Engine-internal state of one registered query."""

    query: Query
    dispatcher: Dispatcher
    result_stage: ResultStage
    tasks_dispatched: int = 0
    #: the query's sources ended, every task completed and the tail
    #: windows were flushed — the finite stream is fully processed.
    eos_flushed: bool = False

    @property
    def tasks_completed(self) -> int:
        """Tasks that went through :meth:`SaberEngine.complete`."""
        return self.result_stage.tasks_submitted

    @property
    def finished(self) -> bool:
        """EOS observed and all dispatched tasks completed."""
        return self.dispatcher.exhausted and self.tasks_completed == self.tasks_dispatched


@dataclass
class Report:
    """Outcome of one engine run.

    Times are virtual (calibrated models) under ``execution="sim"`` and
    wall-clock seconds under every other ``execution`` value.
    """

    measurements: Measurements
    elapsed_seconds: float
    outputs: "dict[str, TupleBatch | None]"
    output_rows: "dict[str, int]"
    matrix_history: "list[tuple[float, dict[tuple[str, str], float]]]"

    @property
    def throughput_bytes(self) -> float:
        return self.measurements.throughput_bytes()

    @property
    def throughput_tuples(self) -> float:
        return self.measurements.throughput_tuples()

    @property
    def latency_mean(self) -> float:
        return self.measurements.latency_mean()

    def processor_share(self) -> "dict[str, float]":
        return self.measurements.processor_share()

    def query_throughput(self, name: str) -> float:
        return self.measurements.query_throughput_bytes(name)


class SaberEngine:
    """Hybrid CPU/GPGPU stream processing engine."""

    def __init__(self, config: "SaberConfig | None" = None) -> None:
        self.config = config or SaberConfig()
        self.measurements = Measurements()
        self.runs: list[QueryRun] = []
        self._runs_by_query: "dict[int, QueryRun]" = {}
        slots = self.device_slots()
        #: the executable accelerator on a real substrate's GPGPU slot;
        #: None under ``sim`` (the cost model times the operator itself).
        self.accelerator = (
            AcceleratorDevice() if any(slot.kind == "accelerator" for slot in slots) else None
        )
        self.scheduler = self._build_scheduler()
        self._last_elapsed = 0.0
        #: cooperative stop flag (:meth:`request_stop`): once set, the
        #: dispatcher cuts no further tasks and the run drains in-flight
        #: work, then returns normally.  ``run`` does NOT clear it — a
        #: long-lived caller (SaberSession) clears it before each run so
        #: a stop requested just before the run starts is not lost.
        self.stop_requested = False
        #: set by :meth:`drain` / ``run(flush=True)``: flushing emits
        #: still-open windows from their fragments so far, which is an
        #: end-of-stream operation — running further tasks afterwards
        #: would re-emit those windows with only their tail fragments.
        self._drained = False
        #: owns time and workers; lives as long as the engine so virtual
        #: and wall-clock time accumulate across incremental runs.
        self._executor = _EXECUTORS[self.config.execution](self)

    # -- set-up ------------------------------------------------------------------

    def device_slots(self) -> "tuple[DeviceSlot, ...]":
        """The processor slots this configuration brings up (see HLS)."""
        return device_slots(self.config)

    def _build_scheduler(self) -> Scheduler:
        cfg = self.config  # (validated: with one slot up every policy is FCFS)
        if cfg.scheduler == "fcfs" or not (cfg.use_cpu and cfg.use_gpu):
            return FcfsScheduler()
        if cfg.scheduler == "static":
            return StaticScheduler(cfg.static_assignment)
        matrix = ThroughputMatrix(refresh_seconds=cfg.matrix_refresh_seconds)
        return HlsScheduler(matrix, switch_threshold=cfg.switch_threshold)

    def add_query(
        self,
        query: Query,
        sources: "list[Source] | None" = None,
        on_emit=None,
    ) -> None:
        """Register a query; ``sources=None`` runs simulation-only.

        ``on_emit`` is forwarded to the query's :class:`ResultStage` as
        the per-query sink hook (called per ordered output chunk, on the
        emitting worker's thread).
        """
        if self.config.execute_data and sources is None:
            raise SimulationError(
                f"query {query.name!r}: sources are required unless "
                "execute_data=False"
            )
        if self.config.execute_data and sources is not None:
            for source in sources:
                bind = getattr(source, "bind_stop", None)
                if callable(bind):
                    # Blocking connector pulls poll this so a stop
                    # request interrupts them promptly (and losslessly:
                    # interrupted pulls stay staged in the dispatcher).
                    bind(lambda: self.stop_requested)
        dispatcher = Dispatcher(
            query,
            sources if self.config.execute_data else None,
            self.config.task_size_bytes,
            buffer_capacity_tasks=self.config.buffer_capacity_tasks,
            # Worker processes read task ranges across the fork boundary,
            # so their buffers must live in OS shared memory.
            buffer_backing="shared" if self.config.execution == "processes" else "local",
        )
        result_stage = ResultStage(
            query,
            collect_output=self.config.collect_output,
            on_release=dispatcher.release,
            on_emit=on_emit,
        )
        run = QueryRun(query, dispatcher, result_stage)
        self.runs.append(run)
        self._runs_by_query.setdefault(id(query), run)

    # -- run -----------------------------------------------------------------------

    def run(self, tasks_per_query: int = 128, flush: bool = False) -> Report:
        """Dispatch and process ``tasks_per_query`` tasks per query."""
        if not self.runs:
            raise SimulationError("no queries registered")
        positive_int(tasks_per_query, "tasks_per_query", SimulationError)
        if self._drained:
            raise SimulationError(
                "engine was drained (flush emitted still-open windows): "
                "running further tasks would re-emit those windows from "
                "their tail fragments only — create a new engine/session"
            )
        elapsed = self._executor.run(tasks_per_query)
        self._last_elapsed = elapsed
        return self._build_report(elapsed, flush)

    def request_stop(self) -> None:
        """Ask a running (or about-to-run) engine to stop dispatching.

        In-flight and queued tasks drain normally; the run then returns
        with however many tasks each query processed.  Works under every
        ``execution`` value; safe to call from another thread.
        """
        self.stop_requested = True

    def clear_stop(self) -> None:
        """Re-arm the engine after a stop (see :attr:`stop_requested`)."""
        self.stop_requested = False

    def shutdown(self) -> None:
        """Release engine-owned OS resources; idempotent.

        The processes backend re-homes the circular input buffers onto
        shared-memory segments, which outlive any single run (incremental
        runs re-attach).  Call this when the engine will not run again —
        sessions do, from ``close()`` — to unlink the segments instead of
        leaning on the interpreter-exit finalizer.
        """
        for run in self.runs:
            run.dispatcher.close()

    def drain(self) -> Report:
        """Finalise still-open windows and rebuild the report.

        Streaming semantics never emit incomplete windows; a long-lived
        session calls this once, after its final run, to flush the tail
        of a finite stream.  Draining is terminal: a later :meth:`run`
        raises, because the flushed windows' ids would otherwise be
        re-emitted with only the fragments that arrive afterwards.
        """
        self._drained = True
        return self._build_report(self._last_elapsed, flush=True)

    def _build_report(self, elapsed: float, flush: bool) -> Report:
        """Backend-independent epilogue: outputs, counters, history.

        Queries whose finite sources ended (EOS observed, every task
        completed) are *drained* here: their still-open windows flush so
        the stream's tail is emitted and the query handle completes.
        Per-query EOS draining is safe where engine-wide ``flush`` is
        terminal, because an exhausted dispatcher cuts no further tasks
        that could re-open the flushed windows.
        """
        outputs: dict[str, TupleBatch | None] = {}
        output_rows: dict[str, int] = {}
        for run in self.runs:
            if self.config.execute_data and (flush or (run.finished and not run.eos_flushed)):
                self._drained |= flush  # flush is end-of-stream
                run.result_stage.flush(elapsed)
                run.eos_flushed |= run.finished
            outputs[run.query.name] = (
                run.result_stage.output() if self.config.collect_output else None
            )
            output_rows[run.query.name] = run.result_stage.output_rows
        history = []
        if isinstance(self.scheduler, HlsScheduler):
            history = self.scheduler.matrix.history
        return Report(
            measurements=self.measurements,
            elapsed_seconds=elapsed,
            outputs=outputs,
            output_rows=output_rows,
            matrix_history=history,
        )

    # -- per-task entry points (called by the executors) ------------------------------

    def pending_runs(self, tasks_per_query: int) -> "list[QueryRun]":
        """Queries the dispatcher may still cut tasks for in this run."""
        return [
            r
            for r in self.runs
            if r.tasks_dispatched < tasks_per_query and not r.dispatcher.exhausted
        ]

    def run_for(self, query: Query) -> QueryRun:
        """The :class:`QueryRun` a registered query's tasks belong to."""
        return self._runs_by_query[id(query)]

    def execute(
        self, task: QueryTask, processor: str, copy: bool = True
    ) -> "BatchResult | None":
        """Run ``task``'s batch operator function on ``processor``'s device:
        read its buffer ranges, assign windows, hand the slices to the
        operator itself — through the accelerator's movein and moveout
        when a real substrate's GPGPU slot claimed it.  Returns ``None``
        in simulation-only runs (``execute_data=False``).

        ``copy=False`` reads task batches as zero-copy views of the
        circular buffers — the worker-process path, where the buffer is a
        shared segment and the range stays retained until the task's
        result has been processed by the parent.  A task bound for the
        accelerator is read in place too: the device's movein is the
        copy, so nothing it computes on can alias the ring after release.
        """
        if not self.config.execute_data:
            return None
        if processor == GPU and self.accelerator is not None:
            copy = False
        query = task.query
        slices = []
        for ref, window in zip(task.batches, query.windows):
            batch = ref.read(copy=copy)
            if window is None:
                windows = WindowSet.empty()
            else:
                timestamps = batch.timestamps if batch.schema.has_timestamp else None
                windows = assign_windows(
                    window,
                    ref.start,
                    ref.stop,
                    timestamps=timestamps,
                    previous_last_timestamp=ref.previous_last_timestamp,
                    force_assembly=query.force_assembly,
                )
            slices.append(StreamSlice(batch, windows, ref.start))
        if processor == GPU and self.accelerator is not None:
            return self.accelerator.execute(query.operator, slices)
        return query.operator.process_batch(slices)

    def complete(
        self,
        run: QueryRun,
        task: QueryTask,
        result: "BatchResult | None",
        processor: str,
        interval: float,
        completed_at: float,
        emit_at: float,
    ) -> None:
        """Account for one executed task — the only completion path.

        ``interval`` is how long the task occupied ``processor`` (its HLS
        throughput sample), ``completed_at`` when the operator finished
        and ``emit_at`` when its result reaches the result stage — on
        the executor's clock; the two differ only where results cross a
        process boundary first.  Safe to call concurrently from worker
        threads: everything touched locks internally, and the query's
        completed-task count is kept by its result stage, under the
        lock ``submit`` takes anyway.
        """
        query = task.query.name
        self.measurements.record_task(
            TaskRecord(
                query=query,
                processor=processor,
                created=task.created_at,
                completed=completed_at,
                input_bytes=task.size_bytes,
                input_tuples=task.tuple_count,
            )
        )
        # The per-query result-stage lock serialises the in-order drain;
        # buffer space is released in task order inside.
        emitted = run.result_stage.submit(task, result, emit_at)
        if result is None:
            self.measurements.record_latency(query, emit_at, task.created_at)
        for record in emitted:
            self.measurements.record_latency(query, record.emit_time, record.data_time)
        # ρ(q, p) is per *processor*: the CPU row aggregates all cores, so
        # one worker's task interval implies cpu_workers tasks per interval.
        workers = self.config.cpu_workers if processor == CPU else 1
        self.scheduler.task_finished(
            task, processor, workers / max(interval, 1e-12), completed_at
        )
