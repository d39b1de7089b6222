"""Task scheduling (§4.2): HLS (Alg. 1), FCFS and Static baselines.

SABER schedules without a performance model: it *observes* the query task
throughput ρ(q, p) — tasks of query q executed per second on processor p
(aggregated over all CPU cores for ``CPU``; end-to-end including data
movement for ``GPGPU``) — in the throughput matrix C, refreshed
periodically from measurements.

The hybrid lookahead scheduling algorithm walks the system-wide task
queue: a task runs on its *preferred* processor (the row-argmax of C)
unless the accumulated backlog that the preferred processor already owes
to earlier queued tasks (``delay``) exceeds the task's execution time on
the asking processor — then the slower processor yields the earlier
completion and takes it.  A *switch threshold* bounds how many
consecutive tasks of one query may run on the same processor so the other
processor's throughput keeps being observed.

**Concurrency.**  ``select`` mutates the switch-threshold counters, so
callers must serialise it with the queue they pass in — every executor
does (the sim executor is single-threaded; the thread and process
executors call it under the queue lock).  ``task_finished`` is safe to
call from any worker thread: the throughput matrix locks its
sample/refresh bookkeeping internally so completion feedback never
contends on the queue lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..analysis.lockdep import make_lock
from ..errors import SchedulingError, non_negative_finite, positive_finite, positive_int
from .task import QueryTask

CPU = "CPU"
GPU = "GPGPU"
PROCESSORS = (CPU, GPU)

#: queued tasks below which HLS's line-12 fallback leaves a worker idle.
FALLBACK_BACKLOG = 4


class ThroughputMatrix:
    """The query-task throughput matrix C with periodic refresh.

    Entries start uniform (the paper initialises "under a uniform
    assumption, with a fixed value") and are re-estimated every
    ``refresh_seconds`` of virtual time from the samples observed since
    the previous refresh; rows without fresh samples keep their value.
    """

    def __init__(self, initial: float = 1000.0, refresh_seconds: float = 0.1) -> None:
        self.initial = positive_finite(initial, "initial", SchedulingError)
        self.refresh_seconds = non_negative_finite(
            refresh_seconds, "refresh_seconds", SchedulingError
        )
        self._values: dict[tuple[str, str], float] = {}
        self._samples: dict[tuple[str, str], list[float]] = {}
        self._last_refresh = 0.0
        self._lock = make_lock("core.scheduler.ThroughputMatrix._lock")
        self.history: list[tuple[float, dict[tuple[str, str], float]]] = []

    def value(self, query: str, processor: str) -> float:
        return self._values.get((query, processor), self.initial)

    def preferred(self, query: str) -> str:
        """Row argmax; ties go to the CPU (the matrix column order)."""
        best = CPU
        best_value = self.value(query, CPU)
        if self.value(query, GPU) > best_value:
            best = GPU
        return best

    def observe(self, query: str, processor: str, tasks_per_second: float) -> None:
        """Record one task's implied throughput sample."""
        if tasks_per_second <= 0:
            return
        with self._lock:
            self._samples.setdefault((query, processor), []).append(tasks_per_second)

    def maybe_refresh(self, now: float) -> bool:
        """Fold accumulated samples into C once per refresh period."""
        with self._lock:
            if now - self._last_refresh < self.refresh_seconds:
                return False
            self._last_refresh = now
            for key, samples in self._samples.items():
                if samples:
                    self._values[key] = sum(samples) / len(samples)
            self._samples = {}
            self.history.append((now, dict(self._values)))
            return True


@dataclass
class SchedulerState:
    """Per-(query, processor) execution counters for the switch threshold."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def count(self, query: str, processor: str) -> int:
        return self.counts.get((query, processor), 0)

    def increment(self, query: str, processor: str) -> None:
        self.counts[(query, processor)] = self.count(query, processor) + 1

    def reset(self, query: str, processor: str) -> None:
        self.counts[(query, processor)] = 0


class Scheduler:
    """Interface: pick a queued task for an idle worker's processor."""

    def select(self, queue: "list[QueryTask]", processor: str) -> "int | None":
        """Index into ``queue`` of the chosen task, or ``None`` to idle."""
        raise NotImplementedError

    def task_finished(
        self, task: QueryTask, processor: str, tasks_per_second: float, now: float
    ) -> None:
        """Hook: observed throughput feedback after a task completes."""


class HlsScheduler(Scheduler):
    """Hybrid lookahead scheduling — Alg. 1, implemented verbatim.

    Line 12 of Alg. 1 returns ``w[pos]`` after the walk finishes, i.e.
    when no position satisfied line 6 the worker still receives a task
    (the one at the final position) rather than idling.  This fallback is
    what keeps every processor work-conserving — disabling it
    (``strict_lookahead=True``) lets a worker idle with a non-empty
    queue, which measurably hurts hybrid throughput whenever the
    processors' speeds differ a lot (the line-12 ablation in
    ``tests/test_paper_shapes.py``).

    The fallback only fires against a real backlog
    (:data:`FALLBACK_BACKLOG` queued tasks): with a near-empty queue the
    task's preferred processor is about to pick it up itself, and letting
    the other processor race for it would destroy the preferred routing
    the moment the system is under-loaded (visible as the Fig. 16
    calm-phase CPU monopoly).
    """

    def __init__(
        self,
        matrix: "ThroughputMatrix | None" = None,
        switch_threshold: int = 10,
        strict_lookahead: bool = False,
    ) -> None:
        self.matrix = matrix or ThroughputMatrix()
        self.switch_threshold = positive_int(switch_threshold, "switch_threshold", SchedulingError)
        self.strict_lookahead = strict_lookahead
        self.state = SchedulerState()

    def select(self, queue: "list[QueryTask]", processor: str) -> "int | None":
        if processor not in PROCESSORS:
            raise SchedulingError(f"unknown processor {processor!r}")
        matrix, state, st = self.matrix, self.state, self.switch_threshold
        delay = 0.0
        for pos, task in enumerate(queue):  # lines 1-3
            q = task.query.name  # line 4
            preferred = matrix.preferred(q)  # line 5
            is_preferred = processor == preferred
            take = False  # line 6
            if is_preferred and state.count(q, processor) < st:
                take = True
            elif not is_preferred and (
                state.count(q, preferred) >= st
                or delay >= 1.0 / matrix.value(q, processor)
            ):
                take = True
            if take:
                if state.count(q, preferred) >= st:  # line 7
                    state.reset(q, preferred)
                state.increment(q, processor)  # line 8
                return pos  # line 9
            delay += 1.0 / matrix.value(q, preferred)  # line 10
        if not queue or self.strict_lookahead:
            return None
        if len(queue) < FALLBACK_BACKLOG:
            return None  # the preferred processor will take it shortly
        # Line 12: the walk ended without a selection — take the task at
        # the final position so the worker stays work-conserving.
        pos = len(queue) - 1
        q = queue[pos].query.name
        preferred = matrix.preferred(q)
        if state.count(q, preferred) >= st:
            state.reset(q, preferred)
        state.increment(q, processor)
        return pos

    def task_finished(
        self, task: QueryTask, processor: str, tasks_per_second: float, now: float
    ) -> None:
        self.matrix.observe(task.query.name, processor, tasks_per_second)
        self.matrix.maybe_refresh(now)


class FcfsScheduler(Scheduler):
    """First-come, first-served: any worker takes the queue head."""

    def select(self, queue: "list[QueryTask]", processor: str) -> "int | None":
        return 0 if queue else None


class StaticScheduler(Scheduler):
    """Fixed query→processor assignment (the paper's Static baseline)."""

    def __init__(self, assignment: "dict[str, str]") -> None:
        for query, processor in assignment.items():
            if processor not in PROCESSORS:
                raise SchedulingError(f"static assignment maps {query!r} to unknown {processor!r}")
        self.assignment = dict(assignment)

    def select(self, queue: "list[QueryTask]", processor: str) -> "int | None":
        for pos, task in enumerate(queue):
            assigned = self.assignment.get(task.query.name)
            if assigned is None:
                raise SchedulingError(f"no static assignment for query {task.query.name!r}")
            if assigned == processor:
                return pos
        return None
