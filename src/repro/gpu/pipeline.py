"""Five-stage pipelined stream data movement (§5.2, Fig. 6).

Executing a query task on the GPGPU involves five operations::

    copyin  — Java heap  -> pinned host memory   (dedicated CPU thread)
    movein  — pinned host -> GPGPU memory (DMA)  (dedicated GPGPU thread)
    execute — kernel execution                   (remaining GPGPU threads)
    moveout — GPGPU memory -> pinned host (DMA)  (dedicated GPGPU thread)
    copyout — pinned host -> Java heap           (dedicated CPU thread)

SABER interleaves these across consecutive tasks.  The model enforces the
two dependency families of Fig. 6:

* **data dependencies** — a task's stage *s* starts only after its own
  stage *s-1* finished;
* **thread dependencies** — each stage is executed by one dedicated
  thread, so stage *s* of task *i* also waits for stage *s* of task
  *i-1*;

plus the buffer ring: with *k* pinned-buffer slots, task *i*'s copyin
waits until task *i-k*'s copyout released its slot (the paper uses four
buffers: "task 5's copyout operation returns the results of task 1").

In steady state, a task therefore departs every ``max(stage durations)``
seconds while each individual task observes the full ``sum(stages)``
latency — the throughput/latency split the engine's GPGPU worker model
relies on.  Disabling pipelining (``pipelined=False``) serialises all five
stages, the ablation case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError, positive_int

STAGES = ("copyin", "movein", "execute", "moveout", "copyout")


@dataclass
class StageTiming:
    """Computed schedule of one task through the pipeline."""

    task_id: int
    start: "dict[str, float]"
    finish: "dict[str, float]"

    @property
    def completion_time(self) -> float:
        """Finish time of the last pipeline stage for this task."""
        return self.finish[STAGES[-1]]


@dataclass
class MovementPipeline:
    """Schedules tasks through the five data-movement stages."""

    buffer_slots: int = 4
    pipelined: bool = True
    _stage_free: "dict[str, float]" = field(default_factory=dict)
    _slot_release: "list[float]" = field(default_factory=list)
    _last_completion: float = 0.0
    _task_counter: int = 0

    def __post_init__(self) -> None:
        positive_int(self.buffer_slots, "buffer_slots", SimulationError)
        self._stage_free = {stage: 0.0 for stage in STAGES}
        self._slot_release = [0.0] * self.buffer_slots

    def schedule(self, arrival: float, durations: "dict[str, float]") -> StageTiming:
        """Run one task through the pipeline; returns its stage schedule.

        ``durations`` maps each of the five stage names to its duration.
        """
        missing = [s for s in STAGES if s not in durations]
        if missing:
            raise SimulationError(f"missing pipeline stage durations: {missing}")
        task_id = self._task_counter
        self._task_counter += 1

        start: dict[str, float] = {}
        finish: dict[str, float] = {}
        if self.pipelined:
            slot = task_id % self.buffer_slots
            ready = max(arrival, self._slot_release[slot])
            previous_finish = ready
            for stage in STAGES:
                begin = max(previous_finish, self._stage_free[stage])
                end = begin + durations[stage]
                start[stage] = begin
                finish[stage] = end
                self._stage_free[stage] = end
                previous_finish = end
            self._slot_release[slot] = finish[STAGES[-1]]
        else:
            # Ablation: all five operations execute back-to-back with no
            # overlap across tasks (single buffer, single thread).
            begin = max(arrival, self._last_completion)
            for stage in STAGES:
                start[stage] = begin
                begin += durations[stage]
                finish[stage] = begin
            self._last_completion = begin
        timing = StageTiming(task_id=task_id, start=start, finish=finish)
        self._last_completion = max(self._last_completion, timing.completion_time)
        return timing

    def next_accept_time(self) -> float:
        """Earliest time the pipeline can begin another task's copyin."""
        if not self.pipelined:
            return self._last_completion
        slot = self._task_counter % self.buffer_slots
        return max(self._stage_free[STAGES[0]], self._slot_release[slot])
