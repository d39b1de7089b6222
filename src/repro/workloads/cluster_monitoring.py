"""Compute-cluster monitoring workload (CM, Table 1 / Appendix A.1).

The paper replays a trace of task events from an 11,000-machine Google
compute cluster [53].  The trace itself is not redistributable, so we
generate a synthetic stream with the same schema and the statistical
features the CM queries exercise:

* ``eventType`` — categorical; type 1 is "task submitted" (CM2's filter)
  and type 2 is "task failed" (the Fig. 16 surge predicate);
* ``category`` — small cardinality (CM1's GROUP-BY);
* ``jobId``    — large cardinality (CM2's GROUP-BY);
* a configurable **failure surge**: periods where the task-failure rate
  jumps, reproducing the selectivity dynamics of Fig. 16.
"""

from __future__ import annotations

import numpy as np

from ..api import Stream, agg
from ..core.query import Query
from ..errors import non_negative_int, tuple_rate
from ..io.base import GeneratorSource
from ..relational.expressions import col, conjunction, disjunction
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

#: TaskEvents schema (Appendix A.1), 48 bytes per tuple.
TASK_EVENTS_SCHEMA = Schema.with_timestamp(
    "jobId:long, taskId:long, machineId:long, eventType:int, userId:int, "
    "category:int, priority:int, cpu:float, ram:float, disk:float, "
    "constraints:int",
    name="TaskEvents",
)

EVENT_SUBMIT = 1
EVENT_FAIL = 2
EVENT_FINISH = 3
EVENT_OTHER = 0


class ClusterMonitoringSource(GeneratorSource):
    """Synthetic Google-cluster-trace-like task-event stream.

    ``failure_surge`` optionally injects periods of elevated task-failure
    probability: a tuple ``(period_tuples, surge_fraction, surge_rate)``
    meaning every ``period_tuples`` tuples, the last ``surge_fraction``
    of the period emits failures at ``surge_rate`` instead of the base
    rate — the repeating surge the Fig. 16 trace contains.  ``limit``
    makes the stream finite (connector-SPI end-of-stream).
    """

    def __init__(
        self,
        seed: int = 1,
        tuples_per_second: int = 4096,
        categories: int = 12,
        jobs: int = 2048,
        base_failure_rate: float = 0.01,
        failure_surge: "tuple[int, float, float] | None" = None,
        limit: "int | None" = None,
    ) -> None:
        super().__init__(TASK_EVENTS_SCHEMA, limit=limit)
        self._rng = np.random.default_rng(non_negative_int(seed, "seed"))
        self._position = 0
        self._tuples_per_second = tuple_rate(tuples_per_second, "tuples_per_second")
        self._categories = categories
        self._jobs = jobs
        self._base_failure_rate = base_failure_rate
        self._failure_surge = failure_surge

    def _failure_rates(self, indices: np.ndarray) -> np.ndarray:
        rates = np.full(len(indices), self._base_failure_rate)
        if self._failure_surge is not None:
            period, fraction, surge_rate = self._failure_surge
            phase = (indices % period) / period
            rates[phase >= 1.0 - fraction] = surge_rate
        return rates

    def generate(self, count: int) -> TupleBatch:
        rng = self._rng
        indices = np.arange(self._position, self._position + count, dtype=np.int64)
        self._position += count
        fail = rng.random(count) < self._failure_rates(indices)
        event_type = np.where(
            fail,
            EVENT_FAIL,
            rng.choice(
                [EVENT_SUBMIT, EVENT_FINISH, EVENT_OTHER],
                size=count,
                p=[0.4, 0.4, 0.2],
            ),
        ).astype(np.int32)
        return TupleBatch.from_columns(
            self.schema,
            timestamp=indices // self._tuples_per_second,
            jobId=rng.integers(0, self._jobs, count, dtype=np.int64),
            taskId=indices,
            machineId=rng.integers(0, 11_000, count, dtype=np.int64),
            eventType=event_type,
            userId=rng.integers(0, 512, count, dtype=np.int64).astype(np.int32),
            category=rng.integers(0, self._categories, count).astype(np.int32),
            priority=rng.integers(0, 12, count).astype(np.int32),
            cpu=rng.random(count, dtype=np.float32),
            ram=rng.random(count, dtype=np.float32),
            disk=rng.random(count, dtype=np.float32),
            constraints=np.zeros(count, dtype=np.int32),
        )


def cm1_query() -> Query:
    """CM1: total requested CPU per category, ω(60, 1) time window.

    ``select timestamp, category, sum(cpu) from TaskEvents
    [range 60 slide 1] group by category``
    """
    return (
        Stream.named("TaskEvents", TASK_EVENTS_SCHEMA)
        .window(time=60, slide=1)
        .group_by("category", agg.sum("cpu", "totalCpu"))
        .build("CM1")
    )


def cm2_query() -> Query:
    """CM2: average CPU of submitted tasks per job, ω(60, 1).

    ``select timestamp, jobId, avg(cpu) from TaskEvents
    [range 60 slide 1] where eventType == 1 group by jobId``
    """
    return (
        Stream.named("TaskEvents", TASK_EVENTS_SCHEMA)
        .window(time=60, slide=1)
        .where(col("eventType").eq(EVENT_SUBMIT))
        .group_by("jobId", agg.avg("cpu", "avgCpu"))
        .build("CM2")
    )


def surge_select_query(predicates: int = 500) -> Query:
    """The Fig. 16 query: SELECT with ``p1 and (p2 or ... or p_n)``.

    ``p1`` filters task-failure events; when it holds, a SIMD processor
    — and a short-circuiting CPU — must grind through the long OR chain,
    so per-tuple cost rises with the failure selectivity on the CPU while
    the GPGPU always pays the full chain.
    """
    p1 = col("eventType").eq(EVENT_FAIL)
    # The OR chain's early branches never hold, its final branch always
    # does: a selected failure event evaluates the entire chain, and the
    # measured query selectivity equals the failure rate.
    chain = disjunction(
        [col("priority") > 1_000_000 + k for k in range(predicates - 2)]
        + [col("priority") >= 0]
    )
    return (
        Stream.named("TaskEvents", TASK_EVENTS_SCHEMA)
        .window(rows=1024, slide=1024)
        .where(
            conjunction([p1, chain]),
            # CPU short-circuits: 1 atom always; the chain only for failures.
            cpu_evals_fn=lambda sel, n=predicates: 1.0 + sel * (n - 1),
        )
        .build(f"SELECT{predicates}")
    )
