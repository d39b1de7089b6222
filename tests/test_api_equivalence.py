"""Table 1 through the public API ≡ the pre-refactor wiring.

Acceptance gate for the api redesign: every application query (CM1–LRB4)
submitted through ``repro.api`` (``SaberSession`` + the Stream-built
workload queries) must produce *identical* window results to the same
query hand-wired the old way — operators constructed directly and run on
a raw ``SaberEngine`` — on both execution backends.

The legacy constructions below are copied verbatim from the pre-refactor
``workloads/{cluster,smartgrid,linearroad}.py`` and must stay frozen:
they are the oracle.
"""

import multiprocessing

import numpy as np
import pytest

from repro.api import SaberSession
from repro.core.engine import SaberConfig, SaberEngine
from repro.core.query import Query
from repro.operators.aggregate_functions import AggregateSpec
from repro.operators.aggregation import Aggregation
from repro.operators.compose import FilteredWindows
from repro.operators.distinct import DistinctProjection
from repro.operators.groupby import GroupedAggregation
from repro.operators.join import ThetaJoin
from repro.operators.projection import Projection
from repro.relational.expressions import col
from repro.windows.definition import WindowDefinition
from repro.workloads.cluster_monitoring import TASK_EVENTS_SCHEMA
from repro.workloads.linearroad import FEET_PER_SEGMENT, POS_SPEED_SCHEMA
from repro.workloads.queries import APPLICATION_QUERIES, SMOKE_RATES, build
from repro.workloads.smartgrid import (
    GLOBAL_LOAD_SCHEMA,
    LOCAL_LOAD_SCHEMA,
    SMART_GRID_SCHEMA,
)

SEED = 7
TASKS = 10
#: the processes leg runs a smaller budget, drained: the drain flushes
#: the tail windows (so every query's output is non-empty at 4 tasks)
#: and flushing a small-slide query's thousands of open windows is the
#: dominant cost on any backend — 4 tasks keeps the leg fast while
#: exercising the same cross-task assembly.  (PR 4's per-window pickle
#: tax on this leg is gone: grouped partials now cross the completion
#: queue as columnar arrays.)
PROCESS_TASKS = 4


def _lrb_projection_columns():
    return [
        ("timestamp", col("timestamp")),
        ("vehicle", col("vehicle")),
        ("speed", col("speed")),
        ("highway", col("highway")),
        ("lane", col("lane")),
        ("direction", col("direction")),
        ("segment", col("position") / FEET_PER_SEGMENT),
    ]


#: name -> zero-arg constructor of the PRE-refactor query object.
LEGACY_QUERIES = {
    "CM1": lambda: Query(
        "CM1",
        GroupedAggregation(
            TASK_EVENTS_SCHEMA, ["category"], [AggregateSpec("sum", "cpu", "totalCpu")]
        ),
        [WindowDefinition.time(60, 1)],
    ),
    "CM2": lambda: Query(
        "CM2",
        FilteredWindows(
            col("eventType").eq(1),
            GroupedAggregation(
                TASK_EVENTS_SCHEMA, ["jobId"], [AggregateSpec("avg", "cpu", "avgCpu")]
            ),
        ),
        [WindowDefinition.time(60, 1)],
    ),
    "SG1": lambda: Query(
        "SG1",
        Aggregation(
            SMART_GRID_SCHEMA, [AggregateSpec("avg", "value", "globalAvgLoad")]
        ),
        [WindowDefinition.time(3600, 1)],
    ),
    "SG2": lambda: Query(
        "SG2",
        GroupedAggregation(
            SMART_GRID_SCHEMA,
            ["plug", "household", "house"],
            [AggregateSpec("avg", "value", "localAvgLoad")],
        ),
        [WindowDefinition.time(3600, 1)],
    ),
    "SG3": lambda: Query(
        "SG3",
        ThetaJoin(
            LOCAL_LOAD_SCHEMA,
            GLOBAL_LOAD_SCHEMA,
            col("localAvgLoad") > col("globalAvgLoad"),
            right_prefix="g_",
        ),
        [WindowDefinition.time(1, 1), WindowDefinition.time(1, 1)],
        input_rates=[16.0, 1.0],
    ),
    "LRB1": lambda: Query(
        "LRB1",
        Projection(
            POS_SPEED_SCHEMA, _lrb_projection_columns(), output_types={"segment": "int"}
        ),
        [None],
    ),
    "LRB2": lambda: Query(
        "LRB2",
        DistinctProjection(
            POS_SPEED_SCHEMA,
            [
                ("vehicle", col("vehicle")),
                ("highway", col("highway")),
                ("lane", col("lane")),
                ("direction", col("direction")),
                ("segment", col("position") / FEET_PER_SEGMENT),
            ],
        ),
        [WindowDefinition.time(30, 1)],
    ),
    "LRB3": lambda: Query(
        "LRB3",
        GroupedAggregation(
            POS_SPEED_SCHEMA,
            ["highway", "direction", "segment"],
            [AggregateSpec("avg", "speed", "avgSpeed")],
            having=col("avgSpeed") < 40.0,
            derived_columns={
                "segment": (col("position") / FEET_PER_SEGMENT, "int")
            },
        ),
        [WindowDefinition.time(300, 1)],
    ),
    "LRB4": lambda: Query(
        "LRB4",
        GroupedAggregation(
            POS_SPEED_SCHEMA,
            ["highway", "direction", "vehicle"],
            [AggregateSpec("count", None, "events")],
        ),
        [WindowDefinition.time(30, 1)],
    ),
}


def _config(execution, fusion="auto"):
    return dict(
        execution=execution,
        task_size_bytes=48 << 10,
        cpu_workers=4,
        queue_capacity=8,
        collect_output=True,
        fusion=fusion,
    )


def fresh_sources(name):
    __, sources = build(name, seed=SEED, tuples_per_second=SMOKE_RATES[name])
    return sources


def run_legacy(name, tasks=TASKS, drain=False):
    """The pre-refactor path: raw engine + hand-constructed operators.

    Fusion is pinned off: this is the frozen pre-fusion oracle, so the
    default-fused public path below is checked against genuinely
    unfused execution.
    """
    engine = SaberEngine(SaberConfig(**_config("sim", fusion="off")))
    query = LEGACY_QUERIES[name]()
    engine.add_query(query, fresh_sources(name))
    report = engine.run(tasks_per_query=tasks)
    if drain:
        report = engine.drain()
    return report.outputs[name]


def run_api(name, execution, tasks=TASKS, drain=False, fusion="auto"):
    """The public path: Stream-built workload query via SaberSession."""
    query, sources = build(name, seed=SEED, tuples_per_second=SMOKE_RATES[name])
    with SaberSession(SaberConfig(**_config(execution, fusion=fusion))) as session:
        handle = session.submit(query, sources=sources)
        session.run(tasks_per_query=tasks)
        if drain:
            session.stop(drain=True)
        return handle.output()


def assert_identical(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.schema.attribute_names == b.schema.attribute_names
    assert len(a) == len(b)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("name", APPLICATION_QUERIES)
def test_api_reproduces_legacy_results_on_both_backends(name):
    legacy = run_legacy(name)
    via_api_sim = run_api(name, "sim")
    via_api_threads = run_api(name, "threads")
    assert_identical(legacy, via_api_sim)
    assert_identical(legacy, via_api_threads)
    # The smoke rates are tuned so windows actually close within the run:
    # an accidentally-empty comparison would prove nothing.
    assert legacy is not None and len(legacy) > 0


#: unfused sim-backend outputs at the processes-leg budget, one run per
#: workload shared across the fusion-matrix parametrisations below.
_UNFUSED_SIM: dict = {}


def _unfused_sim(name):
    if name not in _UNFUSED_SIM:
        _UNFUSED_SIM[name] = run_api(
            name, "sim", tasks=PROCESS_TASKS, drain=True, fusion="off"
        )
    return _UNFUSED_SIM[name]


@pytest.mark.parametrize("execution", ["sim", "threads", "processes"])
@pytest.mark.parametrize("name", APPLICATION_QUERIES)
def test_fused_is_bitwise_identical_to_unfused(name, execution):
    """Fusion acceptance gate: every Table-1 workload, every backend,
    ``fusion="auto"`` ≡ ``fusion="off"`` bitwise (drained, so assembled
    tail windows are covered too).  Ineligible plans (SG3's join) prove
    the no-harm path; CM2-style chains prove the fused kernel."""
    if execution == "processes" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("processes backend needs POSIX fork")
    fused = run_api(name, execution, tasks=PROCESS_TASKS, drain=True, fusion="auto")
    unfused = _unfused_sim(name)
    assert_identical(unfused, fused)
    assert unfused is not None and len(unfused) > 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="processes backend needs POSIX fork",
)
@pytest.mark.parametrize("name", APPLICATION_QUERIES)
def test_api_reproduces_legacy_results_on_processes(name):
    """Forked workers over shared-memory buffers ≡ the sim oracle,
    drained, on every Table-1 application query (see PROCESS_TASKS)."""
    legacy = run_legacy(name, tasks=PROCESS_TASKS, drain=True)
    via_processes = run_api(name, "processes", tasks=PROCESS_TASKS, drain=True)
    assert_identical(legacy, via_processes)
    # An accidentally-empty comparison would prove nothing.
    assert legacy is not None and len(legacy) > 0
