"""SABER core: queries, tasks, dispatching, scheduling, execution, results."""

from .query import Query, StreamFunction, default_stream_function
from .task import BatchRef, QueryTask
from .dispatcher import Dispatcher, Source
from .scheduler import (
    CPU,
    GPU,
    PROCESSORS,
    FcfsScheduler,
    HlsScheduler,
    Scheduler,
    SchedulerState,
    StaticScheduler,
    ThroughputMatrix,
)
from .result_stage import EmittedResult, ResultStage
from .engine import Report, SaberConfig, SaberEngine
from .fusion import FusedKernel, fuse_operator, fusion_eligible
from .cql import compile_statement

__all__ = [
    "Query",
    "StreamFunction",
    "default_stream_function",
    "QueryTask",
    "BatchRef",
    "Dispatcher",
    "Source",
    "CPU",
    "GPU",
    "PROCESSORS",
    "Scheduler",
    "SchedulerState",
    "HlsScheduler",
    "FcfsScheduler",
    "StaticScheduler",
    "ThroughputMatrix",
    "ResultStage",
    "EmittedResult",
    "SaberConfig",
    "SaberEngine",
    "Report",
    "FusedKernel",
    "fuse_operator",
    "fusion_eligible",
    "compile_statement",
]
