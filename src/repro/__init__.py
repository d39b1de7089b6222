"""SABER reproduction: window-based hybrid stream processing.

A Python reproduction of *SABER: Window-Based Hybrid Stream Processing
for Heterogeneous Architectures* (Koliousis et al., SIGMOD 2016).  See
``docs/architecture.md`` for the system inventory and
``tests/test_paper_shapes.py`` for the paper shapes the cost model
reproduces.

Quickstart — the public surface is :mod:`repro.api` (fluent ``Stream``
builder + long-lived ``SaberSession``)::

    from repro import SaberSession, Stream, agg, col
    from repro.workloads import SyntheticSource

    source = SyntheticSource(seed=7)
    query = (
        Stream.source(source)
        .window(rows=1024, slide=256)
        .group_by("a2", agg.sum("a1", "total"))
        .build("totals")
    )
    with SaberSession(cpu_workers=8) as session:
        handle = session.submit(query, sources=[source])
        report = session.run(tasks_per_query=64)
        print(report.throughput_bytes / 1e9, "GB/s")
        print(handle.output())

The same query in the CQL dialect goes through ``session.sql(...)``
after ``session.register_stream("S", source)``.  A hand-built ``Query``
is the escape hatch for operators the builder does not express
(``session.submit(query, sources=...)``) — see ``docs/api.md``.
"""

from .errors import SaberError
from .relational import (
    Attribute,
    CircularTupleBuffer,
    Schema,
    TupleBatch,
    col,
    conjunction,
    disjunction,
)
from .windows import FragmentState, WindowDefinition, WindowSet, assign_windows
from .operators import (
    AggregateSpec,
    Aggregation,
    DistinctProjection,
    FilteredWindows,
    GroupedAggregation,
    Projection,
    Selection,
    ThetaJoin,
    WindowUdf,
    partition_join,
)
from .core import (
    CPU,
    GPU,
    Query,
    Report,
    SaberConfig,
    SaberEngine,
    StreamFunction,
    compile_statement,
)
from .hardware import DEFAULT_SPEC, CpuModel, GpuModel, HardwareSpec
from .api import QueryHandle, SaberSession, Stream, agg
from .io import (
    BackpressurePolicy,
    CallbackSink,
    FileReplaySource,
    FileSink,
    MemorySink,
    MemorySource,
    PushHandle,
    PushSource,
    ReplayClock,
    SinkConnector,
    SocketSink,
    SocketSource,
    SourceConnector,
    write_batch,
)

__version__ = "1.0.0"

__all__ = [
    "SaberError",
    "Schema",
    "Attribute",
    "TupleBatch",
    "CircularTupleBuffer",
    "col",
    "conjunction",
    "disjunction",
    "WindowDefinition",
    "WindowSet",
    "FragmentState",
    "assign_windows",
    "AggregateSpec",
    "Aggregation",
    "GroupedAggregation",
    "Projection",
    "Selection",
    "ThetaJoin",
    "DistinctProjection",
    "FilteredWindows",
    "WindowUdf",
    "partition_join",
    "Query",
    "StreamFunction",
    "SaberEngine",
    "SaberConfig",
    "Report",
    "CPU",
    "GPU",
    "compile_statement",
    "Stream",
    "agg",
    "SaberSession",
    "QueryHandle",
    "BackpressurePolicy",
    "SourceConnector",
    "SinkConnector",
    "MemorySource",
    "MemorySink",
    "CallbackSink",
    "PushSource",
    "PushHandle",
    "FileReplaySource",
    "FileSink",
    "ReplayClock",
    "SocketSource",
    "SocketSink",
    "write_batch",
    "HardwareSpec",
    "DEFAULT_SPEC",
    "CpuModel",
    "GpuModel",
    "__version__",
]
