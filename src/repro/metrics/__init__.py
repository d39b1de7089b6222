"""The one set of books: instruments, collectors and run accounting.

A neutral package — it imports nothing from the engine, the session API,
the connectors, the serving daemon or the cluster — that all of them
report through.  Every number is kept once, by the thread that owns the
state next to it; ``/metrics``, ``stats`` frames, the ``--stats`` line
and ``Report`` all *read* it (see :mod:`repro.metrics.registry`).
"""

from .engine import engine_samples
from .measurements import RECORDS_KEPT, Measurements, TaskRecord
from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Measurements",
    "TaskRecord",
    "RECORDS_KEPT",
    "engine_samples",
]
