"""Performance accounting (virtual or wall-clock time).

Collects the quantities the paper reports: processing throughput
(bytes/s and tuples/s), end-to-end latency, per-processor contribution
splits (Fig. 7), and time series of throughput (Fig. 16).  The sim
backend records virtual times; the real backends record wall-clock
times from concurrent workers, so recording is internally locked.

This is the engine's one per-task accounting site: the running
per-(query, processor) totals and the per-query result-latency
histogram kept here are exact for the whole run and are what
:func:`~repro.metrics.engine_samples` exports; the per-task
:class:`TaskRecord` history behind the derived steady-state metrics is
bounded to the most recent :data:`RECORDS_KEPT` tasks.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..analysis.lockdep import make_lock
from .registry import Histogram

__all__ = ["Measurements", "TaskRecord", "RECORDS_KEPT"]

#: task records retained for the derived metrics (a long-lived session
#: would otherwise grow ~280 bytes per completed task forever).
RECORDS_KEPT = 65_536


@dataclass
class TaskRecord:
    """One completed query task's accounting entry."""

    query: str
    processor: str
    created: float
    completed: float
    input_bytes: int
    input_tuples: int


class Measurements:
    """Accumulates task records and derives the paper's metrics."""

    def __init__(self) -> None:
        #: the most recent :data:`RECORDS_KEPT` completed tasks.
        self.records: "deque[TaskRecord]" = deque(maxlen=RECORDS_KEPT)
        #: result latency (emit time − data dispatch time) per query.
        self.latency = Histogram(
            "saber_result_latency_seconds",
            "Result latency: chunk emit time minus task dispatch time.",
        )
        #: (query, processor) -> [tasks, input bytes, input tuples].
        self._totals: "dict[tuple[str, str], list[int]]" = {}
        self._lock = make_lock("metrics.measurements.Measurements._lock")

    def record_task(self, record: TaskRecord) -> None:
        """Account for one completed task (any worker thread)."""
        with self._lock:
            self.records.append(record)
            totals = self._totals.get((record.query, record.processor))
            if totals is None:
                totals = self._totals[record.query, record.processor] = [0, 0, 0]
            totals[0] += 1
            totals[1] += record.input_bytes
            totals[2] += record.input_tuples

    def record_latency(self, query: str, emit_time: float, data_time: float) -> None:
        """Observe one output chunk's result latency for ``query``."""
        self.latency.observe(emit_time - data_time, query=query)

    def task_totals(self) -> "dict[tuple[str, str], tuple[int, int, int]]":
        """Whole-run ``(tasks, input bytes, input tuples)`` per
        ``(query, processor)`` — exact however many records were kept."""
        with self._lock:
            return {key: tuple(totals) for key, totals in self._totals.items()}

    # -- throughput -----------------------------------------------------------

    def _steady(
        self, warmup_fraction: float, drain_fraction: float = 0.1
    ) -> "list[TaskRecord]":
        """Records completing in the steady window.

        Both the warm-up ramp *and* the drain tail are excluded: once the
        dispatcher stops, stragglers on the slower processor would
        otherwise dominate short runs while the other processor idles.
        """
        with self._lock:
            records = list(self.records)
        if not records:
            return []
        completions = sorted(r.completed for r in records)
        lo = completions[int(len(completions) * warmup_fraction)]
        hi_index = min(
            len(completions) - 1,
            int(len(completions) * (1.0 - drain_fraction)),
        )
        hi = completions[hi_index]
        if hi <= lo:
            return [r for r in records if r.completed >= lo]
        return [r for r in records if lo <= r.completed <= hi]

    @staticmethod
    def _rate(steady: "list[TaskRecord]", field: str) -> float:
        """Sum of ``field`` over ``steady`` per second of its span."""
        if len(steady) < 2:
            return 0.0
        start = min(r.completed for r in steady)
        end = max(r.completed for r in steady)
        if end <= start:
            return 0.0
        return sum(getattr(r, field) for r in steady) / (end - start)

    def throughput_bytes(self, warmup_fraction: float = 0.2) -> float:
        """Steady-state processing throughput in bytes/second."""
        return self._rate(self._steady(warmup_fraction), "input_bytes")

    def throughput_tuples(self, warmup_fraction: float = 0.2) -> float:
        """Steady-state processing throughput in tuples/second."""
        return self._rate(self._steady(warmup_fraction), "input_tuples")

    def processor_share(self, warmup_fraction: float = 0.2) -> "dict[str, float]":
        """Fraction of processed bytes per processor (Fig. 7 split)."""
        steady = self._steady(warmup_fraction)
        total = sum(r.input_bytes for r in steady)
        if not total:
            return {}
        shares: dict[str, float] = {}
        for r in steady:
            shares[r.processor] = shares.get(r.processor, 0.0) + r.input_bytes
        return {p: b / total for p, b in shares.items()}

    def query_throughput_bytes(self, query: str, warmup_fraction: float = 0.2) -> float:
        """Steady-state bytes/second of one query's tasks."""
        steady = [r for r in self._steady(warmup_fraction) if r.query == query]
        return self._rate(steady, "input_bytes")

    # -- latency ---------------------------------------------------------------

    def latency_mean(self) -> float:
        """Mean result latency over every chunk of every query."""
        samples = self.latency.samples().values()
        count = sum(s["count"] for s in samples)
        return sum(s["sum"] for s in samples) / count if count else 0.0

    # -- time series (Fig. 16) ---------------------------------------------------

    def throughput_series(
        self, bucket_seconds: float, processor: "str | None" = None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(bucket start times, bytes/s per bucket), optionally one processor."""
        with self._lock:
            every = list(self.records)
        records = [r for r in every if processor is None or r.processor == processor]
        if not records:
            return np.zeros(0), np.zeros(0)
        end = max(r.completed for r in every)
        edges = np.arange(0.0, end + bucket_seconds, bucket_seconds)
        totals = np.zeros(len(edges) - 1)
        times = sorted((r.completed, r.input_bytes) for r in records)
        completed = [t for t, __ in times]
        for i in range(len(edges) - 1):
            lo = bisect.bisect_left(completed, edges[i])
            hi = bisect.bisect_left(completed, edges[i + 1])
            totals[i] = sum(b for __, b in times[lo:hi]) / bucket_seconds
        return edges[:-1], totals
