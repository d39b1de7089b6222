"""Esper-like baseline: a globally synchronised per-tuple CEP engine.

The paper attributes Esper's two-orders-lower throughput (Fig. 7) to the
synchronisation overhead of its multi-threaded implementation and the
lack of GPGPU acceleration: every event passes through one ordering
domain, paying lock acquisition, per-event object allocation and listener
dispatch.  We model exactly that mechanism: tuples are processed one at a
time within a single synchronisation domain, so added worker threads do
not scale, and each tuple pays a fixed engine overhead on top of the
operator's per-tuple work.

The engine still produces *correct* results — it reuses the operator's
batch function over slide-aligned mini-batches and the result stage's
assembly — so tests can compare its output against SABER's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.query import Query
from ..core.result_stage import ResultStage
from ..core.task import QueryTask
from ..hardware.cpu import CpuModel
from ..hardware.specs import DEFAULT_SPEC, HardwareSpec
from ..operators.base import StreamSlice
from ..relational.tuples import TupleBatch
from ..windows.assigner import WindowSet, assign_windows


@dataclass
class EsperReport:
    """Outcome of an Esper-like run (virtual time)."""

    tuples_processed: int
    bytes_processed: int
    elapsed_seconds: float
    output: "TupleBatch | None"

    @property
    def throughput_bytes(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.bytes_processed / self.elapsed_seconds

    @property
    def throughput_tuples(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.tuples_processed / self.elapsed_seconds


class EsperLikeEngine:
    """Single-synchronisation-domain per-tuple stream engine."""

    def __init__(self, spec: HardwareSpec = DEFAULT_SPEC) -> None:
        self.spec = spec
        self._cpu = CpuModel(spec)

    def run(
        self,
        query: Query,
        sources: "list",
        total_tuples: int,
        chunk_tuples: int = 4096,
        collect_output: bool = False,
    ) -> EsperReport:
        """Process ``total_tuples`` per input stream.

        Results are computed chunk-wise for speed, but *charged* per
        tuple: elapsed time = tuples × (engine overhead + operator cost),
        with no parallel speed-up (the single ordering domain).
        """
        elapsed = 0.0
        tuples = 0
        size_bytes = 0
        stage = ResultStage(query)
        profile = query.operator.cost_profile()
        cursors = [0] * len(sources)
        prev_ts: "list[int | None]" = [None] * len(sources)
        processed = 0
        while processed < total_tuples:
            n = min(chunk_tuples, total_tuples - processed)
            slices = []
            for i, source in enumerate(sources):
                batch = source.next_tuples(n)
                window = query.windows[i]
                if window is None:
                    windows = WindowSet.empty()
                else:
                    ts = batch.timestamps if batch.schema.has_timestamp else None
                    windows = assign_windows(
                        window, cursors[i], cursors[i] + n, ts, prev_ts[i]
                    )
                if batch.schema.has_timestamp and len(batch):
                    prev_ts[i] = int(batch.timestamps[-1])
                cursors[i] += n
                slices.append(StreamSlice(batch, windows, cursors[i] - n))
            result = query.operator.process_batch(slices)
            if collect_output:
                task = QueryTask(query, processed // chunk_tuples, [], 0.0, 0)
                stage.submit(task, result, 0.0)
            # Per-tuple charging: lock + dispatch + the operator's work,
            # with no short-circuit benefit lost (same CPU cost model),
            # and no parallelism.
            chunk_size = sum(s.batch.size_bytes for s in slices)
            chunk_tuple_count = sum(len(s.batch) for s in slices)
            op_cost = self._cpu.task_seconds(profile, chunk_tuple_count, result.stats)
            elapsed += op_cost + chunk_tuple_count * self.spec.esper_tuple_overhead
            tuples += chunk_tuple_count
            size_bytes += chunk_size
            processed += n
        return EsperReport(tuples, size_bytes, elapsed, stage.output())
