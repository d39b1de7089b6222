"""Hardware calibration constants.

Every constant is an *anchor to a number or shape in the paper* (§6.1
set-up, Figs. 7–16).  Absolute values are chosen so that the analytic
models land in the paper's ballpark; the claims we reproduce are the
relative shapes (who wins, where crossovers fall), which derive from the
structure of the models rather than the exact constants.

Calibration anchors:

* 16 physical CPU cores; 15 worker threads + 1 GPGPU-managing worker
  (§6.1, Fig. 14's linear scaling to 16 then plateau).
* Dispatcher bandwidth ≈ 8 GB/s — SELECT_n is dispatcher-bound for
  n ≤ 4 at ≈8 GB/s (Fig. 10a).
* CPU selection ≈ 480/(10 + 7n) GB/s aggregate over 15 workers,
  crossing the GPGPU's ≈4.3 GB/s between n = 8 and n = 16 (Fig. 10a).
* GPGPU data path: pinned-memory copy ≈ 5 GB/s per direction and PCIe
  8 GB/s full duplex with 10 µs DMA latency [43] — a flat ≈4.3 GB/s
  selection ceiling (Fig. 10a) once the 20 µs kernel launch amortises.
* PROJ6* (600 arithmetic ops/tuple): CPU ≈ 0.3 GB/s vs GPGPU ≈ 1.5 GB/s
  (§6.6's 292 MB/s vs 1,475 MB/s W1 anchor).
* AGG with GROUP-BY on CPU ≈ 2.4 GB/s (§6.6's 2,362 MB/s anchor).
* Esper-like baseline ≈ 2 orders of magnitude below SABER (Fig. 7).
* Spark-like micro-batch scheduling overhead ≈ 100 ms (Fig. 1 collapse,
  §6.2 "limited due to scheduling overhead").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareSpec:
    """All tunable constants of the simulated server."""

    # -- topology -----------------------------------------------------------
    physical_cores: int = 16
    default_cpu_workers: int = 15

    # -- data paths (bytes/second) -------------------------------------------
    dispatch_bandwidth: float = 8e9
    #: fixed per-task dispatching cost (task object creation, queue
    #: insertion, identifier assignment).  This is what makes small query
    #: tasks inefficient and produces Fig. 12/13's throughput ramp that
    #: plateaus around 1 MB tasks.
    dispatch_task_overhead: float = 20e-6
    network_bandwidth: float = 1.25e9       # 10 GbE ingest
    heap_copy_bandwidth: float = 5e9        # Java heap <-> pinned memory

    # -- CPU per-tuple costs (seconds) -----------------------------------------
    cpu_tuple_base: float = 10e-9           # touch + lazy-deserialise a tuple
    cpu_arithmetic_op: float = 2e-9         # one arithmetic expression node
    cpu_predicate: float = 7e-9             # one comparison (short-circuited)
    cpu_aggregate: float = 6e-9             # incremental accumulator update
    #: hash-table probe + update per tuple; anchors §6.6's 2,362 MB/s for
    #: AGG_cnt GROUP-BY1 on the CPU (15 workers x 32 B / ~186 ns).
    cpu_group_hash: float = 170e-9
    cpu_join_pair: float = 7e-9             # per candidate pair bookkeeping
    cpu_join_pair_predicate: float = 2e-9   # per extra join predicate per pair
    cpu_fragment_overhead: float = 250e-9   # per window fragment bookkeeping
    cpu_result_stage: float = 20e-6         # per-task result-stage work
    #: slowdown per excess worker beyond the physical cores (Fig. 14 plateau)
    cpu_oversubscription_penalty: float = 0.03

    # -- GPGPU kernel costs (seconds; `*_ops` in core ops of gpu_seconds_per_core_op) --
    #: the evaluation GPGPU, an NVIDIA Quadro K5200 (§6.1): its cores
    #: share each task's kernel work, at this sustained rate per core op.
    gpu_cores: int = 2304
    gpu_seconds_per_core_op: float = 1.0e-9
    #: fixed kernel-launch overhead per query task (driver + dispatch).
    gpu_kernel_launch_seconds: float = 20e-6
    gpu_tuple_base_ops: float = 4.0         # load/deserialise ops per tuple
    gpu_aggregate_ops: float = 6.0          # reduction-tree ops per tuple
    #: projection arithmetic reads/writes tuple attributes in global
    #: memory, so each expression costs far more than a register op;
    #: anchors §6.6's 1,475 MB/s for PROJ6* on the GPGPU
    #: (32,768 tuples x 600 exprs x 83 ns / 2,304 cores ~ 710 us/task).
    gpu_memory_op: float = 83e-9
    #: serialised atomic update on a contended hash slot; per-tuple group
    #: cost is this divided by the live group count — GROUP-BY1 fully
    #: serialises, anchoring §6.6's 372 MB/s GPGPU figure.
    gpu_atomic_seconds: float = 100e-9
    gpu_join_pair_ops: float = 2.0          # ops per candidate pair/predicate
    #: per-work-group dispatch cost for stateful operators (one work group
    #: per window fragment, §5.4); anchors Fig. 11b's ≈0.4 GB/s GPGPU
    #: floor at single-tuple slides.
    gpu_fragment_launch: float = 0.15e-6
    #: CPU-side window-boundary computation for GPGPU tasks (Fig. 12c):
    #: for joins the host pairs the two streams' window extents with a
    #: nested scan over the task's tuples, so the serial cost grows
    #: quadratically with the task's tuple count — the mechanism behind
    #: the GPGPU-only JOIN collapse beyond 512 KB tasks while 1 MB tasks
    #: with small (4 KB) windows remain viable (Fig. 10b).
    gpu_boundary_per_window: float = 2e-6
    gpu_boundary_join_tuples_sq: float = 3e-12

    # -- baseline engines -----------------------------------------------------
    #: per-event cost of a globally synchronised CEP engine: ordering lock,
    #: per-event object allocation and listener dispatch.  2.5 µs/event
    #: (~400 k events/s single-domain) puts the baseline two orders of
    #: magnitude below SABER, as Fig. 7 reports for Esper.
    esper_tuple_overhead: float = 2.5e-6
    spark_batch_overhead: float = 0.1       # per-micro-batch scheduling
    #: aggregate micro-batch processing rate (tuples/s across the cluster)
    #: anchoring Fig. 1's ≈1.7 M tuples/s plateau at a 9 M-tuple slide.
    spark_process_rate: float = 1.6e6
    #: Fig. 9's tumbling-window comparison runs simpler per-tuple work, so
    #: the effective rate is higher (≈8 M tuples/s anchors the ≈6× gap).
    spark_tumbling_process_rate: float = 8.0e6


DEFAULT_SPEC = HardwareSpec()
