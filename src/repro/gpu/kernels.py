"""SIMD-style GPGPU operator kernels (§5.4).

Each streaming operator has a GPGPU implementation that follows the
paper's OpenCL kernels algorithmically:

* **selection** — every atomic predicate is evaluated for every tuple
  (SIMD lanes do not short-circuit); survivors are compacted to
  contiguous output by scan-compaction of the selection vector;
* **aggregation** — one work group per window fragment; threads reduce
  pairs of tuples, forming a reduction tree (:func:`reduction_tree`);
* **GROUP-BY** — per-fragment open-addressing hash table with the same
  hash function as the CPU path (:mod:`repro.gpu.hashtable`); the batch
  path uses the vectorised compacted-table equivalent, and the table
  object itself is exercised by unit tests for equivalence;
* **join** — the two-step count-then-compact technique borrowed from
  in-memory column stores [32]: match counts per tuple, a scan to obtain
  write offsets, then compaction — here the one task-level kernel of
  :mod:`repro.operators.join` with :func:`~repro.gpu.jit.compact_mask`
  over each block's row-major candidate lanes, which orders survivors
  exactly as the per-tuple offsets would.

The compaction primitive comes from :mod:`repro.gpu.jit`
(numba-compiled where available, numpy otherwise; both exact).

:func:`gpu_kernel` is the one dispatch every GPGPU slot goes through —
directly for the simulated device and the plain thread/process GPGPU
workers, behind the transfer stage for
:class:`~repro.gpu.accelerator.AcceleratorDevice`.  Kernels return the
exact same :class:`~repro.operators.base.BatchResult` as the CPU
implementations (property-tested); only the *cost* differs.
Window-result assembly always runs on a CPU worker thread, as in the
paper.
"""

from __future__ import annotations

import numpy as np

from ..operators.base import BatchResult, Operator, StreamSlice
from ..operators.join import ThetaJoin
from ..operators.selection import Selection
from . import jit


def reduction_tree(values: np.ndarray, combine: str = "sum") -> float:
    """Pairwise tree reduction, as GPGPU work-group threads perform it.

    Each level halves the live lane count: thread *i* combines lanes
    ``2i`` and ``2i+1``.  Produces bitwise-identical results to the CPU
    for sum over floats only up to reordering — tests use tolerances.
    """
    ops = {"sum": np.add, "min": np.minimum, "max": np.maximum}
    if combine not in ops:
        raise ValueError(f"unsupported reduction {combine!r}")
    lanes = np.asarray(values, dtype=np.float64).copy()
    if len(lanes) == 0:
        return {"sum": 0.0, "min": np.inf, "max": -np.inf}[combine]
    op = ops[combine]
    while len(lanes) > 1:
        if len(lanes) % 2:
            lanes = np.concatenate([lanes, lanes[-1:]]) if combine != "sum" else (
                np.concatenate([lanes, [0.0]])
            )
        lanes = op(lanes[0::2], lanes[1::2])
    return float(lanes[0])


def gpu_selection(operator: Selection, inputs: "list[StreamSlice]") -> BatchResult:
    """Scan-compacted selection kernel.

    Both compaction paths of :func:`repro.gpu.jit.compact_mask` are
    exact, so the output is bitwise identical to the CPU operator's.
    """
    slice_ = inputs[0]
    batch = slice_.batch
    mask = operator.predicate.evaluate(batch)  # all lanes, no short-circuit
    survivors = jit.compact_mask(mask)
    out = batch.take(survivors)
    selectivity = float(mask.mean()) if len(batch) else 0.0
    return BatchResult(complete=out, stats={"selectivity": selectivity})


def gpu_join(operator: ThetaJoin, inputs: "list[StreamSlice]") -> BatchResult:
    """Count-then-compact join: the operator's task-level kernel, with
    :func:`~repro.gpu.jit.compact_mask` — the whole count / scan / write
    sequence over the row-major candidate lanes — compacting each
    block's predicate mask, so survivors keep left-major order."""
    return operator.join_task(inputs, jit.compact_mask)


def gpu_kernel(operator: Operator, inputs: "list[StreamSlice]") -> BatchResult:
    """Run a query task's batch operator function through the GPGPU path.

    Operators without a specialised kernel (projection's arithmetic map
    is identical on both processors; aggregation's and GROUP-BY's shared
    vectorised implementation never re-orders a float reduction — the
    compacted group table is the vectorised equivalent of
    :class:`~repro.gpu.hashtable.OpenAddressingTable`) fall back to the
    CPU implementation — the *results* are defined to be
    processor-independent, and tests enforce it.
    """
    if isinstance(operator, Selection):
        return gpu_selection(operator, inputs)
    if isinstance(operator, ThetaJoin):
        return gpu_join(operator, inputs)
    return operator.process_batch(inputs)
