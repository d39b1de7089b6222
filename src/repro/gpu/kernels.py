"""SIMD-style GPGPU operator kernels (§5.4).

Each streaming operator has a GPGPU implementation that follows the
paper's OpenCL kernels algorithmically:

* **selection** — every atomic predicate is evaluated for every tuple
  (SIMD lanes do not short-circuit); survivors are compacted to
  contiguous output by scan-compaction of the selection vector;
* **aggregation** (GROUP-BY over zero or more keys) — the paper
  reduces each window fragment in a work group (a reduction tree; a
  per-fragment open-addressing hash table for groups).  Here it runs
  the CPU operator's vectorised implementation, whose sums equal a
  sequential fold per fragment bit for bit (prefix differences only
  under an exactness certificate) — that is what keeps the two
  processors bitwise identical;
* **join** — the two-step count-then-compact technique borrowed from
  in-memory column stores [32]: match counts per tuple, a scan to obtain
  write offsets, then compaction — which is how the one task-level
  kernel of :mod:`repro.operators.join` already works on every
  processor (``np.flatnonzero`` over each block's row-major candidate
  lanes orders survivors exactly as the per-tuple offsets would), so
  the join has no kernel of its own here.

:func:`gpu_kernel` is the one dispatch every GPGPU slot goes through —
directly for the simulated device, behind the transfer stage for
:class:`~repro.gpu.accelerator.AcceleratorDevice` on the threads and
processes substrates.  Kernels return the
exact same :class:`~repro.operators.base.BatchResult` as the CPU
implementations (property-tested); only the *cost* differs.
Window-result assembly always runs on a CPU worker thread, as in the
paper.
"""

from __future__ import annotations

import numpy as np

from ..operators.base import BatchResult, Operator, StreamSlice
from ..operators.selection import Selection


def gpu_selection(operator: Selection, inputs: "list[StreamSlice]") -> BatchResult:
    """Scan-compacted selection kernel: select vector → compact → gather.

    Bitwise identical to the CPU operator's boolean ``filter``.
    """
    slice_ = inputs[0]
    batch = slice_.batch
    mask = operator.predicate.evaluate(batch)  # all lanes, no short-circuit
    survivors = np.flatnonzero(mask)
    out = batch.take(survivors)
    selectivity = len(survivors) / len(batch) if len(batch) else 0.0
    return BatchResult(complete=out, stats={"selectivity": selectivity})


def gpu_kernel(operator: Operator, inputs: "list[StreamSlice]") -> BatchResult:
    """Run a query task's batch operator function through the GPGPU path.

    Operators without a specialised kernel (projection's arithmetic map
    is identical on both processors; aggregation's sums are bitwise a
    sequential fold per fragment on every path; the join's task kernel
    is count-then-compact everywhere) fall
    back to the CPU implementation — the *results* are defined to be
    processor-independent, and tests enforce it.
    """
    if isinstance(operator, Selection):
        return gpu_selection(operator, inputs)
    return operator.process_batch(inputs)
