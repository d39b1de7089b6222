"""Independent window-by-window numpy reference for the benchmark's queries.

The engine is checked from outside: this module knows the *queries*
(what σ∘π, a grouped aggregate, a plain aggregate and a θ-join mean over
one window) but none of the engine's machinery — no operators, no
dispatcher, no result stage.  Its only engine import is
:class:`~repro.windows.definition.WindowDefinition`, for window extents.

Inputs are the generator's blocks (structured numpy arrays the
:class:`~saberbench.workloads.LoopSource` loops over); the stream's
tuple ``g`` is block row ``g % len(block)`` with ``timestamp == g``.
Outputs are compared column by column, positionally: integers exactly,
floats to ``rtol=1e-6`` (the engine emits aggregates as float32, and its
prefix sums and per-fragment merges add the values in another order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.windows.definition import WindowDefinition

__all__ = [
    "ChunkReservoir",
    "Reference",
    "expected",
    "emitted",
    "closing_windows",
    "matches",
    "check",
]

#: seed-chosen windows checked per query, besides the first and the last;
#: also the number of output chunks kept to choose them from.
SAMPLED_WINDOWS = 64

_FLOAT_RTOL = 1e-6


@dataclass(frozen=True)
class Reference:
    """What one query computes per window, stated without the engine.

    ``kind`` is ``"filter"`` (σ∘π: per-tuple output; the window is only
    the unit of checking), ``"groupby"``, ``"aggregate"`` or ``"join"``.
    """

    kind: str
    window: WindowDefinition
    #: conjuncts ``column < bound`` a row must pass ("filter").
    where: "tuple[tuple[str, int], ...]" = ()
    #: output columns ``(name, dtype)`` of a "filter".
    project: "tuple[tuple[str, str], ...]" = ()
    #: group key column ("groupby").
    key: str = ""
    #: aggregated column ("groupby", "aggregate").
    value: str = ""
    #: aggregate functions, in output order ("groupby", "aggregate").
    functions: "tuple[str, ...]" = ()
    #: join predicate ``left[join_column] % m == right[join_column] % m``.
    join_column: str = ""
    join_modulus: int = 0


class ChunkReservoir:
    """The output chunks kept for checking: first, latest and a seeded sample.

    A uniform reservoir (Algorithm R) of :data:`SAMPLED_WINDOWS` chunks
    over everything offered, so what a run holds on to for the oracle
    stays the same size however many chunks a faster engine emits —
    ``peak_rss_mib`` must not rise with throughput.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._first: "tuple | None" = None
        self._latest: "tuple | None" = None
        self._sample: "list[tuple]" = []
        self._offered = 0

    def offer(self, task: int, chunk) -> None:
        item = (task, chunk)
        if self._first is None:
            self._first = item
        self._latest = item
        if len(self._sample) < SAMPLED_WINDOWS:
            self._sample.append(item)
        else:
            slot = self._rng.randrange(self._offered + 1)
            if slot < SAMPLED_WINDOWS:
                self._sample[slot] = item
        self._offered += 1

    def chunks(self) -> dict:
        """``task id → chunk`` of everything kept."""
        if self._first is None:
            return {}
        return dict([*self._sample, self._first, self._latest])


def _window_rows(block: np.ndarray, start: int, stop: int) -> "tuple[np.ndarray, np.ndarray]":
    """Stream tuples ``[start, stop)``: their timestamps and block rows."""
    index = np.arange(start, stop, dtype=np.int64)
    return index, block[index % len(block)]


def _aggregate(function: str, values: np.ndarray) -> float:
    if function == "count":
        return float(len(values))
    if function == "sum":
        return float(values.sum())
    if function == "avg":
        return float(values.sum() / len(values))
    if function == "min":
        return float(values.min())
    if function == "max":
        return float(values.max())
    raise ValueError(f"oracle has no aggregate {function!r}")


def expected(ref: Reference, blocks: "list[np.ndarray]", w: int) -> "list[np.ndarray]":
    """Output columns window ``w`` must produce, in schema order."""
    start = w * ref.window.slide
    stop = start + ref.window.size
    ts, rows = _window_rows(blocks[0], start, stop)
    if ref.kind == "filter":
        keep = np.ones(len(rows), dtype=bool)
        for column, bound in ref.where:
            keep &= rows[column] < bound
        out = []
        for name, dtype in ref.project:
            source = ts if name == "timestamp" else rows[name]
            out.append(source[keep].astype(dtype))
        return out
    if ref.kind == "groupby":
        keys, inverse = np.unique(rows[ref.key].astype(np.int64), return_inverse=True)
        values = rows[ref.value].astype(np.float64)
        out = [np.full(len(keys), stop - 1, dtype=np.int64), keys]
        for function in ref.functions:
            out.append(
                np.array(
                    [_aggregate(function, values[inverse == g]) for g in range(len(keys))]
                )
            )
        return out
    if ref.kind == "aggregate":
        values = rows[ref.value].astype(np.float64)
        out = [np.array([stop - 1], dtype=np.int64)]
        out += [np.array([_aggregate(f, values)]) for f in ref.functions]
        return out
    if ref.kind == "join":
        r_ts, r_rows = _window_rows(blocks[1], start, stop)
        m = ref.join_modulus
        hit = (rows[ref.join_column] % m)[:, None] == (r_rows[ref.join_column] % m)[None, :]
        li, ri = np.nonzero(hit)  # row-major: left-major pair order
        names = [n for n in rows.dtype.names if n != "timestamp"]
        out = [ts[li]] + [rows[n][li] for n in names]
        out += [r_ts[ri]] + [r_rows[n][ri] for n in names]
        return out
    raise ValueError(f"oracle has no query kind {ref.kind!r}")


def emitted(ref: Reference, columns: "list[np.ndarray]", w: int) -> "list[np.ndarray]":
    """The rows of an output chunk that belong to window ``w``.

    Column 0 is the output timestamp: per-tuple for "filter" and "join"
    (the left tuple's), the window's last tuple for the aggregates — and
    timestamps are global tuple indices, so they name the window.
    """
    start = w * ref.window.slide
    last = start + ref.window.size - 1
    ts = np.asarray(columns[0])
    if ref.kind in ("filter", "join"):
        mine = (ts >= start) & (ts <= last)
    else:
        mine = ts == last
    return [np.asarray(c)[mine] for c in columns]


def closing_windows(ref: Reference, task: int, task_tuples: int) -> range:
    """Windows whose last tuple lies in task ``task`` — the chunk that
    task emits is where their rows must appear."""
    size, slide = ref.window.size, ref.window.slide
    lo = task * task_tuples
    hi = lo + task_tuples
    first = max(0, -(-(lo - size + 1) // slide))
    last = (hi - size) // slide
    return range(first, last + 1)


def matches(want: "list[np.ndarray]", got: "list[np.ndarray]") -> bool:
    """Positional column equality: exact for integers, 1e-6 for floats."""
    if len(want) != len(got):
        return False
    for a, b in zip(want, got):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            if not np.allclose(a, b, rtol=_FLOAT_RTOL, atol=0.0):
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def check(
    ref: Reference,
    blocks: "list[np.ndarray]",
    kept: "dict[int, list[np.ndarray]]",
    task_tuples: int,
    seed: int,
) -> "tuple[int, int]":
    """Check kept output chunks (``task id → columns``) against the oracle.

    Checks the first window of the first kept chunk, the last closed
    window of the last one, and up to :data:`SAMPLED_WINDOWS` windows
    chosen by ``seed`` among all the kept chunks hold.  Returns
    ``(windows checked, windows mismatching or missing)``.
    """
    candidates = [
        (task, w) for task in sorted(kept) for w in closing_windows(ref, task, task_tuples)
    ]
    if not candidates:
        return 0, 0
    chosen = {0, len(candidates) - 1}
    rng = np.random.default_rng(seed)
    count = min(SAMPLED_WINDOWS, len(candidates))
    chosen.update(int(i) for i in rng.choice(len(candidates), size=count, replace=False))
    failed = 0
    for i in sorted(chosen):
        task, w = candidates[i]
        if not matches(expected(ref, blocks, w), emitted(ref, kept[task], w)):
            failed += 1
    return len(chosen), failed
