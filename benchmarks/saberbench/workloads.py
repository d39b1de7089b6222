"""The six workloads: seeded inputs, queries and references.

Everything a workload feeds the engine lives here: the seeded input
generator, the looping source that serves those inputs forever, the
engine queries, and — per query — the :class:`~saberbench.oracle.Reference` the output is checked
against.  ``--seed`` reaches only :func:`synthetic_block` /
:func:`serve_block`; the engine sees generated tuples, never the seed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch
from repro.windows.definition import WindowDefinition
from repro.workloads.synthetic import (
    SYNTHETIC_SCHEMA,
    VALUE_RANGE,
    agg_query,
    groupby_query,
    join_query,
    select_project_query,
    select_query,
)

from .oracle import Reference

__all__ = [
    "GROUPS",
    "SERVE_CQL",
    "SERVE_SCHEMA",
    "SERVE_SCHEMA_SPEC",
    "LoopSource",
    "engine_queries",
    "serve_block",
    "serve_reference",
    "synthetic_block",
]

#: distinct group keys in every input: the queries are GROUP-BY8.
GROUPS = 8

#: the serve-wire stream and query (16-byte tuples: 4096 per 64 KiB task).
SERVE_SCHEMA_SPEC = "timestamp:long, k:int, v:float"
SERVE_SCHEMA = Schema.parse(SERVE_SCHEMA_SPEC, name="s")
SERVE_CQL = (
    "select timestamp, k, sum(v) as total "
    "from s [rows 1024 slide 1024] group by k"
)


# -- inputs ------------------------------------------------------------------


def synthetic_block(tuples: int, seed: "int | list[int]") -> np.ndarray:
    """``tuples`` rows of the 32-byte synthetic schema, drawn from ``seed``.

    ``timestamp`` is the row index (the global tuple index once looped),
    ``a1`` a uniform float32, ``a2`` the group key in ``[0, GROUPS)``,
    ``a3..a6`` uniform in ``[0, 65536)`` — the Table-1 synthetic tuple.
    """
    rng = np.random.default_rng(seed)
    data = np.empty(tuples, dtype=SYNTHETIC_SCHEMA.dtype)
    data["timestamp"] = np.arange(tuples, dtype=np.int64)
    data["a1"] = rng.random(tuples, dtype=np.float32)
    data["a2"] = rng.integers(0, GROUPS, size=tuples, dtype=np.int32)
    for name in ("a3", "a4", "a5", "a6"):
        data[name] = rng.integers(0, VALUE_RANGE, size=tuples, dtype=np.int32)
    return data


def serve_block(rows: int, seed: "int | list[int]") -> np.ndarray:
    """``rows`` rows of the serve-wire schema, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    data = np.empty(rows, dtype=SERVE_SCHEMA.dtype)
    data["timestamp"] = np.arange(rows, dtype=np.int64)
    data["k"] = rng.integers(0, GROUPS, size=rows, dtype=np.int32)
    data["v"] = rng.random(rows, dtype=np.float32)
    return data


class LoopSource:
    """An unbounded stream over one pre-generated block (the pull SPI).

    Serves consecutive slice *views* of the block; at each wrap it adds
    the block length to the ``timestamp`` column in place, so
    ``timestamp`` is always the global tuple index.  Handing out views
    is safe because the dispatcher copies a pull into its circular
    buffer before it pulls again.  :meth:`handed_at` is when a pull of
    the current segment was handed out — the generator-side stamp
    latency is measured from.
    """

    def __init__(self, schema: Schema, block: np.ndarray) -> None:
        self.schema = schema
        self._block = block
        self._position = 0
        self._stamps: "list[float]" = []
        self._first_pull = 0

    def begin_segment(self) -> None:
        """Forget the stamps of earlier segments (pull numbers carry on)."""
        self._first_pull += len(self._stamps)
        self._stamps = []

    def handed_at(self, pull: int) -> float:
        """When pull number ``pull`` (counted from the first ever) went out."""
        return self._stamps[pull - self._first_pull]

    def next_tuples(self, count: int) -> TupleBatch:
        block = self._block
        if self._position + count > len(block):
            if len(block) % count:
                raise ValueError(
                    f"block of {len(block)} tuples is not a multiple of the "
                    f"{count}-tuple pull"
                )
            block["timestamp"] += len(block)
            self._position = 0
        start = self._position
        self._position = start + count
        self._stamps.append(time.perf_counter())
        return TupleBatch(self.schema, block[start : start + count])


# -- queries and their references ---------------------------------------------

_ROWS_1024 = WindowDefinition.rows(1024, 1024)


def _groupby_reference(window: WindowDefinition) -> Reference:
    return Reference(
        "groupby", window, key="a2", value="a1", functions=("count", "sum")
    )


def serve_reference() -> Reference:
    """What :data:`SERVE_CQL` computes per window."""
    return Reference("groupby", _ROWS_1024, key="k", value="v", functions=("sum",))


def engine_queries(name: str) -> "list[tuple]":
    """``[(query, reference), ...]`` of an engine workload (fresh objects)."""
    if name == "stateless-chain":
        query = select_project_query(4, 0.5, window=_ROWS_1024)
        reference = Reference(
            "filter",
            _ROWS_1024,
            where=(("a5", VALUE_RANGE // 2),),
            project=(("timestamp", "int64"),)
            + tuple((a, "float32") for a in ("a1", "a2", "a3", "a4")),
        )
        return [(query, reference)]
    if name == "groupby-slide1":
        window = WindowDefinition.rows(256, 1)
        return [
            (groupby_query(8, ["cnt", "sum"], window=window), _groupby_reference(window))
        ]
    if name == "groupby-tumbling-mp":
        return [
            (
                groupby_query(8, ["cnt", "sum"], window=_ROWS_1024),
                _groupby_reference(_ROWS_1024),
            )
        ]
    if name == "join-theta":
        window = WindowDefinition.rows(128, 128)
        reference = Reference("join", window, join_column="a3", join_modulus=100)
        return [(join_query(1, window=window), reference)]
    if name == "hybrid-mix":
        # SELECT16: fifteen always-true conjuncts plus a 50% one.
        attrs = ("a3", "a4", "a5", "a6")
        where = tuple((attrs[k % 4], VALUE_RANGE + k) for k in range(15))
        where += (("a5", VALUE_RANGE // 2),)
        select_ref = Reference(
            "filter",
            _ROWS_1024,
            where=where,
            project=tuple(
                (a.name, str(a.dtype)) for a in SYNTHETIC_SCHEMA.attributes
            ),
        )
        agg_window = WindowDefinition.rows(1024, 64)
        functions = ("avg", "sum", "min", "max", "count")
        agg_ref = Reference("aggregate", agg_window, value="a1", functions=functions)
        return [
            (select_query(16, window=_ROWS_1024, pass_rate=0.5), select_ref),
            (agg_query(list(functions), window=agg_window, name="AGGstar"), agg_ref),
        ]
    raise ValueError(f"no engine workload named {name!r}")
