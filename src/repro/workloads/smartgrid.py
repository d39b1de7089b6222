"""Smart-grid anomaly detection workload (SG, Table 1 / Appendix A.2).

The paper uses the DEBS 2014 Grand Challenge smart-plug trace [34]; we
generate a synthetic equivalent: households of plugs across houses, each
plug reporting a load value with a diurnal-ish base signal, per-plug
offsets, noise, and occasional high-load anomalies (which SG3's join is
designed to surface).
"""

from __future__ import annotations

import numpy as np

from ..api import Stream, agg
from ..core.query import Query
from ..io.base import GeneratorSource, checked_rate
from ..relational.expressions import col
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

#: SmartGridStr schema (Appendix A.2), padded to 32 bytes like the paper.
SMART_GRID_SCHEMA = Schema.with_timestamp(
    "value:float, property:int, plug:int, household:int, house:int, padding:int",
    name="SmartGridStr",
)

#: SG1 output: sliding global load average.
GLOBAL_LOAD_SCHEMA = Schema.with_timestamp(
    "globalAvgLoad:float", name="GlobalLoadStr"
)

#: SG2 output: sliding per-plug load average.
LOCAL_LOAD_SCHEMA = Schema.with_timestamp(
    "plug:int, household:int, house:int, localAvgLoad:float",
    name="LocalLoadStr",
)


class SmartGridSource(GeneratorSource):
    """Synthetic smart-meter reading stream (``limit`` makes it finite)."""

    def __init__(
        self,
        seed: int = 1,
        tuples_per_second: int = 2048,
        houses: int = 40,
        households_per_house: int = 4,
        plugs_per_household: int = 4,
        anomaly_rate: float = 0.02,
        limit: "int | None" = None,
    ) -> None:
        super().__init__(SMART_GRID_SCHEMA, limit=limit)
        self._rng = np.random.default_rng(seed)
        self._position = 0
        self._tuples_per_second = checked_rate(tuples_per_second)
        self._houses = houses
        self._households = households_per_house
        self._plugs = plugs_per_household
        self._anomaly_rate = anomaly_rate

    def generate(self, count: int) -> TupleBatch:
        rng = self._rng
        indices = np.arange(self._position, self._position + count, dtype=np.int64)
        self._position += count
        timestamps = indices // self._tuples_per_second
        house = rng.integers(0, self._houses, count).astype(np.int32)
        household = rng.integers(0, self._households, count).astype(np.int32)
        plug = rng.integers(0, self._plugs, count).astype(np.int32)
        base = 50.0 + 20.0 * np.sin(2 * np.pi * (timestamps % 86_400) / 86_400.0)
        per_plug = 3.0 * plug + 1.5 * household
        noise = rng.normal(0.0, 2.0, count)
        anomaly = (rng.random(count) < self._anomaly_rate) * rng.uniform(
            50.0, 150.0, count
        )
        value = (base + per_plug + noise + anomaly).astype(np.float32)
        return TupleBatch.from_columns(
            self.schema,
            timestamp=timestamps,
            value=value,
            property=np.ones(count, dtype=np.int32),
            plug=plug,
            household=household,
            house=house,
            padding=np.zeros(count, dtype=np.int32),
        )


class DerivedLoadSource:
    """Joint generator of SG1/SG2-shaped derived streams.

    SG3 joins the *outputs* of SG1 and SG2.  In the paper those arrive as
    chained query streams; here a single generator derives both from one
    underlying smart-grid stream so that their values are consistent:
    per timestamp it emits one global-average tuple and one local-average
    tuple per plug.  ``for_stream`` selects which of the pair an engine
    source yields.
    """

    def __init__(self, seed: int = 1, plugs: int = 16, anomaly_rate: float = 0.05) -> None:
        self._rng = np.random.default_rng(seed)
        self._plugs = plugs
        self._anomaly_rate = anomaly_rate
        self._time = 0
        self._pending_global: list[np.ndarray] = []
        self._pending_local: list[np.ndarray] = []

    def _generate_second(self) -> None:
        rng = self._rng
        t = self._time
        self._time += 1
        local = 50.0 + rng.normal(0.0, 5.0, self._plugs)
        spikes = rng.random(self._plugs) < self._anomaly_rate
        local = local + spikes * rng.uniform(30.0, 80.0, self._plugs)
        global_avg = float(local.mean())
        self._pending_global.append(
            np.array([(t, global_avg)], dtype=GLOBAL_LOAD_SCHEMA.dtype)
        )
        rows = np.zeros(self._plugs, dtype=LOCAL_LOAD_SCHEMA.dtype)
        rows["timestamp"] = t
        rows["plug"] = np.arange(self._plugs) % 4
        rows["household"] = (np.arange(self._plugs) // 4) % 4
        rows["house"] = np.arange(self._plugs) // 16
        rows["localAvgLoad"] = local.astype(np.float32)
        self._pending_local.append(rows)

    def stream(self, which: str, limit: "int | None" = None) -> "_DerivedStream":
        return _DerivedStream(self, which, limit=limit)

    def _next(self, which: str, count: int) -> np.ndarray:
        pending = self._pending_global if which == "global" else self._pending_local
        while sum(len(p) for p in pending) < count:
            self._generate_second()
        rows = np.concatenate(pending)
        out, rest = rows[:count], rows[count:]
        pending.clear()
        if len(rest):
            pending.append(rest)
        return out


class _DerivedStream(GeneratorSource):
    """Source view over one half of a :class:`DerivedLoadSource`."""

    def __init__(
        self, parent: DerivedLoadSource, which: str, limit: "int | None" = None
    ) -> None:
        if which not in ("global", "local"):
            raise ValueError("which must be 'global' or 'local'")
        schema = GLOBAL_LOAD_SCHEMA if which == "global" else LOCAL_LOAD_SCHEMA
        super().__init__(schema, limit=limit)
        self._parent = parent
        self._which = which

    def generate(self, count: int) -> TupleBatch:
        return TupleBatch(self.schema, self._parent._next(self._which, count))


def sg1_query() -> Query:
    """SG1: sliding global load average, ω(3600, 1).

    ``select timestamp, avg(value) from SmartGridStr [range 3600 slide 1]``
    """
    return (
        Stream.named("SmartGridStr", SMART_GRID_SCHEMA)
        .window(time=3600, slide=1)
        .aggregate(agg.avg("value", "globalAvgLoad"))
        .build("SG1")
    )


def sg2_query() -> Query:
    """SG2: sliding per-plug load average, ω(3600, 1) with GROUP-BY."""
    return (
        Stream.named("SmartGridStr", SMART_GRID_SCHEMA)
        .window(time=3600, slide=1)
        .group_by("plug", "household", "house", agg.avg("value", "localAvgLoad"))
        .build("SG2")
    )


def sg3_query() -> Query:
    """SG3: join local vs. global averages to flag outlier houses.

    The θ-join of the derived SG1/SG2 streams over tumbling ω(1, 1)
    windows with ``L.localAvgLoad > G.globalAvgLoad`` (the trailing
    per-house count of Appendix A.2 is a cheap post-aggregation over the
    join's output stream, see ``examples/smart_grid.py``).
    """
    local = Stream.named("LocalLoadStr", LOCAL_LOAD_SCHEMA).window(time=1, slide=1)
    global_ = Stream.named("GlobalLoadStr", GLOBAL_LOAD_SCHEMA).window(time=1, slide=1)
    return (
        local.join(
            global_,
            on=col("localAvgLoad") > col("globalAvgLoad"),
            right_prefix="g_",
            # The local stream carries one tuple per plug per second versus
            # one global tuple; proportional batches keep the streams'
            # windows aligned within a task.
            rates=(16.0, 1.0),
        )
        .build("SG3")
    )
