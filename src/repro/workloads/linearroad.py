"""Linear Road Benchmark workload (LRB, Table 1 / Appendix A.3, [8]).

Synthetic generator of position events: vehicles drive lanes of a toll
highway network, reporting (speed, highway, lane, direction, position)
every logical second.  Speeds dip on congested segments so that LRB3's
``having avgSpeed < 40`` predicate selects a meaningful subset.

Queries:

* LRB1 — segment projection over an unbounded window;
* LRB2 — distinct vehicle/segment entries over ω(30, 1) (the paper pairs
  a 30 s window with a partition-by-vehicle rows-1 window; we reproduce
  the per-window distinct-vehicle semantics with the distinct projection);
* LRB3 — congested segments: per-segment average speed with HAVING;
* LRB4 — per-segment vehicle counts (the inner GROUP-BY of the nested
  Appendix A.3 query; the outer count is a cheap post-aggregation).
"""

from __future__ import annotations

import numpy as np

from ..api import Stream, agg
from ..core.query import Query
from ..errors import non_negative_int, tuple_rate
from ..io.base import GeneratorSource
from ..relational.expressions import col
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

#: PosSpeedStr schema (Appendix A.3), 32 bytes.
POS_SPEED_SCHEMA = Schema.with_timestamp(
    "vehicle:int, speed:float, highway:int, lane:int, direction:int, position:int",
    name="PosSpeedStr",
)

FEET_PER_SEGMENT = 5280


class LinearRoadSource(GeneratorSource):
    """Synthetic Linear Road position-event stream (``limit`` = finite)."""

    def __init__(
        self,
        seed: int = 1,
        tuples_per_second: int = 4096,
        vehicles: int = 4096,
        highways: int = 4,
        segments: int = 100,
        congested_fraction: float = 0.2,
        limit: "int | None" = None,
    ) -> None:
        super().__init__(POS_SPEED_SCHEMA, limit=limit)
        self._rng = np.random.default_rng(non_negative_int(seed, "seed"))
        self._position = 0
        self._tuples_per_second = tuple_rate(tuples_per_second, "tuples_per_second")
        self._vehicles = vehicles
        self._highways = highways
        self._segments = segments
        congested = self._rng.random(segments) < congested_fraction
        self._segment_speed = np.where(
            congested,
            self._rng.uniform(15.0, 38.0, segments),
            self._rng.uniform(45.0, 70.0, segments),
        )

    def generate(self, count: int) -> TupleBatch:
        rng = self._rng
        indices = np.arange(self._position, self._position + count, dtype=np.int64)
        self._position += count
        vehicle = rng.integers(0, self._vehicles, count).astype(np.int32)
        segment = rng.integers(0, self._segments, count)
        position = (segment * FEET_PER_SEGMENT + rng.integers(
            0, FEET_PER_SEGMENT, count
        )).astype(np.int32)
        speed = (
            self._segment_speed[segment] + rng.normal(0.0, 4.0, count)
        ).astype(np.float32)
        return TupleBatch.from_columns(
            self.schema,
            timestamp=indices // self._tuples_per_second,
            vehicle=vehicle,
            speed=speed,
            highway=rng.integers(0, self._highways, count).astype(np.int32),
            lane=rng.integers(0, 4, count).astype(np.int32),
            direction=rng.integers(0, 2, count).astype(np.int32),
            position=position,
        )


def lrb1_query() -> Query:
    """LRB1: segment projection over an unbounded window.

    ``select timestamp, vehicle, speed, highway, lane, direction,
    (position / 5280) as segment from SegSpeedStr [range unbounded]``
    """
    return (
        Stream.named("SegSpeedStr", POS_SPEED_SCHEMA)
        .unbounded()
        .select(
            "timestamp", "vehicle", "speed", "highway", "lane", "direction",
            ("segment", col("position") / FEET_PER_SEGMENT, "int"),
        )
        .build("LRB1")
    )


def lrb2_query() -> Query:
    """LRB2: distinct vehicle/segment entries in the last 30 seconds."""
    return (
        Stream.named("SegSpeedStr", POS_SPEED_SCHEMA)
        .window(time=30, slide=1)
        .select(
            "vehicle", "highway", "lane", "direction",
            ("segment", col("position") / FEET_PER_SEGMENT),
        )
        .distinct()
        .build("LRB2")
    )


def lrb3_query() -> Query:
    """LRB3: congested segments (avg speed < 40) over ω(300, 1).

    ``select ..., avg(speed) from SegSpeedStr [range 300 slide 1]
    group by highway, direction, segment having avgSpeed < 40.0``

    ``segment`` is the derived key ``position / 5280`` (LRB1's
    projection), expressed as a derived GROUP-BY column.
    """
    return (
        Stream.named("SegSpeedStr", POS_SPEED_SCHEMA)
        .window(time=300, slide=1)
        .group_by(
            "highway", "direction", agg.avg("speed", "avgSpeed"),
            segment=(col("position") / FEET_PER_SEGMENT, "int"),
        )
        .having(col("avgSpeed") < 40.0)
        .build("LRB3")
    )


def lrb4_query() -> Query:
    """LRB4: per-segment per-vehicle event counts over ω(30, 1).

    The inner query of Appendix A.3's nested pair — group by
    (highway, direction, vehicle) with count(*); the outer distinct-
    vehicle count per segment is a cheap post-aggregation over this
    query's output stream.
    """
    return (
        Stream.named("SegSpeedStr", POS_SPEED_SCHEMA)
        .window(time=30, slide=1)
        .group_by("highway", "direction", "vehicle", agg.count(alias="events"))
        .build("LRB4")
    )
