"""Spark-Streaming-like baseline: micro-batches coupled to window slides.

Spark Streaming ties the physical micro-batch to the query's window
definition: the window slide and batch interval must align, and every
slide triggers a parallel job over the *whole window* of data (§2.3,
Fig. 1).  Two consequences the paper measures:

* small slides mean small batches, so the fixed per-batch scheduling
  overhead dominates and throughput collapses (Fig. 1);
* even for tumbling windows, the per-batch scheduling overhead caps
  throughput well below SABER (Fig. 9).

We model the steady state of that loop.  Let ``B`` be the slide in
tuples, ``W`` the window span in seconds, ``r`` the aggregate processing
rate and ``o`` the scheduling overhead.  A stable system processes one
slide-batch every ``T = o + (W·X)/r`` seconds while ingesting at
``X = B/T`` tuples/s; solving the quadratic gives the sustainable
throughput.  ``simulate`` additionally steps the loop explicitly so tests
can check convergence to the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SimulationError, positive_finite
from ..hardware.specs import DEFAULT_SPEC, HardwareSpec


@dataclass
class SparkLikeEngine:
    """Steady-state model of slide-coupled micro-batch processing."""

    spec: HardwareSpec = DEFAULT_SPEC
    #: aggregate processing rate in tuples/s; ``None`` = the Fig. 1 anchor.
    process_rate: "float | None" = None

    def _rate(self) -> float:
        return self.process_rate or self.spec.spark_process_rate

    def sustainable_throughput(
        self, slide_tuples: float, window_seconds: float
    ) -> float:
        """Sustainable ingest rate in tuples/s for ω(window, slide).

        Each slide re-processes the full window's data (the coupling of
        batch to window), so ``T = o + (window_seconds · X)/r`` with
        ``X = slide/T``; substituting yields
        ``T² - o·T - window·slide/r = 0``.
        """
        positive_finite(slide_tuples, "slide_tuples", SimulationError)
        positive_finite(window_seconds, "window_seconds", SimulationError)
        o = self.spec.spark_batch_overhead
        r = self._rate()
        t = (o + math.sqrt(o * o + 4.0 * window_seconds * slide_tuples / r)) / 2.0
        return slide_tuples / t

    def tumbling_throughput(self, batch_tuples: float, batch_seconds: float) -> float:
        """Sustainable rate for tumbling windows (window == slide == batch).

        One batch of ``X·batch_seconds`` tuples must clear within the
        batch interval: ``o + (X·batch_seconds)/r ≤ batch_seconds``.
        ``batch_tuples`` caps the offered rate.
        """
        o = self.spec.spark_batch_overhead
        r = self.process_rate or self.spec.spark_tumbling_process_rate
        if batch_seconds <= o:
            return 0.0
        sustainable = (batch_seconds - o) * r / batch_seconds
        offered = batch_tuples / batch_seconds
        return min(offered, sustainable)

    def simulate(
        self,
        slide_tuples: float,
        window_seconds: float,
        batches: int = 200,
    ) -> float:
        """Explicitly iterate the micro-batch loop; returns tuples/s.

        Starts from an empty backlog and steps ``batches`` micro-batch
        jobs; converges to :meth:`sustainable_throughput` (tested).
        """
        o = self.spec.spark_batch_overhead
        r = self._rate()
        time = 0.0
        processed = 0.0
        rate_guess = slide_tuples  # initial ingest estimate: 1 slide/s
        for __ in range(batches):
            window_tuples = window_seconds * rate_guess
            duration = o + window_tuples / r
            time += duration
            processed += slide_tuples
            rate_guess = processed / time
        return processed / time
