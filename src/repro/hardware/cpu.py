"""CPU worker cost model.

Charges one CPU core for executing a query task's batch operator
function, from the operator's :class:`~repro.operators.base.CostProfile`
and the task's measured statistics.  The structure mirrors the effects
the paper measures:

* stateless operators pay per tuple, scaled by arithmetic/predicate
  counts (Fig. 10a's decay with predicate count);
* short-circuiting makes predicate cost selectivity-dependent (Fig. 16);
* aggregation pays per tuple *once* thanks to incremental computation —
  not per window — plus a small per-fragment term (Fig. 11b's flat CPU
  curve as the slide shrinks);
* joins pay per candidate pair (quadratic in window size);
* oversubscribing workers beyond the physical cores adds a
  context-switching penalty (Fig. 14's plateau).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..operators.base import CostProfile
from .specs import DEFAULT_SPEC, HardwareSpec


@dataclass(frozen=True)
class CpuModel:
    """Analytic execution-time model for one CPU core."""

    spec: HardwareSpec = DEFAULT_SPEC

    def task_seconds(
        self,
        profile: CostProfile,
        tuples: int,
        stats: "dict[str, float]",
    ) -> float:
        """Virtual execution time of one query task on one core."""
        s = self.spec
        selectivity = float(stats.get("selectivity", 1.0))
        fragments = float(stats.get("fragments", 0.0))
        cost = tuples * s.cpu_tuple_base
        cost += tuples * profile.ops_per_tuple * s.cpu_arithmetic_op
        cost += (
            tuples
            * profile.cpu_predicate_evaluations(selectivity)
            * s.cpu_predicate
        )
        if profile.kind == "aggregation":
            cost += tuples * max(1, profile.aggregate_count) * s.cpu_aggregate
            if profile.has_group_by:
                cost += tuples * s.cpu_group_hash
            cost += fragments * s.cpu_fragment_overhead
        elif profile.kind == "join":
            pairs = float(stats.get("pairs", 0.0))
            extra_predicates = max(0, profile.join_predicate_count - 1)
            per_pair = s.cpu_join_pair + extra_predicates * s.cpu_join_pair_predicate
            cost += pairs * per_pair
            cost += fragments * s.cpu_fragment_overhead
        return cost

    def result_stage_seconds(self) -> float:
        """Per-task cost of the result stage (reorder + assembly)."""
        return self.spec.cpu_result_stage

    def contention_factor(self, workers: int) -> float:
        """Per-task slowdown when workers exceed physical cores (Fig. 14)."""
        excess = max(0, workers - self.spec.physical_cores)
        return 1.0 + self.spec.cpu_oversubscription_penalty * excess
