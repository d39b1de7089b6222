"""Aggregate functions and their partial-aggregate algebra.

SABER's window fragments force every aggregate into a *partial* form that
can be (i) computed per fragment, (ii) merged associatively across
fragments/tasks, and (iii) finalised into the query's output value (§3,
§5.3).  Every partial carries the same fields — ``(sum, count, min, max)``
— from which :func:`finalize` derives all supported functions (``sum``,
``count``, ``avg``, ``min``, ``max``).  ``sum``/``count`` are invertible (prefix-sum friendly);
``min``/``max`` are merged via the sparse-table path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueryError

SUPPORTED_FUNCTIONS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation in a query: ``fn(column) as alias``."""

    function: str
    column: "str | None"
    alias: str = ""

    def __post_init__(self) -> None:
        if self.function not in SUPPORTED_FUNCTIONS:
            raise QueryError(
                f"unsupported aggregate function {self.function!r}; "
                f"expected one of {SUPPORTED_FUNCTIONS}"
            )
        if self.function != "count" and self.column is None:
            raise QueryError(f"{self.function} requires a column")
        if not self.alias:
            column = self.column or "star"
            object.__setattr__(self, "alias", f"{self.function}_{column}")

    @property
    def output_type(self) -> str:
        return "float"


def finalize(function, total, count, minimum, maximum):
    """Finalise accumulator fields; vectorised over numpy arrays.

    Empty cells (count == 0) finalise to NaN, matching SQL's NULL for
    aggregates over empty groups (except ``count`` which is 0).
    """
    if function == "count":
        return count
    empty = count == 0
    if function == "sum":
        value = total
    elif function == "avg":
        with np.errstate(divide="ignore", invalid="ignore"):
            value = total / count if np.ndim(count) else (
                total / count if count else float("nan")
            )
    elif function == "min":
        value = minimum
    elif function == "max":
        value = maximum
    else:
        raise QueryError(f"unsupported aggregate function {function!r}")
    return np.where(empty, np.nan, value) if np.ndim(value) else (
        float("nan") if empty else value
    )
