"""Where things are, what ``BENCHMARK.json`` declares, and the frozen sizes.

``BENCHMARK.json`` is the single source of the workload names and of
every metric's name, unit, direction and bound; ``sizes.json`` holds
what its six keys cannot: the frozen per-workload sizes.  Importable
without the engine: the runner reads this before it knows whether there
is an engine to run.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

__all__ = [
    "PACKAGE",
    "ROOT",
    "benchmark",
    "end_to_end",
    "load_sizes",
    "per_layer",
    "workload_names",
]

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]


@functools.lru_cache(maxsize=1)
def benchmark() -> dict:
    """``BENCHMARK.json`` as parsed (read once per process)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> "tuple[str, ...]":
    """Workload names, in the order the all-workloads command runs them."""
    return tuple(w["name"] for w in benchmark()["workloads"])


def end_to_end() -> "tuple[tuple[str, str, str, float], ...]":
    """(name, unit, better, bound) of what a user of the engine would see.

    ``failed_ops_ratio`` is the seventh end-to-end number; it is reported
    through the result line's ``failed``/``attempted`` (its healthy value
    is 0, and any increase is a regression).
    """
    return tuple(
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark()["end_to_end"]
    )


def per_layer() -> "tuple[tuple[str, str, str], ...]":
    """(name, unit, better) of the single-layer metrics; they have no bound."""
    return tuple((m["name"], m["unit"], m["better"]) for m in benchmark()["per_layer"])


def load_sizes(size: str = "full") -> dict:
    """The frozen sizes of one size class (``full``/``smoke``).

    Smoke runs set up once; full runs set up ``setup_repeats`` times
    and report the median.
    """
    sizes = json.loads((PACKAGE / "sizes.json").read_text())
    table = dict(sizes[size])
    table["min_timed_segments"] = sizes["min_timed_segments"]
    table["setup_repeats"] = sizes["setup_repeats"] if size == "full" else 1
    return table
