"""Records: the machine description, ``validate`` and ``compare``.

A record is what one invocation measured::

    {"schema": "saberbench-record/1", "size": "full", "seed": 1,
     "seconds": 10, "machine": {...},
     "workloads": {"<name>": {"correct": true, "attempted": n, "failed": 0,
                              "end_to_end": {"<metric>": {"value", "unit", "samples"}},
                              "per_layer": {"<metric>": {"value", "unit"}},
                              "segments": [{"wall_s", "tuples", "cpu_user_s",
                                            "cpu_sys_s", "digest"}, ...]}}}

``value`` is the metric as defined in the README (the median over the
timed segments; latency percentiles pooled over them); ``samples`` are
the per-segment (or per-set-up) values, which ``compare`` takes a
metric's quartiles and spread from.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import time
from pathlib import Path

from .config import PACKAGE, ROOT, end_to_end, per_layer, workload_names
from .measure import quartiles

__all__ = ["machine_record", "validate_benchmark", "validate_record", "compare"]

SCHEMA = "saberbench-record/1"

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PROBE_MIB = 64

#: the highest regression bound the driver's contract admits.
_MAX_BOUND = 0.25


# -- machine and noise ----------------------------------------------------------


def first_touch_probe() -> "dict[str, float]":
    """Page cost in ms/MiB: touch 64 MiB once, then again.

    On a quiet box with memory behind it the first pass costs well
    under 1 ms/MiB and the second next to nothing; a lazily-backed or
    noisy VM shows up as a first pass many times that.
    """
    import numpy as np

    buffer = np.empty(_PROBE_MIB << 20, dtype=np.uint8)
    t0 = time.perf_counter()
    buffer[::4096] = 1
    t1 = time.perf_counter()
    buffer[::4096] = 2
    t2 = time.perf_counter()
    return {
        "first_ms_per_mib": (t1 - t0) * 1e3 / _PROBE_MIB,
        "again_ms_per_mib": (t2 - t1) * 1e3 / _PROBE_MIB,
    }


def _thp_mode() -> str:
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return "unknown"
    match = re.search(r"\[(\w+)\]", text)
    return match.group(1) if match else text.strip()


def machine_record(child_env: "dict[str, str]") -> dict:
    """What a reader needs to judge whether two records are comparable."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_disabled": child_env.get("REPRO_NO_NUMBA") == "1",
        "lockdep": "REPRO_LOCKDEP" in child_env,
        "pythonhashseed": child_env.get("PYTHONHASHSEED"),
        "thp": _thp_mode(),
        "first_touch": first_touch_probe(),
    }


# -- validate ---------------------------------------------------------------------


def validate_benchmark(root: Path = ROOT) -> "list[str]":
    """Problems with ``BENCHMARK.json`` / ``sizes.json`` (empty when sound)."""
    problems: "list[str]" = []
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"BENCHMARK.json unreadable: {exc}"]
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"keys are {sorted(bench)}, want exactly {sorted(keys)}")
        return problems
    if bench["paths"] != ["benchmarks/saberbench"]:
        problems.append(f"paths is {bench['paths']}, want ['benchmarks/saberbench']")
    if not isinstance(bench["run_seconds"], int) or not 1 <= bench["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    if len(bench["workloads"]) != 6:
        problems.append(f"there are {len(bench['workloads'])} workloads, want 6")
    seen: "set[str]" = set()
    for workload in bench["workloads"]:
        name = workload.get("name", "")
        if set(workload) != {"name", "why"} or not workload["why"] or "\n" in workload["why"]:
            problems.append(f"workload {name!r} needs a name and a one-line why")
        elif len(workload["why"]) > 200:
            problems.append(f"workload {name!r}: why exceeds 200 characters")
        if not isinstance(name, str) or not _NAME.match(name) or name in seen:
            problems.append(f"workload name {name!r} is malformed or used twice")
        seen.add(name)
    for section, keyset in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in bench[section]:
            name = metric.get("name", "")
            if set(metric) != keyset:
                problems.append(f"{section} metric {name!r} has keys {sorted(metric)}")
                continue
            if not _NAME.match(name) or name in seen:
                problems.append(f"metric name {name!r} is malformed or used twice")
            seen.add(name)
            if not _UNIT.match(metric["unit"]):
                problems.append(f"metric {name!r} has a malformed unit {metric['unit']!r}")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"metric {name!r} has no direction")
            if section == "end_to_end" and not 0 < metric["bound"] <= _MAX_BOUND:
                problems.append(
                    f"metric {name!r}: bound {metric['bound']} is outside (0, {_MAX_BOUND}]"
                )
    # The seventh end-to-end number, failed_ops_ratio, rides on the result
    # line's failed/attempted: the contract wants listed metrics never 0.
    if not 1 <= len(bench["end_to_end"]) <= 6:
        problems.append("end_to_end must list 1 to 6 metrics (failed_ops_ratio is implicit)")
    setup = [m for m in bench["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or (setup[0].get("unit"), setup[0].get("better")) != ("s", "lower"):
        problems.append("end_to_end must include setup_s, in s, lower is better")
    if not 1 <= len(bench["per_layer"]) <= 128:
        problems.append("per_layer must list 1 to 128 metrics")
    problems += _validate_sizes([w.get("name") for w in bench["workloads"]])
    return problems


def _validate_sizes(workloads: "list[str]") -> "list[str]":
    sizes = json.loads((PACKAGE / "sizes.json").read_text())
    problems = []
    if sizes.get("frozen") is not True:
        problems.append("sizes.json is not marked frozen")
    if not sizes.get("sized_on"):
        problems.append("sizes.json does not say which machine it was sized on")
    for size in ("full", "smoke"):
        table = sizes.get(size, {})
        if sorted(table) != sorted(workloads):
            problems.append(f"sizes.json [{size}] does not cover the six workloads")
        for name, spec in table.items():
            for key, value in spec.items():
                if key != "execution" and (not isinstance(value, int) or value <= 0):
                    problems.append(f"sizes.json [{size}][{name}][{key}] is not a frozen number")
    return problems


def validate_record(record: dict) -> "list[str]":
    """Problems with a record (empty when every named metric is there)."""
    problems = []
    if record.get("schema") != SCHEMA:
        problems.append(f"schema is {record.get('schema')!r}, want {SCHEMA!r}")
    machine = record.get("machine", {})
    for key in ("nproc", "python", "numpy", "numba_disabled", "thp", "first_touch"):
        if key not in machine:
            problems.append(f"machine record lacks {key!r}")
    workloads = record.get("workloads", {})
    for name in workload_names():
        entry = workloads.get(name)
        if entry is None:
            problems.append(f"workload {name!r} is missing")
            continue
        for key in ("correct", "attempted", "failed", "segments"):
            if key not in entry:
                problems.append(f"{name}: lacks {key!r}")
        for metric, unit, __, __ in end_to_end():
            got = entry.get("end_to_end", {}).get(metric)
            if not got or got.get("unit") != unit or not got.get("samples"):
                problems.append(f"{name}: end-to-end metric {metric!r} missing or malformed")
        for metric, unit, __ in per_layer():
            got = entry.get("per_layer", {}).get(metric)
            if not got or got.get("unit") != unit:
                problems.append(f"{name}: per-layer metric {metric!r} missing or malformed")
        for segment in entry.get("segments", []):
            if not {"wall_s", "tuples", "cpu_user_s", "cpu_sys_s", "digest"} <= set(segment):
                problems.append(f"{name}: a segment lacks its noise record")
                break
    return problems


# -- compare ----------------------------------------------------------------------


def _verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """((q1, value, q3) of a, the same of b, relative worsening, spread, verdict).

    ``a`` and ``b`` are one metric's record entries.  The reported
    ``value`` is what is compared; the quartiles of the per-segment
    ``samples`` give the spread (interquartile range ÷ value).
    """
    sign = -1.0 if better == "higher" else 1.0
    sa, sb = a["samples"], b["samples"]
    (a1, __, a3), (b1, __, b3) = quartiles(sa), quartiles(sb)
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((a3 - a1) / a["value"], (b3 - b1) / b["value"])
    if spread > bound:
        if max(sign * x for x in sb) < min(sign * x for x in sa):
            verdict = "ok"  # every b reads better than every a
        elif worse_by > bound and min(sign * x for x in sb) > max(sign * x for x in sa):
            verdict = "worse"  # every b reads worse than every a, beyond the bound
        else:
            verdict = "unresolved"
    else:
        verdict = "worse" if worse_by > bound else "ok"
    return (a1, a["value"], a3), (b1, b["value"], b3), worse_by, spread, verdict


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print one row per (workload, end-to-end metric); exit status.

    Non-zero when any row is ``worse``, when B fails a larger share of
    its operations than A, or when the two records' segment digests
    differ (same seed and size only).
    """
    bad = 0
    header = (
        f"{'workload':<20} {'metric':<22} {'A q1/value/q3':>32} {'B q1/value/q3':>32} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    )
    print(header, file=out)
    for name in workload_names():
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric, __, better, bound in end_to_end():
            qa, qb, worse_by, spread, verdict = _verdict(
                wa["end_to_end"][metric], wb["end_to_end"][metric], better, bound
            )
            bad += verdict == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(
                f"{name:<20} {metric:<22} {fmt(qa):>32} {fmt(qb):>32} "
                f"{worse_by:>+9.1%} {spread:>7.1%} {bound:>6.0%}  {verdict}",
                file=out,
            )
        ra, rb = wa["failed"] / wa["attempted"], wb["failed"] / wb["attempted"]
        verdict = "worse" if rb > ra else "ok"
        bad += verdict == "worse"
        print(
            f"{name:<20} {'failed_ops_ratio':<22} {ra:>32.6f} {rb:>32.6f} "
            f"{'':>9} {'':>7} {'any':>6}  {verdict}",
            file=out,
        )
        if (a.get("seed"), a.get("size")) == (b.get("seed"), b.get("size")):
            da = [s["digest"] for s in wa["segments"]]
            db = [s["digest"] for s in wb["segments"]]
            shared = min(len(da), len(db))
            same = da[:shared] == db[:shared]
            bad += not same
            print(
                f"{name:<20} segment digests ({shared} shared): "
                f"{'identical' if same else 'DIFFER'}",
                file=out,
            )
    return 1 if bad else 0
