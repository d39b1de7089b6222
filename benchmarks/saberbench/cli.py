"""The runner: spawns one pinned child per workload and reports.

``python -m saberbench`` (or ``python benchmarks/saberbench/run.py``)

* with no ``--workload`` runs all six workloads — an end-to-end pass
  and then a traced pass each — prints every metric by name and unit,
  and writes a record plus ``trace-<workload>.jsonl`` under ``out/``;
* with ``--workload W --seed N --seconds S --trace 0|1`` runs one pass
  of one workload and prints, as the last line of standard output, one
  JSON object with ``correct``, ``attempted``, ``failed`` and
  ``metrics`` (the end-to-end metrics for ``--trace 0``, the per-layer
  ones for ``--trace 1``);
* ``validate [RECORD...]`` checks ``BENCHMARK.json``, ``sizes.json`` and
  any records against the contract;
* ``compare A.json B.json`` lines two records up metric by metric.

Every workload runs in its own fresh child process with a pinned
environment (``REPRO_NO_NUMBA=1``, ``REPRO_LOCKDEP`` unset,
``PYTHONHASHSEED=0``); ``--seed`` feeds only the data generator.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import record as records
from .config import PACKAGE, ROOT, benchmark, end_to_end, load_sizes, per_layer, workload_names

OUT_DIR = PACKAGE / "out"

#: a child that has not finished by then is killed with its process group.
_CHILD_TIMEOUT_SECONDS = 150.0

_SMOKE_SECONDS = 1.0


def child_env() -> "dict[str, str]":
    """The pinned environment every workload child runs under."""
    env = dict(os.environ)
    env.pop("REPRO_LOCKDEP", None)
    env["REPRO_NO_NUMBA"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")])
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, size: str,
          setup_only: bool = False) -> dict:
    """Run one child to completion; returns the object on its last line."""
    command = [
        sys.executable, "-m", "saberbench.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size, "--out-dir", str(OUT_DIR),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    child = subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, __ = child.communicate(timeout=_CHILD_TIMEOUT_SECONDS)
    except BaseException:
        # Timeout or interrupt: take the whole group down (the processes
        # backend forks workers) and reap the child before re-raising.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with status {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One pass of one workload, as a record entry.

    The end-to-end pass sets the workload up several times — extra
    children that stop after warm-up — and reports the median, so that
    one slow page-fault phase does not read as a set-up regression.
    """
    repeats = 1 if trace else load_sizes(size)["setup_repeats"]
    setups = [
        spawn(workload, seed, seconds, trace, size, setup_only=True)["setup_s"]
        for __ in range(repeats - 1)
    ]
    result = spawn(workload, seed, seconds, trace, size)
    setups.append(result["setup_s"])
    units = {name: unit for name, unit, __, __ in end_to_end()}
    measured = {
        name: {**values, "unit": units[name]}
        for name, values in result["end_to_end"].items()
        if name in units
    }
    rss = result["peak_rss_mib"]
    measured["peak_rss_mib"] = {"value": rss, "unit": "MiB", "samples": [rss]}
    measured["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "samples": setups,
    }
    entry = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "windows_checked": result["windows_checked"],
        "latency_samples": result["end_to_end"]["latency_samples"],
        "end_to_end": measured,
        "segments": result["segments"],
    }
    if trace:
        units = {name: unit for name, unit, __ in per_layer()}
        entry["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["per_layer"].items()
        }
    return entry


def result_line(entry: dict, trace: int) -> str:
    """The driver's contract: one JSON object, exactly four keys."""
    metrics = entry["per_layer"] if trace else entry["end_to_end"]
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    })


def write_record(path: Path, size: str, seed: int, seconds: float, workloads: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": records.SCHEMA,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "machine": records.machine_record(child_env()),
        "workloads": workloads,
    }, indent=1) + "\n")


def print_entry(name: str, entry: dict) -> None:
    ratio = entry["failed"] / entry["attempted"]
    print(f"== {name}  correct={entry['correct']}  windows_checked={entry['windows_checked']}")
    for metric, m in entry["end_to_end"].items():
        extra = f"  (n={entry['latency_samples']})" if metric.startswith("latency") else ""
        print(f"   {metric:<36} {m['value']:>14.4f} {m['unit']}{extra}")
    print(f"   {'failed_ops_ratio':<36} {ratio:>14.6f} ratio  "
          f"({entry['failed']}/{entry['attempted']})")
    for metric, m in entry.get("per_layer", {}).items():
        if m["value"]:
            print(f"   {metric:<36} {m['value']:>14.4f} {m['unit']}")


def run_all(args) -> int:
    """All six workloads: end-to-end pass, then traced pass, then record."""
    workloads = {}
    for name in workload_names():
        entry = run_pass(name, args.seed, args.seconds, 0, args.size)
        traced = run_pass(name, args.seed, args.seconds, 1, args.size)
        entry["per_layer"] = traced["per_layer"]
        entry["correct"] = entry["correct"] and traced["correct"]
        workloads[name] = entry
        print_entry(name, entry)
    path = Path(args.out) if args.out else OUT_DIR / f"record-{args.size}-seed{args.seed}.json"
    write_record(path, args.size, args.seed, args.seconds, workloads)
    print(f"record: {path}")
    print(f"traces: {OUT_DIR}/trace-<workload>.jsonl")
    if args.size == "smoke":
        print("smoke sizes: these numbers are never comparable")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


def run_one(args) -> int:
    """The driver's single pass: the result object is the last line."""
    entry = run_pass(args.workload, args.seed, args.seconds, args.trace, args.size)
    write_record(
        OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        args.size, args.seed, args.seconds, {args.workload: entry},
    )
    print(result_line(entry, args.trace))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "validate":
        problems = records.validate_benchmark()
        for path in argv[1:]:
            problems += [
                f"{path}: {p}" for p in records.validate_record(json.loads(Path(path).read_text()))
            ]
        for problem in problems:
            print(problem)
        print("valid" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: python -m saberbench compare A.json B.json", file=sys.stderr)
            return 2
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        return records.compare(a, b)
    if argv and argv[0] == "run":
        argv = argv[1:]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"saberbench: no engine source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="saberbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workload_names(),
                        help="run one pass of one workload (the driver's mode)")
    parser.add_argument("--seed", type=int, default=1, help="data generator seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds measured per pass (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="record path (all-workloads mode)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            _SMOKE_SECONDS if args.size == "smoke" else float(benchmark()["run_seconds"])
        )
    OUT_DIR.mkdir(exist_ok=True)
    return run_one(args) if args.workload else run_all(args)
