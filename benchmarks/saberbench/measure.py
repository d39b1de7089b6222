"""Shared measurement helpers: CPU and memory accounting, the timed-segment
loop, the end-to-end summary and the per-layer metric assembly."""

from __future__ import annotations

import resource
import statistics
import time

from .config import per_layer

_clock = time.perf_counter

#: share of ``--seconds`` the end-to-end part gets in a traced run; the
#: serial pass (a fixed amount of work) follows it.
TRACED_E2E_SHARE = 0.4


def cpu_times() -> "tuple[float, float]":
    """(user, system) CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + reaped.ru_utime, own.ru_stime + reaped.ru_stime


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0


def timed_segments(segment, seconds: float, minimum: int) -> "list[dict]":
    """Repeat ``segment()`` until ``seconds`` were measured (≥ ``minimum``)."""
    segments = []
    began = _clock()
    while len(segments) < minimum or _clock() - began < seconds:
        segments.append(segment())
    return segments


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``q`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def quartiles(samples: "list[float]") -> "tuple[float, float, float]":
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def summarise(segments: "list[dict]") -> dict:
    """End-to-end values and their per-segment samples.

    Throughput and CPU cost are the median over the timed segments.
    The latency percentiles are taken over the chunks of all timed
    segments pooled.  The per-segment samples stay in the record:
    ``compare`` takes a metric's spread from them.
    """
    throughput = [s["tuples"] / s["wall_s"] / 1e3 for s in segments]
    cpu = [(s["cpu_user_s"] + s["cpu_sys_s"]) / (s["tuples"] / 1e6) for s in segments]
    pooled = [ms for s in segments for ms in s["latencies_ms"]]
    summary = {
        "throughput_ktuples_s": {"value": statistics.median(throughput), "samples": throughput},
        "cpu_s_per_mtuple": {"value": statistics.median(cpu), "samples": cpu},
    }
    for name, q in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
        summary[name] = {
            "value": percentile(pooled, q),
            "samples": [percentile(s["latencies_ms"], q) for s in segments],
        }
    summary["latency_samples"] = len(pooled)
    return summary


def strip_latencies(segments: "list[dict]") -> "list[dict]":
    return [{k: v for k, v in s.items() if k != "latencies_ms"} for s in segments]


def layer_metrics(values: dict) -> dict:
    """Every per-layer metric by name; layers a workload bypasses read 0."""
    return {name: float(values.get(name, 0.0)) for name, __, __ in per_layer()}


def pipeline_layers(untraced: dict, traced: dict, tracer) -> dict:
    """Per-layer numbers of the engine pipeline from one traced pass.

    A span named ``x`` yields the metric ``x_ms`` (its self time); the
    pass's boundary counts are already keyed by metric name.
    """
    self_ms = {name: seconds * 1e3 for name, seconds in tracer.self_times().items()}
    accounted = sum(ms for name, ms in self_ms.items() if name != "task")
    values = dict(traced["counts"])
    values.update({f"{name}_ms": ms for name, ms in self_ms.items()})
    values.update({
        "trace.serial_ktuples_s": untraced["tuples"] / untraced["steady_wall_s"] / 1e3,
        "trace.overhead_ratio": traced["steady_wall_s"] / untraced["steady_wall_s"],
        "trace.unaccounted_share": 1.0 - accounted / (traced["wall_s"] * 1e3),
        "io.source.pulls": tracer.counts().get("io.source.pull", 0),
    })
    calls = values.get("core.scheduler.select_calls")
    if calls:
        values["core.scheduler.select_us_mean"] = (
            self_ms["core.scheduler.select"] * 1e3 / calls
        )
    return values


def end_to_end_layers(segments: "list[dict]", summary: dict, serial: float) -> dict:
    """Per-layer numbers that come from the end-to-end run.

    The executor's residual of queueing, GIL and locks (end-to-end
    against serial throughput, and the system share of CPU time), and
    the tail latency, which is too unsteady on a shared host to carry a
    bound (see the README).
    """
    shares = [
        s["cpu_sys_s"] / (s["cpu_user_s"] + s["cpu_sys_s"])
        for s in segments
        if s["cpu_user_s"] + s["cpu_sys_s"] > 0
    ]
    return {
        "latency_p90_ms": summary["latency_p90_ms"]["value"],
        "core.executor.speedup_vs_serial": summary["throughput_ktuples_s"]["value"] / serial,
        "core.executor.cpu_sys_share": statistics.median(shares) if shares else 0.0,
    }
