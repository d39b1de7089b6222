"""Instruments, collectors and the Prometheus text rendering.

Two ways a number reaches a scrape, and one registry that merges them:

* **pushed instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) for events nobody else counts — a frame handled,
  an error returned, a shard resubmitted.  The owner calls
  ``inc``/``set``/``observe`` when the event happens.
* **collectors** for everything that already lives as a plain attribute
  next to the state it describes (tasks completed, queue depths, merged
  windows).  A collector is a zero-argument callable registered with
  :meth:`MetricsRegistry.register_collector`; it is called at scrape
  time and returns ``(name, kind, help, labels, value)`` samples read
  straight off the owning objects, so the hot path pays nothing and the
  series disappear the moment the collector is unregistered.

:meth:`MetricsRegistry.render` produces the Prometheus text exposition
format (``text/plain; version=0.0.4``); :meth:`~MetricsRegistry.snapshot`,
:meth:`~MetricsRegistry.value` and :meth:`~MetricsRegistry.total` are the
same merged view for ``stats`` frames, log lines and tests.  Every
exported series is catalogued, with meaning and unit, in
``docs/operations.md``.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from typing import Any, Callable, Iterable

from ..analysis.lockdep import make_lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
]

logger = logging.getLogger("repro.metrics")

#: default latency histogram bucket upper bounds, in seconds.
LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: "dict[str, Any]") -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: "tuple[tuple[str, str], ...]") -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_family(name: str, kind: str, help_text: str, series: "dict[Any, Any]") -> "list[str]":
    """Exposition lines of one metric family: the ``# HELP`` / ``# TYPE``
    preamble, then every labelled series sorted by label key."""
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    if kind != "histogram":
        for key, value in sorted(series.items()):
            lines.append(f"{name}{_render_labels(key)} {_format(value)}")
        return lines
    for key, sample in sorted(series.items()):
        cumulative = 0
        for bound, n in zip([*sample["buckets"], float("inf")], sample["counts"]):
            cumulative += n
            bucket_key = key + (("le", _format(bound)),)
            lines.append(f"{name}_bucket{_render_labels(bucket_key)} {cumulative}")
        lines.append(f"{name}_sum{_render_labels(key)} {_format(sample['sum'])}")
        lines.append(f"{name}_count{_render_labels(key)} {sample['count']}")
    return lines


class _Instrument:
    """Shared shape of all instruments: name, help text, labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = make_lock("metrics.registry._Instrument._lock")

    def render(self) -> "list[str]":
        """Exposition lines: preamble plus every labelled series."""
        return _render_family(self.name, self.kind, self.help_text, self.samples())

    def samples(self) -> "dict[tuple[tuple[str, str], ...], Any]":
        """A point-in-time snapshot (label key → value)."""
        raise NotImplementedError


class _Scalar(_Instrument):
    """One float per labelled series (what counters and gauges share)."""

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: "dict[tuple[tuple[str, str], ...], float]" = {}

    def _add(self, amount: float, labels: "dict[str, Any]") -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0 if never written)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labelled series."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> "dict[tuple[tuple[str, str], ...], float]":
        """Snapshot of every labelled value."""
        with self._lock:
            return dict(self._values)


class Counter(_Scalar):
    """A monotonically increasing labelled count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the series selected by ``labels``."""
        self._add(amount, labels)


class Gauge(_Scalar):
    """A point-in-time labelled value."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float = 1.0, **labels: str) -> None:
        """Adjust the series by ``amount`` (gauges may go down)."""
        self._add(amount, labels)


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus ``_bucket/_sum/_count``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: "Iterable[float]" = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        #: label key -> [per-bucket counts (last = +Inf), sum, count].
        self._series: "dict[tuple[tuple[str, str], ...], list]" = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled series."""
        key = _label_key(labels)
        index = bisect_right(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels: str) -> int:
        """Number of observations in one labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[2] if series else 0

    def sum(self, **labels: str) -> float:
        """Sum of observations in one labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1] if series else 0.0

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the ``q``-th observation); ``inf`` when it falls past the
        last finite bucket, 0 with no observations."""
        sample = self.samples().get(_label_key(labels))
        if sample is None:
            return 0.0
        rank = q * sample["count"]
        cumulative = 0
        for bound, n in zip(self.buckets, sample["counts"]):
            cumulative += n
            if cumulative >= rank:
                return bound
        return float("inf")

    def samples(self) -> "dict[tuple[tuple[str, str], ...], dict]":
        """Snapshot of every labelled series: its bucket bounds, the
        per-bucket counts (one more than bounds: the last is +Inf), sum
        and count — the shape a collector's histogram sample has too."""
        with self._lock:
            return {
                key: {
                    "buckets": self.buckets,
                    "counts": list(counts),
                    "sum": total,
                    "count": n,
                }
                for key, (counts, total, n) in self._series.items()
            }


class MetricsRegistry:
    """Thread-safe registry of instruments and collectors.

    Instruments are get-or-create by name (re-registration with a
    different kind raises), so independent components can share series
    without coordination.  Collectors are registered and unregistered by
    token; whoever owns the objects a collector reads unregisters it
    when they go away, and nothing of them stays reachable from here.
    """

    #: the content type Prometheus scrapers expect.
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._lock = make_lock("metrics.registry.MetricsRegistry._lock")
        self._instruments: "dict[str, _Instrument]" = {}
        self._collectors: "dict[int, Callable[[], Iterable[Any]]]" = {}
        self._next_token = 0

    def _get_or_create(self, cls: type, name: str, *args: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, *args)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: "Iterable[float]" = LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the named :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help_text, buckets)

    def register_collector(self, fn: "Callable[[], Iterable[Any]]") -> int:
        """Call ``fn()`` at every scrape for ``(name, kind, help, labels,
        value)`` samples; returns the token :meth:`unregister_collector`
        takes.  ``fn`` runs on the scraping thread, outside the registry
        lock; if it raises, its samples are left out of that scrape and
        every other series is still served."""
        with self._lock:
            self._next_token += 1
            self._collectors[self._next_token] = fn
            return self._next_token

    def unregister_collector(self, token: int) -> None:
        """Drop a collector (and with it every series it reported)."""
        with self._lock:
            self._collectors.pop(token, None)

    def _families(self) -> "dict[str, tuple[str, str, dict]]":
        """``name -> (kind, help, {label key: value})``: the instruments'
        series with every collector's samples merged in."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors.values())
        families = {i.name: (i.kind, i.help_text, i.samples()) for i in instruments}
        for fn in collectors:
            try:
                samples = list(fn())
            except Exception:
                logger.warning("metrics collector %r failed", fn, exc_info=True)
                continue
            for name, kind, help_text, labels, value in samples:
                __, __, series = families.setdefault(name, (kind, help_text, {}))
                series[_label_key(labels)] = value
        return families

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: "list[str]" = []
        for name, family in sorted(self._families().items()):
            lines.extend(_render_family(name, *family))
        return "\n".join(lines) + "\n"

    def snapshot(self) -> "dict[str, dict]":
        """Point-in-time ``{name: {label key: value}}`` view of every
        series, pushed and collected."""
        return {name: series for name, (__, __, series) in self._families().items()}

    def value(self, name: str, **labels: str) -> Any:
        """One labelled series' current value (0 when it does not exist;
        a histogram's is its count/sum/bucket-counts dict)."""
        return self.snapshot().get(name, {}).get(_label_key(labels), 0.0)

    def total(self, name: str) -> float:
        """Sum over every labelled series of a counter or gauge."""
        return sum(self.snapshot().get(name, {}).values())
