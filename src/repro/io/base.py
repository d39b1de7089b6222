"""Data-plane connector SPI: how tuples enter and leave the engine.

SABER's data plane ingests tuples into per-query circular byte buffers
and applies backpressure when dispatch falls behind (§5.1).  This module
defines the pluggable I/O surface in front of that machinery:

* :class:`SourceConnector` — the **pull SPI** the dispatcher consumes.
  ``next_tuples(count)`` returns *exactly* ``count`` tuples, blocking
  until they are available, and raises
  :class:`~repro.errors.EndOfStream` (carrying the final short batch)
  once the stream is exhausted.  Push-style ingestion (``session.push``,
  sockets) is adapted onto this pull contract by a bounded ingress queue
  (:mod:`repro.io.push`).
* :class:`SinkConnector` — the **output SPI** a
  :class:`~repro.api.QueryHandle` drives: ``open(schema)`` once, then
  ``write(batch)`` per ordered output chunk, ``close()`` at session end.
* :class:`BackpressurePolicy` — what a bounded stage does when full:
  ``BLOCK`` the producer, ``DROP_OLDEST`` queued data (ingress load
  shedding), or fail fast with a typed
  :class:`~repro.errors.BackpressureError`.

Any object satisfying the duck-typed contract works — the ABCs exist
for shared plumbing (limits, lifecycle) and isinstance-based niceties,
not as a gate.  ``validate_source`` is the eager SPI check sessions run
at ``register_stream`` time.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from ..errors import EndOfStream, ValidationError
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch

__all__ = [
    "BackpressurePolicy",
    "SourceConnector",
    "SinkConnector",
    "GeneratorSource",
    "validate_source",
]


class BackpressurePolicy(enum.Enum):
    """What a full bounded stage does with new data.

    * ``BLOCK`` — the producer waits for space (lossless; the default).
    * ``DROP_OLDEST`` — evict the oldest *queued* data to admit the new
      (ingress load shedding; data already referenced by query tasks is
      never dropped).
    * ``ERROR`` — raise :class:`~repro.errors.BackpressureError`.
    """

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    ERROR = "error"

    @classmethod
    def of(cls, value: "BackpressurePolicy | str") -> "BackpressurePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            options = sorted(p.value for p in cls)
            raise ValidationError(
                f"unknown backpressure policy {value!r}; expected one of {options}"
            ) from None


class SourceConnector:
    """Base class for pull sources (the dispatcher-facing SPI).

    Contract of :meth:`next_tuples`:

    * returns a :class:`TupleBatch` of **exactly** ``count`` tuples,
      blocking until that many are available (fixed-size query tasks are
      the paper's dispatch unit, so the dispatcher never wants less);
    * raises :class:`~repro.errors.EndOfStream` — with the final short
      batch as ``remainder`` — once the stream cannot produce ``count``
      more tuples, ever;
    * raises :class:`~repro.errors.IngestInterrupted` from a blocking
      wait when the engine requested a stop (sources learn about stops
      via :meth:`bind_stop`).

    ``open``/``close``/``cancel`` are lifecycle hooks with no-op
    defaults so simple in-memory sources stay one method big.
    """

    schema: Schema

    def next_tuples(self, count: int) -> TupleBatch:
        raise NotImplementedError

    def open(self) -> None:
        """Acquire external resources (files, sockets).  Idempotent."""

    def close(self) -> None:
        """End the stream and release resources.  Idempotent.

        ``close`` is *terminal* for every bundled connector: the next
        pull observes end-of-stream — it never rewinds or restarts.
        ``session.close_stream(name)`` relies on this.
        """

    def bind_stop(self, check: "Callable[[], bool]") -> None:
        """Install the engine's stop probe; blocking pulls poll it."""
        self._stop_check = check

    def _stop_requested(self) -> bool:
        check = getattr(self, "_stop_check", None)
        return bool(check and check())


def checked_rate(tuples_per_second: int) -> int:
    """A generator's logical-time density: tuples per timestamp unit.

    Timestamps are ``position // tuples_per_second``, so zero divides by
    zero and a negative rate makes them decrease — neither is a stream.
    """
    if tuples_per_second <= 0:
        raise ValidationError(
            f"tuples_per_second must be positive, got {tuples_per_second}"
        )
    return tuples_per_second


class GeneratorSource(SourceConnector):
    """Base for programmatic sources: subclass :meth:`generate`.

    ``limit`` (tuples) turns an unbounded generator into a finite
    stream: the limit-crossing pull raises
    :class:`~repro.errors.EndOfStream` carrying the final short batch.
    All bundled workload sources derive from this, which is how every
    Table-1 workload doubles as a finite connector.
    """

    def __init__(self, schema: Schema, limit: "int | None" = None) -> None:
        if limit is not None and limit < 0:
            raise ValidationError(f"source limit must be >= 0, got {limit}")
        self.schema = schema
        self._limit = limit
        self._produced = 0

    def generate(self, count: int) -> TupleBatch:
        """Produce the next ``count`` tuples (subclass responsibility)."""
        raise NotImplementedError

    def close(self) -> None:
        """End the stream at its current position (terminal)."""
        self._limit = self._produced

    def next_tuples(self, count: int) -> TupleBatch:
        if self._limit is None:
            return self.generate(count)
        remaining = self._limit - self._produced
        if remaining >= count:
            self._produced += count
            return self.generate(count)
        self._produced = self._limit
        raise EndOfStream(self.generate(remaining) if remaining > 0 else None)


class SinkConnector:
    """Base class for output sinks, driven by a query handle.

    ``open(schema)`` is called once when the sink is attached to a
    query (the query's *output* schema); ``write(batch)`` once per
    ordered output chunk, on the emitting worker's thread — keep it
    fast; ``close()`` when the session closes.  All are idempotent
    no-ops by default.
    """

    def open(self, schema: Schema) -> None:
        """Bind to the query's output schema and acquire resources."""

    def write(self, batch: TupleBatch) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources.  Idempotent."""


def validate_source(name: str, source: Any) -> None:
    """Eagerly check an object against the source SPI contract.

    Sessions call this at ``register_stream``/``submit`` time so a bad
    source fails by *stream name* instead of deep inside dispatch.
    """
    problems = []
    schema = getattr(source, "schema", None)
    if schema is None:
        problems.append("it has no .schema attribute")
    elif not isinstance(schema, Schema):
        problems.append(f".schema is a {type(schema).__name__}, not a repro Schema")
    if not callable(getattr(source, "next_tuples", None)):
        pushable = callable(getattr(source, "push", None))
        hint = " (a push source must still expose the pull side)" if pushable else ""
        problems.append(f"it has no callable .next_tuples(count){hint}")
    if problems:
        raise ValidationError(
            f"stream {name!r}: source {type(source).__name__!r} does not "
            f"satisfy the connector SPI: " + "; ".join(problems)
        )
