"""Push ingestion: a bounded ingress queue behind the pull SPI.

The dispatcher only ever *pulls* fixed-size batches (§4.1's single
dispatching worker).  :class:`PushSource` adapts producer-driven
ingestion onto that contract: producers ``push(records)`` into a
bounded, tuple-counted queue from any thread; the dispatcher's
``next_tuples(count)`` blocks until ``count`` tuples are queued (or the
stream is closed) and drains exactly that many.

The queue's :class:`~repro.io.BackpressurePolicy` governs a full queue:

* ``BLOCK`` — ``push`` waits for the dispatcher to drain (lossless);
* ``DROP_OLDEST`` — the oldest *queued* tuples are evicted to admit the
  new ones (counted on :attr:`PushSource.dropped_tuples`); data the
  dispatcher already moved into circular buffers is never dropped,
  because in-flight query tasks reference it;
* ``ERROR`` — ``push`` raises :class:`~repro.errors.BackpressureError`.

``close()`` ends the stream: the final short batch is handed to the
dispatcher via :class:`~repro.errors.EndOfStream` and the query
completes.  :class:`PushHandle` is the producer-facing slice of this
surface (``session.push_handle(name)`` returns one).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

import numpy as np

from ..analysis.lockdep import make_condition
from ..errors import BackpressureError, EndOfStream, IngestInterrupted, ValidationError
from ..errors import positive_int
from ..relational.schema import Schema
from ..relational.tuples import TupleBatch
from .base import BackpressurePolicy, SourceConnector
from .records import as_batch

__all__ = ["PushSource", "PushHandle"]

#: belt-and-braces re-check interval for blocking waits; every push,
#: drain and close notifies the condition, so this is not a period.
_WAIT_TIMEOUT = 0.05


class PushSource(SourceConnector):
    """Thread-safe bounded ingress queue exposing the pull SPI.

    ``capacity_tuples`` bounds producer run-ahead (memory), not
    throughput; size it to a few query tasks — at least one task's
    worth, or the dispatcher's fixed-size pull can never be satisfied.
    One queue supports many producer threads; the single consumer is
    the dispatcher.
    """

    def __init__(
        self,
        schema: Schema,
        capacity_tuples: int = 1 << 16,
        policy: "BackpressurePolicy | str" = BackpressurePolicy.BLOCK,
    ) -> None:
        self.schema = schema
        self.capacity_tuples = positive_int(capacity_tuples, "capacity_tuples")
        self.policy = BackpressurePolicy.of(policy)
        self._segments: "deque[np.ndarray]" = deque()
        self._queued = 0
        self._closed = False
        self._cond = make_condition("io.push.PushSource._cond")
        #: tuples admitted into the queue / evicted from it under the
        #: DROP_OLDEST policy (both written under the queue condition).
        self.pushed_tuples = 0
        self.dropped_tuples = 0

    # -- producer side -------------------------------------------------------

    def push(self, records: Any) -> int:
        """Enqueue records (batch, structured array, or rows); returns
        the number of tuples accepted.  Thread-safe."""
        batch = as_batch(self.schema, records)
        n = len(batch)
        if n == 0:
            return 0
        # Copy at the ingress boundary: the queue must not alias the
        # caller's array — producers commonly reuse their push buffer
        # before the dispatcher drains, and _drain keeps sub-slices
        # queued across pulls.
        data = batch.copy().data
        with self._cond:
            if self._closed:
                raise ValidationError(f"stream {self.schema.name!r} is closed; cannot push")
            if self.policy is BackpressurePolicy.BLOCK:
                # Progressive admission: enqueue whatever fits as room
                # appears.  Waiting for the whole batch to fit at once
                # can deadlock (a batch larger than the capacity, or a
                # sub-task residue the dispatcher never drains), and
                # cross-producer segment order is undefined anyway.
                offset = 0
                while offset < n:
                    take = self._wait_for_room(n - offset)
                    self._segments.append(data[offset : offset + take])
                    self._queued += take
                    self.pushed_tuples += take
                    offset += take
                    self._cond.notify_all()
                return n
            elif self.policy is BackpressurePolicy.ERROR:
                if self._queued + n > self.capacity_tuples:
                    raise BackpressureError(
                        f"push of {n} tuples exceeds the ingress queue of "
                        f"stream {self.schema.name!r} ({self._queued} queued, "
                        f"capacity {self.capacity_tuples})"
                    )
            else:  # DROP_OLDEST
                while self._segments and self._queued + n > self.capacity_tuples:
                    evicted = self._segments.popleft()
                    self._queued -= len(evicted)
                    self.dropped_tuples += len(evicted)
                if n > self.capacity_tuples:
                    # Even an empty queue cannot hold it: keep the newest.
                    self.dropped_tuples += n - self.capacity_tuples
                    data = data[n - self.capacity_tuples :]
                    n = len(data)
            self._segments.append(data)
            self._queued += n
            self.pushed_tuples += n
            self._cond.notify_all()
        return n

    def _wait_for_room(self, wanted: int) -> int:
        """Block until any room exists (caller holds the lock); returns
        the number of tuples admissible now, at most ``wanted``."""
        while self._queued >= self.capacity_tuples and not self._closed:
            self._cond.wait(_WAIT_TIMEOUT)
        if self._closed:
            raise ValidationError(
                f"stream {self.schema.name!r} was closed while a "
                "push was blocked on backpressure"
            )
        return min(wanted, self.capacity_tuples - self._queued)

    def close(self) -> None:
        """End of stream: no further pushes; queued tuples still drain."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queued_tuples(self) -> int:
        with self._cond:
            return self._queued

    # -- consumer (dispatcher) side ------------------------------------------

    def next_tuples(self, count: int) -> TupleBatch:
        with self._cond:
            while self._queued < count and not self._closed:
                if self._stop_requested():
                    raise IngestInterrupted(
                        f"stream {self.schema.name!r}: pull interrupted by "
                        "engine stop"
                    )
                self._cond.wait(_WAIT_TIMEOUT)
            if self._queued >= count:
                batch = self._drain(count)
                self._cond.notify_all()  # queue space freed
                return batch
            # Closed with a short tail: the stream is over.
            remainder = self._drain(self._queued) if self._queued else None
            raise EndOfStream(remainder)

    def _drain(self, count: int) -> TupleBatch:
        """Pop exactly ``count`` tuples (caller holds the lock)."""
        parts: "list[np.ndarray]" = []
        needed = count
        while needed:
            segment = self._segments.popleft()
            if len(segment) <= needed:
                parts.append(segment)
                needed -= len(segment)
            else:
                parts.append(segment[:needed])
                self._segments.appendleft(segment[needed:])
                needed = 0
        self._queued -= count
        batches = [TupleBatch(self.schema, part) for part in parts]
        return batches[0] if len(batches) == 1 else TupleBatch.concat(batches)


class PushHandle:
    """Producer-facing view of a pushable stream.

    Sessions hand these out (``session.push_handle(name)``) so producer
    code can ingest and close a stream without holding the session or
    the underlying connector.
    """

    def __init__(self, source: PushSource) -> None:
        if not callable(getattr(source, "push", None)):
            raise ValidationError(
                f"source {type(source).__name__!r} is not push-capable "
                "(no .push method)"
            )
        self._source = source

    @property
    def schema(self) -> Schema:
        return self._source.schema

    def push(self, records: Any) -> int:
        return self._source.push(records)

    def close(self) -> None:
        self._source.close()

    @property
    def closed(self) -> bool:
        return self._source.closed

    def __enter__(self) -> "PushHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
