"""Circular input buffers (§4.1) over pluggable backing stores.

SABER keeps one circular byte buffer per input stream and per query.  Only
the dispatching worker inserts; executing workers have read-only access via
``(start, end)`` tuple-index ranges carried by query tasks, and data is
released by moving the buffer's start pointer to a task's *free pointer*
once that task's results have been processed.

We implement the same pointer discipline over a numpy array.  Indices are
expressed in **tuples** (the schema has a fixed tuple width) and grow
monotonically; physical positions are the index modulo capacity, exactly
like the paper's identifier-modulo-slots result buffer.

**Backing stores.**  Where the tuple slots (and the head/tail pointers)
physically live is pluggable:

* ``"local"`` — a process-private numpy array with plain-int pointers:
  the sim and threads backends, where every reader shares the address
  space;
* ``"shared"`` — a :mod:`multiprocessing.shared_memory` segment whose
  first 16 bytes hold the head/tail pointers as int64s and whose
  remainder holds the tuple slots.  Worker *processes* forked from the
  dispatcher inherit the mapping, so inserts made by the dispatcher
  after the fork are visible to every worker and task reads stay
  zero-copy views of the one shared segment (the processes backend).

**Concurrency.**  The buffer supports the paper's single-writer regime
used by both real execution backends: one dispatcher inserts, workers
read task ranges, and the result stage advances the start pointer in
task order.  A lock makes head/tail advancement atomic within the owning
process; data races cannot occur structurally because inserts only touch
free slots (beyond ``tail``) while reads only touch retained slots
(``[head, tail)``), and a task's range is never released before its
results were processed.  Across processes the pointers are aligned
8-byte slots written by exactly one side each (the dispatcher owns
``tail``, the result stage owns ``head``), and a task descriptor only
reaches a worker *after* its range was inserted, so the queue transfer
orders the writes.
"""

from __future__ import annotations

import os
import secrets
import threading
from multiprocessing import shared_memory

import numpy as np

from ..analysis.lockdep import make_lock
from ..errors import BackpressureError, BufferError_, positive_int
from .schema import Schema
from .tuples import TupleBatch

#: bytes reserved at the front of a shared segment for head/tail (2 int64).
_POINTER_HEADER_BYTES = 16

BACKINGS = ("local", "shared")


class LocalStore:
    """Process-private backing: a numpy array plus plain-int pointers."""

    shared = False

    def __init__(self, dtype: np.dtype, capacity: int) -> None:
        self.array = np.zeros(capacity, dtype=dtype)
        self.head = 0
        self.tail = 0

    def close(self) -> None:
        """Nothing to release: the array dies with its owner."""

    def __reduce__(self):
        raise TypeError(
            "a local buffer store cannot cross process boundaries; "
            "use backing='shared' for the processes backend"
        )


class SharedMemoryStore:
    """Shared-memory backing: slots and pointers in one OS segment.

    The segment layout is ``[head int64][tail int64][capacity × tuple]``.
    Pointer loads/stores are single aligned 8-byte accesses (atomic on
    every platform CPython runs on), so a forked worker always reads a
    consistent pointer value; *coordination* (who may write which
    pointer when) is the buffer's single-writer discipline, not the
    store's concern.

    The creating process owns the segment: :meth:`close` both unmaps and
    unlinks it.  Forked children inherit the mapping and never unlink —
    their copy is torn down with the process.  A finalizer unlinks the
    segment even when an owner forgets ``close()``, so test processes do
    not accumulate ``/dev/shm`` garbage (the stress suite asserts this).
    """

    shared = True

    def __init__(self, dtype: np.dtype, capacity: int) -> None:
        size = _POINTER_HEADER_BYTES + capacity * dtype.itemsize
        name = f"saber-{os.getpid()}-{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        self._owner_pid = os.getpid()
        self._closed = False
        self._pointers = np.ndarray(
            2, dtype=np.int64, buffer=self._shm.buf, offset=0
        )
        self._pointers[:] = 0
        self.array = np.ndarray(
            capacity, dtype=dtype, buffer=self._shm.buf, offset=_POINTER_HEADER_BYTES
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def head(self) -> int:
        return int(self._pointers[0])

    @head.setter
    def head(self, value: int) -> None:
        self._pointers[0] = value

    @property
    def tail(self) -> int:
        return int(self._pointers[1])

    @tail.setter
    def tail(self, value: int) -> None:
        self._pointers[1] = value

    def close(self) -> None:
        """Unmap the segment; the creating process also unlinks it.

        Idempotent.  Must not be called while zero-copy reads of the
        segment are still alive (the engine only calls it at shutdown,
        after every run completed).
        """
        if self._closed:
            return
        self._closed = True
        # Drop the exported views first: SharedMemory.close() raises
        # BufferError while numpy still pins the mapping.
        self._pointers = None
        self.array = None
        self._shm.close()
        if os.getpid() == self._owner_pid:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - exercised at interpreter exit
        try:
            self.close()
        except Exception:
            pass


def _make_store(backing: str, dtype: np.dtype, capacity: int):
    stores = {"local": LocalStore, "shared": SharedMemoryStore}
    if backing not in stores:
        raise BufferError_(f"unknown buffer backing {backing!r} (expected {BACKINGS})")
    try:
        return stores[backing](dtype, capacity)
    except (MemoryError, OSError):
        raise BufferError_(
            f"cannot allocate a ring of {capacity} tuples ({capacity * dtype.itemsize} bytes)"
        ) from None


class CircularTupleBuffer:
    """Fixed-capacity circular buffer of serialised tuples.

    Logical positions (``head``, ``tail``) are monotonically increasing
    tuple counts; the physical slot of logical position ``i`` is
    ``i % capacity``.  ``head`` is the oldest retained tuple (the paper's
    *start pointer*), ``tail`` is one past the newest (*end pointer*).
    """

    def __init__(
        self, schema: Schema, capacity_tuples: int, backing: str = "local"
    ) -> None:
        self.schema = schema
        self.capacity = positive_int(capacity_tuples, "capacity_tuples", BufferError_)
        self.backing = backing
        self._store = _make_store(backing, schema.dtype, self.capacity)
        self._lock = make_lock("relational.buffer.CircularTupleBuffer._lock")

    # -- state -------------------------------------------------------------

    @property
    def head(self) -> int:
        return self._store.head

    @property
    def tail(self) -> int:
        return self._store.tail

    def __len__(self) -> int:
        return self._store.tail - self._store.head

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self)

    @property
    def size_bytes(self) -> int:
        return len(self) * self.schema.tuple_size

    def close(self) -> None:
        """Release the backing store (unlinks shared segments)."""
        self._store.close()

    # -- producer side -------------------------------------------------------

    def insert(self, batch: TupleBatch) -> int:
        """Append a batch; returns the logical index of its first tuple.

        Raises :class:`~repro.errors.BackpressureError` (a
        :class:`BufferError_`) on overflow — the engine's configured
        :class:`~repro.io.BackpressurePolicy` normally prevents ever
        reaching this by blocking or shedding before the pull.
        """
        if batch.data.dtype != self.schema.dtype:
            raise BufferError_(
                f"batch schema {batch.schema.name!r} does not match buffer "
                f"schema {self.schema.name!r}"
            )
        n = len(batch)
        store = self._store
        with self._lock:
            if n > self.free_slots:
                raise BackpressureError(
                    f"circular buffer overflow: inserting {n} tuples with only "
                    f"{self.free_slots} free slots (capacity {self.capacity})"
                )
            start = store.tail
            first = start % self.capacity
            end = first + n
            # The written region is entirely free (beyond ``tail``), so
            # concurrent readers of retained ranges never observe it.
            # Slots and batch are both viewed as opaque rows so the copy
            # is a memcpy (per call: a shared store must not keep a view
            # alive past ``close``).
            row = self.schema.row_dtype
            slots, rows = store.array.view(row), batch.data.view(row)
            if end <= self.capacity:
                slots[first:end] = rows
            else:
                split = self.capacity - first
                slots[first:] = rows[:split]
                slots[: end - self.capacity] = rows[split:]
            store.tail = start + n
        return start

    # -- consumer side -------------------------------------------------------

    def read(self, start: int, stop: int, copy: bool = True) -> TupleBatch:
        """Read logical range ``[start, stop)``.

        The range must lie within the retained region ``[head, tail)``.
        With ``copy=False`` a contiguous range is returned as a zero-copy
        view of the backing store — only safe while the range stays
        retained, which is how worker processes read task batches (their
        ranges are released strictly after their results are processed).
        Wrapped ranges always concatenate into a fresh array.
        """
        store = self._store
        with self._lock:
            if start < store.head or stop > store.tail or start > stop:
                raise BufferError_(
                    f"read range [{start}, {stop}) outside retained "
                    f"[{store.head}, {store.tail})"
                )
        n = stop - start
        first = start % self.capacity
        end = first + n
        slots = store.array.view(self.schema.row_dtype)
        if end <= self.capacity:
            rows = slots[first:end]
            if copy:
                rows = rows.copy()
        else:
            rows = np.concatenate([slots[first:], slots[: end - self.capacity]])
        return TupleBatch(self.schema, rows.view(self.schema.dtype))

    def release(self, free_pointer: int) -> None:
        """Advance the start pointer: data before ``free_pointer`` is gone.

        Mirrors the result stage moving the buffer start to a completed
        task's free pointer.  Releasing backwards is a no-op (results can
        finish out of order; only the furthest pointer matters).
        """
        store = self._store
        with self._lock:
            if free_pointer > store.tail:
                raise BufferError_(
                    f"cannot release past end pointer ({free_pointer} > {store.tail})"
                )
            if free_pointer > store.head:
                store.head = free_pointer
