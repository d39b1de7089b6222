"""Unit tests for the circular input buffer (§4.1 pointer discipline)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import best_of, fieldwise_ring_insert, fieldwise_ring_read, schemas_and_rows
from repro.errors import BufferError_
from repro.relational.buffer import BACKINGS, CircularTupleBuffer
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch

SCHEMA = Schema.parse("timestamp:long, v:int")


def batch(values):
    values = list(values)
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(len(values), dtype=np.int64),
        v=np.asarray(values, dtype=np.int32),
    )


class TestBasics:
    def test_insert_returns_logical_start(self):
        buf = CircularTupleBuffer(SCHEMA, 8)
        assert buf.insert(batch([1, 2])) == 0
        assert buf.insert(batch([3])) == 2
        assert len(buf) == 3

    def test_read_returns_inserted_data(self):
        buf = CircularTupleBuffer(SCHEMA, 8)
        buf.insert(batch([1, 2, 3]))
        out = buf.read(1, 3)
        assert np.array_equal(out.column("v"), [2, 3])

    def test_capacity_must_be_positive(self):
        with pytest.raises(BufferError_):
            CircularTupleBuffer(SCHEMA, 0)

    def test_overflow_raises(self):
        buf = CircularTupleBuffer(SCHEMA, 4)
        buf.insert(batch([1, 2, 3]))
        with pytest.raises(BufferError_):
            buf.insert(batch([4, 5]))

    def test_size_bytes(self):
        buf = CircularTupleBuffer(SCHEMA, 4)
        buf.insert(batch([1, 2]))
        assert buf.size_bytes == 2 * SCHEMA.tuple_size


class TestWrapAround:
    def test_insert_wraps_physically(self):
        buf = CircularTupleBuffer(SCHEMA, 4)
        buf.insert(batch([1, 2, 3]))
        buf.release(2)
        buf.insert(batch([4, 5, 6]))  # wraps
        out = buf.read(2, 6)
        assert np.array_equal(out.column("v"), [3, 4, 5, 6])

    def test_long_fifo_stream(self):
        buf = CircularTupleBuffer(SCHEMA, 16)
        logical = 0
        expected = []
        for round_ in range(20):
            data = list(range(round_ * 3, round_ * 3 + 3))
            buf.insert(batch(data))
            expected.extend(data)
            logical += 3
            if round_ % 2:
                out = buf.read(logical - 6, logical)
                assert list(out.column("v")) == expected[-6:]
                buf.release(logical - 6)


class TestPointers:
    def test_read_before_head_raises(self):
        buf = CircularTupleBuffer(SCHEMA, 8)
        buf.insert(batch([1, 2, 3]))
        buf.release(2)
        with pytest.raises(BufferError_):
            buf.read(0, 2)

    def test_read_past_tail_raises(self):
        buf = CircularTupleBuffer(SCHEMA, 8)
        buf.insert(batch([1]))
        with pytest.raises(BufferError_):
            buf.read(0, 2)

    def test_release_backwards_is_noop(self):
        buf = CircularTupleBuffer(SCHEMA, 8)
        buf.insert(batch([1, 2, 3]))
        buf.release(2)
        buf.release(1)  # out-of-order result completion
        assert buf.head == 2

    def test_release_past_tail_raises(self):
        buf = CircularTupleBuffer(SCHEMA, 8)
        buf.insert(batch([1]))
        with pytest.raises(BufferError_):
            buf.release(5)

    def test_release_frees_capacity(self):
        buf = CircularTupleBuffer(SCHEMA, 4)
        buf.insert(batch([1, 2, 3, 4]))
        assert buf.free_slots == 0
        buf.release(3)
        assert buf.free_slots == 3


class TestRowsMoveAsBytes:
    """``insert``/``read`` move opaque rows; the field-wise ring
    statements they replaced are the oracle, on both backings."""

    @pytest.mark.parametrize("backing", BACKINGS)
    @given(schemas_and_rows(), st.data())
    def test_ring_equals_the_fieldwise_reference_byte_for_byte(self, backing, drawn, data):
        schema, rows = drawn
        n = len(rows)
        capacity = data.draw(st.integers(max(n, 1), max(n, 1) + 8))
        position = data.draw(st.integers(0, 2 * capacity))  # wraps or not
        buf = CircularTupleBuffer(schema, capacity, backing=backing)
        try:
            # Walk the ring to ``position`` so the batch lands anywhere,
            # including across the physical end.
            for step in [capacity] * (position // capacity) + [position % capacity]:
                buf.insert(TupleBatch(schema, np.zeros(step, dtype=schema.dtype)))
                buf.release(buf.tail)
            expected_slots = np.zeros(capacity, dtype=schema.dtype)
            fieldwise_ring_insert(expected_slots, position % capacity, rows)

            start = buf.insert(TupleBatch(schema, rows))
            assert start == position
            slots = buf._store.array.tobytes()
            assert slots == expected_slots.tobytes()

            expected = fieldwise_ring_read(expected_slots, position % capacity, n)
            out = buf.read(start, start + n, copy=True)
            assert out.data.tobytes() == expected.tobytes()
            assert out.data.dtype == schema.dtype
            assert not np.shares_memory(out.data, buf._store.array)
            view = buf.read(start, start + n, copy=False)
            assert view.data.tobytes() == expected.tobytes()
            del view
        finally:
            buf.close()

    def test_insert_runs_at_memcpy_speed(self):
        """16 384 packed 32-byte tuples: ``insert`` (checks, lock and all)
        takes under a third of the field-wise slot assignment's time."""
        schema = Schema.parse("timestamp:long, a:int, b:int, c:int, d:float, e:float, f:float")
        assert schema.tuple_size == 32
        task = TupleBatch(schema, np.zeros(16384, dtype=schema.dtype))
        buf = CircularTupleBuffer(schema, 4 * len(task))
        slots = np.zeros(buf.capacity, dtype=schema.dtype)

        def insert():
            buf.release(buf.tail)
            buf.insert(task)

        assert best_of(insert) < best_of(lambda: fieldwise_ring_insert(slots, 100, task.data)) / 3
