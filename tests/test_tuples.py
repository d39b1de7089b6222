"""Unit tests for tuple batches (lazy columnar access over byte layouts)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import (
    best_of,
    fieldwise_concat,
    fieldwise_copy,
    fieldwise_filter,
    fieldwise_take,
    schemas_and_rows,
)
from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.relational.tuples import TupleBatch

SCHEMA = Schema.with_timestamp("value:float, key:int")


def make_batch(n=10):
    return TupleBatch.from_columns(
        SCHEMA,
        timestamp=np.arange(n, dtype=np.int64),
        value=np.linspace(0, 1, n).astype(np.float32),
        key=(np.arange(n) % 3).astype(np.int32),
    )


class TestConstruction:
    def test_from_columns_and_len(self):
        batch = make_batch(7)
        assert len(batch) == 7
        assert batch.size_bytes == 7 * SCHEMA.tuple_size

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            TupleBatch.from_columns(SCHEMA, timestamp=np.arange(3))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SchemaError):
            TupleBatch.from_columns(
                SCHEMA,
                timestamp=np.arange(3),
                value=np.zeros(4),
                key=np.zeros(3),
            )

    def test_empty(self):
        batch = TupleBatch.empty(SCHEMA)
        assert len(batch) == 0
        assert batch.size_bytes == 0

    def test_wrong_dtype_rejected(self):
        with pytest.raises(SchemaError):
            TupleBatch(SCHEMA, np.zeros(4, dtype=np.float64))


class TestAccess:
    def test_column_matches_input(self):
        batch = make_batch()
        assert np.array_equal(batch.column("key"), np.arange(10) % 3)

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_batch().column("nope")

    def test_timestamps(self):
        assert np.array_equal(make_batch(4).timestamps, np.arange(4))

    def test_timestamps_require_timestamp_schema(self):
        schema = Schema.parse("a:int")
        batch = TupleBatch.from_columns(schema, a=np.arange(3, dtype=np.int32))
        with pytest.raises(SchemaError):
            __ = batch.timestamps

    def test_slice_is_view(self):
        batch = make_batch()
        sliced = batch.slice(2, 5)
        assert len(sliced) == 3
        assert sliced.data.base is not None  # no copy

    def test_take_and_filter(self):
        batch = make_batch()
        taken = batch.take(np.array([1, 3]))
        assert np.array_equal(taken.timestamps, [1, 3])
        filtered = batch.filter(np.asarray(batch.column("key")) == 0)
        assert np.array_equal(filtered.timestamps, [0, 3, 6, 9])


class TestSerialisation:
    def test_bytes_round_trip(self):
        batch = make_batch()
        raw = batch.to_bytes()
        assert len(raw) == batch.size_bytes
        back = TupleBatch.from_bytes(SCHEMA, raw)
        assert np.array_equal(back.data, batch.data)

    def test_from_bytes_rejects_ragged_length(self):
        with pytest.raises(SchemaError):
            TupleBatch.from_bytes(SCHEMA, b"\x00" * (SCHEMA.tuple_size + 1))

    def test_byte_view_construction(self):
        batch = make_batch(3)
        raw = np.frombuffer(batch.to_bytes(), dtype=np.uint8).copy()
        viewed = TupleBatch(SCHEMA, raw)
        assert np.array_equal(viewed.data, batch.data)


class TestCombinators:
    def test_concat(self):
        merged = TupleBatch.concat([make_batch(3), make_batch(2)])
        assert len(merged) == 5

    def test_concat_empty_list_raises(self):
        with pytest.raises(SchemaError):
            TupleBatch.concat([])

    def test_concat_schema_mismatch_raises(self):
        other = Schema.parse("x:long")
        b = TupleBatch.from_columns(other, x=np.arange(2))
        with pytest.raises(SchemaError):
            TupleBatch.concat([make_batch(1), b])

    def test_sorted_by_timestamp_is_stable(self):
        batch = TupleBatch.from_columns(
            SCHEMA,
            timestamp=np.array([3, 1, 1, 0], dtype=np.int64),
            value=np.array([0.3, 0.1, 0.2, 0.0], dtype=np.float32),
            key=np.zeros(4, dtype=np.int32),
        )
        ordered = batch.sorted_by_timestamp()
        assert np.array_equal(ordered.timestamps, [0, 1, 1, 3])
        assert np.allclose(ordered.column("value"), [0.0, 0.1, 0.2, 0.3], atol=1e-7)

    def test_to_rows(self):
        rows = make_batch(2).to_rows()
        assert rows[0][0] == 0 and rows[1][0] == 1


class TestRowsMoveAsBytes:
    """Every whole-row move goes through ``Schema.row_dtype``; the
    field-wise numpy statements it replaced are the oracle."""

    @given(schemas_and_rows(), st.data())
    def test_moves_equal_the_fieldwise_reference_byte_for_byte(self, drawn, data):
        schema, rows = drawn
        batch = TupleBatch(schema, rows)
        n = len(rows)

        copied = batch.copy()
        assert copied.data.tobytes() == fieldwise_copy(rows).tobytes()
        assert copied.data.dtype == schema.dtype
        assert copied.data.flags.c_contiguous and not np.shares_memory(copied.data, rows)

        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        assert batch.filter(mask).data.tobytes() == fieldwise_filter(rows, mask).tobytes()

        picks = data.draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)) if n else []
        for indices in (np.array(picks, dtype=np.int64), np.array(picks, dtype=np.int32), picks):
            assert batch.take(indices).data.tobytes() == fieldwise_take(rows, indices).tobytes()

        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
        parts = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        joined = TupleBatch.concat([TupleBatch(schema, part) for part in parts])
        assert joined.data.tobytes() == fieldwise_concat(parts).tobytes()

        assert batch.to_bytes() == np.ascontiguousarray(rows).tobytes()
        restored = TupleBatch.from_bytes(schema, batch.to_bytes())
        assert restored.data.tobytes() == batch.to_bytes()
        assert restored.data.flags.writeable

    def test_take_and_filter_keep_numpy_index_semantics(self):
        batch = make_batch(6)
        with pytest.raises(IndexError):
            batch.take(np.array([6]))
        with pytest.raises(IndexError):
            batch.take([-7])
        with pytest.raises(IndexError):
            batch.filter(np.ones(5, dtype=bool))
        assert np.array_equal(batch.take(np.array([-1, 0])).column("timestamp"), [5, 0])
        assert len(batch.take([])) == 0
        assert len(batch.take(np.array([], dtype=np.int64))) == 0

    def test_copy_runs_at_memcpy_speed(self):
        """16 384 packed 32-byte tuples: the row-view copy takes under a
        third of the field-wise statement's time (measured 10–20×)."""
        schema = Schema.with_timestamp("a:int, b:int, c:int, d:float, e:float, f:float")
        assert schema.tuple_size == 32
        batch = TupleBatch(schema, np.zeros(16384, dtype=schema.dtype))
        assert best_of(batch.copy) < best_of(lambda: fieldwise_copy(batch.data)) / 3
