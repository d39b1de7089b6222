"""Tuple batches: columnar access over byte-packed stream data.

SABER keeps tuples serialised in byte arrays and deserialises lazily,
per attribute (§5.1).  :class:`TupleBatch` mirrors that design on top of
numpy: the backing store is a packed structured array (byte-compatible
with the schema layout), and columns are materialised as views only when
an operator touches them.

**Rows move as bytes.**  numpy copies a structured row field by field
(7–20× slower than the same bytes as one record), so every whole-row
move here — copy, gather, mask, concatenate, (de)serialise — goes through
a view of the data as :attr:`Schema.row_dtype` and views the result back.
The bytes are the same either way; per-*column* work stays columnar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError
from .schema import Schema, TIMESTAMP_ATTRIBUTE


@dataclass
class TupleBatch:
    """A finite, ordered sequence of tuples sharing one schema.

    This is the unit the engine moves around: stream batches, window
    fragments and window results are all tuple batches.  Instances are
    cheap views wherever possible (slicing does not copy).
    """

    schema: Schema
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.dtype != self.schema.dtype:
            # Accept binary-compatible arrays (e.g. raw bytes) by viewing.
            if self.data.dtype == np.uint8:
                if self.data.nbytes % self.schema.tuple_size:
                    raise SchemaError(
                        "byte buffer length is not a multiple of the tuple size"
                    )
                self.data = self.data.view(self.schema.dtype)
            else:
                raise SchemaError(
                    f"batch dtype {self.data.dtype} does not match schema "
                    f"{self.schema.name!r}"
                )

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "TupleBatch":
        return cls(schema, np.empty(0, dtype=schema.dtype))

    @classmethod
    def from_columns(cls, schema: Schema, **columns: np.ndarray) -> "TupleBatch":
        """Build a batch from per-attribute arrays (all equal length)."""
        missing = [n for n in schema.attribute_names if n not in columns]
        if missing:
            raise SchemaError(f"missing columns for batch: {missing}")
        lengths = {len(np.atleast_1d(v)) for v in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"column lengths differ: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        data = np.empty(n, dtype=schema.dtype)
        for name in schema.attribute_names:
            data[name] = columns[name]
        return cls(schema, data)

    @classmethod
    def concat(cls, batches: "list[TupleBatch]") -> "TupleBatch":
        """Concatenate batches sharing a schema (used by assembly)."""
        if not batches:
            raise SchemaError("cannot concatenate zero batches")
        schema = batches[0].schema
        for b in batches[1:]:
            if b.schema.dtype != schema.dtype:
                raise SchemaError("cannot concatenate batches of differing schemas")
        rows = schema.row_dtype
        return cls(
            schema,
            np.concatenate([b.data.view(rows) for b in batches]).view(schema.dtype),
        )

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def size_bytes(self) -> int:
        """Data volume of the batch (drives the hardware cost models)."""
        return len(self.data) * self.schema.tuple_size

    def column(self, name: str) -> np.ndarray:
        """Lazily deserialised view of one attribute."""
        if name not in self.schema:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {name!r}"
            )
        return self.data[name]

    @property
    def timestamps(self) -> np.ndarray:
        if not self.schema.has_timestamp:
            raise SchemaError(
                f"schema {self.schema.name!r} has no {TIMESTAMP_ATTRIBUTE} column"
            )
        return self.data[TIMESTAMP_ATTRIBUTE]

    def slice(self, start: int, stop: int) -> "TupleBatch":
        """Zero-copy sub-batch ``[start, stop)``."""
        return TupleBatch(self.schema, self.data[start:stop])

    def copy(self) -> "TupleBatch":
        """Batch owning a fresh contiguous copy of the rows."""
        schema = self.schema
        return TupleBatch(
            schema, self.data.view(schema.row_dtype).copy().view(schema.dtype)
        )

    def take(self, indices: np.ndarray) -> "TupleBatch":
        """Batch containing the rows selected by ``indices`` (copies)."""
        schema = self.schema
        rows = self.data.view(schema.row_dtype)
        if isinstance(indices, np.ndarray) and indices.dtype.kind == "i":
            # Same rows and errors as fancy indexing, at a third the cost.
            rows = rows.take(indices)
        else:
            rows = rows[indices]
        return TupleBatch(schema, rows.view(schema.dtype))

    def filter(self, mask: np.ndarray) -> "TupleBatch":
        """Batch containing rows where ``mask`` is true (copies)."""
        schema = self.schema
        return TupleBatch(
            schema, self.data.view(schema.row_dtype)[mask].view(schema.dtype)
        )

    # -- serialisation ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialised byte representation (the on-wire/in-buffer form)."""
        return self.data.view(self.schema.row_dtype).tobytes()

    @classmethod
    def from_bytes(cls, schema: Schema, raw: bytes) -> "TupleBatch":
        if len(raw) % schema.tuple_size:
            raise SchemaError(
                f"{len(raw)} bytes is not a whole number of "
                f"{schema.tuple_size}-byte tuples"
            )
        rows = np.frombuffer(raw, dtype=schema.row_dtype).copy()
        return cls(schema, rows.view(schema.dtype))

    def to_rows(self) -> list[tuple]:
        """Materialise as Python tuples (tests/examples only: slow)."""
        return [tuple(row) for row in self.data]

    def sorted_by_timestamp(self) -> "TupleBatch":
        """Stable timestamp-ordered copy (RStream output normalisation)."""
        order = np.argsort(self.timestamps, kind="stable")
        return self.take(order)
