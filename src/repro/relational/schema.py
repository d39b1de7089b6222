"""Relational stream schemas with a fixed-width binary layout.

SABER stores stream tuples in their byte representation inside circular
buffers and deserialises lazily (§5.1).  We model the same layout: a schema
is an ordered list of fixed-width attributes, the first of which is by
convention a 64-bit timestamp.  The total tuple size in bytes is what the
dispatcher and the hardware cost models reason about (e.g. the paper's
32-byte synthetic tuples: one ``int64`` timestamp plus six 32-bit values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import SchemaError

#: Supported primitive attribute types and their numpy equivalents.
_TYPE_MAP = {
    "long": np.dtype(np.int64),
    "int": np.dtype(np.int32),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}

#: Name of the timestamp attribute expected as the first schema column.
TIMESTAMP_ATTRIBUTE = "timestamp"


@dataclass(frozen=True)
class Attribute:
    """A named, fixed-width attribute of a stream schema."""

    name: str
    type_name: str

    def __post_init__(self) -> None:
        if self.type_name not in _TYPE_MAP:
            raise SchemaError(
                f"unsupported attribute type {self.type_name!r} for "
                f"{self.name!r}; expected one of {sorted(_TYPE_MAP)}"
            )
        if not self.name.isidentifier():
            raise SchemaError(f"attribute name {self.name!r} is not an identifier")

    @property
    def dtype(self) -> np.dtype:
        """numpy dtype of this attribute."""
        return _TYPE_MAP[self.type_name]

    @property
    def size_bytes(self) -> int:
        """Width of the attribute in the binary tuple layout."""
        return self.dtype.itemsize


@dataclass(frozen=True)
class Schema:
    """An ordered collection of attributes describing one stream.

    The schema defines the fixed-width binary tuple layout used throughout
    the engine.  Attribute order matters: byte offsets are derived from it.

    Example::

        schema = Schema.parse("timestamp:long, value:float, plug:int")
        schema.tuple_size      # 16
        schema.dtype           # numpy structured dtype
    """

    attributes: tuple[Attribute, ...]
    name: str = field(default="stream", compare=False)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, spec: str, name: str = "stream") -> "Schema":
        """Build a schema from a ``"name:type, name:type"`` string."""
        attributes = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                attr_name, type_name = (s.strip() for s in part.split(":"))
            except ValueError as exc:
                raise SchemaError(f"malformed attribute spec {part!r}") from exc
            attributes.append(Attribute(attr_name, type_name))
        return cls(tuple(attributes), name=name)

    @classmethod
    def with_timestamp(cls, spec: str, name: str = "stream") -> "Schema":
        """Like :meth:`parse` but prepends the ``timestamp:long`` column."""
        prefix = f"{TIMESTAMP_ATTRIBUTE}:long"
        spec = f"{prefix}, {spec}" if spec.strip() else prefix
        return cls.parse(spec, name=name)

    # -- lookups ----------------------------------------------------------

    # Derived layout facts are read ~20 times per task on the GIL-held
    # path, so each is computed once per schema.  ``cached_property``
    # stores into the instance ``__dict__`` (allowed on a frozen
    # dataclass); equality and hashing look at the fields only.

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @cached_property
    def spec(self) -> str:
        """The ``"name:type, name:type"`` string :meth:`parse` reads."""
        return ", ".join(f"{a.name}:{a.type_name}" for a in self.attributes)

    @cached_property
    def tuple_size(self) -> int:
        """Size of one tuple in bytes under the fixed-width layout."""
        return sum(a.size_bytes for a in self.attributes)

    @cached_property
    def dtype(self) -> np.dtype:
        """Packed numpy structured dtype matching the binary layout."""
        return np.dtype(
            [(a.name, a.dtype) for a in self.attributes], align=False
        )

    @cached_property
    def row_dtype(self) -> np.dtype:
        """A tuple as one opaque ``tuple_size``-byte record.

        numpy moves a structured row field by field; viewed through this
        dtype the same bytes move at memcpy speed.  Every whole-row copy,
        gather and concatenate in the engine goes through a
        ``.view(schema.row_dtype)`` — same itemsize, so the view is free
        and works on strided 1-D arrays too.
        """
        return np.dtype((np.void, self.tuple_size))

    @cached_property
    def has_timestamp(self) -> bool:
        return self.attributes[0].name == TIMESTAMP_ATTRIBUTE

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name, raising :class:`SchemaError`."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def index_of(self, name: str) -> int:
        """Position of an attribute in the layout."""
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def offset_of(self, name: str) -> int:
        """Byte offset of an attribute within a serialised tuple."""
        offset = 0
        for attr in self.attributes:
            if attr.name == name:
                return offset
            offset += attr.size_bytes
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def __contains__(self, name: object) -> bool:
        return name in self.attribute_names

    # -- derivation -------------------------------------------------------

    def project(self, names: "list[str] | tuple[str, ...]") -> "Schema":
        """Schema restricted to (and reordered by) ``names``."""
        return Schema(
            tuple(self.attribute(n) for n in names),
            name=f"{self.name}_proj",
        )

    def extend(self, attribute: Attribute) -> "Schema":
        """Schema with one extra attribute appended."""
        if attribute.name in self:
            raise SchemaError(
                f"attribute {attribute.name!r} already exists in {self.name!r}"
            )
        return Schema(self.attributes + (attribute,), name=self.name)

    def rename(self, name: str) -> "Schema":
        return Schema(self.attributes, name=name)

    def concat(self, other: "Schema", prefix: str = "", other_prefix: str = "r_") -> "Schema":
        """Join-output schema: this schema followed by ``other``.

        Clashing attribute names on the right side get ``other_prefix``.
        """
        attrs = [Attribute(prefix + a.name, a.type_name) for a in self.attributes]
        taken = {a.name for a in attrs}
        for a in other.attributes:
            out_name = a.name if a.name not in taken else other_prefix + a.name
            if out_name in taken:
                raise SchemaError(f"cannot disambiguate join attribute {a.name!r}")
            taken.add(out_name)
            attrs.append(Attribute(out_name, a.type_name))
        return Schema(tuple(attrs), name=f"{self.name}_x_{other.name}")
