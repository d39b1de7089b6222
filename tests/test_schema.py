"""Unit tests for relational schemas and the binary tuple layout."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.relational.schema import Attribute, Schema


class TestAttribute:
    def test_size_of_primitive_types(self):
        assert Attribute("a", "long").size_bytes == 8
        assert Attribute("a", "int").size_bytes == 4
        assert Attribute("a", "float").size_bytes == 4
        assert Attribute("a", "double").size_bytes == 8

    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            Attribute("a", "varchar")

    def test_rejects_non_identifier_name(self):
        with pytest.raises(SchemaError):
            Attribute("not a name", "int")


class TestSchema:
    def test_parse_round_trip(self):
        schema = Schema.parse("timestamp:long, value:float, key:int")
        assert schema.attribute_names == ("timestamp", "value", "key")
        assert schema.tuple_size == 16

    def test_with_timestamp_prepends(self):
        schema = Schema.with_timestamp("value:float")
        assert schema.attribute_names[0] == "timestamp"
        assert schema.has_timestamp

    def test_with_timestamp_empty_body(self):
        schema = Schema.with_timestamp("")
        assert schema.attribute_names == ("timestamp",)

    def test_paper_synthetic_tuple_is_32_bytes(self):
        schema = Schema.with_timestamp(
            "a1:float, a2:int, a3:int, a4:int, a5:int, a6:int"
        )
        assert schema.tuple_size == 32

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.parse("a:int, a:float")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_offsets_follow_attribute_order(self):
        schema = Schema.parse("a:long, b:int, c:float")
        assert schema.offset_of("a") == 0
        assert schema.offset_of("b") == 8
        assert schema.offset_of("c") == 12

    def test_index_and_contains(self):
        schema = Schema.parse("a:long, b:int")
        assert schema.index_of("b") == 1
        assert "b" in schema
        assert "z" not in schema

    def test_unknown_attribute_raises(self):
        schema = Schema.parse("a:long")
        with pytest.raises(SchemaError):
            schema.attribute("zz")
        with pytest.raises(SchemaError):
            schema.offset_of("zz")

    def test_dtype_is_packed(self):
        schema = Schema.parse("a:long, b:int, c:int")
        assert schema.dtype.itemsize == schema.tuple_size

    def test_project_preserves_order_given(self):
        schema = Schema.parse("a:long, b:int, c:float")
        projected = schema.project(["c", "a"])
        assert projected.attribute_names == ("c", "a")

    def test_extend_rejects_duplicates(self):
        schema = Schema.parse("a:long")
        with pytest.raises(SchemaError):
            schema.extend(Attribute("a", "int"))

    def test_extend_appends(self):
        schema = Schema.parse("a:long").extend(Attribute("b", "float"))
        assert schema.attribute_names == ("a", "b")

    def test_concat_prefixes_clashes(self):
        left = Schema.parse("timestamp:long, v:int")
        right = Schema.parse("timestamp:long, w:int")
        joined = left.concat(right)
        assert joined.attribute_names == ("timestamp", "v", "r_timestamp", "w")

    def test_concat_unresolvable_clash_raises(self):
        left = Schema.parse("a:int, r_a:int")
        right = Schema.parse("a:int")
        with pytest.raises(SchemaError):
            left.concat(right)


class TestCachedLayout:
    """Derived layout facts are computed once per schema (they are read
    ~20 times per task) and survive the trip to a worker process."""

    def test_layout_is_computed_once(self):
        schema = Schema.parse("timestamp:long, a:int, b:float")
        assert schema.dtype is schema.dtype
        assert schema.row_dtype is schema.row_dtype
        assert schema.attribute_names is schema.attribute_names
        assert schema.tuple_size == 16 and schema.has_timestamp

    def test_row_dtype_is_one_opaque_record_per_tuple(self):
        for spec in ("a:int", "timestamp:long, a:int, b:float", "a:double, b:double, c:long"):
            schema = Schema.parse(spec)
            assert schema.row_dtype.itemsize == schema.tuple_size == schema.dtype.itemsize
            assert schema.row_dtype.kind == "V" and schema.row_dtype.names is None

    def test_caches_do_not_leak_into_equality_hash_or_pickle(self):
        warm = Schema.parse("timestamp:long, a:int")
        cold = Schema.parse("timestamp:long, a:int")
        warm.dtype, warm.row_dtype, warm.tuple_size
        assert warm == cold and hash(warm) == hash(cold)
        for schema in (warm, cold):
            restored = pickle.loads(pickle.dumps(schema))
            assert restored == schema
            assert restored.dtype == schema.dtype and restored.row_dtype == schema.row_dtype
            assert restored.dtype is restored.dtype
