"""MethodTables, FieldDescs and the type registry."""

import pytest

from repro.runtime import FD_TRANSPORTABLE, FieldSpec, TypeRegistry
from repro.runtime.errors import TypeLoadError
from repro.runtime.typesys import OBJECT_HEADER_SIZE, PRIMITIVES, align8


class TestPrimitives:
    def test_sizes(self):
        assert PRIMITIVES["byte"].size == 1
        assert PRIMITIVES["int32"].size == 4
        assert PRIMITIVES["float64"].size == 8

    def test_codec_roundtrip(self):
        buf = bytearray(16)
        PRIMITIVES["int32"].pack_into(buf, 4, -123456)
        assert PRIMITIVES["int32"].unpack_from(buf, 4) == -123456

    def test_align8(self):
        assert align8(0) == 0
        assert align8(1) == 8
        assert align8(8) == 8
        assert align8(9) == 16


class TestClassDefinition:
    def test_simple_layout(self):
        reg = TypeRegistry()
        mt = reg.define_class("P", [FieldSpec("x", "int32"), FieldSpec("y", "int32")])
        assert mt.fields_by_name["x"].offset == OBJECT_HEADER_SIZE
        assert mt.fields_by_name["y"].offset == OBJECT_HEADER_SIZE + 4
        assert mt.instance_size == align8(OBJECT_HEADER_SIZE + 8)
        assert not mt.has_references

    def test_reference_field_marks_has_references(self):
        reg = TypeRegistry()
        mt = reg.define_class("Node", [FieldSpec("next", "Node")])
        # self-reference requires forward decl: define in two steps instead
        assert mt.has_references

    def test_natural_alignment(self):
        reg = TypeRegistry()
        mt = reg.define_class(
            "Mixed", [FieldSpec("b", "byte"), FieldSpec("d", "float64")]
        )
        assert mt.fields_by_name["d"].offset % 8 == 0

    def test_transportable_bit(self):
        reg = TypeRegistry()
        mt = reg.define_class(
            "T", [FieldSpec("a", "int32", transportable=True), FieldSpec("b", "int32")]
        )
        assert mt.fields_by_name["a"].flags & FD_TRANSPORTABLE
        assert mt.fields_by_name["a"].is_transportable
        assert not mt.fields_by_name["b"].is_transportable

    def test_inheritance_layout(self):
        reg = TypeRegistry()
        base = reg.define_class("Base", [FieldSpec("a", "int64")])
        child = reg.define_class("Child", [FieldSpec("b", "int32")], base=base)
        assert child.fields_by_name["a"].offset == base.fields_by_name["a"].offset
        assert child.fields_by_name["b"].offset >= base.instance_size
        assert child.is_subclass_of(base)
        assert not base.is_subclass_of(child)
        assert child.is_subclass_of(reg.OBJECT)

    def test_duplicate_class_rejected(self):
        reg = TypeRegistry()
        reg.define_class("X", [])
        with pytest.raises(TypeLoadError):
            reg.define_class("X", [])

    def test_duplicate_field_rejected_and_rolled_back(self):
        reg = TypeRegistry()
        with pytest.raises(TypeLoadError):
            reg.define_class("Dup", [FieldSpec("f", "int32"), FieldSpec("f", "byte")])
        assert "Dup" not in reg

    def test_unknown_field_type(self):
        reg = TypeRegistry()
        with pytest.raises(TypeLoadError):
            reg.define_class("Bad", [FieldSpec("f", "quaternion")])

    def test_base_by_name(self):
        reg = TypeRegistry()
        reg.define_class("A", [FieldSpec("x", "int32")])
        b = reg.define_class("B", [], base="A")
        assert b.base.name == "A"


class TestArrays:
    def test_array_of_primitive(self):
        reg = TypeRegistry()
        mt = reg.array_of("int32")
        assert mt.is_array
        assert mt.element_size == 4
        assert not mt.element_is_ref
        assert not mt.has_references

    def test_array_of_refs(self):
        reg = TypeRegistry()
        cls = reg.define_class("C", [])
        arr = reg.array_of(cls)
        assert arr.element_is_ref
        assert arr.element_size == 8
        assert arr.has_references

    def test_array_cache(self):
        reg = TypeRegistry()
        assert reg.array_of("int32") is reg.array_of("int32")

    def test_resolve_suffix_syntax(self):
        reg = TypeRegistry()
        assert reg.resolve("float64[]").is_array

    def test_element_size_on_non_array(self):
        reg = TypeRegistry()
        cls = reg.define_class("D", [])
        with pytest.raises(TypeLoadError):
            _ = cls.element_size


class TestRegistry:
    def test_resolve_object(self):
        reg = TypeRegistry()
        assert reg.resolve("object") is reg.OBJECT

    def test_resolve_unknown(self):
        with pytest.raises(TypeLoadError):
            TypeRegistry().resolve("Nope")

    def test_by_id(self):
        reg = TypeRegistry()
        mt = reg.define_class("E", [])
        assert reg.ids[mt.mt_id] is mt
        with pytest.raises(TypeLoadError):
            reg.ids[99999]

    def test_contains(self):
        reg = TypeRegistry()
        assert "int32" in reg
        assert "System.Object" in reg
        assert "Ghost" not in reg
