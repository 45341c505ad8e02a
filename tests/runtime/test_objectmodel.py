"""Object headers, field access, arrays and the data-range window."""

import pytest

from repro.runtime.errors import (
    InvalidCastError,
    NullReferenceError_,
    ObjectModelViolation,
)
from repro.runtime.typesys import ARRAY_DATA_OFFSET, OBJECT_HEADER_SIZE


class TestHeaders:
    def test_method_table_resolution(self, runtime):
        runtime.define_class("P", [("x", "int32")])
        ref = runtime.new("P")
        assert runtime.om.method_table(ref.addr).name == "P"

    def test_null_method_table(self, runtime):
        with pytest.raises(NullReferenceError_):
            runtime.om.method_table(0)

    def test_object_size(self, runtime):
        runtime.define_class("Q", [("a", "int64"), ("b", "int64")])
        ref = runtime.new("Q")
        assert runtime.om.object_size(ref.addr) == OBJECT_HEADER_SIZE + 16


class TestFields:
    def test_get_set_primitive(self, runtime):
        runtime.define_class("P", [("x", "int32"), ("f", "float64")])
        ref = runtime.new("P", x=5, f=2.25)
        assert runtime.get_field(ref, "x") == 5
        assert runtime.get_field(ref, "f") == 2.25
        runtime.set_field(ref, "x", -9)
        assert runtime.get_field(ref, "x") == -9

    def test_zero_initialised(self, runtime):
        runtime.define_class("Z", [("x", "int32"), ("r", "object")])
        ref = runtime.new("Z")
        assert runtime.get_field(ref, "x") == 0
        assert runtime.get_field(ref, "r") is None

    def test_unknown_field(self, runtime):
        runtime.define_class("P2", [("x", "int32")])
        ref = runtime.new("P2")
        with pytest.raises(ObjectModelViolation):
            runtime.get_field(ref, "ghost")

    def test_ref_field_requires_barrier(self, runtime):
        """Raw set_field cannot write a reference: the runtime's write
        barrier (set_ref) is the only path."""
        runtime.define_class("R", [("other", "object")])
        ref = runtime.new("R")
        with pytest.raises(ObjectModelViolation):
            runtime.om.set_field(ref.addr, "other", 1234)

    def test_typed_reference_check(self, runtime):
        """Storing the wrong class through a typed reference is refused:
        'object references are guaranteed to be either null or reference
        an object of the correct type' (paper §2.4)."""
        runtime.define_class("A", [])
        runtime.define_class("B", [])
        runtime.define_class("Holder", [("a", "A")])
        holder = runtime.new("Holder")
        b = runtime.new("B")
        with pytest.raises(ObjectModelViolation):
            runtime.set_ref(holder, "a", b)

    def test_subclass_assignment_allowed(self, runtime):
        runtime.define_class("Base2", [])
        runtime.define_class("Derived2", [], base="Base2")
        runtime.define_class("H2", [("b", "Base2")])
        h = runtime.new("H2")
        d = runtime.new("Derived2")
        runtime.set_ref(h, "b", d)
        assert runtime.get_field(h, "b").same_object(d)


class TestArrays:
    def test_length_and_elements(self, runtime):
        arr = runtime.new_array("int32", 4, values=[10, 20, 30, 40])
        assert runtime.array_length(arr) == 4
        assert [runtime.get_elem(arr, i) for i in range(4)] == [10, 20, 30, 40]

    def test_bounds_check(self, runtime):
        arr = runtime.new_array("int32", 2)
        with pytest.raises(ObjectModelViolation):
            runtime.get_elem(arr, 2)
        with pytest.raises(ObjectModelViolation):
            runtime.get_elem(arr, -1)

    def test_length_on_non_array(self, runtime):
        runtime.define_class("NA", [])
        with pytest.raises(InvalidCastError):
            runtime.array_length(runtime.new("NA"))

    def test_ref_array(self, runtime):
        runtime.define_class("El", [("v", "int32")])
        arr = runtime.new_array("El", 3)
        e = runtime.new("El", v=7)
        runtime.set_elem_ref(arr, 1, e)
        assert runtime.get_elem(arr, 0) is None
        assert runtime.get_field(runtime.get_elem(arr, 1), "v") == 7

    def test_negative_length(self, runtime):
        from repro.runtime.errors import InvalidOperation

        with pytest.raises(InvalidOperation):
            runtime.new_array("int32", -1)

    def test_byte_array_blit(self, runtime):
        arr = runtime.new_byte_array(b"abcdef")
        assert runtime.array_bytes(arr) == b"abcdef"
        runtime.fill_array_bytes(arr, b"XY", offset=2)
        assert runtime.array_bytes(arr) == b"abXYef"


class TestDataRange:
    def test_array_slice_window(self, runtime):
        arr = runtime.new_array("int32", 10)
        _mt, addr, nbytes = runtime.om.data_window(arr.addr, 2, 3)
        assert addr == arr.addr + ARRAY_DATA_OFFSET + 8
        assert nbytes == 12

    def test_full_object_window(self, runtime):
        runtime.define_class("W", [("a", "int64")])
        ref = runtime.new("W")
        _mt, addr, nbytes = runtime.om.data_window(ref.addr)
        assert addr == ref.addr + OBJECT_HEADER_SIZE
        assert nbytes == 8

    def test_slice_overrun_refused(self, runtime):
        """Writing past the end of an object would corrupt the next object's
        header (paper §2.4) — the window must refuse."""
        arr = runtime.new_array("int32", 4)
        with pytest.raises(ObjectModelViolation):
            runtime.om.data_window(arr.addr, 2, 3)

    def test_offset_into_plain_object_refused(self, runtime):
        runtime.define_class("W2", [("a", "int64")])
        ref = runtime.new("W2")
        with pytest.raises(ObjectModelViolation):
            runtime.om.data_window(ref.addr, 1, 1)


class TestRefSlots:
    def test_class_ref_slots(self, runtime):
        runtime.define_class("RS", [("a", "object"), ("x", "int32"), ("b", "object")])
        ref = runtime.new("RS")
        slots = runtime.om.ref_slots(ref.addr)
        assert len(slots) == 2

    def test_prim_array_has_none(self, runtime):
        arr = runtime.new_array("float64", 5)
        assert runtime.om.ref_slots(arr.addr) == []

    def test_ref_array_slots(self, runtime):
        runtime.define_class("E2", [])
        arr = runtime.new_array("E2", 3)
        assert len(runtime.om.ref_slots(arr.addr)) == 3
