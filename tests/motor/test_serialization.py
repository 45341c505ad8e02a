"""Motor's custom serializer: type table + object data, Transportable bit."""

import struct

import pytest

from repro.motor.serialization import MotorSerializer, SerializationError
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.simtime import VirtualClock
from repro.workloads.linkedlist import (
    build_linked_list,
    define_linked_array,
    verify_linked_list,
)


def pair() -> tuple[ManagedRuntime, ManagedRuntime]:
    """Sender and receiver runtimes with identical class registries."""
    a = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20, nursery_size=64 << 10))
    b = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20, nursery_size=64 << 10))
    for rt in (a, b):
        define_linked_array(rt)
        rt.define_class(
            "Mixed",
            [
                ("i", "int32", True),
                ("f", "float64", True),
                ("tagged", "int32[]", True),
                ("plain", "int32[]", False),
            ],
        )
    return a, b


class TestRoundTrip:
    def test_null_root(self):
        a, b = pair()
        data = MotorSerializer(a).serialize(None)
        assert MotorSerializer(b).deserialize(data) is None

    def test_single_object_primitives(self):
        a, b = pair()
        obj = a.new("Mixed", i=42, f=-1.5)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(obj))
        assert b.get_field(got, "i") == 42
        assert b.get_field(got, "f") == -1.5

    def test_transportable_ref_propagates(self):
        a, b = pair()
        obj = a.new("Mixed", i=1)
        arr = a.new_array("int32", 3, values=[7, 8, 9])
        a.set_ref(obj, "tagged", arr)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(obj))
        tagged = b.get_field(got, "tagged")
        assert [b.get_elem(tagged, i) for i in range(3)] == [7, 8, 9]

    def test_non_transportable_ref_swapped_to_null(self):
        """'References are replaced with null' for unmarked fields (§4.2.2)."""
        a, b = pair()
        obj = a.new("Mixed")
        arr = a.new_array("int32", 2, values=[1, 2])
        a.set_ref(obj, "plain", arr)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(obj))
        assert b.get_field(got, "plain") is None

    def test_linked_list_roundtrip(self):
        a, b = pair()
        head = build_linked_list(a, elements=10, total_bytes=400)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(head))
        verify_linked_list(b, got, elements=10, total_bytes=400)

    def test_next2_not_transported(self):
        a, b = pair()
        head = build_linked_list(a, elements=4, total_bytes=64, wire_next2=True)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(head))
        verify_linked_list(b, got, 4, 64, expect_next2_null=True)

    def test_prim_array_root(self):
        a, b = pair()
        arr = a.new_array("float64", 4, values=[1.0, 2.0, 3.0, 4.0])
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(arr))
        assert [b.get_elem(got, i) for i in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_object_array_propagates_elements(self):
        """Arrays of objects transport their elements by default (§4.2.2)."""
        a, b = pair()
        arr = a.new_array("LinkedArray", 3)
        for i in range(3):
            node = a.new("LinkedArray")
            a.set_ref(node, "array", a.new_array("int32", 1, values=[i * 5]))
            a.set_elem_ref(arr, i, node)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(arr))
        for i in range(3):
            node = b.get_elem(got, i)
            assert b.get_elem(b.get_field(node, "array"), 0) == i * 5

    def test_array_with_null_elements(self):
        a, b = pair()
        arr = a.new_array("LinkedArray", 3)
        a.set_elem_ref(arr, 1, a.new("LinkedArray"))
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(arr))
        assert b.get_elem(got, 0) is None
        assert b.get_elem(got, 1) is not None
        assert b.get_elem(got, 2) is None

    def test_shared_substructure_preserved(self):
        a, b = pair()
        shared = a.new_array("int32", 1, values=[99])
        n1 = a.new("LinkedArray")
        n2 = a.new("LinkedArray")
        a.set_ref(n1, "array", shared)
        a.set_ref(n2, "array", shared)
        a.set_ref(n1, "next", n2)
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(n1))
        arr1 = b.get_field(got, "array")
        arr2 = b.get_field(b.get_field(got, "next"), "array")
        assert arr1.same_object(arr2)  # one object, not two copies

    def test_cycle_roundtrip(self):
        a, b = pair()
        n1 = a.new("LinkedArray")
        n2 = a.new("LinkedArray")
        a.set_ref(n1, "next", n2)
        a.set_ref(n2, "next", n1)  # cycle
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(n1))
        back = b.get_field(b.get_field(got, "next"), "next")
        assert back.same_object(got)

    def test_deep_list_no_python_recursion_limit(self):
        a, b = pair()
        head = build_linked_list(a, elements=3000, total_bytes=12000)
        data = MotorSerializer(a, visited="hashed").serialize(head)
        got = MotorSerializer(b, visited="hashed").deserialize(data)
        # spot-check ends
        node = got
        for _ in range(2999):
            node = b.get_field(node, "next")
        assert b.get_field(node, "next") is None

    def test_deserialization_under_gc_pressure(self):
        """Deserialization allocates and may collect mid-build; handles must
        keep every partially-built object coherent."""
        a, _ = pair()
        b = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20, nursery_size=4 << 10))
        define_linked_array(b)
        head = build_linked_list(a, elements=50, total_bytes=2000)
        data = MotorSerializer(a).serialize(head)
        before = b.gc.stats.gen0_collections
        got = MotorSerializer(b).deserialize(data)
        assert b.gc.stats.gen0_collections > before  # GC really happened
        verify_linked_list(b, got, 50, 2000)


class TestTypeTable:
    def test_unknown_type_at_receiver(self):
        a, _ = pair()
        b = ManagedRuntime()  # LinkedArray not defined here
        define_linked_array(a)
        head = build_linked_list(a, elements=1, total_bytes=16)
        data = MotorSerializer(a).serialize(head)
        with pytest.raises(Exception):
            MotorSerializer(b).deserialize(data)

    def test_layout_mismatch_detected(self):
        a, _ = pair()
        b = ManagedRuntime()
        b.define_class(
            "Mixed",
            [("i", "int32", True)],  # fewer fields than the sender's Mixed
        )
        obj = a.new("Mixed", i=1)
        data = MotorSerializer(a).serialize(obj)
        with pytest.raises(SerializationError, match="mismatch"):
            MotorSerializer(b).deserialize(data)

    def test_bad_magic(self):
        _, b = pair()
        with pytest.raises(SerializationError, match="magic"):
            MotorSerializer(b).deserialize(b"\x00\x00\x00\x00rest")

    def test_truncated_stream(self):
        a, b = pair()
        data = MotorSerializer(a).serialize(a.new("Mixed", i=5))
        with pytest.raises(SerializationError):
            MotorSerializer(b).deserialize(bytes(data)[: len(data) // 2])


def _node_with_array(rt: ManagedRuntime) -> bytes:
    """A LinkedArray node (record 0) and its 2-int array (record 1).

    Layout: 12-byte header | type table | u32 nrecords | record 0 = u32
    type, i64 array, i64 next, i64 next2 | record 1 = u32 type, u32 length,
    8 payload bytes.  The records are the last 28 + 16 bytes."""
    node = rt.new("LinkedArray")
    rt.set_ref(node, "array", rt.new_array("int32", 2, values=[5, 6]))
    return bytes(MotorSerializer(rt).serialize(node))


_REC0 = -(28 + 16)  # offset of record 0 from the end of _node_with_array()


def _patched(data: bytes, at: int, fmt: str, value: int) -> bytes:
    out = bytearray(data)
    struct.pack_into(fmt, out, at % len(data), value)
    return bytes(out)


MALFORMED = {
    "bad type index": lambda d: _patched(d, _REC0, "<I", 2),
    "id >= nrecords": lambda d: _patched(d, _REC0 + 4, "<q", 2),
    "id < -1": lambda d: _patched(d, _REC0 + 12, "<q", -7),
    "id in a non-Transportable field": lambda d: _patched(d, _REC0 + 20, "<q", 0),
    "id of the wrong type": lambda d: _patched(d, _REC0 + 12, "<q", 1),
    "truncated in header": lambda d: d[:10],
    "truncated in type table": lambda d: d[:20],
    "truncated in records": lambda d: d[:-20],
    "truncated in array payload": lambda d: d[:-3],
    "nrecords larger than the data": lambda d: _patched(d, _REC0 - 4, "<I", 3),
    "array length larger than the data": lambda d: _patched(d, -12, "<I", 1 << 30),
}


class TestMalformedInput:
    """Every defect is a SerializationError raised before any allocation."""

    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    def test_rejected_before_allocation(self, defect):
        a, b = pair()
        data = MALFORMED[defect](_node_with_array(a))
        allocated, handles = b.heap.stats.objects_allocated, len(b.handles)
        with pytest.raises(SerializationError):
            MotorSerializer(b).deserialize(data)
        assert b.heap.stats.objects_allocated == allocated
        assert len(b.handles) == handles

    def test_the_unpatched_representation_is_well_formed(self):
        a, b = pair()
        got = MotorSerializer(b).deserialize(_node_with_array(a))
        arr = b.get_field(got, "array")
        assert [b.get_elem(arr, i) for i in range(2)] == [5, 6]

    def test_a_non_transportable_reference_is_never_wired(self):
        """Motor nulls references that are not Transportable (§4.2.2); a
        representation naming an object in one is malformed.  Before the
        check, this one landed with ``next2`` pointing at the root."""
        a, b = pair()
        data = bytearray(MotorSerializer(a).serialize(build_linked_list(a, 2, 16)))
        at = bytes(data).find(struct.pack("<Iqqq", 0, 1, 2, -1))  # record 0
        assert at > 0
        struct.pack_into("<q", data, at + 20, 0)  # next2 := record 0
        with pytest.raises(SerializationError, match="not Transportable"):
            MotorSerializer(b).deserialize(bytes(data))


class TestModelledFigures:
    """Three receives of the 256-element list, pinned at the figures of
    object-by-object landing (captured at 147469d): landing in nursery runs
    moves no charge, collection, promotion or remembered slot."""

    @pytest.mark.parametrize("visited", ["linear", "hashed"])
    @pytest.mark.parametrize(
        "nursery, now, charges, gen0, promoted, remembered",
        [
            (512 << 10, 1316659.199999988, 3840, 0, 0, 0),
            (16 << 10, 1341231.199999988, 5205, 3, 49144, 2),  # every run overflows
        ],
    )
    def test_three_receives(self, visited, nursery, now, charges, gen0, promoted, remembered):
        a, b = (
            ManagedRuntime(RuntimeConfig(nursery_size=nursery), clock=VirtualClock())
            for _ in range(2)
        )
        define_linked_array(b)
        head = build_linked_list(a, 256, 4096)
        sa, sb = MotorSerializer(a, visited=visited), MotorSerializer(b, visited=visited)
        sent = a.clock.charges
        kept = [sb.deserialize(bytes(sa.serialize(head))) for _ in range(3)]
        assert a.clock.charges - sent == 2307
        assert (b.clock.now(), b.clock.charges) == (now, charges)
        assert (b.gc.stats.gen0_collections, b.gc.stats.bytes_promoted) == (gen0, promoted)
        assert len(b.gc._remembered) == remembered
        for got in kept:
            verify_linked_list(b, got, 256, 4096)


class _Recording(VirtualClock):
    """A virtual clock that keeps every charge, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[float] = []

    def charge(self, ns: float) -> None:
        self.log.append(ns)
        super().charge(ns)

    def charge_all(self, seq: list[float]) -> None:
        self.log += seq
        super().charge_all(seq)


def _tiny_graph_charges(visited: str) -> tuple[ManagedRuntime, list[float]]:
    """The charges of serializing n1 -> {arr, n2}, n2 -> {arr, n1}.

    The walk looks up n1 (the root: 1 probe into an empty record, 0
    comparisons), then n1's arr (a miss: 1 comparison) and n2 (a miss: 2),
    then n2's arr (a hit at id 1: 2) and n1 (a hit at id 0: 1) — 5 probes
    and 6 comparisons, charged last."""
    rt = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20, nursery_size=64 << 10),
                        clock=_Recording())
    define_linked_array(rt)
    n1, n2 = rt.new("LinkedArray"), rt.new("LinkedArray")
    arr = rt.new_array("int32", 1, values=[7])
    for node, peer in ((n1, n2), (n2, n1)):
        rt.set_ref(node, "array", arr)
        rt.set_ref(node, "next", peer)
    rt.clock.log.clear()
    MotorSerializer(rt, visited=visited).serialize(n1)
    return rt, rt.clock.log


class TestVisitedStructures:
    def test_linear_counts_comparisons(self):
        rt, log = _tiny_graph_charges("linear")
        assert log[-1] == rt.costs.visited_linear_cmp_ns * 6

    def test_hashed_counts_probes(self):
        rt, log = _tiny_graph_charges("hashed")
        assert log[-1] == rt.costs.visited_hash_probe_ns * 5
        # the kind prices the record and nothing else
        assert log[:-1] == _tiny_graph_charges("linear")[1][:-1]

    def test_same_ids_both_structures(self):
        a, b = pair()
        head = build_linked_list(a, elements=8, total_bytes=128)
        d1 = MotorSerializer(a, visited="linear").serialize(head)
        d2 = MotorSerializer(a, visited="hashed").serialize(head)
        assert bytes(d1) == bytes(d2)  # identical representation

    def test_linear_quadratic_charge(self):
        rt = ManagedRuntime(
            RuntimeConfig(heap_capacity=8 << 20, nursery_size=64 << 10),
            clock=VirtualClock(),
        )
        define_linked_array(rt)
        costs = []
        for k in (256, 1024):
            head = build_linked_list(rt, elements=k, total_bytes=k * 8)
            t0 = rt.clock.now()
            MotorSerializer(rt, visited="linear").serialize(head)
            costs.append(rt.clock.now() - t0)
        # 4x the objects: the quadratic visited term should push the cost
        # well past 4x (a linear serializer would stay at ~4x)
        assert costs[1] > costs[0] * 6

    def test_unknown_visited_kind(self):
        with pytest.raises(ValueError):
            MotorSerializer(ManagedRuntime(), visited="btree")


class TestElementTypeResolution:
    """Array element types resolve uniformly at deserialize time.

    The deserializer used to branch on ``isinstance(mt.element_type,
    PrimitiveType)`` with two *identical* arms — dead code hiding the fact
    that primitive and reference element types both resolve by name.  Both
    paths are pinned here so the simplification stays honest.
    """

    def test_ref_array_roundtrip_resolves_class_element_type(self):
        a, b = pair()
        arr = a.new_array("Mixed", 3)
        for i in range(3):
            a.set_elem_ref(arr, i, a.new("Mixed", i=i * 11, f=float(i)))
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(arr))
        for i in range(3):
            elem = b.get_elem(got, i)
            assert b.get_field(elem, "i") == i * 11
            assert b.get_field(elem, "f") == float(i)

    def test_prim_array_roundtrip_resolves_primitive_element_type(self):
        a, b = pair()
        arr = a.new_array("int32", 5, values=[3, 1, 4, 1, 5])
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(arr))
        assert [b.get_elem(got, i) for i in range(5)] == [3, 1, 4, 1, 5]

    def test_nested_ref_array_in_field(self):
        a, b = pair()
        obj = a.new("Mixed", i=7)
        a.set_ref(obj, "tagged", a.new_array("int32", 2, values=[21, 42]))
        got = MotorSerializer(b).deserialize(MotorSerializer(a).serialize(obj))
        tagged = b.get_field(got, "tagged")
        assert [b.get_elem(tagged, i) for i in range(2)] == [21, 42]
