"""Property-based serializer tests: arbitrary graphs round-trip faithfully,
and a damaged representation lands whole or not at all."""

from __future__ import annotations

import functools
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.motor.serialization import MotorSerializer, SerializationError
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.workloads.linkedlist import build_linked_list, define_linked_array, verify_linked_list


def make_rt(nursery_size: int = 32 << 10) -> ManagedRuntime:
    rt = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20, nursery_size=nursery_size))
    rt.define_class(
        "GNode",
        [
            ("v", "int64", True),
            ("a", "GNode", True),  # transportable edge
            ("b", "GNode", False),  # non-transportable edge -> nulled
            ("data", "int32[]", True),
            ("kids", "GNode[]", True),  # an object array: its elements propagate
        ],
    )
    return rt


node_fields = {
    "v": st.integers(min_value=-(2**62), max_value=2**62),
    "payload": st.lists(st.integers(-(2**31), 2**31 - 1), max_size=6),
    "a": st.integers(min_value=-1, max_value=11),
    "b": st.integers(min_value=-1, max_value=11),
}
node_st = st.fixed_dictionaries(node_fields)
graph_st = st.lists(node_st, min_size=1, max_size=12)
#: nodes that may also hold a GNode[]: its elements index the graph (-1 and
#: past-the-end indices are null elements), so elements repeat, are shared
#: between arrays and point back at their holder
kin_st = st.lists(
    st.fixed_dictionaries(
        {**node_fields,
         "kids": st.none() | st.lists(st.integers(min_value=-1, max_value=11), max_size=5)}
    ),
    min_size=1,
    max_size=12,
)


def build(rt, desc):
    nodes = [rt.new("GNode", v=d["v"]) for d in desc]
    for node, d in zip(nodes, desc):
        if d["payload"]:
            rt.set_ref(
                node, "data", rt.new_array("int32", len(d["payload"]), values=d["payload"])
            )
        for fname in ("a", "b"):
            idx = d[fname]
            if 0 <= idx < len(nodes):
                rt.set_ref(node, fname, nodes[idx])
        if d.get("kids") is not None:
            kids = rt.new_array("GNode", len(d["kids"]))
            for i, idx in enumerate(d["kids"]):
                if 0 <= idx < len(nodes):
                    rt.set_elem_ref(kids, i, nodes[idx])
            rt.set_ref(node, "kids", kids)
    return nodes


def transportable_closure_snapshot(rt, root) -> list:
    """Walk the graph the way the serializer is *supposed* to: only 'a'
    edges propagate; 'b' edges read as null on the receiver."""
    seen: dict[int, int] = {}
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None or node.addr in seen:
            continue
        seen[node.addr] = len(seen)
        data = rt.get_field(node, "data")
        payload = (
            None
            if data is None
            else tuple(rt.get_elem(data, i) for i in range(rt.array_length(data)))
        )
        a = rt.get_field(node, "a")
        out.append((rt.get_field(node, "v"), payload, a is not None))
        if a is not None:
            stack.append(a)
    return out


@settings(max_examples=60, deadline=None)
@given(desc=graph_st, visited=st.sampled_from(["linear", "hashed"]))
def test_roundtrip_preserves_transportable_closure(desc, visited):
    a_rt, b_rt = make_rt(), make_rt()
    nodes = build(a_rt, desc)
    root = nodes[0]
    expected = transportable_closure_snapshot(a_rt, root)
    data = MotorSerializer(a_rt, visited=visited).serialize(root)
    got_root = MotorSerializer(b_rt, visited=visited).deserialize(data)
    got = transportable_closure_snapshot(b_rt, got_root)
    assert got == expected


def closure(rt, root) -> list:
    """The graph the Transportable edges reach from ``root``: per node, in
    the order a breadth-first walk numbers them, ``(v, payload, a, kids)``,
    with ``a`` and every element of ``kids`` as a node number (None for
    null) — so sharing and cycles compare, not just values."""
    number: dict[int, int] = {}
    nodes = []

    def visit(node):
        if node is None:
            return None
        if node.addr not in number:
            number[node.addr] = len(nodes)
            nodes.append(node)
        return number[node.addr]

    visit(root)
    out = []
    for node in nodes:  # grows as the walk finds nodes
        data, kids = rt.get_field(node, "data"), rt.get_field(node, "kids")
        out.append((
            rt.get_field(node, "v"),
            None if data is None else [rt.get_elem(data, i) for i in range(rt.array_length(data))],
            visit(rt.get_field(node, "a")),
            None if kids is None
            else [visit(rt.get_elem(kids, i)) for i in range(rt.array_length(kids))],
        ))
    return out


@settings(max_examples=60, deadline=None)
@given(desc=kin_st)
def test_object_arrays_roundtrip_the_transportable_closure(desc):
    a_rt, b_rt = make_rt(), make_rt()
    root = build(a_rt, desc)[0]
    got = MotorSerializer(b_rt).deserialize(MotorSerializer(a_rt).serialize(root))
    assert closure(b_rt, got) == closure(a_rt, root)


@settings(max_examples=60, deadline=None)
@given(desc=kin_st)
def test_a_collection_mid_landing_builds_the_same_graph(desc):
    """A receiver whose nursery is nearly full lands a few records, then
    collects (promoting them, object arrays included) and lands the rest:
    the graph equals a roomy receiver's, and after one more collection too
    — the write barrier kept every promoted slot that points at a young
    object."""
    a_rt = make_rt()
    data = bytes(MotorSerializer(a_rt).serialize(build(a_rt, desc)[0]))
    roomy = make_rt()
    want = closure(roomy, MotorSerializer(roomy).deserialize(data))
    tight = make_rt(nursery_size=1 << 10)
    while tight.heap.nursery.free > 120:  # garbage: the first GNode still fits
        tight.new_array("byte", 8)
    collections = tight.gc.stats.gen0_collections
    got = MotorSerializer(tight).deserialize(data)
    assert tight.gc.stats.gen0_collections > collections or len(want) == 1
    assert closure(tight, got) == want
    tight.gc.collect(0)
    assert closure(tight, got) == want


@settings(max_examples=40, deadline=None)
@given(desc=graph_st)
def test_non_transportable_edges_always_null_at_receiver(desc):
    a_rt, b_rt = make_rt(), make_rt()
    nodes = build(a_rt, desc)
    data = MotorSerializer(a_rt).serialize(nodes[0])
    got_root = MotorSerializer(b_rt).deserialize(data)
    stack, seen = [got_root], set()
    while stack:
        node = stack.pop()
        if node is None or node.addr in seen:
            continue
        seen.add(node.addr)
        assert b_rt.get_field(node, "b") is None
        stack.append(b_rt.get_field(node, "a"))


@settings(max_examples=40, deadline=None)
@given(desc=graph_st)
def test_serialize_is_deterministic(desc):
    rt = make_rt()
    nodes = build(rt, desc)
    d1 = MotorSerializer(rt).serialize(nodes[0])
    d2 = MotorSerializer(rt).serialize(nodes[0])
    assert bytes(d1) == bytes(d2)


@settings(max_examples=30, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8)
)
def test_split_concat_is_identity(lengths):
    a_rt, b_rt = make_rt(), make_rt()
    arr = a_rt.new_array("GNode", len(lengths))
    for i, ln in enumerate(lengths):
        node = a_rt.new("GNode", v=i)
        if ln:
            a_rt.set_ref(node, "data", a_rt.new_array("int32", ln, values=list(range(ln))))
        a_rt.set_elem_ref(arr, i, node)
    name, parts = MotorSerializer(a_rt).serialize_array_split(arr)
    rebuilt = MotorSerializer(b_rt).build_array_from_parts(name, parts)
    assert b_rt.array_length(rebuilt) == len(lengths)
    for i, ln in enumerate(lengths):
        node = b_rt.get_elem(rebuilt, i)
        assert b_rt.get_field(node, "v") == i
        data = b_rt.get_field(node, "data")
        if ln:
            assert b_rt.array_length(data) == ln
        else:
            assert data is None


# -- validate before allocate -------------------------------------------------------


@functools.cache
def _three_elements() -> bytes:
    """A 3-element list: records 0, 2, 4 are LinkedArray nodes (u32 type,
    i64 array, next and next2 ids), records 1, 3, 5 their 2-int arrays (u32
    type, u32 length, 8 payload bytes); the records are the last
    ``_RECORDS_SIZE`` bytes."""
    rt = ManagedRuntime(RuntimeConfig(heap_capacity=1 << 20, nursery_size=32 << 10))
    return bytes(MotorSerializer(rt).serialize(build_linked_list(rt, 3, 24)))


_RECORDS_SIZE = 3 * (28 + 16)


def _described(rep: bytes) -> tuple[list, int | None]:
    """The list ``rep``'s records describe, decoded here independently: each
    node's payload (None with no array) from the root along ``next``, and
    the position ``next`` loops back to (None when it ends in null)."""
    records, pos = [], len(rep) - _RECORDS_SIZE
    for _ in range(6):
        (tidx,) = struct.unpack_from("<I", rep, pos)
        if tidx == 0:
            records.append(struct.unpack_from("<qqq", rep, pos + 4))
            pos += 28
        else:
            (length,) = struct.unpack_from("<I", rep, pos + 4)
            records.append(list(struct.unpack_from(f"<{length}i", rep, pos + 8)))
            pos += 8 + 4 * length
    out, seen, rid = [], [], 0
    while rid != -1 and rid not in seen:
        seen.append(rid)
        array, rid, _ = records[rid]
        out.append(None if array == -1 else records[array])
    return out, None if rid == -1 else seen.index(rid)


def _landed(rt: ManagedRuntime, root) -> tuple[list, int | None]:
    """The same view of a landed list, read through the receiver's heap."""
    out, seen, node = [], [], root
    while node is not None and not any(node.same_object(s) for s in seen):
        seen.append(node)
        assert rt.get_field(node, "next2") is None
        arr = rt.get_field(node, "array")
        out.append(
            None if arr is None else [rt.get_elem(arr, i) for i in range(rt.array_length(arr))]
        )
        node = rt.get_field(node, "next")
    return out, None if node is None else next(i for i, s in enumerate(seen) if s == node)


@st.composite
def _damage(draw) -> tuple[int, bytes]:
    """One byte or one object id of the representation overwritten: where,
    and the bytes written there."""
    size = len(_three_elements())
    if draw(st.booleans(), label="overwrite an object id"):
        records = size - _RECORDS_SIZE
        slots = [records + 44 * k + 4 + 8 * f for k in range(3) for f in range(3)]
        return draw(st.sampled_from(slots)), struct.pack("<q", draw(st.integers(-3, 8)))
    return draw(st.integers(0, size - 1)), bytes([draw(st.integers(0, 255))])


@settings(max_examples=300, deadline=None)
@given(damage=_damage())
@example(damage=(65, b"\0"))  # the record count (6) zeroed: all six records trail
def test_a_damaged_representation_lands_whole_or_allocates_nothing(damage):
    """One byte or one object id of a valid representation overwritten: it
    either lands exactly the list its records describe, or is refused with
    a SerializationError before anything is allocated or rooted — the
    guarantee a nursery run, landed with one bump, relies on."""
    at, new = damage
    rep = bytearray(_three_elements())
    rep[at:at + len(new)] = new
    b = ManagedRuntime(RuntimeConfig(heap_capacity=1 << 20, nursery_size=32 << 10))
    define_linked_array(b)
    heap = b.heap
    before = (heap.nursery.alloc_ptr, heap.stats.objects_allocated, len(b.handles))
    try:
        got = MotorSerializer(b).deserialize(bytes(rep))
    except SerializationError:
        assert (heap.nursery.alloc_ptr, heap.stats.objects_allocated, len(b.handles)) == before
        return
    assert _landed(b, got) == _described(bytes(rep))


def test_the_undamaged_representation_verifies():
    b = ManagedRuntime(RuntimeConfig(heap_capacity=1 << 20, nursery_size=32 << 10))
    define_linked_array(b)
    got = MotorSerializer(b).deserialize(_three_elements())
    verify_linked_list(b, got, 3, 24)
    assert _landed(b, got) == _described(_three_elements())
