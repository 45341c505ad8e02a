"""Transport plans change what the host pays, never what is sent or modelled.

Three things are pinned here against the commit before the plans existed
(the landed bytes against the commit before the landing worked by type):

* the representation (``sha256`` of the bytes) and the modelled cost
  (``VirtualClock.now()`` and ``.charges`` deltas) of ``serialize`` and of
  ``deserialize``, for both visited kinds — the same charges, in the same
  order, so the float sums are bit-equal;
* the bytes a ``deserialize`` lands in the heap (``sha256`` of the span);
* landing under collection: where collections fall between the nursery runs, what
  they promote, the remembered set a landing of class records and
  reference arrays leaves (and what the next collection makes of it), and
  that a ``deserialize`` leaves exactly one new handle (the root) on
  success and none when landing fails.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.motor.serialization import MotorSerializer
from repro.runtime.errors import OutOfManagedMemory
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.simtime import VirtualClock
from repro.workloads.linkedlist import (
    build_linked_list,
    define_linked_array,
    verify_linked_list,
)


def _runtime(nursery_size: int = 512 << 10) -> ManagedRuntime:
    return ManagedRuntime(
        RuntimeConfig(heap_capacity=8 << 20, nursery_size=nursery_size),
        clock=VirtualClock(),
    )


def _list256(rt: ManagedRuntime):
    return build_linked_list(rt, elements=256, total_bytes=4096)


def _mixed(rt: ManagedRuntime):
    """Primitive fields of 1/2/4/8 bytes, a ref array with nulls, a shared
    child, a cycle, and a *set* non-transportable field."""
    rt.define_class(
        "Leaf",
        [("b", "byte", True), ("h", "int16", True), ("i", "int32", True), ("q", "int64", True)],
    )
    rt.define_class(
        "Hub",
        [
            ("flag", "bool", True),
            ("h", "uint16", True),
            ("f", "float32", True),
            ("d", "float64", True),
            ("kids", "Leaf[]", True),
            ("shared", "Leaf", True),
            ("peer", "Hub", True),
            ("skipped", "Leaf", False),
        ],
    )
    shared = rt.new("Leaf", b=7, h=-300, i=1 << 20, q=-(1 << 40))
    first = rt.new("Leaf", b=255, h=1, i=-2, q=3)
    kids = rt.new_array("Leaf", 4)
    rt.set_elem_ref(kids, 0, first)
    rt.set_elem_ref(kids, 2, shared)  # elements 1 and 3 stay null
    hub = rt.new("Hub", flag=True, h=65535, f=0.5, d=-2.25)
    peer = rt.new("Hub", flag=False, h=9, f=1.5, d=1e300)
    rt.set_ref(hub, "kids", kids)
    rt.set_ref(hub, "shared", shared)
    rt.set_ref(hub, "peer", peer)
    rt.set_ref(hub, "skipped", rt.new("Leaf", b=1))
    rt.set_ref(peer, "shared", shared)
    rt.set_ref(peer, "peer", hub)  # cycle
    return hub


def _null(rt: ManagedRuntime):
    return None


GRAPHS = {"list256": _list256, "mixed": _mixed, "null": _null}


def measure(graph: str, visited: str) -> tuple:
    """(sha256, serialize ns, serialize charges, deserialize ns, deserialize charges)."""
    rt = _runtime()
    root = GRAPHS[graph](rt)
    ser = MotorSerializer(rt, visited=visited)
    clock = rt.clock
    t0, c0 = clock.now(), clock.charges
    data = bytes(ser.serialize(root))
    t1, c1 = clock.now(), clock.charges
    ser.deserialize(data)
    t2, c2 = clock.now(), clock.charges
    return hashlib.sha256(data).hexdigest(), t1 - t0, c1 - c0, t2 - t1, c2 - c1


# Captured at the parent commit (ddb23b5) with
#   PYTHONPATH=src:. python -c "from tests.motor.test_transport_plans import *; \
#     [print((g, v), measure(g, v)) for g in GRAPHS for v in ('linear', 'hashed')]"
PINNED = {
    ("list256", "linear"): ("17e1775fdb357a8af67ec4e53807033f79a1533ef8634c71f7af6ca283f52d42", 608921.6000000013, 769, 438886.39999997616, 1280),
    ("list256", "hashed"): ("17e1775fdb357a8af67ec4e53807033f79a1533ef8634c71f7af6ca283f52d42", 356966.4000000013, 769, 438886.40000000596, 1280),
    ("mixed", "linear"): ("a2bff412b6476c3f7050e9f0a4e0945c014f6d258e1f8967b9b274cf0e795672", 3191.4, 22, 4250.0, 10),
    ("mixed", "hashed"): ("a2bff412b6476c3f7050e9f0a4e0945c014f6d258e1f8967b9b274cf0e795672", 3714.0, 22, 4250.0, 10),
    ("null", "linear"): ("ed1ac3c24fbfe37fb7dcf8c3bbdf3a12a2965171580818caee2e729b651f7401", 0.0, 1, 0.0, 0),
    ("null", "hashed"): ("ed1ac3c24fbfe37fb7dcf8c3bbdf3a12a2965171580818caee2e729b651f7401", 0.0, 1, 0.0, 0),
}


@pytest.mark.parametrize("graph,visited", sorted(PINNED))
def test_representation_and_modelled_cost_pinned(graph, visited):
    assert measure(graph, visited) == PINNED[(graph, visited)]


def landed(graph: str) -> tuple[str, int]:
    """(sha256, length) of the heap span one deserialize lands: from the
    root's address to the nursery's bump pointer after it (empty for a null
    root).  Headers, fields, array payloads and padding, byte for byte."""
    rt = _runtime()
    ser = MotorSerializer(rt)
    data = bytes(ser.serialize(GRAPHS[graph](rt)))
    got = ser.deserialize(data)
    end = rt.heap.nursery.alloc_ptr
    begin = end if got is None else got.addr
    return hashlib.sha256(rt.heap.mem[begin:end]).hexdigest(), end - begin


# Captured at e59e795, before the landing worked by type, with
#   PYTHONPATH=src:. python -c "from tests.motor.test_transport_plans import *; \
#     [print(g, landed(g)) for g in GRAPHS]"
# (the visited kind changes neither the representation nor the landing)
LANDED = {
    "list256": ("b0d190de00f88e5c4ec7efe642e56e41e918f83fcc6d0aef991274db42836872", 18432),
    "mixed": ("ba13b0c05c5ef7095308422ad5bc2cd6dee5c25b21439af3c93d63af17acf438", 240),
    "null": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}


@pytest.mark.parametrize("graph", sorted(LANDED))
def test_landed_bytes_pinned(graph):
    assert landed(graph) == LANDED[graph]


# -- landing under collection ---------------------------------------------------


def _tight_receiver() -> ManagedRuntime:
    rt = _runtime(nursery_size=64 << 10)
    define_linked_array(rt)
    return rt


def test_landing_under_collection():
    """6000 objects (~188 KiB) land through a 64 KiB nursery: collections
    fall inside pass 1, exactly where and as large as at the parent."""
    a = _runtime()
    head = build_linked_list(a, elements=3000, total_bytes=16000)
    data = bytes(MotorSerializer(a, visited="hashed").serialize(head))
    b = _tight_receiver()
    handles = len(b.handles)
    root = MotorSerializer(b).deserialize(data)
    # Captured at the parent commit (ddb23b5): the same statements, printing
    # b.gc.stats.gen0_collections, .bytes_promoted, .objects_promoted; the
    # clock's (charges, now) at b149504, the last commit that charged one
    # call per object and per promotion.
    stats = b.gc.stats
    assert (stats.gen0_collections, stats.bytes_promoted, stats.objects_promoted) == (2, 131072, 4096)
    assert (b.clock.charges, b.clock.now()) == (19096, 5179935.999999441)
    assert len(b.handles) == handles + 1  # the root, nothing else
    verify_linked_list(b, root, elements=3000, total_bytes=16000)


def _define_kin(rt: ManagedRuntime) -> None:
    rt.define_class(
        "Kin", [("v", "int64", True), ("kids", "Kin[]", True), ("far", "Kin", True)]
    )


def _kin_tree(rt: ManagedRuntime, fanout: int = 8, depth: int = 3):
    """A ``fanout``-ary tree of ``Kin`` (585 nodes): each inner node holds
    its children in a ``Kin[]``, and every node a class reference to a node
    further on, so the records mix class and reference-array stores that
    point ahead of the record holding them."""
    nodes = [rt.new("Kin", v=0)]
    for i in range((fanout**depth - 1) // (fanout - 1)):
        kids = rt.new_array("Kin", fanout)
        for k in range(fanout):
            nodes.append(rt.new("Kin", v=len(nodes)))
            rt.set_elem_ref(kids, k, nodes[-1])
        rt.set_ref(nodes[i], "kids", kids)
    for i, node in enumerate(nodes):
        rt.set_ref(node, "far", nodes[(7 * i + 3) % len(nodes)])
    return nodes[0]


def test_mixed_landing_under_collection():
    """The tree lands through an 8 KiB nursery, so promoted class records
    and reference arrays point at records landed after them.  The write
    barrier must see those stores as landing record by record did: the
    remembered set (its iteration order is its insertion history), and so
    where the next collection forwards each object and the order of its
    copy charges, equal the parent's."""
    a = _runtime()
    _define_kin(a)
    data = bytes(MotorSerializer(a).serialize(_kin_tree(a)))
    b = _runtime(nursery_size=8 << 10)
    _define_kin(b)
    root = MotorSerializer(b).deserialize(data)
    remembered = hashlib.sha256(repr(list(b.gc._remembered)).encode()).hexdigest()
    b.gc.collect(0)
    stats = b.gc.stats
    got = (stats.gen0_collections, len(b.gc._remembered) == 0, remembered,
           stats.objects_promoted, b.clock.charges, b.clock.now(),
           hashlib.sha256(b.heap.mem).hexdigest())
    assert root is not None and got == KIN_LANDED


#: captured at e59e795, which offered the barrier each store as it wired
#: record after record, with the statements of the test above
KIN_LANDED = (
    4, True, "2ed9af02448a9b8ff1228ec2db8bbe739f9be95b31f311ae3c3e7fe77b91f5c9", 658, 1974,
    573920.0, "7a305a04fe9e9b5dcff701accb688e1408ab2546f501a72e211f93d132eeeaa2",
)


def test_failed_landing_leaks_no_handle():
    """A heap that runs out in the middle of pass 1, after runs were rooted
    across collections: the exception comes through and every slot comes
    back.  (A reference of the wrong type no longer gets this far: it is
    refused before the first allocation, see test_serialization.py.)"""
    a = _runtime()
    head = build_linked_list(a, elements=3000, total_bytes=16000)
    data = bytes(MotorSerializer(a, visited="hashed").serialize(head))
    b = ManagedRuntime(RuntimeConfig(heap_capacity=64 << 10, nursery_size=4 << 10))
    define_linked_array(b)
    handles = len(b.handles)
    with pytest.raises(OutOfManagedMemory):
        MotorSerializer(b).deserialize(data)
    assert b.gc.stats.gen0_collections > 1
    assert len(b.handles) == handles


# -- the host budget ---------------------------------------------------------------

#: clock methods one serialize or one deserialize of the Figure 10 list may
#: enter: the walk and the landing fold their charges, in order, in one
#: ``charge_all`` (769 and 1280 ``charge`` calls each at b149504)
CLOCK_CALLS = 3

#: (charges, modelled ns) of that serialize, then of that deserialize, and
#: the representation's SHA-1, captured at b149504 with the statements below
WARM_MODEL = (769, 608921.5999999761, 1280, 438886.39999997616)
WARM_SHA1 = "e3c4bc57748969091624df1f929fe0ef682b4677"


def _clock_calls(call, *args) -> tuple[object, int]:
    """``call(*args)``, and how many Python frames it entered in the clock."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename.endswith("clock.py"):
            n += 1

    old = sys.getprofile()
    sys.setprofile(count)
    try:
        return call(*args), n
    finally:
        sys.setprofile(old)


def test_the_object_path_folds_its_charges():
    """A warm runtime (plans compiled) serializes and lands the Figure 10
    list (256 elements, 4096 B) with a handful of clock calls, for exactly
    the modelled cost and bytes one charge per object gave."""
    rt = _runtime()
    head = _list256(rt)
    ser = MotorSerializer(rt)
    ser.deserialize(bytes(ser.serialize(head)))
    clock = rt.clock
    c0, t0 = clock.charges, clock.now()
    data, sent = _clock_calls(lambda: bytes(ser.serialize(head)))
    c1, t1 = clock.charges, clock.now()
    root, landed = _clock_calls(ser.deserialize, data)
    c2, t2 = clock.charges, clock.now()
    assert sent <= CLOCK_CALLS and landed <= CLOCK_CALLS, (sent, landed)
    assert (c1 - c0, t1 - t0, c2 - c1, t2 - t1) == WARM_MODEL
    assert hashlib.sha1(data).hexdigest() == WARM_SHA1
    verify_linked_list(rt, root, elements=256, total_bytes=4096)
