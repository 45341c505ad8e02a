"""Transport plans change what the host pays, never what is sent or modelled.

Two things are pinned here against the commit before the plans existed:

* the representation (``sha256`` of the bytes) and the modelled cost
  (``VirtualClock.now()`` and ``.charges`` deltas) of ``serialize`` and of
  ``deserialize``, for both visited kinds — the same charges, in the same
  order, so the float sums are bit-equal;
* landing under collection: where collections fall during pass 1, what
  they promote, and that a ``deserialize`` leaves exactly one new handle
  (the root) on success and none when landing fails.
"""

from __future__ import annotations

import hashlib

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
    # b.gc.stats.gen0_collections, .bytes_promoted, .objects_promoted.
    stats = b.gc.stats
    assert (stats.gen0_collections, stats.bytes_promoted, stats.objects_promoted) == (2, 131072, 4096)
    assert len(b.handles) == handles + 1  # the root, nothing else
    verify_linked_list(b, root, elements=3000, total_bytes=16000)


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
