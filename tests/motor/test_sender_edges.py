"""The sender's edges: a heap that broke the store rule, the lazy numpy
import, and the small-tree timing tool."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.motor.serialization import MotorSerializer, SerializationError
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.simtime import VirtualClock
from repro.workloads.linkedlist import define_linked_array

ROOT = Path(__file__).resolve().parents[2]


def _broken_heap(reached_again: bool):
    """A node whose ``int32[]`` field names another node (``set_ref_raw``
    skips the store check), also reached through ``next`` or not."""
    rt = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20), clock=VirtualClock())
    define_linked_array(rt)
    first, second = rt.new("LinkedArray"), rt.new("LinkedArray")
    if reached_again:
        rt.set_ref(first, "next", second)
    rt.om.set_ref_raw(first.addr, "array", second.addr)
    return rt, first


def test_an_unvisited_object_that_holds_references_is_refused_uncharged():
    """The chase never visits what the broken field names: the encoder
    refuses it before anything is charged or counted."""
    rt, first = _broken_heap(reached_again=False)
    ser = MotorSerializer(rt)
    now, charges = rt.clock.now(), rt.clock.charges
    with pytest.raises(SerializationError, match="store rule"):
        ser.serialize(first)
    assert (rt.clock.now(), rt.clock.charges, ser.objects_serialized) == (now, charges, 0)


def test_a_broken_store_to_a_visited_object_is_refused_by_the_receiver():
    """Reached through ``next`` too, the node is visited and encoded as any
    walk would: the receiver's store rule refuses the representation
    before it allocates."""
    rt, first = _broken_heap(reached_again=True)
    data = bytes(MotorSerializer(rt).serialize(first))
    rx = ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20), clock=VirtualClock())
    define_linked_array(rx)
    free = rx.heap.nursery.free
    with pytest.raises(SerializationError, match="int32"):
        MotorSerializer(rx).deserialize(data)
    assert rx.heap.nursery.free == free


@pytest.mark.parametrize("module", ["repro.motor", "repro.cluster.world"])
def test_importing_loads_no_numpy(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.stdout.strip() == "False"


def test_tree_sizes_runs_one_tiny_batch():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "tree_sizes.py"), "--batches", "1",
         "--repeat", "1"], capture_output=True, text=True, check=True)
    rows = {line.split("  ")[0].strip() for line in done.stdout.splitlines()[2:]}
    assert {"serialize 2", "deserialize 2048", "sum 512", "split serialize 256x2",
            "gather landing 256x2"} <= rows
