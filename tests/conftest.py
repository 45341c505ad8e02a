"""Shared fixtures for the Motor reproduction test suite."""

from __future__ import annotations

import pytest

from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.simtime import CostModel, VirtualClock


@pytest.fixture
def runtime() -> ManagedRuntime:
    """A small, wall-clock managed runtime."""
    return ManagedRuntime(RuntimeConfig(heap_capacity=8 << 20, nursery_size=64 << 10))


@pytest.fixture
def vruntime() -> ManagedRuntime:
    """A managed runtime on a virtual clock (for cost assertions)."""
    return ManagedRuntime(
        RuntimeConfig(heap_capacity=8 << 20, nursery_size=64 << 10),
        clock=VirtualClock(),
        costs=CostModel(),
    )


@pytest.fixture
def tiny_runtime() -> ManagedRuntime:
    """A runtime with a very small nursery, so collections happen often."""
    return ManagedRuntime(RuntimeConfig(heap_capacity=4 << 20, nursery_size=4 << 10))


def define_linked(rt: ManagedRuntime):
    """The Figure 5 class, used all over the serializer tests."""
    from repro.workloads.linkedlist import define_linked_array

    define_linked_array(rt)
    return rt.registry.resolve("LinkedArray")


@pytest.fixture
def linked_cls(runtime):
    return define_linked(runtime)


@pytest.fixture
def ring_threads():
    """A substrate for ``World``/``mpiexec``: ranks are threads under the
    baton, as inproc, but the fabric is the ring transport of real
    processes (a :class:`~repro.mp.channels.sock.SockFabric` over a private
    mapping) — the proc substrate's channel with whole-world hosting and no
    fork.  ``channel=`` does not apply: every ring is priced as sock."""
    from repro.cluster.substrate import InprocSubstrate
    from repro.mp.channels import SockFabric

    class RingThreads(InprocSubstrate):
        def build_fabric(self):
            return SockFabric(self.world.size)

    return RingThreads
