"""The flavor table: every system the §8 ping-pongs compare, by name.

Each entry builds one rank's *face* of a system from its
:class:`~repro.cluster.world.RankContext`.  A face speaks the verbs the
drivers in :mod:`repro.workloads.pingpong` call:

* ``alloc_buffer/fill_buffer/buffer_bytes`` and ``send/recv/barrier`` for
  buffer ping-pong (Figure 9);
* ``send_tree/recv_tree`` over the face's managed ``runtime``, and
  ``tree_will_overflow``, for object-tree ping-pong (Figure 10).  The
  native C++ face has no managed runtime and so no tree verbs.

The baselines' bindings are their own faces.  Motor's is
:class:`MotorAdapter`, which speaks the verbs through ``System.MP``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.baselines.indiana import IndianaComm
from repro.baselines.jmpi import JmpiComm
from repro.baselines.mpijava import MpiJavaComm
from repro.baselines.native_cpp import NativeComm
from repro.cluster.world import RankContext
from repro.motor.vm import MotorVM


class MotorAdapter:
    """Motor's face: the ping-pong verbs as ``System.MP`` calls."""

    def __init__(self, ctx: RankContext, **vm_options) -> None:
        """The rank's Motor session, else a VM built with ``vm_options``
        (``visited=``, ``pinning_policy_enabled=``)."""
        vm = ctx.session if isinstance(ctx.session, MotorVM) else MotorVM(ctx, **vm_options)
        self.runtime = vm.runtime
        self.comm = vm.comm_world

    def alloc_buffer(self, nbytes: int):
        return self.runtime.new_array("byte", nbytes)

    def fill_buffer(self, buf, data: bytes) -> None:
        self.runtime.fill_array_bytes(buf, data)

    def buffer_bytes(self, buf) -> bytes:
        return self.runtime.array_bytes(buf)

    def send(self, buf, dest: int, tag: int) -> None:
        self.comm.Send(buf, dest, tag)

    def recv(self, buf, source: int, tag: int) -> None:
        self.comm.Recv(buf, source, tag)

    def barrier(self) -> None:
        self.comm.Barrier()

    def send_tree(self, tree, dest: int, tag: int) -> None:
        self.comm.OSend(tree, dest, tag)

    def recv_tree(self, source: int, tag: int):
        return self.comm.ORecv(source, tag)

    def tree_will_overflow(self, elements: int) -> bool:
        return False  # Motor's serializer walks a queue, not the stack


ADAPTERS: dict[str, Callable[[RankContext], object]] = {
    "cpp": NativeComm,
    "motor": MotorAdapter,
    # ablation A4: the efficient (hashed) visited record
    "motor-hashed": partial(MotorAdapter, visited="hashed"),
    # ablation A2: the pinning policy off (pin per operation)
    "motor-pin-always": partial(MotorAdapter, pinning_policy_enabled=False),
    "indiana-sscli": partial(IndianaComm, profile="sscli-free"),
    "indiana-sscli-fastchecked": partial(IndianaComm, profile="sscli-fastchecked"),
    "indiana-dotnet": partial(IndianaComm, profile="dotnet"),
    "mpijava": MpiJavaComm,
    "jmpi": JmpiComm,
}


def make_adapter(name: str, ctx: RankContext):
    """Rank ``ctx``'s face of the system called ``name`` in :data:`ADAPTERS`."""
    try:
        make = ADAPTERS[name]
    except KeyError:
        raise ValueError(f"unknown adapter {name!r} (have {sorted(ADAPTERS)})") from None
    return make(ctx)
