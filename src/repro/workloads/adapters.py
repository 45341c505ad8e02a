"""Uniform measurement adapters over Motor and every baseline.

The drivers in :mod:`repro.workloads.pingpong` speak a small verb set —
``alloc/fill/read/send/recv/barrier`` for buffer ping-pong (Figure 9) and
``build_tree/send_tree/recv_tree/verify_tree`` for object-tree ping-pong
(Figure 10).  Each adapter maps those verbs onto one system's native idiom
so every series in a figure runs the identical protocol.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.indiana import IndianaComm
from repro.baselines.jmpi import JmpiComm
from repro.baselines.managed import ManagedBinding
from repro.baselines.mpijava import MpiJavaComm
from repro.baselines.native_cpp import NativeComm
from repro.cluster.world import RankContext
from repro.motor.vm import MotorVM
from repro.workloads import linkedlist


class BaseAdapter:
    """Shared verb-set documentation; see module docstring."""

    name = "base"
    #: object-tree transport supported (native C++ is buffer-only)
    supports_trees = True

    def __init__(self, ctx: RankContext) -> None:
        self.ctx = ctx

    # fig9 verbs -------------------------------------------------------------
    def alloc(self, nbytes: int):
        raise NotImplementedError

    def fill(self, buf, data: bytes) -> None:
        raise NotImplementedError

    def read(self, buf) -> bytes:
        raise NotImplementedError

    def send(self, buf, dest: int, tag: int) -> None:
        raise NotImplementedError

    def recv(self, buf, source: int, tag: int) -> None:
        raise NotImplementedError

    def barrier(self) -> None:
        raise NotImplementedError

    # fig10 verbs -------------------------------------------------------------
    def build_tree(self, elements: int, total_bytes: int = 4096):
        raise NotImplementedError

    def send_tree(self, tree, dest: int, tag: int) -> None:
        raise NotImplementedError

    def recv_tree(self, source: int, tag: int):
        raise NotImplementedError

    def verify_tree(self, tree, elements: int, total_bytes: int = 4096) -> None:
        raise NotImplementedError

    def tree_will_overflow(self, elements: int) -> bool:
        """Predicts the serializer blowing its stack (mpiJava only)."""
        return False


class BindingAdapter(BaseAdapter):
    """The buffer verbs over a binding's comm object (any baseline)."""

    def __init__(self, ctx: RankContext, comm) -> None:
        super().__init__(ctx)
        self.comm = comm

    def alloc(self, nbytes: int):
        return self.comm.alloc_buffer(nbytes)

    def fill(self, buf, data: bytes) -> None:
        self.comm.fill_buffer(buf, data)

    def read(self, buf) -> bytes:
        return self.comm.buffer_bytes(buf)

    def send(self, buf, dest: int, tag: int) -> None:
        self.comm.send(buf, dest, tag)

    def recv(self, buf, source: int, tag: int) -> None:
        self.comm.recv(buf, source, tag)

    def barrier(self) -> None:
        self.comm.barrier()


class NativeAdapter(BindingAdapter):
    name = "cpp"
    supports_trees = False

    def __init__(self, ctx: RankContext) -> None:
        super().__init__(ctx, NativeComm(ctx))


class MotorAdapter(BaseAdapter):
    name = "motor"

    def __init__(
        self,
        ctx: RankContext,
        visited: str = "linear",
        pinning_policy_enabled: bool = True,
    ) -> None:
        super().__init__(ctx)
        self.vm = ctx.session if isinstance(ctx.session, MotorVM) else MotorVM(
            ctx, visited=visited, pinning_policy_enabled=pinning_policy_enabled
        )
        self.comm = self.vm.comm_world
        linkedlist.define_linked_array(self.vm.runtime)

    def alloc(self, nbytes: int):
        return self.vm.runtime.new_array("byte", nbytes)

    def fill(self, buf, data: bytes) -> None:
        self.vm.runtime.fill_array_bytes(buf, data)

    def read(self, buf) -> bytes:
        return self.vm.runtime.array_bytes(buf)

    def send(self, buf, dest: int, tag: int) -> None:
        self.comm.Send(buf, dest, tag)

    def recv(self, buf, source: int, tag: int) -> None:
        self.comm.Recv(buf, source, tag)

    def barrier(self) -> None:
        self.comm.Barrier()

    def build_tree(self, elements: int, total_bytes: int = 4096):
        return linkedlist.build_linked_list(self.vm.runtime, elements, total_bytes)

    def send_tree(self, tree, dest: int, tag: int) -> None:
        self.comm.OSend(tree, dest, tag)

    def recv_tree(self, source: int, tag: int):
        return self.comm.ORecv(source, tag)

    def verify_tree(self, tree, elements: int, total_bytes: int = 4096) -> None:
        linkedlist.verify_linked_list(self.vm.runtime, tree, elements, total_bytes)


class MotorHashedAdapter(MotorAdapter):
    """Motor with the efficient (hashed) visited record — ablation A4."""

    name = "motor-hashed"

    def __init__(self, ctx: RankContext) -> None:
        super().__init__(ctx, visited="hashed")


class MotorPinAlwaysAdapter(MotorAdapter):
    """Motor with the pinning policy disabled (pin per op) — ablation A2."""

    name = "motor-pin-always"

    def __init__(self, ctx: RankContext) -> None:
        super().__init__(ctx, pinning_policy_enabled=False)


class ManagedBindingAdapter(BindingAdapter):
    """A managed wrapper binding (:class:`repro.baselines.managed.
    ManagedBinding`): the tree verbs go through the comm's own runtime."""

    def __init__(self, ctx: RankContext, comm: ManagedBinding) -> None:
        super().__init__(ctx, comm)
        self.name = comm.name
        linkedlist.define_linked_array(comm.runtime)

    def build_tree(self, elements: int, total_bytes: int = 4096):
        return linkedlist.build_linked_list(self.comm.runtime, elements, total_bytes)

    def send_tree(self, tree, dest: int, tag: int) -> None:
        self.comm.send_tree(tree, dest, tag)

    def recv_tree(self, source: int, tag: int):
        return self.comm.recv_tree(source, tag)

    def verify_tree(self, tree, elements: int, total_bytes: int = 4096) -> None:
        linkedlist.verify_linked_list(self.comm.runtime, tree, elements, total_bytes)


class MpiJavaAdapter(ManagedBindingAdapter):
    def tree_will_overflow(self, elements: int) -> bool:
        # writeObject recursion deepens once per list element.
        return elements > self.comm.runtime.costs.java_recursion_limit


def _over(comm_cls, *comm_args, adapter=ManagedBindingAdapter):
    """An ``ADAPTERS`` entry: ``adapter`` over ``comm_cls(ctx, *comm_args)``."""
    return lambda ctx: adapter(ctx, comm_cls(ctx, *comm_args))


ADAPTERS: dict[str, Callable[[RankContext], BaseAdapter]] = {
    "cpp": NativeAdapter,
    "motor": MotorAdapter,
    "motor-hashed": MotorHashedAdapter,
    "motor-pin-always": MotorPinAlwaysAdapter,
    "indiana-sscli": _over(IndianaComm, "sscli-free"),
    "indiana-sscli-fastchecked": _over(IndianaComm, "sscli-fastchecked"),
    "indiana-dotnet": _over(IndianaComm, "dotnet"),
    "mpijava": _over(MpiJavaComm, adapter=MpiJavaAdapter),
    "jmpi": _over(JmpiComm),
}


def make_adapter(name: str, ctx: RankContext) -> BaseAdapter:
    try:
        make = ADAPTERS[name]
    except KeyError:
        raise ValueError(f"unknown adapter {name!r} (have {sorted(ADAPTERS)})") from None
    return make(ctx)
