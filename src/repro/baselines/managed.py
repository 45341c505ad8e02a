"""What the managed comparison bindings share.

The Indiana C# bindings, mpiJava and JMPI each host their own managed
runtime over the common MPI engine, hand out managed ``byte[]`` buffers,
and — the two wrappers — ship an object tree as a serialized stream staged
into a ``byte[]`` and preceded by its size.  The architecture under test
(the gate, the pin discipline, the serializer, RMI) is each subclass's own.
"""

from __future__ import annotations

from repro.cluster.world import RankContext
from repro.mp.buffers import BufferDesc
from repro.runtime.handles import ObjRef
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.simtime import HOST_PROFILES

_SIZE_HDR = 8


class ManagedBinding:
    """A message-passing binding hosted by its own managed runtime.

    Subclasses provide ``name``, ``serializer`` and ``send``/``recv``/
    ``barrier``.  The runtime's progress loop never yields to the
    collector: the native MPI underneath knows nothing about the VM.
    """

    def __init__(self, ctx: RankContext, profile: str) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.comm = ctx.engine.comm_world
        self.profile = HOST_PROFILES[profile]
        self.runtime = ManagedRuntime(
            RuntimeConfig(), clock=ctx.clock, costs=ctx.world.costs
        )

    @property
    def rank(self) -> int:
        return self.comm.rank

    # -- buffers (managed byte[]) ---------------------------------------------------

    def alloc_buffer(self, nbytes: int) -> ObjRef:
        return self.runtime.new_array("byte", nbytes)

    def fill_buffer(self, buf: ObjRef, data: bytes) -> None:
        self.runtime.fill_array_bytes(buf, data)

    def buffer_bytes(self, buf: ObjRef) -> bytes:
        return self.runtime.array_bytes(buf)

    def _buf_desc(self, buf: ObjRef) -> BufferDesc:
        _mt, data_addr, nbytes = self.runtime.om.data_window(buf.require())
        return BufferDesc(self.runtime.heap.mem, data_addr, nbytes)

    # -- object trees through the host's standard serializer ----------------------

    def tree_will_overflow(self, elements: int) -> bool:
        """Predicts the serializer blowing its stack on a list this long."""
        return False

    def send_tree(self, root: ObjRef, dest: int, tag: int) -> None:
        blob = self.serializer.serialize(root)
        # Stage the stream into a managed byte[], as the wrapper's user
        # code must, and send its size first ("Before sending the
        # serialized buffer ... sends the size of the buffer ... is also
        # used by mpiJava", §7.5).
        managed = self.runtime.new_byte_array(blob)
        self.runtime.clock.charge(self.runtime.costs.copy_per_byte_ns * len(blob))
        size_arr = self.runtime.new_byte_array(len(blob).to_bytes(_SIZE_HDR, "little"))
        self.send(size_arr, dest, tag)
        self.send(managed, dest, tag)

    def recv_tree(self, source: int, tag: int) -> ObjRef | None:
        size_arr = self.alloc_buffer(_SIZE_HDR)
        st = self.recv(size_arr, source, tag)
        size = int.from_bytes(self.buffer_bytes(size_arr), "little")
        managed = self.alloc_buffer(size)
        self.recv(managed, st.source, tag)
        return self.serializer.deserialize(self.buffer_bytes(managed))
