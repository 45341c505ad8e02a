"""The native C++ MPICH2 application baseline.

No managed runtime at all: buffers are native memory, calls go straight
into the MPI core with no gate, no pinning, no serialization.  This is the
fastest series in Figure 9 and the floor every managed binding is measured
against.
"""

from __future__ import annotations

from repro.cluster.world import RankContext
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.status import Status


class NativeComm:
    """A thin, C-like face over the MPI engine (what the C++ app sees)."""

    name = "native-cpp"

    def __init__(self, ctx: RankContext) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.comm = ctx.engine.comm_world

    @property
    def rank(self) -> int:
        return self.comm.rank

    # -- buffers ---------------------------------------------------------------

    def alloc_buffer(self, nbytes: int) -> NativeMemory:
        return NativeMemory(nbytes)

    def fill_buffer(self, buf: NativeMemory, data: bytes) -> None:
        if len(data) > len(buf):  # a slice assignment would grow the "malloc'd" block
            raise ValueError(f"{len(data)} bytes overflow a {len(buf)}-byte buffer")
        buf.mem[: len(data)] = data

    def buffer_bytes(self, buf: NativeMemory) -> bytes:
        return buf.tobytes()

    # -- MPI -----------------------------------------------------------------------

    def send(self, buf: NativeMemory, dest: int, tag: int) -> None:
        self.engine.send(BufferDesc.from_native(buf), dest, tag, self.comm)

    def recv(self, buf: NativeMemory, source: int, tag: int) -> Status:
        return self.engine.recv(BufferDesc.from_native(buf), source, tag, self.comm)

    def barrier(self) -> None:
        self.engine.barrier(self.comm)
