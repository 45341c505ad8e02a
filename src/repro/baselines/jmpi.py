"""The JMPI baseline: pure managed MPI over RMI (paper ref [2], §2.1).

"JMPI is a pure Java implementation of a subset of MPI.  Communication in
JMPI is implemented over Java Remote Method Invocation.  This results in
a completely portable MPI library, but offers relatively low performance."

Everything stays managed: even primitive buffers are serialized into an
RMI envelope (method name + argument stream), dispatched through a
simulated remote-invocation layer (extra staging copies + per-call RMI
overhead), and deserialized on the far side.  No pinning is ever needed —
and no zero-copy is ever possible, which is the cost.
"""

from __future__ import annotations

import struct

from repro.baselines.managed import ManagedBinding
from repro.baselines.serializers import ClrBinarySerializer
from repro.cluster.world import RankContext
from repro.mp.buffers import BufferDesc
from repro.mp.errors import MpiErrTag, MpiErrTruncate
from repro.mp.matching import ANY_TAG
from repro.mp.status import Status
from repro.runtime.handles import ObjRef


class JmpiComm(ManagedBinding):
    """Pure managed message passing over simulated RMI."""

    name = "jmpi"

    #: RMI dispatch runs on the collective context with this tag
    _RMI_TAG = (1 << 20) + 900

    def __init__(self, ctx: RankContext, profile: str = "jvm") -> None:
        super().__init__(ctx, profile)
        self.serializer = ClrBinarySerializer(self.runtime, self.profile)

    # -- RMI layer -------------------------------------------------------------------

    def _rmi_invoke(self, dest: int, method: str, payload: bytes) -> None:
        """Marshal an RMI call: method string + payload, extra copies."""
        rt = self.runtime
        rt.clock.charge(rt.costs.rmi_call_ns)
        rt.clock.charge(rt.costs.rmi_per_byte_ns * len(payload))
        m = method.encode()
        envelope = struct.pack("<H", len(m)) + m + struct.pack("<q", len(payload)) + payload
        # staging copy into the 'socket' buffer RMI maintains
        staged = bytearray(envelope)
        hdr = BufferDesc.from_bytes(struct.pack("<q", len(staged)))
        self.engine.send(hdr, dest, self._RMI_TAG, self.comm, _internal=True)
        self.engine.send(BufferDesc(staged, 0, len(staged)), dest, self._RMI_TAG + 1, self.comm, _internal=True)

    def _rmi_accept(self, source: int) -> tuple[str, bytes, int]:
        rt = self.runtime
        rt.clock.charge(rt.costs.rmi_call_ns)
        hdr = bytearray(8)
        st = self.engine.recv(BufferDesc(hdr, 0, 8), source, self._RMI_TAG, self.comm, _internal=True)
        (n,) = struct.unpack("<q", hdr)
        staged = bytearray(n)
        self.engine.recv(BufferDesc(staged, 0, n), st.source, self._RMI_TAG + 1, self.comm, _internal=True)
        (mlen,) = struct.unpack_from("<H", staged, 0)
        method = bytes(staged[2 : 2 + mlen]).decode()
        (plen,) = struct.unpack_from("<q", staged, 2 + mlen)
        payload = bytes(staged[2 + mlen + 8 : 2 + mlen + 8 + plen])
        rt.clock.charge(rt.costs.rmi_per_byte_ns * plen)
        return method, payload, st.source

    # -- MPI subset over RMI -----------------------------------------------------------

    def send(self, buf: ObjRef, dest: int, tag: int) -> None:
        blob = self.serializer.serialize(buf)  # even byte[] gets serialized
        self._rmi_invoke(dest, f"MPI.recvFrom({self.rank},{tag})", blob)

    @staticmethod
    def _sent_tag(method: str, tag: int) -> int:
        """The sender's tag, read off the envelope's ``MPI.<verb>(rank,tag)``
        method string; a receive for another tag is MPI_ERR_TAG."""
        sent = int(method[method.rindex(",") + 1 : -1])
        if tag != ANY_TAG and sent != tag:
            raise MpiErrTag(f"{method} reached a receive for tag {tag}")
        return sent

    def recv(self, buf: ObjRef, source: int, tag: int) -> Status:
        method, payload, src = self._rmi_accept(source)
        sent = self._sent_tag(method, tag)
        got = self.serializer.deserialize(payload)
        data = self.runtime.array_bytes(got)
        room = self.runtime.om.data_window(buf.require())[2]
        if len(data) > room:
            raise MpiErrTruncate(f"message of {len(data)} bytes truncated to {room}")
        self.runtime.fill_array_bytes(buf, data)
        return Status(source=src, tag=sent, count=len(data))

    def barrier(self) -> None:
        self.engine.barrier(self.comm)

    # -- object trees (trivially: everything is serialized anyway) ---------------------

    def send_tree(self, root: ObjRef, dest: int, tag: int) -> None:
        blob = self.serializer.serialize(root)
        self._rmi_invoke(dest, f"MPI.recvObject({self.rank},{tag})", blob)

    def recv_tree(self, source: int, tag: int) -> ObjRef | None:
        method, payload, _src = self._rmi_accept(source)
        self._sent_tag(method, tag)
        return self.serializer.deserialize(payload)
