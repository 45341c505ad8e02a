"""The Indiana University C# bindings baseline (paper refs [7], §2.1).

Architecture under test: a *managed wrapper* — the MPI library is native
and oblivious to the runtime; every call crosses P/Invoke (marshalling +
security demand) and the buffer is pinned **for each MPI operation**
("Pinning is performed for each MPI operation", §8), regardless of the
object's generation or whether a collection could even occur.

Object trees are transported by serializing with the host's standard CLI
binary formatter into a managed ``byte[]`` and sending that with the
regular routines — the workaround the paper describes for Figure 10.

The same binding code runs hosted by different runtimes (SSCLI free,
SSCLI fastchecked, commercial .NET) via :class:`repro.simtime.HostProfile`.
"""

from __future__ import annotations

from functools import partial

from repro.baselines.managed import ManagedBinding
from repro.baselines.serializers import ClrBinarySerializer
from repro.cluster.world import RankContext
from repro.mp.status import Status
from repro.runtime.handles import ObjRef


class IndianaComm(ManagedBinding):
    """C# MPI bindings over P/Invoke, hosted by a selectable runtime."""

    def __init__(self, ctx: RankContext, profile: str = "sscli-free") -> None:
        super().__init__(ctx, profile)
        self.name = f"indiana-{profile}"
        self.gate = self.runtime.gate("pinvoke", self.profile)
        self.serializer = ClrBinarySerializer(self.runtime, self.profile)

    # -- the per-op pin + P/Invoke discipline -----------------------------------

    def _pinned_call(self, buf: ObjRef, native_fn, *args):
        cookie = self.runtime.gc.pin(buf, cost_mult=self.profile.pin_mult)
        try:
            return self.gate.call(native_fn, *args)
        finally:
            self.runtime.gc.unpin(cookie, cost_mult=self.profile.pin_mult)

    def send(self, buf: ObjRef, dest: int, tag: int) -> None:
        desc = self._buf_desc(buf)
        self._pinned_call(
            buf, partial(self.engine.send, desc, dest, tag, self.comm)
        )

    def recv(self, buf: ObjRef, source: int, tag: int) -> Status:
        desc = self._buf_desc(buf)
        return self._pinned_call(
            buf, partial(self.engine.recv, desc, source, tag, self.comm)
        )

    def barrier(self) -> None:
        self.gate.call(partial(self.engine.barrier, self.comm))
