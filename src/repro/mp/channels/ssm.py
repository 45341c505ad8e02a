"""ssm channel: shared memory for local peers, sockets for remote ones.

MPICH2's ``ssm`` picks shm within a node and sock across nodes (paper §6).
The fabric takes a node map; peers on the same node talk through the shm
path, everyone else through the sock path.
"""

from __future__ import annotations

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.channels.mem import ShmFabric
from repro.mp.channels.sock import SockFabric
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel


class SsmChannel(Channel):
    name = "ssm"

    def __init__(self, rank: int, clock: Clock, costs: CostModel, shm: Channel, sock: Channel, node_of: dict[int, int]) -> None:
        super().__init__(rank, clock, costs)
        self._shm = shm
        self._sock = sock
        self._node_of = node_of

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def _local(self, peer: int) -> bool:
        return self._node_of.get(peer) == self._node_of.get(self.rank)

    def send_packet(self, pkt: Packet) -> bool:
        ch = self._shm if self._local(pkt.dst) else self._sock
        ok = ch.send_packet(pkt)
        if ok:
            self.packets_sent += 1
            self.bytes_sent += len(pkt.payload)
        return ok

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        out = self._shm.recv_packets(limit)
        rest = None if limit is None else max(0, limit - len(out))
        if rest is None or rest:
            out.extend(self._sock.recv_packets(rest))
        self.packets_received += len(out)
        return out

    def has_incoming(self) -> bool:
        return self._shm.has_incoming() or self._sock.has_incoming()

    def retire(self) -> None:
        self._shm.retire()
        self._sock.retire()

    def owes(self) -> bool:
        return self._sock.owes()

    def finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        self._shm.finalize()
        self._sock.finalize()


class SsmFabric(ChannelFabric):
    channel_cls = SsmChannel

    def __init__(self, world_size: int, node_of: dict[int, int] | None = None) -> None:
        super().__init__(world_size)
        #: default: pairs of ranks per simulated node
        self.node_of = node_of or {r: r // 2 for r in range(world_size)}
        self._shm = ShmFabric(world_size)
        self._sock = SockFabric(world_size)

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> SsmChannel:
        shm = self._shm.endpoint(rank, clock, costs)
        sock = self._sock.endpoint(rank, clock, costs)
        return SsmChannel(rank, clock, costs, shm, sock, self.node_of)
