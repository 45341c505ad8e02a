"""The in-memory channel: packets through a bounded shared queue.

One mechanism for every interconnect whose ranks share an address space.
Packets cross between ranks as objects (the payload bytes are copied once
at enqueue — the "write into the shared segment", or the HCA taking them)
through a bounded deque per destination rank; exposed RMA windows are
reachable through a fabric-wide registry, so Put/Get/Accumulate land with
one direct write and no packet.

What an interconnect *costs* is data: every constant is a field of the
channel's :class:`repro.simtime.LinkProfile`.  ``shm`` stands in for
MPICH2's shared-memory channel; ``ib`` is the paper's future-work port
(§9) — nothing above the five-function interface changes, and the RDMA
cost shape (lower latency, inline sends, a registration cache that rewards
buffers that stay put, as Motor's elder objects do) is one more row.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.mp.buffers import accumulate_into
from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.packets import Packet
from repro.simtime import LINK_PROFILES, Clock, CostModel, LinkProfile


class _SharedQueue:
    """A bounded multi-producer single-consumer packet queue.

    A producer reserves a slot, then commits its packet into it: admission
    is decided before the packet is priced, and since only the consumer
    removes, a reserved slot cannot be lost to another producer.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._q: deque[Packet] = deque()
        self._reserved = 0
        self._lock = threading.Lock()

    def reserve(self) -> bool:
        with self._lock:
            if len(self._q) + self._reserved >= self.capacity:
                return False
            self._reserved += 1
            return True

    def commit(self, pkt: Packet) -> None:
        with self._lock:
            self._reserved -= 1
            self._q.append(pkt)

    def drain(self, limit: int | None = None) -> list[Packet]:
        with self._lock:
            if limit is None or limit >= len(self._q):
                out = list(self._q)
                self._q.clear()
            else:
                out = [self._q.popleft() for _ in range(limit)]
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._q)


class _WindowRegistry:
    """Fabric-shared map of exposed RMA windows.

    Ranks on a shared-address-space fabric can reach each other's window
    memory directly; the registry is the "registered memory" table:
    ``(win_id, rank) -> BufferDesc``.  An origin's channel looks the
    target's descriptor up and lands bytes with one direct write — no
    packet, no target-side message path.  Negative ids are *transient
    grants*: a matched rendezvous receive's buffer, exposed by the CH3
    device for exactly one put (``-op_id`` of the receive request).
    """

    def __init__(self) -> None:
        self._map: dict[tuple[int, int], object] = {}
        self._lock = threading.Lock()

    def register(self, win_id: int, rank: int, desc) -> None:
        with self._lock:
            self._map[(win_id, rank)] = desc

    def deregister(self, win_id: int, rank: int) -> None:
        with self._lock:
            self._map.pop((win_id, rank), None)

    def lookup(self, win_id: int, rank: int):
        with self._lock:
            return self._map.get((win_id, rank))

    def withdraw_rank(self, rank: int) -> None:
        """Drop everything ``rank`` still exposes (its endpoint is closing)."""
        with self._lock:
            for key in [k for k in self._map if k[1] == rank]:
                del self._map[key]


class MemChannel(Channel):
    """An endpoint of the in-memory transport; subclasses name their link."""

    name = "mem"
    link: LinkProfile

    def __init__(
        self,
        rank: int,
        clock: Clock,
        costs: CostModel,
        queues: dict[int, _SharedQueue],
        windows: _WindowRegistry,
    ) -> None:
        super().__init__(rank, clock, costs)
        self._queues = queues  # dest rank -> its inbound queue
        self._windows = windows
        self.rma_bytes = 0  # native one-sided bytes landed by this rank
        #: registered 'pages' (id(base buffer) is unavailable here, so the
        #: cache keys on payload length class — a coarse but monotone model)
        self._reg_cache: set[int] = set()
        self.registrations = 0

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def _register(self, nbytes: int) -> float:
        """Count one memory registration of ``nbytes``; returns its cost."""
        link = self.link
        self.registrations += 1
        return link.registration_ns * (1 + nbytes // (256 * link.registration_page))

    def _registration_cost(self, nbytes: int) -> float:
        """First touch of a new size class pays registration."""
        key = nbytes // self.link.registration_page
        if nbytes <= self.link.inline_max or key in self._reg_cache:
            return 0.0
        self._reg_cache.add(key)
        return self._register(nbytes)

    def send_packet(self, pkt: Packet) -> bool:
        queue = self._queues[pkt.dst]
        # admission first: a refused packet is retried every poll, and must
        # leave the clock, the link's busy window and the counters alone
        if not queue.reserve():
            return False
        link = self.link
        nbytes = len(pkt.payload)
        if link.registration_ns:
            self.clock.charge(self._registration_cost(nbytes))
        latency = self.costs.message_latency_ns * link.latency_fraction
        if nbytes <= link.inline_max:
            latency *= link.inline_discount
        self._stamp_and_charge(
            pkt,
            nbytes,
            latency_ns=latency,
            per_byte_ns=self.costs.per_byte_ns * link.per_byte_fraction,
        )
        # copy into the 'shared segment' — the wire crossing (on ib, the HCA
        # takes the bytes; registration above priced the right to read them
        # in place); this also ends any lease on the sender's buffer
        pkt.freeze_payload()
        queue.commit(pkt)
        return True

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        pkts = self._queues[self.rank].drain(limit)
        self.packets_received += len(pkts)
        return pkts

    def has_incoming(self) -> bool:
        return len(self._queues[self.rank]) > 0

    def finalize(self) -> None:
        super().finalize()
        self._windows.withdraw_rank(self.rank)

    # -- native one-sided path -------------------------------------------------

    def rma_caps(self) -> frozenset[str]:
        return frozenset({"put", "get", "accumulate"})

    def rndv_caps(self) -> frozenset[str]:
        return frozenset({"grant"})

    def rma_register(self, win_id: int, rank: int, desc, transient: bool = False) -> None:
        if self.link.registration_ns:
            # window memory is registered with the HCA once, up front — the
            # classic RDMA deal: pay registration here, then every one-sided
            # op is pure wire time.  A transient grant recurs per message,
            # so it goes through the size-class cache like any send buffer.
            reg = self._registration_cost if transient else self._register
            self.clock.charge(reg(len(desc)))
        self._windows.register(win_id, rank, desc)

    def rma_deregister(self, win_id: int, rank: int) -> None:
        self._windows.deregister(win_id, rank)

    def _rma_target(self, win_id: int, target: int, nbytes: int):
        """The target's window, with ``nbytes`` of direct traffic charged;
        None when the window is not exposed on this fabric."""
        desc = self._windows.lookup(win_id, target)
        if desc is not None:
            self.clock.charge(
                self.costs.packet_overhead_ns
                + self.costs.message_latency_ns * self.link.latency_fraction
                + nbytes * self.costs.per_byte_ns * self.link.rma_per_byte_fraction
            )
        return desc

    def rma_put(self, win_id: int, target: int, offset: int, src_mv) -> bool:
        desc = self._rma_target(win_id, target, len(src_mv))
        if desc is None:
            return False
        desc.write(offset, src_mv)
        self.rma_bytes += len(src_mv)
        return True

    def rma_get(self, win_id: int, target: int, offset: int, dst_mv) -> bool:
        desc = self._rma_target(win_id, target, len(dst_mv))
        if desc is None:
            return False
        dst_mv[:] = desc.read(offset, len(dst_mv))
        self.rma_bytes += len(dst_mv)
        return True

    def rma_accumulate(
        self, win_id: int, target: int, offset: int, src_mv, dtype: str
    ) -> bool:
        # read-modify-write in place on the target's heap; the elementwise
        # sum traverses both operands, so charge two byte streams
        desc = self._rma_target(win_id, target, 2 * len(src_mv))
        if desc is None:
            return False
        accumulate_into(desc.read(offset, len(src_mv)), src_mv, dtype)
        self.rma_bytes += len(src_mv)
        return True


class MemFabric(ChannelFabric):
    channel_cls: type[MemChannel] = MemChannel
    supports_dynamic_ranks = True

    def __init__(self, world_size: int, queue_capacity: int = 4096) -> None:
        super().__init__(world_size)
        self._queues = {r: _SharedQueue(queue_capacity) for r in range(world_size)}
        self._windows = _WindowRegistry()

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> MemChannel:
        return self.channel_cls(rank, clock, costs, self._queues, self._windows)

    def add_rank(self, rank: int, queue_capacity: int = 4096) -> None:
        """Dynamic process management support: grow the fabric."""
        if rank not in self._queues:
            self._queues[rank] = _SharedQueue(queue_capacity)
            self.world_size = max(self.world_size, rank + 1)


class ShmChannel(MemChannel):
    name = "shm"
    link = LINK_PROFILES["shm"]


class ShmFabric(MemFabric):
    channel_cls = ShmChannel


class IbChannel(MemChannel):
    name = "ib"
    link = LINK_PROFILES["ib"]


class IbFabric(MemFabric):
    channel_cls = IbChannel
