"""The in-memory channel: packets through one queue per rank, priced by link rows.

Every simulated world runs on this transport, whatever its ``channel=``:
the name picks only a :class:`LinkTable`, the row of
:data:`repro.simtime.LINK_PROFILES` that prices each ordered pair of
ranks.  Packets cross between ranks as objects (the payload bytes are
copied once at enqueue — the "write into the shared segment", or the HCA
taking them) through a deque per destination rank, which never refuses
one; exposed RMA windows are reachable through a fabric-wide registry, so
Put/Get/Accumulate land with one direct write and no packet — on a table
whose every row has a one-sided path.

What an interconnect *costs* is data.  ``sock`` is the configuration
Motor shipped with (paper §7); ``shm`` stands in for MPICH2's
shared-memory channel; ``ib`` is the paper's future-work port (§9) — the
RDMA cost shape (lower latency, inline sends, a registration cache that
rewards buffers that stay put, as Motor's elder objects do) is one more
row; ``ssm`` is a table of two rows.  Nothing above the five-function
interface changes.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.mp.buffers import accumulate_into
from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.packets import Packet
from repro.simtime import LINK_PROFILES, Clock, CostModel, LinkProfile


class LinkTable(dict):
    """The link rows of one ``channel=``: ``table[src, dst]`` is the row
    pricing the link ``src -> dst``, looked up once per pair.

    ``sock``, ``shm`` and ``ib`` price every pair with their own row.
    ``ssm`` is MPICH2's shm-within-a-node, sock-across-nodes channel (paper
    §6): the shm row between ranks on one node, the sock row otherwise.  A
    rank's node is ``node_of[rank]``, by default ``rank // 2`` (pairs of
    ranks per simulated node), ranks added after boot included.
    """

    def __init__(self, channel: str, node_of: dict[int, int] | None = None) -> None:
        super().__init__()
        self.name = channel
        self.node_of = node_of or {}
        #: (within a node, across nodes)
        self.rows = (
            (LINK_PROFILES["shm"], LINK_PROFILES["sock"]) if channel == "ssm"
            else (LINK_PROFILES[channel],)
        )
        #: native one-sided ops and the rendezvous grant: only when every
        #: row the table can pick has a one-sided path
        self.one_sided = all(row.rma_per_byte_fraction is not None for row in self.rows)

    def __missing__(self, pair: tuple[int, int]) -> LinkProfile:
        src, dst = pair
        node = self.node_of.get
        across = node(src, src // 2) != node(dst, dst // 2)
        row = self[pair] = self.rows[-1] if across else self.rows[0]
        return row


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
    """One rank's endpoint of the in-memory transport."""

    def __init__(
        self,
        rank: int,
        clock: Clock,
        costs: CostModel,
        queues: dict[int, deque[Packet]],
        windows: _WindowRegistry,
        links: LinkTable,
    ) -> None:
        super().__init__(rank, clock, costs)
        self.name = links.name
        self._queues = queues  # dest rank -> its inbound queue
        self._windows = windows
        self._links = links
        self.rma_bytes = 0  # native one-sided bytes landed by this rank
        #: registered 'pages' (id(base buffer) is unavailable here, so the
        #: cache keys on payload length class — a coarse but monotone model)
        self._reg_cache: set[int] = set()
        self.registrations = 0

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def _register(self, link: LinkProfile, nbytes: int) -> float:
        """Count one memory registration of ``nbytes``; returns its cost."""
        self.registrations += 1
        return link.registration_ns * (1 + nbytes // (256 * link.registration_page))

    def _registration_cost(self, link: LinkProfile, nbytes: int) -> float:
        """First touch of a new size class pays registration."""
        key = nbytes // link.registration_page
        if nbytes <= link.inline_max or key in self._reg_cache:
            return 0.0
        self._reg_cache.add(key)
        return self._register(link, nbytes)

    def send_packet(self, pkt: Packet) -> bool:
        dst = pkt.dst
        link = self._links[self.rank, dst]
        nbytes = len(pkt.payload)
        if link.registration_ns:
            self.clock.charge(self._registration_cost(link, nbytes))
        self._stamp_and_charge(pkt, nbytes, link)
        # copy into the 'shared segment' — the wire crossing (on ib, the HCA
        # takes the bytes; registration above priced the right to read them
        # in place); after it the sender's buffer is free again
        pkt.freeze_payload()
        self._queues[dst].append(pkt)
        return True

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        # popleft, one at a time: a producer may append meanwhile
        queue = self._queues[self.rank]
        n = len(queue) if limit is None else min(limit, len(queue))
        out = []
        while len(out) < n:
            out.append(queue.popleft())
        self.packets_received += n
        return out

    def has_incoming(self) -> bool:
        return bool(self._queues[self.rank])

    def finalize(self) -> None:
        super().finalize()
        self._windows.withdraw_rank(self.rank)

    # -- native one-sided path -------------------------------------------------

    def rma_caps(self) -> frozenset[str]:
        return frozenset({"put", "get", "accumulate"}) if self._links.one_sided else frozenset()

    def rndv_caps(self) -> frozenset[str]:
        return frozenset({"grant"}) if self._links.one_sided else frozenset()

    def rma_register(self, win_id: int, rank: int, desc, transient: bool = False) -> None:
        if not self._links.one_sided:
            return  # nothing is exposed, so every op lowers onto packets
        link = self._links[rank, rank]
        if link.registration_ns:
            # window memory is registered with the HCA once, up front — the
            # classic RDMA deal: pay registration here, then every one-sided
            # op is pure wire time.  A transient grant recurs per message,
            # so it goes through the size-class cache like any send buffer.
            reg = self._registration_cost if transient else self._register
            self.clock.charge(reg(link, len(desc)))
        self._windows.register(win_id, rank, desc)

    def rma_deregister(self, win_id: int, rank: int) -> None:
        self._windows.deregister(win_id, rank)

    def _rma_target(self, win_id: int, target: int, nbytes: int):
        """The target's window, with ``nbytes`` of direct traffic charged;
        None when the window is not exposed on this fabric."""
        desc = self._windows.lookup(win_id, target)
        if desc is not None:
            link = self._links[self.rank, target]
            self.clock.charge(
                self.costs.packet_overhead_ns
                + self.costs.message_latency_ns * link.latency_fraction
                + nbytes * self.costs.per_byte_ns * link.rma_per_byte_fraction
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
    """The in-memory endpoints of one world, priced by ``channel``'s table."""

    def __init__(self, world_size: int, channel: str = "shm",
                 node_of: dict[int, int] | None = None) -> None:
        super().__init__(world_size)
        self.links = LinkTable(channel, node_of)
        self._queues: dict[int, deque[Packet]] = {r: deque() for r in range(world_size)}
        self._windows = _WindowRegistry()

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> MemChannel:
        return MemChannel(rank, clock, costs, self._queues, self._windows, self.links)

    def add_rank(self, rank: int) -> None:
        """Dynamic process management support: grow the fabric."""
        if rank not in self._queues:
            self._queues[rank] = deque()
            self.world_size = max(self.world_size, rank + 1)
