"""Sock channel: framed packets over byte rings.

The configuration Motor shipped with: "the MPICH2 Windows sock channel
within the CH3 device" (paper §7, Figure 7).  Each ordered pair of ranks
(``src -> dst``; the diagonal carries self-sends) is joined by a bounded
single-producer/single-consumer byte :class:`Ring`, the 'socket', and
packets cross it as :mod:`~repro.mp.channels.wire` ``PKT`` frames.  The
frame write is the wire crossing, where any
:class:`~repro.mp.buffers.WireView` lease ends; what does not fit waits on
a per-destination backlog that every ``recv_packets`` pushes on, and each
inbound ring is drained through a per-peer
:class:`~repro.mp.channels.wire.FrameReader`.

Framing means a large message genuinely streams: a frame larger than the
ring's free space arrives in pieces, the remainder on a later poll — the
multi-poll window in which an unpinned buffer can move.

All ``n x n`` rings live in one anonymous mapping (:func:`ring_mapping`):
private to this process here, inherited by forked workers under the proc
channel (:mod:`repro.mp.channels.proc`), which adds only a control socket.
A stream cannot be resynchronised after a malformed frame (an impossible
length, a torn packet, a frame for another rank), and each ring names its
producer: that peer alone is declared dead (``dead_ranks``,
``on_peer_dead``) and its ring read no more.

Motor's sock channel learnt which sockets had data from an I/O completion
port (IOCP), a Windows mechanism the PAL does not expose — which is why
this one channel stayed *below* the PAL (§7.1; :class:`repro.pal.api.PAL`
refuses ``CreateIoCompletionPort``).  A port spares scanning every socket;
this model is polled and must look at every ring anyway, so readiness is
read off the ring cursors and no port is simulated.
"""

from __future__ import annotations

import mmap
from collections import deque

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.channels.wire import PKT, FrameReader, decode_packet_body, encode_frame
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel

#: two cache lines ahead of the data, so the cursors never share one
RING_HEADER = 128
#: u64 slots in the header: the consumer alone writes ``head``, the
#: producer alone ``tail``
HEAD_SLOT, TAIL_SLOT = 0, 8


class Ring:
    """One single-producer/single-consumer byte ring inside a shared buffer.

    ``head`` and ``tail`` count bytes consumed and produced since creation
    (``tail - head <= capacity``; a position is the count masked).  Both go
    through one ``cast("Q")`` view: an aligned native 8-byte access the peer
    process never sees torn (``struct``'s ``<`` codec moves a u64 a byte at
    a time, and did).  Data is copied *then* ``tail`` published, and copied
    out *then* ``head`` published, which relies on the host keeping stores
    in order (x86 does); a violation shows up as a malformed frame — a dead
    peer to the channel — not as corrupt data.
    """

    __slots__ = ("capacity", "_cur", "_data")

    def __init__(self, buf, capacity: int, offset: int = 0) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError(f"ring capacity {capacity} is not a power of two")
        mv = memoryview(buf)
        self.capacity = capacity
        self._cur = mv[offset:offset + RING_HEADER].cast("Q")
        self._data = mv[offset + RING_HEADER:offset + RING_HEADER + capacity]

    def __len__(self) -> int:
        """Bytes published and not yet consumed."""
        return self._cur[TAIL_SLOT] - self._cur[HEAD_SLOT]

    def write(self, data: memoryview) -> int:
        """Copy in as much of ``data`` as fits now; the count written."""
        cur, cap = self._cur, self.capacity
        tail = cur[TAIL_SLOT]
        n = min(len(data), cap - (tail - cur[HEAD_SLOT]))
        if n:
            pos = tail & (cap - 1)
            first = min(n, cap - pos)
            self._data[pos:pos + first] = data[:first]
            if first < n:
                self._data[:n - first] = data[first:n]
            cur[TAIL_SLOT] = tail + n
        return n

    def read(self) -> bytes:
        """Every byte published so far (``b""`` when there is none)."""
        cur, cap = self._cur, self.capacity
        head = cur[HEAD_SLOT]
        n = cur[TAIL_SLOT] - head
        if not n:
            return b""
        pos = head & (cap - 1)
        first = min(n, cap - pos)
        out = bytes(self._data[pos:pos + first])
        if first < n:
            out += self._data[:n - first]
        cur[HEAD_SLOT] = head + n
        return out


def ring_mapping(world_size: int, capacity: int) -> mmap.mmap:
    """A world's ``n x n`` rings: anonymous shared memory, inherited by
    forked workers and freed with its last reference — no name, no unlink,
    no resource tracker (the stdlib's named segments would also cost ~4 MiB
    of imports in launcher and worker alike)."""
    return mmap.mmap(-1, world_size * world_size * (RING_HEADER + capacity))


class SockChannel(Channel):
    name = "sock"

    def __init__(self, rank: int, clock: Clock, costs: CostModel, mapping, size: int) -> None:
        super().__init__(rank, clock, costs)
        stride = len(mapping) // (size * size)  # the ring size is the mapping's
        capacity = stride - RING_HEADER
        #: by peer: the ring this rank produces into, and the one it consumes
        #: (None once its producer wrote a malformed frame) with its decoder
        self._tx = [Ring(mapping, capacity, (rank * size + p) * stride) for p in range(size)]
        self._rx: list[Ring | None] = [
            Ring(mapping, capacity, (p * size + rank) * stride) for p in range(size)
        ]
        self._readers = [FrameReader() for _ in range(size)]
        #: by peer: frame bytes its ring had no room for, in order
        self._backlog = [bytearray() for _ in range(size)]
        #: decoded packets an earlier poll's limit left behind
        self._inbox: deque[Packet] = deque()
        #: ranks declared dead: here, by a malformed frame on their ring
        self.dead_ranks: set[int] = set()
        #: wired by the world to ``device._peer_failed`` — the seam where a
        #: transport-level death becomes MPI_ERR_PROC_FAILED
        self.on_peer_dead = None

    # -- the five functions ------------------------------------------------------

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def send_packet(self, pkt: Packet) -> bool:
        self._stamp_and_charge(pkt)
        dst = pkt.dst
        frame = memoryview(encode_frame(PKT, dst, pkt.encode()))
        pkt.release_payload()  # the frame write is the wire crossing
        if dst in self.dead_ranks:
            return True  # nobody will ever drain that ring
        n = 0 if self._backlog[dst] else self._tx[dst].write(frame)
        if n < len(frame):
            self._backlog[dst] += frame[n:]
        return True

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        self.flush_all()
        inbox = self._inbox
        for src, ring in enumerate(self._rx):
            data = ring.read() if ring is not None else b""
            if not data:
                continue
            try:
                for ftype, arg, body in self._readers[src].feed(data):
                    if ftype != PKT or arg != self.rank:
                        raise ValueError(f"frame type {ftype} for rank {arg} on a ring")
                    inbox.append(decode_packet_body(body))
            except ValueError:
                # src's stream cannot be resynchronised: read it no more, and
                # fail what waits on src rather than whoever polls next
                self._rx[src] = None
                self._peer_dead(src)
        out: list[Packet] = []
        while inbox and (limit is None or len(out) < limit):
            out.append(inbox.popleft())
        self.packets_received += len(out)
        return out

    def has_incoming(self) -> bool:
        return bool(self._inbox) or any(self._rx)  # a ring is true when it holds bytes

    # -- flow control -------------------------------------------------------------

    def flush_all(self) -> None:
        """Push every backlog into its ring, as far as each has room."""
        for dst, backlog in enumerate(self._backlog):
            if backlog:
                with memoryview(backlog) as mv:
                    n = self._tx[dst].write(mv)
                del backlog[:n]

    @property
    def tx_backlog(self) -> int:
        return sum(map(len, self._backlog))

    def _peer_dead(self, rank: int) -> None:
        if rank in self.dead_ranks or rank == self.rank:
            return
        self.dead_ranks.add(rank)
        self._backlog[rank].clear()
        cb = self.on_peer_dead
        if cb is not None:
            cb(rank)


class SockFabric(ChannelFabric):
    channel_cls = SockChannel

    def __init__(self, world_size: int, pipe_capacity: int = 1 << 18) -> None:
        super().__init__(world_size)
        # data bytes per ring: 256 KiB, the power of two above the most any
        # experiment has in flight toward one receiver (197 508 B), so no
        # committed run ever splits a frame across polls
        self.mapping = ring_mapping(world_size, pipe_capacity)

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> SockChannel:
        return SockChannel(rank, clock, costs, self.mapping, self.world_size)

    # NOTE: no add_rank — the rings are carved for the boot-time world, so
    # ranks added later would be unreachable from existing endpoints.
    # Dynamic spawn requires a shared-queue fabric (shm, ib).
