"""Sock channel: framed packets over byte rings.

The configuration Motor shipped with: "the MPICH2 Windows sock channel
within the CH3 device" (paper §7, Figure 7).  Each ordered pair of ranks
(``src -> dst``; the diagonal carries self-sends) is joined by a bounded
single-producer/single-consumer byte :class:`Ring`, the 'socket', and
packets cross it as frames::

    [u32 length] [u8 ftype = PKT] [i32 dst] [packet header] [payload]

``length`` counts everything after itself.  The frame write is the wire
crossing, where any :class:`~repro.mp.buffers.WireView` lease ends: the
frame prefix and the packet header go into the ring, then the payload
straight from its view, and only what does not fit is copied onto a
per-destination backlog that every ``recv_packets`` pushes on.  Each
inbound ring is drained by a per-peer :class:`RingReader`, which copies a
whole payload out of the ring as one ``bytes`` — once in, once out, the
ring being the eager buffer.

One ring size serves every world (:data:`RING_CAPACITY`), large enough
that no eager frame at the default threshold is ever split.  A frame
larger than the ring still works: it arrives in pieces, the remainder on
a later poll.

All ``n x n`` rings live in one anonymous mapping (:func:`ring_mapping`),
followed by a small control block (:func:`control_block`): private to
this process in an inproc world, inherited by the forked workers of the
proc substrate, which meet in it at boot and learn of a peer's death from
it (the launcher writes that, when the kernel reports the peer's process
gone).  A stream cannot be resynchronised after a malformed frame (an
impossible length, a torn packet, a frame for another rank), and each
ring names its producer: that peer alone is declared dead (``dead_ranks``,
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
import struct
from collections import deque

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.packets import HEADER_SIZE, Packet
from repro.simtime import Clock, CostModel

#: a frame's fixed prefix: ``length``, ``ftype``, ``arg`` (the destination)
PREFIX = struct.Struct("<IBi")
#: the ``length`` field itself, which ``length`` does not count
LENGTH_SIZE = 4
#: the one frame type: a packet
PKT = 1
#: refuse frames beyond this size (a corrupted length prefix must not
#: allocate gigabytes); generous for 256 KiB rendezvous chunks
MAX_FRAME = 64 << 20
#: two cache lines ahead of the data, so the cursors never share one
RING_HEADER = 128
#: u64 slots in the header: the consumer alone writes ``head``, the
#: producer alone ``tail``
HEAD_SLOT, TAIL_SLOT = 0, 8
#: data bytes per ring, for sock and proc worlds alike: 256 KiB, the power
#: of two above the most any experiment has in flight toward one receiver
#: (197 508 B) and above a default-threshold (128 KiB) eager frame, so no
#: committed run ever splits a frame across polls
RING_CAPACITY = 1 << 18
#: a PKT frame's lead: the frame prefix, then the packet header
LEAD = PREFIX.size + HEADER_SIZE
#: the least a PKT frame's ``length`` can say: a lead and no payload
MIN_LENGTH = LEAD - LENGTH_SIZE


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

    def write(self, *parts) -> int:
        """Copy in as much of ``parts``, in order, as fits now, and publish
        it at once; the count written."""
        cur, cap, data = self._cur, self.capacity, self._data
        start = tail = cur[TAIL_SLOT]
        end = cur[HEAD_SLOT] + cap
        for part in parts:
            n = min(len(part), end - tail)
            pos = tail & (cap - 1)
            first = min(n, cap - pos)
            data[pos:pos + first] = part[:first]
            if first < n:
                data[:n - first] = part[first:n]
            tail += n
        cur[TAIL_SLOT] = tail
        return tail - start

    def view(self, at: int, n: int) -> memoryview | bytes:
        """The ``n`` bytes at stream position ``at`` (published, not yet
        consumed): a view of the ring, or one joined copy where they wrap."""
        cap = self.capacity
        pos = at & (cap - 1)
        if pos + n <= cap:
            return self._data[pos:pos + n]
        return b"".join((self._data[pos:], self._data[:pos + n - cap]))

    def readinto(self, buf: memoryview) -> int:
        """Consume as much as is published into ``buf``; the count read."""
        head = self._cur[HEAD_SLOT]
        n = min(len(buf), len(self))
        buf[:n] = self.view(head, n)
        self._cur[HEAD_SLOT] = head + n
        return n


class RingReader:
    """Decodes the PKT frames on one inbound ring, straight out of it.

    As soon as a frame's 9-byte prefix is published it is checked —
    at least a lead and at most ``MAX_FRAME``, type ``PKT``, destination this
    rank — so a garbage stream fails on the poll that sees it, not after
    more bytes that may never come.  A frame that fits the ring is left
    there until all of it is published, then decoded in place: the header
    unpacked from the ring, the payload copied out once as ``bytes``.  A
    larger one (it can never be whole in the ring) is consumed as it
    arrives, into a ``bytearray`` of the payload's size.  Every defect is a
    ``ValueError``: the stream cannot be resynchronised.
    """

    __slots__ = ("ring", "rank", "_pkt", "_buf", "_got")

    def __init__(self, ring: Ring, rank: int) -> None:
        self.ring = ring
        self.rank = rank
        #: a frame larger than the ring, mid-payload: its packet, the
        #: payload so far and how much of it has arrived
        self._pkt: Packet | None = None
        self._buf = bytearray()
        self._got = 0

    def drain(self, out: deque[Packet]) -> None:
        """Append every packet the ring now completes to ``out``."""
        ring = self.ring
        cur = ring._cur
        while True:
            pkt = self._pkt
            if pkt is not None:
                with memoryview(self._buf) as mv:
                    self._got += ring.readinto(mv[self._got:])
                if self._got < len(self._buf):
                    return
                pkt.payload = bytes(self._buf)
                out.append(pkt)
                self._pkt, self._buf = None, bytearray()
                continue
            head = cur[HEAD_SLOT]
            avail = cur[TAIL_SLOT] - head
            if avail < PREFIX.size:
                return
            length, ftype, arg = PREFIX.unpack(ring.view(head, PREFIX.size))
            if not MIN_LENGTH <= length <= MAX_FRAME:
                raise ValueError(f"PKT frame length {length} outside [{MIN_LENGTH}, MAX_FRAME]")
            if ftype != PKT or arg != self.rank:
                raise ValueError(f"frame type {ftype} for rank {arg} on rank {self.rank}'s ring")
            size = LENGTH_SIZE + length
            if avail < size and (size <= ring.capacity or avail < LEAD):
                return  # the rest is on its way
            pkt, plen = Packet.unpack_header(ring.view(head + PREFIX.size, HEADER_SIZE))
            if plen != size - LEAD:
                raise ValueError(f"torn packet frame: payload {size - LEAD} of {plen} bytes")
            if avail < size:
                cur[HEAD_SLOT] = head + LEAD
                self._pkt, self._buf, self._got = pkt, bytearray(plen), 0
                continue
            pkt.payload = bytes(ring.view(head + LEAD, plen))
            cur[HEAD_SLOT] = head + size
            out.append(pkt)


def packet_lead(pkt: Packet) -> bytes:
    """A PKT frame's prefix and packet header; the payload follows it."""
    return PREFIX.pack(MIN_LENGTH + len(pkt.payload), PKT, pkt.dst) + pkt.pack_header()


def _control_size(world_size: int) -> int:
    return 8 * (2 * world_size + 1)


def ring_mapping(world_size: int, capacity: int = RING_CAPACITY) -> mmap.mmap:
    """A world's ``n x n`` rings and their control block: anonymous shared
    memory, inherited by forked workers and freed with its last reference —
    no name, no unlink, no resource tracker (the stdlib's named segments
    would also cost ~4 MiB of imports in launcher and worker alike)."""
    rings = world_size * world_size * (RING_HEADER + capacity)
    return mmap.mmap(-1, rings + _control_size(world_size))


def control_block(mapping, world_size: int) -> tuple[memoryview, memoryview, memoryview]:
    """The u64 words after a mapping's rings, through the cursors' kind of
    ``cast("Q")`` view: ``ready`` and ``dead`` by rank, then the one-word
    ``deaths`` count.  Each word has one writer: ``ready[r]`` rank ``r``'s
    process (the boot barrier), ``dead`` and ``deaths`` the launcher, which
    sets ``dead[r]`` and *then* bumps ``deaths`` when rank ``r``'s process
    ends without a result."""
    words = memoryview(mapping)[len(mapping) - _control_size(world_size):].cast("Q")
    return words[:world_size], words[world_size:2 * world_size], words[2 * world_size:]


class SockChannel(Channel):
    name = "sock"

    def __init__(self, rank: int, clock: Clock, costs: CostModel, mapping, size: int) -> None:
        super().__init__(rank, clock, costs)
        # the ring size is the mapping's, less its control block
        stride = (len(mapping) - _control_size(size)) // (size * size)
        capacity = stride - RING_HEADER
        if capacity < LEAD:
            raise ValueError(f"ring capacity {capacity} cannot hold a {LEAD}-byte frame lead")
        #: by peer: the ring this rank produces into, and the decoder of the
        #: one it consumes (None once its producer wrote a malformed frame)
        self._tx = [Ring(mapping, capacity, (rank * size + p) * stride) for p in range(size)]
        self._rx: list[RingReader | None] = [
            RingReader(Ring(mapping, capacity, (p * size + rank) * stride), rank)
            for p in range(size)
        ]
        #: by peer: frame bytes its ring had no room for, in order
        self._backlog = [bytearray() for _ in range(size)]
        #: decoded packets an earlier poll's limit left behind
        self._inbox: deque[Packet] = deque()
        #: the launcher's death notices: dead words by rank, the count of
        #: them this endpoint has read, and the ranks last read as dead
        _, self._dead, self._deaths = control_block(mapping, size)
        self._deaths_seen = 0
        self._dying: list[int] = []
        #: ranks declared dead: by a malformed frame on their ring, or by
        #: the launcher once their process ended
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
        if dst not in self.dead_ranks:  # nobody will ever drain a dead peer's ring
            lead, payload = packet_lead(pkt), pkt.payload_mv()
            backlog = self._backlog[dst]
            n = 0 if backlog else self._tx[dst].write(lead, payload)
            if n < LEAD + len(payload):  # the ring is full: the rest waits, copied
                backlog += lead[n:]
                backlog += payload[max(n - LEAD, 0):]
        pkt.release_payload()  # the frame write is the wire crossing
        return True

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        inbox = self._inbox
        if self._dying and not inbox:
            # what they published before dying was drained by the poll that
            # read of their death, and is delivered: only now do waits fail
            for rank in self._dying:
                self._peer_dead(rank)
            self._dying = []
        if self._deaths[0] != self._deaths_seen:  # one load per poll
            self._deaths_seen = self._deaths[0]
            self._dying = [rank for rank, dead in enumerate(self._dead) if dead]
        self.flush_all()
        for src, reader in enumerate(self._rx):
            if reader is None:  # dead
                continue
            try:
                reader.drain(inbox)
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
        return bool(self._inbox) or any(r is not None and len(r.ring) for r in self._rx)

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
    """Endpoints over one :func:`ring_mapping`: a fresh one by default, or
    ``mapping`` — how a proc worker builds its fabric over the one its
    launcher made before forking, taking one endpoint of it."""

    channel_cls = SockChannel

    def __init__(self, world_size: int, mapping=None) -> None:
        super().__init__(world_size)
        self.mapping = ring_mapping(world_size) if mapping is None else mapping

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> SockChannel:
        return SockChannel(rank, clock, costs, self.mapping, self.world_size)

    # NOTE: no add_rank — the rings are carved for the boot-time world, so
    # ranks added later would be unreachable from existing endpoints.
    # Dynamic spawn requires a shared-queue fabric (shm, ib).
