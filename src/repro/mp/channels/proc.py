"""Proc channel: packets over shared-memory rings, control over one socket.

The first channel whose wire genuinely leaves the Python process, in two
planes.  **Data**: one anonymous shared mapping carved into ``n x n``
single-producer/single-consumer byte :class:`Ring` s (``src -> dst``; the
diagonal carries self-sends).  ``send_packet`` charges and stamps as the
simulated ``sock`` channel does, then writes the frame into the ring to
``pkt.dst`` as a byte stream — the wire crossing, where any
:class:`~repro.mp.buffers.WireView` lease ends.  What does not fit waits on
a per-destination backlog that every ``recv_packets`` (and, with a
deadline, teardown) pushes on, so a frame larger than a ring arrives in
pieces; ``recv_packets`` drains each inbound ring through a per-peer
:class:`~repro.mp.channels.wire.FrameReader`.  Ranks talk to each other,
not through the launcher.  **Control**: one nonblocking loopback TCP socket
to the substrate's :class:`~repro.cluster.router.PacketRouter`, for
``HELLO``/``GO`` (the boot barrier), ``RESULT``/``ERROR``/``BYE`` and
``DEAD`` verdicts.  Nothing blocks on a ring: a waiting rank polls.

Failure surfaces here: a ``DEAD`` frame (the router's verdict that a peer's
OS process died), a router-side EOF, and a malformed frame on a peer's ring
(each ring names its producer, so that peer alone is declared dead and its
ring read no more) all feed ``on_peer_dead``, which the world wires to the
device's ``_peer_failed`` so waiters raise
:class:`~repro.mp.errors.MpiErrProcFailed` instead of spinning forever.
"""

from __future__ import annotations

import pickle
import select
import socket
import time
from collections import deque

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.channels.wire import (
    BYE, DEAD, ERROR, GO, HELLO, PKT, RESULT, FrameReader, decode_packet_body, encode_frame,
)
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel

_RECV_CHUNK = 1 << 16

#: data bytes per ring (a power of two; 64 KiB measured, not an option)
RING_CAPACITY = 1 << 16
#: two cache lines ahead of the data, so the cursors never share one
RING_HEADER = 128
#: u64 slots in the header: the consumer alone writes ``head``, the
#: producer alone ``tail``
HEAD_SLOT, TAIL_SLOT = 0, 8
_RING_STRIDE = RING_HEADER + RING_CAPACITY


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

    def __init__(self, buf, offset: int = 0, capacity: int = RING_CAPACITY) -> None:
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


def ring_mapping(world_size: int):
    """A world's ``n x n`` rings: anonymous shared memory, inherited by
    forked workers and freed with its last reference — no name, no unlink,
    no resource tracker (the stdlib's named segments would also cost ~4 MiB
    of imports in launcher and worker alike)."""
    import mmap  # here, not at module level: inproc worlds load this file too

    return mmap.mmap(-1, world_size * world_size * _RING_STRIDE)


class ProcChannel(Channel):
    name = "proc"

    def __init__(
        self, rank: int, clock: Clock, costs: CostModel, sock: socket.socket, mapping, size: int
    ) -> None:
        super().__init__(rank, clock, costs)
        self._sock = sock
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX socketpair etc.
        #: by peer: the ring this rank produces into, and the one it consumes
        #: (None once its producer wrote a malformed frame) with its decoder
        self._tx = [Ring(mapping, (rank * size + p) * _RING_STRIDE) for p in range(size)]
        self._rx: list[Ring | None] = [
            Ring(mapping, (p * size + rank) * _RING_STRIDE) for p in range(size)
        ]
        self._readers = [FrameReader() for _ in range(size)]
        #: by peer: frame bytes its ring had no room for, in order
        self._backlog = [bytearray() for _ in range(size)]
        #: the control socket's decoder, receive buffer (reused for the
        #: channel's life) and unsent bytes
        self._reader = FrameReader()
        self._rxbuf = memoryview(bytearray(_RECV_CHUNK))
        self._txbuf = bytearray()
        self._inbox: deque[Packet] = deque()
        self._closed = False
        #: GO received: every rank of the world said HELLO to the router
        self.ready = False
        #: ranks declared dead: by the router (their OS process exited) or
        #: here (a malformed frame on their ring)
        self.dead_ranks: set[int] = set()
        #: wired by the world to ``device._peer_failed`` — the seam where a
        #: transport-level death becomes MPI_ERR_PROC_FAILED
        self.on_peer_dead = None

    # -- the five functions ------------------------------------------------------

    def init(self, world_size: int) -> None:
        self.world_size = world_size
        self._send_control(encode_frame(HELLO, self.rank))

    def send_packet(self, pkt: Packet) -> bool:
        # same cost shape as the simulated sock channel: full socket
        # latency and bandwidth terms on the virtual clock
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
        self._flush()
        self._pump()
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
        if self._inbox or any(self._rx):  # a ring is true when it holds bytes
            return True
        if self._closed:
            return False
        r, _w, _x = select.select([self._sock], [], [], 0)
        return bool(r)

    def finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        self._flush(deadline=time.monotonic() + 2.0)
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    # -- boot barrier -------------------------------------------------------------

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the router's GO arrives (barrier-at-boot).

        Packets that race ahead of GO (a peer released earlier) wait in
        their ring; only the GO itself releases this rank.
        """
        deadline = time.monotonic() + timeout
        while not self.ready:
            if self._closed:
                raise ConnectionError("router connection closed before GO")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank}: world did not assemble within {timeout}s"
                )
            select.select([self._sock], [], [], min(remaining, 0.2))
            self._pump()

    # -- control plane ------------------------------------------------------------

    def send_result(self, value) -> None:
        """Ship the rank's main() return value to the launcher."""
        self._send_control(encode_frame(RESULT, self.rank, pickle.dumps(value)))

    def send_error(self, payload: bytes) -> None:
        """Ship a pickled failure report to the launcher."""
        self._send_control(encode_frame(ERROR, self.rank, payload))

    def send_bye(self) -> None:
        """Announce a clean exit, then force both backlogs out: a peer may
        still be waiting for the tail of this rank's last frame."""
        self._send_control(encode_frame(BYE, self.rank))
        self._flush(deadline=time.monotonic() + 5.0)

    # -- plumbing -----------------------------------------------------------------

    def _send_control(self, frame: bytes) -> None:
        if not self._closed:
            self._txbuf += frame
            self._flush()

    def _flush(self, deadline: float | None = None) -> None:
        """Push the ring backlogs and the control socket's unsent bytes;
        with a deadline, keep at it until both are empty."""
        buf = self._txbuf
        while True:
            for dst, backlog in enumerate(self._backlog):
                if backlog:
                    with memoryview(backlog) as mv:
                        n = self._tx[dst].write(mv)
                    del backlog[:n]
            try:
                while buf and not self._closed:
                    del buf[:self._sock.send(buf)]
            except BlockingIOError:
                pass
            except OSError:
                self._router_lost()
            if self._closed:
                buf.clear()
            if deadline is None or time.monotonic() >= deadline or not (buf or any(self._backlog)):
                return
            time.sleep(0.0005)  # the peer drains its ring by polling

    def _pump(self) -> None:
        """Drain the control socket and dispatch every complete frame."""
        while not self._closed:
            try:
                n = self._sock.recv_into(self._rxbuf)
                frames = list(self._reader.feed(self._rxbuf[:n]))
            except BlockingIOError:
                return
            except (OSError, ValueError):
                n = 0
            if not n:  # EOF, a socket error or a corrupt stream
                self._router_lost()
                return
            for ftype, arg, _body in frames:
                if ftype == GO:
                    self.ready = True
                    self.world_size = arg
                elif ftype == DEAD:
                    self._peer_dead(arg)
                # launcher-bound frame types never arrive here

    def _peer_dead(self, rank: int) -> None:
        if rank in self.dead_ranks or rank == self.rank:
            return
        self.dead_ranks.add(rank)
        self._backlog[rank].clear()
        cb = self.on_peer_dead
        if cb is not None:
            cb(rank)

    def _router_lost(self) -> None:
        """The router (launcher process) is gone: every peer is unreachable.

        Declaring all peers dead converts the orphaned state into ordinary
        MPI_ERR_PROC_FAILED completions instead of an indefinite spin.
        """
        if self._closed:
            return
        self._closed = True
        for peer in range(self.world_size):
            if peer != self.rank:
                self._peer_dead(peer)


class ProcFabric(ChannelFabric):
    """Endpoints over shared-memory rings, booted through a packet router.

    With no ``address`` the fabric starts and owns a private
    :class:`~repro.cluster.router.PacketRouter` and its own ring mapping, so
    ``FABRICS["proc"]`` composes like any other fabric (the conformance
    suite, inproc worlds on a real wire).  With an ``address`` and the
    ``mapping`` the launcher created before forking it dials an external
    router — the per-worker fabric the proc substrate builds, hosting
    exactly one rank per process.
    """

    channel_cls = ProcChannel
    supports_dynamic_ranks = False

    def __init__(
        self,
        world_size: int,
        address: tuple[str, int] | None = None,
        mapping=None,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(world_size)
        self.connect_timeout = connect_timeout
        self._router = None
        if address is None:
            from repro.cluster.router import PacketRouter

            self._router = PacketRouter(world_size)
            self._router.start()
            address, mapping = self._router.address, ring_mapping(world_size)
        self.address = address
        self.mapping = mapping

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> ProcChannel:
        sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        return ProcChannel(rank, clock, costs, sock, self.mapping, self.world_size)

    def shutdown(self) -> None:
        try:
            super().shutdown()
        finally:
            if self._router is not None:
                self._router.stop()
