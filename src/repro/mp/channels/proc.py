"""Proc channel: framed packets over a real OS socket, via the router.

The first channel whose wire genuinely leaves the Python process: each
endpoint holds one nonblocking loopback TCP socket to the substrate's
:class:`~repro.cluster.router.PacketRouter`, which forwards frames by
destination rank.  The five functions map exactly as they do for the
simulated ``sock`` channel — ``send_packet`` frames and writes (the wire
crossing, where any :class:`~repro.mp.buffers.WireView` lease ends),
``recv_packets`` drains whatever frames have arrived, partial frames are
kept across polls — but the bytes cross a real kernel socket buffer and
can land in a different address space.

Failure surfaces here too: a ``DEAD`` control frame (the router's
verdict that a peer's OS process died) and a router-side EOF both feed
``on_peer_dead``, which the world wires to the device's
``_peer_failed`` so waiters raise
:class:`~repro.mp.errors.MpiErrProcFailed` instead of spinning forever.

Constructed two ways:

* :class:`ProcFabric` with no address — starts and owns a private router,
  so ``FABRICS["proc"]`` composes like any other fabric (the conformance
  suite, or an inproc world whose threads talk over real sockets);
* :class:`ProcFabric` with the launcher's router address — each worker
  process builds a one-endpoint fabric that dials in (the proc
  substrate's per-rank wiring).
"""

from __future__ import annotations

import pickle
import select
import socket
import time
from collections import deque

from repro.mp.channels.wire import (
    BYE,
    DEAD,
    GO,
    RESULT,
    ERROR,
    HELLO,
    PKT,
    FrameReader,
    decode_packet_body,
    encode_frame,
    encode_packet_frame,
)
from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel

_RECV_CHUNK = 1 << 18


class ProcChannel(Channel):
    name = "proc"

    def __init__(self, rank: int, clock: Clock, costs: CostModel, sock: socket.socket) -> None:
        super().__init__(rank, clock, costs)
        self._sock = sock
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX socketpair etc.
        self._reader = FrameReader()
        #: reused for the channel's life: with a fresh 256 KiB ``recv`` buffer
        #: per poll, latency hinges on malloc returning its pages in between
        self._rxbuf = memoryview(bytearray(_RECV_CHUNK))
        self._inbox: deque[Packet] = deque()
        self._txbuf = bytearray()
        self._closed = False
        #: GO received: every rank of the world said HELLO to the router
        self.ready = False
        #: ranks the router declared dead (their OS process exited)
        self.dead_ranks: set[int] = set()
        #: wired by the world to ``device._peer_failed`` — the seam where a
        #: transport-level death becomes MPI_ERR_PROC_FAILED
        self.on_peer_dead = None

    # -- the five functions ------------------------------------------------------

    def init(self, world_size: int) -> None:
        self.world_size = world_size
        self._send_frame(encode_frame(HELLO, self.rank))

    def send_packet(self, pkt: Packet) -> bool:
        # same cost shape as the simulated sock channel: full socket
        # latency and bandwidth terms on the virtual clock
        self._stamp_and_charge(pkt)
        frame = encode_packet_frame(pkt)
        pkt.release_payload()  # the frame write is the wire crossing
        self._send_frame(frame)
        return True

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        self._flush()
        self._pump()
        out: list[Packet] = []
        inbox = self._inbox
        while inbox and (limit is None or len(out) < limit):
            out.append(inbox.popleft())
        self.packets_received += len(out)
        return out

    def has_incoming(self) -> bool:
        if self._inbox:
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

        Frames that race ahead of GO (a peer released earlier) are queued
        normally; only the GO itself releases this rank.
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
        self._send_frame(encode_frame(RESULT, self.rank, pickle.dumps(value)))

    def send_error(self, payload: bytes) -> None:
        """Ship a pickled failure report to the launcher."""
        self._send_frame(encode_frame(ERROR, self.rank, payload))

    def send_bye(self) -> None:
        """Announce a clean exit, then force the backlog out."""
        self._send_frame(encode_frame(BYE, self.rank))
        self._flush(deadline=time.monotonic() + 5.0)

    # -- socket plumbing ----------------------------------------------------------

    def _send_frame(self, frame: bytes) -> None:
        if self._closed:
            return
        self._txbuf += frame
        self._flush()

    def _flush(self, deadline: float | None = None) -> None:
        """Push the tx backlog; with a deadline, block until drained."""
        buf = self._txbuf
        while buf and not self._closed:
            try:
                n = self._sock.send(buf)
            except BlockingIOError:
                if deadline is None:
                    return
                if time.monotonic() >= deadline:
                    return
                select.select([], [self._sock], [], 0.05)
                continue
            except OSError:
                self._router_lost()
                return
            if n <= 0:
                return
            del buf[:n]

    def _pump(self) -> None:
        """Drain the socket and dispatch every complete frame."""
        while not self._closed:
            try:
                n = self._sock.recv_into(self._rxbuf)
            except BlockingIOError:
                return
            except OSError:
                self._router_lost()
                return
            if not n:
                self._router_lost()
                return
            for ftype, arg, body in self._reader.feed(self._rxbuf[:n]):
                if ftype == PKT:
                    self._inbox.append(decode_packet_body(body))
                elif ftype == GO:
                    self.ready = True
                    self.world_size = arg
                elif ftype == DEAD:
                    self._peer_dead(arg)
                # launcher-bound frame types never arrive here

    def _peer_dead(self, rank: int) -> None:
        if rank in self.dead_ranks or rank == self.rank:
            return
        self.dead_ranks.add(rank)
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
    """Endpoints over real sockets, wired through a packet router.

    With no ``address`` the fabric starts and owns a private
    :class:`~repro.cluster.router.PacketRouter` (in-process use: the
    conformance suite, inproc worlds on a real wire).  With an
    ``address`` it dials an external router — the per-worker fabric the
    proc substrate builds, hosting exactly one rank per process.
    """

    channel_cls = ProcChannel
    supports_dynamic_ranks = False

    def __init__(
        self,
        world_size: int,
        address: tuple[str, int] | None = None,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(world_size)
        self.connect_timeout = connect_timeout
        self._router = None
        if address is None:
            from repro.cluster.router import PacketRouter

            self._router = PacketRouter(world_size)
            self._router.start()
            address = self._router.address
        self.address = address

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> ProcChannel:
        sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        return ProcChannel(rank, clock, costs, sock)

    def shutdown(self) -> None:
        try:
            super().shutdown()
        finally:
            if self._router is not None:
                self._router.stop()
