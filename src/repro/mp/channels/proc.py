"""Proc channel: sock's rings in a mapping the workers share, plus the router socket.

The first channel whose wire genuinely leaves the Python process, in two
planes.  **Data** is the sock channel's, unchanged
(:class:`~repro.mp.channels.sock.SockChannel`): ``n x n`` byte rings of
sock's one size (``RING_CAPACITY``), per-destination backlogs and per-peer
ring decoders, a payload copied into a ring once and out once — only the
mapping is one the launcher created before forking, so ranks talk to each
other, not through the launcher.  **Control**: one nonblocking loopback
TCP socket to the substrate's :class:`~repro.cluster.router.PacketRouter`, for
``HELLO``/``GO`` (the boot barrier), ``RESULT``/``ERROR``/``BYE`` and
``DEAD`` verdicts.  Nothing blocks on a ring: a waiting rank polls.  A
peer drains its ring only by polling, so teardown pushes the backlogs
against a deadline.

Failure surfaces here: a ``DEAD`` frame (the router's verdict that a peer's
OS process died), a router-side EOF, and sock's malformed frame on a peer's
ring all feed ``on_peer_dead``, which the world wires to the device's
``_peer_failed`` so waiters raise
:class:`~repro.mp.errors.MpiErrProcFailed` instead of spinning forever.
"""

from __future__ import annotations

import pickle
import select
import socket
import time

from repro.mp.channels.base import ChannelFabric
from repro.mp.channels.sock import SockChannel, ring_mapping
from repro.mp.channels.wire import BYE, DEAD, ERROR, GO, HELLO, RESULT, FrameReader, encode_frame
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel

_RECV_CHUNK = 1 << 16


class ProcChannel(SockChannel):
    name = "proc"

    def __init__(
        self, rank: int, clock: Clock, costs: CostModel, sock: socket.socket, mapping, size: int
    ) -> None:
        super().__init__(rank, clock, costs, mapping, size)
        self._sock = sock
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX socketpair etc.
        #: the control socket's decoder, receive buffer (reused for the
        #: channel's life) and unsent bytes
        self._reader = FrameReader()
        self._rxbuf = memoryview(bytearray(_RECV_CHUNK))
        self._txbuf = bytearray()
        self._closed = False
        #: GO received: every rank of the world said HELLO to the router
        self.ready = False

    # -- the five functions ------------------------------------------------------

    def init(self, world_size: int) -> None:
        self.world_size = world_size
        self._send_control(encode_frame(HELLO, self.rank))

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        self._pump()
        return super().recv_packets(limit)

    def has_incoming(self) -> bool:
        if super().has_incoming():
            return True
        if self._closed:
            return False
        r, _w, _x = select.select([self._sock], [], [], 0)
        return bool(r)

    def finalize(self) -> None:
        if self._finalized:
            return
        super().finalize()
        self.flush_all(deadline=time.monotonic() + 2.0)
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
        self.flush_all(deadline=time.monotonic() + 5.0)

    # -- plumbing -----------------------------------------------------------------

    def _send_control(self, frame: bytes) -> None:
        if not self._closed:
            self._txbuf += frame
            self.flush_all()

    def flush_all(self, deadline: float | None = None) -> None:
        """Push the ring backlogs and the control socket's unsent bytes;
        with a deadline, keep at it until both are empty."""
        buf = self._txbuf
        while True:
            super().flush_all()
            try:
                while buf and not self._closed:
                    del buf[:self._sock.send(buf)]
            except BlockingIOError:
                pass
            except OSError:
                self._router_lost()
            if self._closed:
                buf.clear()
            if deadline is None or time.monotonic() >= deadline or not (buf or self.tx_backlog):
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
