"""Sock channel: framed packets over simulated sockets.

The configuration Motor shipped with: "the MPICH2 Windows sock channel
within the CH3 device" (paper §7, Figure 7).  Each rank pair is connected
by a pair of bounded byte pipes, the 'socket'; packets are framed with a
fixed header.

Framing means a large message genuinely streams: a DATA chunk may be
half-arrived when the progress engine polls, and the remainder lands on a
later poll — the multi-poll window in which an unpinned buffer can move.

Motor's sock channel learnt which sockets had data from an I/O completion
port (IOCP), a Windows mechanism the PAL does not expose — which is why
this one channel stayed *below* the PAL (§7.1; :class:`repro.pal.api.PAL`
refuses ``CreateIoCompletionPort``).  A port spares scanning every socket;
this model is polled and must look at every pipe anyway (a frame may be
half-decoded, or buffered beyond an earlier poll's limit), so readiness
is read off the pipes and no port is simulated.
"""

from __future__ import annotations

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.packets import HEADER_SIZE, Packet
from repro.pal.pipes import BytePipe, PipeClosed
from repro.simtime import Clock, CostModel


class SockChannel(Channel):
    name = "sock"

    def __init__(
        self,
        rank: int,
        clock: Clock,
        costs: CostModel,
        tx_pipes: dict[int, BytePipe],
        rx_pipes: dict[int, BytePipe],
    ) -> None:
        super().__init__(rank, clock, costs)
        self._tx = tx_pipes  # dest rank -> pipe this rank writes
        self._rx = dict(sorted(rx_pipes.items()))  # src rank -> pipe this rank reads, in poll order
        # partially decoded inbound frame per source rank
        self._partial: dict[int, tuple[Packet, int, bytearray]] = {}
        # outbound bytes that did not fit in the pipe (flow control)
        self._txq: dict[int, bytearray] = {}

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    # -- sending -----------------------------------------------------------------

    def send_packet(self, pkt: Packet) -> bool:
        self._stamp_and_charge(pkt)
        # Framing is the wire write: header + payload view stream into the
        # socket buffer in one pass, and the payload lease ends here.
        frame = pkt.encode()
        pkt.release_payload()
        backlog = self._txq.setdefault(pkt.dst, bytearray())
        backlog += frame
        self._flush(pkt.dst)
        return True

    def _flush(self, dst: int) -> None:
        backlog = self._txq.get(dst)
        if not backlog:
            return
        try:
            n = self._tx[dst].write(backlog)
        except PipeClosed:
            backlog.clear()
            return
        if n:
            del backlog[:n]

    def flush_all(self) -> None:
        """Push any flow-controlled backlog (called from progress polls)."""
        for dst in list(self._txq):
            self._flush(dst)

    @property
    def tx_backlog(self) -> int:
        return sum(len(b) for b in self._txq.values())

    # -- receiving ----------------------------------------------------------------

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        self.flush_all()
        out: list[Packet] = []
        # Decode as many complete frames as each socket holds: new bytes,
        # the rest of a partial decode, or frames buffered beyond the
        # per-poll limit of an earlier drain.
        for src in self._rx:
            out.extend(self._decode_from(src, limit))
            if limit is not None and len(out) >= limit:
                break
        self.packets_received += len(out)
        return out

    def _decode_from(self, src: int, limit: int | None) -> list[Packet]:
        pipe = self._rx[src]
        out: list[Packet] = []
        while limit is None or len(out) < limit:
            state = self._partial.get(src)
            if state is None:
                if pipe.peek_available() < HEADER_SIZE:
                    break
                head = pipe.read(HEADER_SIZE)
                if len(head) < HEADER_SIZE:
                    # should not happen: header reads are atomic w.r.t. size
                    raise RuntimeError("torn frame header")
                pkt, plen = Packet.decode_header(head)
                state = (pkt, plen, bytearray())
                self._partial[src] = state
            pkt, plen, got = state
            if len(got) < plen:
                try:
                    chunk = pipe.read(plen - len(got))
                except PipeClosed:
                    del self._partial[src]
                    break
                got += chunk
                if len(got) < plen:
                    break  # wait for the rest on a later poll
            pkt.payload = bytes(got)
            del self._partial[src]
            out.append(pkt)
        return out

    def has_incoming(self) -> bool:
        return bool(self._partial) or any(p.peek_available() for p in self._rx.values())

    def finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        for pipe in self._tx.values():
            pipe.close()


class SockFabric(ChannelFabric):
    channel_cls = SockChannel

    def __init__(self, world_size: int, pipe_capacity: int = 1 << 20) -> None:
        super().__init__(world_size)
        self.pipe_capacity = pipe_capacity
        # pipes[(a, b)] carries bytes from a to b
        self._pipes: dict[tuple[int, int], BytePipe] = {}
        for a in range(world_size):
            for b in range(world_size):
                if a != b:
                    self._pipes[(a, b)] = BytePipe(pipe_capacity, name=f"{a}->{b}")

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> SockChannel:
        tx = {b: self._pipes[(rank, b)] for b in range(self.world_size) if b != rank}
        rx = {a: self._pipes[(a, rank)] for a in range(self.world_size) if a != rank}
        return SockChannel(rank, clock, costs, tx, rx)

    # NOTE: no add_rank — sock endpoints snapshot their pipe maps at
    # creation, so ranks added later would be unreachable from existing
    # endpoints.  Dynamic spawn requires a shared-queue fabric (shm, ib).
