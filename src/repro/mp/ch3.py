"""The CH3 device: queuing, matching, packetizing and data transfer.

This is the ADI-3 "device" layer of MPICH2 (paper §6): it owns the posted
and unexpected queues, decides eager vs. rendezvous per message, packetizes
large payloads, and moves bytes **directly** between the latched buffer
descriptors and the channel — no staging except for unexpected eager
messages, which are held in native memory until their receive is posted
(the extra copy real MPIs also pay).

Protocol:

* ``total <= eager_threshold`` — one EAGER packet carrying the payload;
  the send completes locally on hand-off (buffered semantics), or on FIN
  for synchronous sends.
* larger — RTS to the receiver; the receiver matches, latches its
  destination buffer and replies CTS; the sender then streams DATA chunks
  of ``packet_size`` bytes, a bounded number per progress poll, and
  completes when the last chunk is handed off.  The receive completes when
  every byte has landed.
* larger, on a channel whose ``rndv_caps()`` has ``"grant"`` (``shm``,
  ``ib``; never under a ``FaultyChannel``) — *rendezvous by grant* (Liu et
  al., MPICH2 over InfiniBand): the receiver registers its latched buffer
  as a transient grant and the CTS names it (``tag`` = grant id, ``total``
  = ``min(message, buffer)`` writable bytes); the sender lands exactly
  that many bytes with one ``channel.rma_put`` — no DATA packet, no copy,
  a truncated tail never leaves the sender — completes, and sends a FIN
  *toward the receiver* (``tag`` = grant id), on which the receiver closes
  the grant and completes with the status the DATA path would produce.

All protocol state lives in the unified :class:`~repro.mp.request.Request`
state machine — a rendezvous send is simply a QUEUED request whose
``cleared``/``cursor`` slots advance it once CTS arrives; there is no
side-table of per-protocol structs.  Observers (repro.obs, the sanitizer)
see the device exclusively through the hook spine (:mod:`repro.mp.hooks`).

The bounded per-poll pump on both sides means a large transfer spans many
progress polls; a garbage collection at any intervening safepoint will
move an unpinned buffer and the remaining chunks will hit a stale address
— the corruption scenario of paper §2.3, reproduced for real.  A grant has
the same window in one piece: a collection between the match and the put
leaves the registered descriptor stale, and the put lands there.
"""

from __future__ import annotations

from repro.mp.buffers import NativeMemory
from repro.mp.channels.base import Channel
from repro.mp.errors import MpiErrInternal
from repro.mp.hooks import NULL_SPINE
from repro.mp.matching import MessageQueues, UnexpectedMsg
from repro.mp.packets import (
    ACC,
    ACK,
    CTS,
    DATA,
    EAGER,
    FAILN,
    FIN,
    GET,
    GETRESP,
    PING,
    PUT,
    RTS,
    WCOMPLETE,
    WLOCK,
    WLOCKGRANT,
    WPOST,
    WSYNC,
    WUNLOCK,
    WUNLOCKACK,
    Packet,
)
from repro.mp.reliability import PROC_FAILED, ReliabilityLayer
from repro.mp.request import Request
from repro.mp.status import Status
from repro.simtime import Clock, CostModel

#: packets one poll takes from the channel
MAX_PACKETS_PER_POLL = 8
#: rendezvous DATA chunks one poll streams, across every cleared send
MAX_STREAM_PER_POLL = 4


class CH3Device:
    """One rank's device instance."""

    #: the rank's hook spine; wire_engine shares one across the stack
    hooks = NULL_SPINE

    def __init__(
        self,
        rank: int,
        channel: Channel,
        clock: Clock,
        costs: CostModel,
        eager_threshold: int | None = None,
        packet_size: int | None = None,
        reliable: bool = False,
        reliability_opts: dict | None = None,
    ) -> None:
        self.rank = rank
        self.channel = channel
        self.clock = clock
        self.costs = costs
        self.eager_threshold = (
            costs.eager_threshold if eager_threshold is None else eager_threshold
        )
        self.packet_size = costs.packet_size if packet_size is None else packet_size

        self.queues = MessageQueues()
        #: rendezvous sends in progress, by op_id (state lives on the request)
        self._rndv_sends: dict[int, Request] = {}
        # (src_rank, send_op_id) -> streaming receive request
        self._rndv_recvs: dict[tuple[int, int], Request] = {}
        # sync (Ssend) requests awaiting FIN, by op_id
        self._awaiting_fin: dict[int, Request] = {}
        #: rendezvous by grant, negotiated once: no packet path asks again
        self._grant = "grant" in channel.rndv_caps()
        self.stats = {
            "eager": 0,
            "rndv": 0,
            "unexpected": 0,
            "truncated": 0,
            # copy accounting (the zero-copy discipline, measured):
            # payload bytes accepted off the wire ...
            "bytes_moved": 0,
            # ... vs. payload bytes the receive path copied.  Matched
            # eager and rendezvous DATA land straight in the posted buffer
            # (ratio 1.0); unexpected eager stages then delivers (2.0); a
            # granted rendezvous is written by the sender's put (0.0).
            "bytes_copied": 0,
            # one-sided ops by lowering: native channel fast path vs
            # packet-plane emulation (the A17 ablation's evidence)
            "rma_native_ops": 0,
            "rma_emulated_ops": 0,
        }
        #: registered RMA windows by id (repro.mp.win.Win); RMA packets
        #: dispatch into the window's target-side handlers
        self.windows: dict[int, "Win"] = {}
        self.rel: ReliabilityLayer | None = None
        if reliable:
            self.rel = ReliabilityLayer(rank, **(reliability_opts or {}))
            self.rel.on_peer_failed = self._peer_failed
        #: hand a packet to the wire, sequenced first if there is a ``rel``
        self._emit = self._emit_raw if self.rel is None else self._emit_sequenced
        self.failed_ranks: set[int] = set()
        #: who to gossip failure verdicts to (the engine points this at the
        #: current world group); None disables propagation
        self.gossip_ranks: "Callable[[], Iterable[int]] | None" = None

    # ------------------------------------------------------------------ send

    def start_send(self, req: Request, dst: int) -> None:
        total = req.buf.nbytes
        self.clock.charge(self.costs.posting_ns)
        req.wdst = dst
        if dst in self.failed_ranks:
            self._fail_request(req)
            return
        rndv = total > self.eager_threshold
        cbs = self.hooks.send_posted
        if cbs:
            for cb in cbs:
                cb(req, dst, rndv)
        if not rndv:
            self.stats["eager"] += 1
            pkt = Packet(
                ptype=EAGER,
                src=self.rank,
                dst=dst,
                tag=req.tag,
                comm_id=req.comm_id,
                op_id=req.op_id,
                total=total,
                sync=req.sync,
                # zero-copy: the packet windows the latched source buffer;
                # the channel consumes (frames or segment-copies) the view
                # synchronously inside _emit, so buffered-send completion
                # below remains sound.
                payload=req.buf.view(),
            )
            req.activate()
            req.bytes_moved = total
            self._emit(pkt)
            if req.sync:
                self._awaiting_fin[req.op_id] = req
            else:
                req.complete()
        else:
            self.stats["rndv"] += 1
            req.mark_queued()
            self._rndv_sends[req.op_id] = req
            self._emit(
                Packet(
                    ptype=RTS,
                    src=self.rank,
                    dst=dst,
                    tag=req.tag,
                    comm_id=req.comm_id,
                    op_id=req.op_id,
                    total=total,
                    sync=req.sync,
                )
            )

    def _emit_sequenced(self, pkt: Packet) -> None:
        self._emit_raw(self.rel.outbound(pkt))

    def _emit_raw(self, pkt: Packet) -> None:
        """Hand a wire-ready packet to the channel (ACKs skip sequencing),
        which never refuses one."""
        self.channel.send_packet(pkt)
        cbs = self.hooks.packet_tx
        if cbs:
            for cb in cbs:
                cb(pkt)

    def _copied(self, where: str, n: int) -> None:
        """Account one receive-path payload copy of ``n`` bytes."""
        self.stats["bytes_copied"] += n
        cbs = self.hooks.copy
        if cbs:
            for cb in cbs:
                cb(where, n)

    # ------------------------------------------------------------------ recv

    def post_recv(self, req: Request) -> None:
        self.clock.charge(self.costs.posting_ns)
        cbs = self.hooks.recv_posted
        if cbs:
            for cb in cbs:
                cb(req)
        if req.peer >= 0 and req.peer in self.failed_ranks:
            # mirror start_send: a receive from an already-declared-dead
            # peer can never match (its unacked traffic was purged), so
            # fail it now instead of letting the waiter spin forever —
            # unless the dead peer's message already landed unexpectedly.
            if self.queues.peek_unexpected(req.peer, req.tag, req.comm_id) is None:
                self._fail_request(req)
                return
        msg = self.queues.match_unexpected(req.peer, req.tag, req.comm_id)
        if msg is None:
            req.mark_queued()
            self.queues.post_recv(req)
            return
        self.clock.merge(msg.ts)
        if msg.eager:
            self._deliver_staged(req, msg)
        else:
            # Rendezvous RTS arrived before the receive was posted: latch
            # the destination now and clear the sender to stream.
            self._accept_rndv(req, msg.src, msg.tag, msg.send_op_id, msg.total)

    def _deliver_staged(self, req: Request, msg: UnexpectedMsg) -> None:
        for cb in self.hooks.match:
            cb(req, msg.src, msg.send_op_id)
        n = min(msg.total, req.buf.nbytes)
        self.clock.charge(self.costs.copy_per_byte_ns * n)
        self._copied("staged-deliver", n)
        req.buf.write(0, msg.staged.view(0, n))
        status = Status(source=msg.src, tag=msg.tag, count=n)
        if msg.total > req.buf.nbytes:
            self.stats["truncated"] += 1
            status.error = "MPI_ERR_TRUNCATE"
        req.activate()
        req.bytes_moved = n
        req.complete(status)
        for cb in self.hooks.recv_complete:
            cb(status)

    def _accept_rndv(self, req: Request, src: int, tag: int, send_op_id: int, total: int) -> None:
        for cb in self.hooks.match:
            cb(req, src, send_op_id)
        if total > req.buf.nbytes:
            # Report truncation immediately; receive what fits.
            self.stats["truncated"] += 1
            req.status.error = "MPI_ERR_TRUNCATE"
        req.total = total
        req.activate()
        self._rndv_recvs[(src, send_op_id)] = req
        # remember real source/tag for the final status
        req.status.source = src
        req.status.tag = tag
        cts = Packet(ptype=CTS, src=self.rank, dst=src, op_id=send_op_id)
        if self._grant:
            # expose the latched destination for this one transfer; the
            # grant is open exactly as long as the ``_rndv_recvs`` entry
            cts.tag = -req.op_id
            cts.total = min(total, req.buf.nbytes)
            self.channel.rma_register(cts.tag, self.rank, req.buf, transient=True)
        self._emit(cts)

    # ------------------------------------------------------------------ probe

    def iprobe(self, src_sel: int, tag_sel: int, comm_id: int) -> Status | None:
        msg = self.queues.peek_unexpected(src_sel, tag_sel, comm_id)
        if msg is None:
            return None
        return Status(source=msg.src, tag=msg.tag, count=msg.total)

    def cancel_recv(self, req: Request) -> bool:
        ok = self.queues.cancel_posted(req)
        if ok:
            req.cancel()
        return ok

    # ------------------------------------------------------------------ poll

    def poll(self) -> int:
        """One progress step; returns the number of packets handled."""
        handled = 0
        arrivals = self.channel.recv_packets(MAX_PACKETS_PER_POLL)
        if self.rel is not None:
            arrivals = self.rel.inbound(arrivals, self._emit_raw)
        for pkt in arrivals:
            self._handle(pkt)
            handled += 1
        if self.rel is not None:
            self.rel.tick(self._emit_raw, self._interest())
        if self._rndv_sends:
            self._pump_streams()
        return handled

    def _interest(self) -> set[int]:
        """Peers whose silence would wedge us — heartbeat candidates."""
        peers = {req.wdst for req in self._rndv_sends.values()}
        peers.update(src for src, _ in self._rndv_recvs)
        peers.update(req.peer for req in self._awaiting_fin.values())
        peers.update(req.peer for req in self.queues.iter_posted() if req.peer >= 0)
        peers.discard(self.rank)
        return peers

    def _handle(self, pkt: Packet) -> None:
        if PUT <= pkt.ptype <= WUNLOCKACK:
            self._handle_rma(pkt)
            return
        if pkt.ptype > RTS:
            # an EAGER or RTS merges where it is *matched* — below if a
            # receive is posted, in ``post_recv`` if not: draining one
            # nobody waits for yet must not drag this rank to the time of
            # a sender that ran ahead (cf. ``_handle_rma``)
            self.clock.merge(pkt.ts)
        cbs = self.hooks.packet_rx
        if cbs:
            for cb in cbs:
                cb(pkt)
        if pkt.ptype == EAGER:
            self._on_eager(pkt)
        elif pkt.ptype == RTS:
            self._on_rts(pkt)
        elif pkt.ptype == CTS:
            self._on_cts(pkt)
        elif pkt.ptype == DATA:
            self._on_data(pkt)
        elif pkt.ptype == FIN:
            self._on_fin(pkt)
        elif pkt.ptype == FAILN:
            # gossiped failure verdict: adopt it (and re-gossip) as if our
            # own detector had fired, so indirect waiters unwedge too
            if pkt.op_id != self.rank:
                self._peer_failed(pkt.op_id)
        elif pkt.ptype in (ACK, PING):
            pass  # reliability control traffic; inert when the layer is off
        else:
            raise MpiErrInternal(f"unknown packet type {pkt.ptype}")

    def _handle_rma(self, pkt: Packet) -> None:
        """Dispatch a one-sided packet without jumping the clock.

        The receiver does not logically observe one-sided traffic until
        its own synchronization call — draining a peer's epoch-close
        packet early (a wall-time race against a rank still in its
        opening barrier) must not serialize two concurrent epochs.  The
        arrival merge runs deferred so replies emitted by the handler
        (GETRESP, lock grants, unlock acks) still carry the causal floor
        via ``causal_now``; afterwards the floor is parked on the window
        — its closing sync applies it — and the clock's pending state is
        restored so an unrelated wait in progress does not fold it.
        """
        clk = self.clock
        before = clk.pending_ns
        prev = clk.defer_merges
        clk.defer_merges = True
        try:
            clk.merge(pkt.ts)
            cbs = self.hooks.packet_rx
            if cbs:
                for cb in cbs:
                    cb(pkt)
            self._on_rma(pkt)
        finally:
            clk.defer_merges = prev
        after = clk.pending_ns
        if after > before:
            win = self.windows.get(pkt.tag)
            if win is not None:
                win.note_floor(after)
            clk.drop_pending_to(before)

    #: RMA packet type -> the Win method that lands it (filled below the
    #: class: the handlers live with the window's epoch state)
    _RMA_DISPATCH: dict[int, str] = {
        PUT: "_on_put",
        GET: "_on_get",
        GETRESP: "_on_getresp",
        ACC: "_on_acc",
        WSYNC: "_on_wsync",
        WPOST: "_on_wpost",
        WCOMPLETE: "_on_wcomplete",
        WLOCK: "_on_wlock",
        WLOCKGRANT: "_on_wlockgrant",
        WUNLOCK: "_on_wunlock",
        WUNLOCKACK: "_on_wunlockack",
    }

    def _on_rma(self, pkt: Packet) -> None:
        """Route a one-sided packet into its window's target-side handler.

        This runs on the poll path, so the progress engine — polled or
        async — drives target-side completion; the application holding
        the window never has to call in (passive-target progression).
        """
        win = self.windows.get(pkt.tag)
        if win is None:
            raise MpiErrInternal(
                f"RMA packet {pkt.kind} for unknown window {pkt.tag} "
                "(windows are created collectively; this origin raced "
                "creation or freed early)"
            )
        getattr(win, self._RMA_DISPATCH[pkt.ptype])(pkt)

    def add_window(self, win) -> None:
        self.windows[win.id] = win

    def remove_window(self, win_id: int) -> None:
        self.windows.pop(win_id, None)

    def _on_eager(self, pkt: Packet) -> None:
        self.stats["bytes_moved"] += len(pkt.payload)
        req = self.queues.match_posted(pkt.src, pkt.tag, pkt.comm_id)
        if req is None:
            self.stats["unexpected"] += 1
            # Stage in native memory: the unavoidable extra copy for
            # unexpected messages.
            self.clock.charge(self.costs.copy_per_byte_ns * len(pkt.payload))
            self._copied("unexpected-stage", len(pkt.payload))
            self.queues.add_unexpected(
                UnexpectedMsg(
                    src=pkt.src,
                    tag=pkt.tag,
                    comm_id=pkt.comm_id,
                    total=pkt.total,
                    staged=NativeMemory(pkt.payload_mv()),
                    send_op_id=pkt.op_id,
                    eager=True,
                    ts=pkt.ts,
                )
            )
            if pkt.sync:
                # FIN is deferred until delivery for strict Ssend semantics;
                # simplification: send it now that the data is buffered at
                # the receiver (MPICH2's eager ssync behaves likewise once
                # the message is matched; we note the divergence).
                self._emit(Packet(ptype=FIN, src=self.rank, dst=pkt.src, op_id=pkt.op_id))
            return
        self.clock.merge(pkt.ts)
        for cb in self.hooks.match:
            cb(req, pkt.src, pkt.op_id)
        n = min(pkt.total, req.buf.nbytes)
        # The matched delivery is the path's one copy (wire payload into
        # the posted buffer) — charged like every other payload copy, and
        # accounted in place, as ``_copied`` would.
        self.clock.charge(self.costs.copy_per_byte_ns * n)
        self.stats["bytes_copied"] += n
        for cb in self.hooks.copy:
            cb("eager-deliver", n)
        req.buf.write(0, pkt.payload_mv()[:n])
        # the posted receive's own status, filled in place
        status = req.status
        status.source, status.tag, status.count = pkt.src, pkt.tag, n
        if pkt.total > req.buf.nbytes:
            self.stats["truncated"] += 1
            status.error = "MPI_ERR_TRUNCATE"
        req.activate()
        req.bytes_moved = n
        req.complete()
        for cb in self.hooks.recv_complete:
            cb(status)
        if pkt.sync:
            self._emit(Packet(ptype=FIN, src=self.rank, dst=pkt.src, op_id=pkt.op_id))

    def _on_rts(self, pkt: Packet) -> None:
        req = self.queues.match_posted(pkt.src, pkt.tag, pkt.comm_id)
        if req is None:
            self.stats["unexpected"] += 1
            self.queues.add_unexpected(
                UnexpectedMsg(
                    src=pkt.src,
                    tag=pkt.tag,
                    comm_id=pkt.comm_id,
                    total=pkt.total,
                    staged=None,
                    send_op_id=pkt.op_id,
                    eager=False,
                    ts=pkt.ts,
                )
            )
            return
        self.clock.merge(pkt.ts)
        self._accept_rndv(req, pkt.src, pkt.tag, pkt.op_id, pkt.total)

    def _on_cts(self, pkt: Packet) -> None:
        req = self._rndv_sends.get(pkt.op_id)
        if req is None:
            if self.rel is not None:
                return  # stale packet after a failure cleanup
            raise MpiErrInternal(f"CTS for unknown send op {pkt.op_id}")
        req.activate()
        if not pkt.tag:
            req.cleared = True  # _pump_streams streams DATA from here
            return
        # Granted: one direct write of what the receiver can take, straight
        # from the latched source, then the notice that closes the grant.
        del self._rndv_sends[pkt.op_id]
        if not self.channel.rma_put(pkt.tag, req.wdst, 0, req.buf.read(0, pkt.total)):
            self._fail_request(req)  # withdrawn: the receiver gave us up for dead
            return
        req.bytes_moved = pkt.total
        self._emit(
            Packet(ptype=FIN, src=self.rank, dst=req.wdst, tag=pkt.tag,
                   op_id=pkt.op_id, total=pkt.total)
        )
        req.complete()

    def _rndv_recv_for(self, pkt: Packet) -> Request | None:
        req = self._rndv_recvs.get((pkt.src, pkt.op_id))
        if req is None and self.rel is None:
            raise MpiErrInternal(f"{pkt.kind} for unknown recv {(pkt.src, pkt.op_id)}")
        return req  # None: stale packet after a failure cleanup

    def _rndv_landed(self, pkt: Packet, req: Request) -> None:
        del self._rndv_recvs[(pkt.src, pkt.op_id)]
        status = Status(
            source=req.status.source,
            tag=req.status.tag,
            count=min(req.total, req.buf.nbytes),
            error=req.status.error,
        )
        req.complete(status)
        for cb in self.hooks.recv_complete:
            cb(status)

    def _on_data(self, pkt: Packet) -> None:
        req = self._rndv_recv_for(pkt)
        if req is None:
            return
        # Single-copy landing: write straight into the latched destination
        # (no virtual-clock charge — this models the NIC's RDMA placement,
        # but the byte accounting still records it as the path's one copy).
        self.stats["bytes_moved"] += len(pkt.payload)
        writable = max(0, min(len(pkt.payload), req.buf.nbytes - pkt.offset))
        if writable:
            self._copied("rndv-land", writable)
            req.buf.write(pkt.offset, pkt.payload_mv()[:writable])
        req.bytes_moved += len(pkt.payload)
        if req.bytes_moved >= req.total:
            self._rndv_landed(pkt, req)

    def _on_fin(self, pkt: Packet) -> None:
        if pkt.tag:
            # sender -> receiver: the granted put of ``total`` bytes landed
            req = self._rndv_recv_for(pkt)
            if req is not None:
                self.channel.rma_deregister(pkt.tag, self.rank)
                self.stats["bytes_moved"] += pkt.total
                req.bytes_moved = pkt.total
                self._rndv_landed(pkt, req)
            return
        # receiver -> sender: a synchronous send was matched
        req = self._awaiting_fin.pop(pkt.op_id, None)
        if req is not None:
            req.complete()

    def _pump_streams(self) -> None:
        """Advance cleared rendezvous sends, a bounded number of chunks."""
        budget = MAX_STREAM_PER_POLL
        for op_id, req in list(self._rndv_sends.items()):
            if not req.cleared:
                continue
            total = req.total
            while budget > 0 and req.cursor < total:
                n = min(self.packet_size, total - req.cursor)
                # Stream straight from the latched source buffer — a window,
                # not a copy.  If the object moved, the window reads stale
                # memory (the real hazard).
                chunk = req.buf.read(req.cursor, n)
                self._emit(
                    Packet(
                        ptype=DATA,
                        src=self.rank,
                        dst=req.wdst,
                        op_id=op_id,
                        offset=req.cursor,
                        total=total,
                        payload=chunk,
                    )
                )
                req.cursor += n
                req.bytes_moved = req.cursor
                budget -= 1
            if req.cursor >= total:
                del self._rndv_sends[op_id]
                req.complete()

    # ------------------------------------------------------------------ failure

    def _fail_request(self, req: Request) -> None:
        req.status.error = PROC_FAILED
        req.fail(req.status)

    def _peer_failed(self, peer: int) -> None:
        """Retries to ``peer`` are exhausted: it is dead.  Complete every
        operation that depends on it with ``MPI_ERR_PROC_FAILED`` so no
        waiter spins forever (the "progress for all" guarantee)."""
        if peer in self.failed_ranks:
            return
        self.failed_ranks.add(peer)
        if self.rel is not None:
            # silence the link whichever side learned first (gossip may
            # outrun this rank's own retransmit budget)
            self.rel.mark_failed(peer)
        if self.gossip_ranks is not None and self.rel is not None:
            for r in self.gossip_ranks():
                if r != self.rank and r != peer and r not in self.failed_ranks:
                    self._emit(Packet(ptype=FAILN, src=self.rank, dst=r, op_id=peer))
        for op_id, req in list(self._rndv_sends.items()):
            if req.wdst == peer:
                del self._rndv_sends[op_id]
                self._fail_request(req)
        for op_id, req in list(self._awaiting_fin.items()):
            if req.peer == peer:
                del self._awaiting_fin[op_id]
                self._fail_request(req)
        for (src, op_id), req in list(self._rndv_recvs.items()):
            if src == peer:
                del self._rndv_recvs[(src, op_id)]
                if self._grant:
                    self.channel.rma_deregister(-req.op_id, self.rank)
                self._fail_request(req)
        for req in [r for r in self.queues.posted if r.peer == peer]:
            self.queues.cancel_posted(req)
            self._fail_request(req)

    # ------------------------------------------------------------------ misc

    @property
    def quiescent(self) -> bool:
        """Nothing queued or in flight in the device itself (a reliability
        sublayer's unacked windows are the world's drain check, not this).
        An open grant is a ``_rndv_recvs`` entry, so it counts here too."""
        return (
            not self._rndv_sends
            and not self._rndv_recvs
            and not self._awaiting_fin
            and not self.queues.posted_count
            and not self.queues.unexpected_count
        )
