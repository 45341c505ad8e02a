"""The reliability sublayer: seq/CRC, ack/retransmit, dead-peer detection.

Sits between the CH3 device and the channel, below the matching/protocol
logic and above the wire: every protocol packet the device emits gets a
per-link sequence number and a CRC32 seal; the receiving side verifies the
seal, discards duplicates, holds out-of-order packets until the gap fills
(preserving MPI's non-overtaking guarantee even over a reordering wire)
and answers with cumulative ACKs.  Unacknowledged packets are retransmitted
on a per-destination timeout with exponential backoff; a destination that
exhausts its retries is declared failed and every outstanding operation
involving it completes with ``MPI_ERR_PROC_FAILED`` ("MPI Progress For
All"-style robustness: the progress engine never blocks on a dead peer).

Timers count progress-engine polls rather than wall time, so a poll must
be a fair tick of "the peer had a chance to answer".  The polling-wait's
idle policy (``ProgressEngine.idle``) keeps it so: a thread-hosted rank
cedes the interpreter on every idle poll, so its count cannot run ahead
of a peer that is merely descheduled.  Inproc, the baton fixes which
rank polls when, so the counts are the same run to run; only process-hosted
ranks leave them to how the OS interleaves the workers.  Modelled-time
timers are not built yet.

Heartbeats: when the device is *waiting* on a peer (posted receive,
rendezvous in flight) and the link has been silent for ``heartbeat_after``
polls, a sequenced ``PING`` probe is sent.  A live peer acks it (proving
liveness and resetting the timer); a dead one lets the ping's retransmit
budget expire, which is exactly the failure-detection path.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.mp.hooks import NULL_SPINE
from repro.mp.packets import ACK, PING, Packet

#: sentinel error string carried in Status.error for failed peers
PROC_FAILED = "MPI_ERR_PROC_FAILED"


class _Unacked:
    __slots__ = ("pkt", "sent_at", "retries")

    def __init__(self, pkt: Packet, sent_at: int) -> None:
        self.pkt = pkt
        self.sent_at = sent_at
        self.retries = 0


class ReliabilityLayer:
    """One rank's reliable-delivery state over an unreliable channel."""

    #: the rank's hook spine (emits ``retransmit``; the stats dict below is
    #: exported as pull-model pvars — rel.retransmits, rel.acks_sent, ...)
    hooks = NULL_SPINE

    def __init__(
        self,
        rank: int,
        retransmit_after: int = 24,
        backoff: float = 2.0,
        max_backoff_polls: int = 512,
        max_retries: int = 16,
        heartbeat_after: int = 512,
        ooo_window: int = 4096,
        jitter: float = 0.1,
        jitter_seed: int = 0,
        connect_retries: int | None = None,
    ) -> None:
        self.rank = rank
        self.retransmit_after = retransmit_after
        self.backoff = backoff
        #: cap on the backed-off retransmit interval (like a TCP RTO cap);
        #: without it, a high loss rate makes late retries astronomically
        #: slow and early false-positive failure detection likely
        self.max_backoff_polls = max_backoff_polls
        self.max_retries = max_retries
        self.heartbeat_after = heartbeat_after
        self.ooo_window = ooo_window
        #: deterministic-seeded retransmit jitter, as a fraction of the
        #: capped deadline.  When a partition heals, every survivor's
        #: backed-off timer sits at the same cap; without jitter they all
        #: retry on the same poll and the thundering herd re-collides.
        #: The spread is a pure hash of (rank, seed, dst, seq, retries) —
        #: no RNG stream — so it is reproducible regardless of poll
        #: interleaving yet differs across ranks.
        self.jitter = jitter
        self.jitter_seed = jitter_seed
        #: first-contact budget (TCP SYN-retry style): a peer we have
        #: *never heard from* is most likely a rank whose thread has not
        #: been scheduled yet — its silence proves nothing.  A spinning
        #: sender can burn the whole normal budget inside one scheduling
        #: quantum and falsely declare a healthy newborn (initial launch
        #: or a just-spawned replacement) dead, so unheard links get a
        #: larger allowance before the verdict.
        self.connect_retries = (
            connect_retries if connect_retries is not None else max_retries * 4
        )

        self.polls = 0
        #: dst -> next sequence number to assign
        self._next_seq: dict[int, int] = {}
        #: dst -> {seq: _Unacked} in send order (dict preserves insertion)
        self._unacked: dict[int, dict[int, _Unacked]] = {}
        #: src -> next sequence number expected
        self._expected: dict[int, int] = {}
        #: src -> {seq: Packet} held until the gap fills
        self._ooo: dict[int, dict[int, Packet]] = {}
        #: src -> poll count when we last heard anything from it
        self._last_heard: dict[int, int] = {}
        #: peers that have ever delivered an intact packet (``_last_heard``
        #: can't serve: the heartbeat path seeds it without evidence)
        self._heard: set[int] = set()
        self.failed: set[int] = set()
        self.on_peer_failed: Callable[[int], None] | None = None
        self.stats = {
            "acks_sent": 0,
            "retransmits": 0,
            "corrupt_dropped": 0,
            "dup_dropped": 0,
            "ooo_buffered": 0,
            "pings_sent": 0,
            "peers_failed": 0,
        }

    # ------------------------------------------------------------------ send

    def outbound(self, pkt: Packet) -> Packet:
        """Sequence, seal and stash a protocol packet before the wire."""
        dst = pkt.dst
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        pkt.seq = seq
        pkt.seal()  # CRC straight over the payload view, no copy
        # Stash a clone with an *owned* payload snapshot: fault injectors
        # and channels may mutate the packet in flight, and a leased view
        # may be recycled by the sender long before a retransmit fires.
        stash = pkt.clone()
        if type(stash.payload) is not bytes:
            stash.payload = bytes(stash.payload_mv())
        self._unacked.setdefault(dst, {})[seq] = _Unacked(stash, self.polls)
        return pkt

    # ------------------------------------------------------------------ recv

    def inbound(self, pkts: Iterable[Packet], emit: Callable[[Packet], None]) -> list[Packet]:
        """Filter raw arrivals down to verified, in-order protocol packets.

        ``emit`` sends control traffic (ACKs) straight to the channel.
        """
        deliver: list[Packet] = []
        dirty: list[int] = []  # sources owed a cumulative ACK
        for pkt in pkts:
            if not pkt.intact():
                self.stats["corrupt_dropped"] += 1
                continue
            src = pkt.src
            self._last_heard[src] = self.polls
            self._heard.add(src)
            if pkt.ptype == ACK:
                self._on_ack(src, pkt.seq)
                continue
            if pkt.seq < 0:
                deliver.append(pkt)  # unsequenced peer (reliability off)
                continue
            expected = self._expected.get(src, 0)
            if pkt.seq == expected:
                self._accept(pkt, deliver)
                expected += 1
                buffered = self._ooo.get(src)
                while buffered and expected in buffered:
                    self._accept(buffered.pop(expected), deliver)
                    expected += 1
                self._expected[src] = expected
            elif pkt.seq > expected:
                buffered = self._ooo.setdefault(src, {})
                if pkt.seq not in buffered and len(buffered) < self.ooo_window:
                    buffered[pkt.seq] = pkt
                    self.stats["ooo_buffered"] += 1
            else:
                self.stats["dup_dropped"] += 1
            if src not in dirty:
                dirty.append(src)
        for src in dirty:
            self._send_ack(src, emit)
        return deliver

    def _accept(self, pkt: Packet, deliver: list[Packet]) -> None:
        if pkt.ptype == PING:
            return  # liveness probe: the ack alone answers it
        deliver.append(pkt)

    def _on_ack(self, src: int, upto: int) -> None:
        pending = self._unacked.get(src)
        if not pending:
            return
        for seq in [s for s in pending if s <= upto]:
            del pending[seq]

    def _send_ack(self, src: int, emit: Callable[[Packet], None]) -> None:
        ack = Packet(ptype=ACK, src=self.rank, dst=src, seq=self._expected.get(src, 0) - 1)
        ack.seal()
        self.stats["acks_sent"] += 1
        emit(ack)

    # ------------------------------------------------------------------ timers

    def tick(self, emit: Callable[[Packet], None], interest: Iterable[int] = ()) -> None:
        """One progress poll: drive retransmits, heartbeats and failure."""
        self.polls += 1
        for dst, pending in list(self._unacked.items()):
            if not pending or dst in self.failed:
                continue
            seq = next(iter(pending))  # oldest: the cumulative-ack gap
            entry = pending[seq]
            deadline = min(
                self.retransmit_after * (self.backoff ** entry.retries),
                self.max_backoff_polls,
            )
            if self.jitter:
                deadline += self._jitter_polls(dst, seq, entry.retries, deadline)
            if self.polls - entry.sent_at < deadline:
                continue
            budget = self.max_retries if dst in self._heard else self.connect_retries
            if entry.retries >= budget:
                self._fail_peer(dst)
                continue
            entry.retries += 1
            entry.sent_at = self.polls
            self.stats["retransmits"] += 1
            cbs = self.hooks.retransmit
            if cbs:
                for cb in cbs:
                    cb(entry.pkt, entry.retries)
            emit(entry.pkt.clone())
        for peer in interest:
            if peer in self.failed or peer == self.rank:
                continue
            if self._unacked.get(peer):
                continue  # retransmit machinery is already probing it
            heard = self._last_heard.setdefault(peer, self.polls)
            if self.polls - heard >= self.heartbeat_after:
                self.stats["pings_sent"] += 1
                ping = self.outbound(Packet(ptype=PING, src=self.rank, dst=peer))
                emit(ping)
                self._last_heard[peer] = self.polls  # next probe via retransmit

    def _jitter_polls(self, dst: int, seq: int, retries: int, deadline: float) -> int:
        """Deterministic per-(rank, link, packet, retry) jitter in polls."""
        span = int(deadline * self.jitter)
        if span <= 0:
            return 0
        x = (
            (self.rank * 0x9E3779B1)
            ^ (self.jitter_seed * 0x85EBCA6B)
            ^ (dst * 0xC2B2AE35)
            ^ (seq * 0x27D4EB2F)
            ^ (retries * 0x165667B1)
        ) & 0xFFFFFFFF
        # xorshift finisher: decorrelate the low bits the mix leaves aligned
        x ^= x >> 16
        x = (x * 0x45D9F3B) & 0xFFFFFFFF
        x ^= x >> 16
        return x % (span + 1)

    def _fail_peer(self, dst: int) -> None:
        if dst in self.failed:
            return
        self.failed.add(dst)
        self.stats["peers_failed"] += 1
        self._unacked.pop(dst, None)
        self._ooo.pop(dst, None)
        if self.on_peer_failed is not None:
            self.on_peer_failed(dst)

    def mark_failed(self, dst: int) -> None:
        """Adopt an externally-learned verdict (gossip): stop the link's
        timers without counting a local detection."""
        self.failed.add(dst)
        self._unacked.pop(dst, None)
        self._ooo.pop(dst, None)

    # ------------------------------------------------------------------ misc

    def __repr__(self) -> str:
        pending = sum(len(v) for v in self._unacked.values())
        return f"<ReliabilityLayer rank={self.rank} unacked={pending} failed={sorted(self.failed)}>"
