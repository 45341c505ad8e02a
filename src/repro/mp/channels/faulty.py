"""Fault-injecting channel wrapper: deterministic failure for any transport.

The paper's layered channel/device architecture ("swap a channel to port",
§4.1) means failure behaviour can be injected *below* the device without
touching anything above: :class:`FaultyChannel` composes over either
transport, whatever its link rows, and perturbs the packet stream
according to a seeded :class:`FaultPlan` — packet drop, duplication,
reordering, payload bit-flips, latency spikes, link partitions, and rank
crashes.

Determinism: every random decision for the link ``src -> dst`` is drawn
from a dedicated ``random.Random`` stream keyed on ``(seed, src, dst)``
and indexed by that link's packet counter, so the fault sequence for a
given plan is a pure function of what each rank sends — independent of
thread scheduling.  ``FaultPlan.force`` pins a specific fault to a
specific per-link packet index for exactly-reproducible scenarios.

The reliability sublayer (``repro.mp.reliability``) is the antidote:
sequence numbers and CRC32 seals detect loss/duplication/reorder/
corruption, and ack/retransmit with backoff recovers — or, when a rank
is crashed via :meth:`FaultPlan.kill`, converts silence into
``MPI_ERR_PROC_FAILED``.

The wrapper is the one stacking layer: it owns the packet plane and
delegates the rest to the ``inner`` endpoint it wraps.  Faults perturb
packets only, so one-sided *windows* keep the inner endpoint's native
path (the direct-memory plane models a different NIC engine).  The data
plane of large messages does not: a wire that drops, duplicates and
corrupts is not a direct-memory fabric, so the wrapper keeps the default
``rndv_caps() == {}`` and under a plan a rendezvous payload still crosses
the perturbed wire as sequenced, CRC-sealed DATA even over ``shm``/``ib``.

A payload that is a view of the sender's buffer must not outlive
``send_packet``, so every fault that holds or rewrites a packet
(duplicate, corrupt, reorder, delay) copies the payload first and counts
the bytes in ``fault_stats["cow_bytes"]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel

#: fault kinds, in the order random draws are consumed per packet
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"
REORDER = "reorder"
DELAY = "delay"

_KINDS = (DROP, DUPLICATE, CORRUPT, REORDER, DELAY)


@dataclass
class FaultPlan:
    """A reproducible description of what goes wrong, and when.

    Probabilities are per-packet, decided on each link's own seeded
    stream.  Dynamic state (``kill``/``partition``) models events a plan
    cannot foresee; everything else is deterministic from ``seed``.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    #: how many later sends to the same destination overtake a reordered
    #: packet before it is released
    reorder_depth: int = 2
    #: how many of the destination's progress polls a delayed packet is
    #: held for (models a latency spike / scheduling stall)
    delay_polls: int = 32
    #: forced faults: (src, dst) -> {per-link packet index: fault kind}
    forced: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._dead: set[int] = set()
        self._partitions: set[frozenset] = set()

    # -- deterministic streams ---------------------------------------------------

    def rng_for(self, src: int, dst: int) -> random.Random:
        """The dedicated decision stream for one directed link."""
        return random.Random((self.seed << 20) ^ (src << 10) ^ dst)

    def force(self, src: int, dst: int, index: int, kind: str) -> "FaultPlan":
        """Pin ``kind`` to the ``index``-th packet sent on ``src -> dst``."""
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (have {_KINDS})")
        self.forced.setdefault((src, dst), {})[index] = kind
        return self

    # -- dynamic failure state ----------------------------------------------------

    def kill(self, rank: int) -> None:
        """Crash ``rank``: it stops sending and receiving, silently."""
        self._dead.add(rank)

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead

    @property
    def dead_ranks(self) -> frozenset:
        return frozenset(self._dead)

    def partition(self, a: int, b: int) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        self._partitions.discard(frozenset((a, b)))

    def is_partitioned(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._partitions


class _Held:
    """A packet held back by a reorder/delay fault."""

    __slots__ = ("pkt", "sends_left", "polls_left")

    def __init__(self, pkt: Packet, sends_left: int | None, polls_left: int | None) -> None:
        self.pkt = pkt
        self.sends_left = sends_left
        self.polls_left = polls_left


class FaultyChannel(Channel):
    """Stacking layer over any channel endpoint, injecting the plan's faults.

    ``init`` does not re-init ``inner``: the inner fabric already did.
    """

    name = "faulty"

    def __init__(self, inner: Channel, plan: FaultPlan) -> None:
        super().__init__(inner.rank, inner.clock, inner.costs)
        self.inner = inner
        self.plan = plan
        self._rng: dict[int, random.Random] = {}
        self._link_index: dict[int, int] = {}
        self._held: list[_Held] = []
        #: (dst, per-link index, fault kind, packet kind) in injection order
        self.fault_log: list[tuple[int, int, str, str]] = []
        self.fault_stats: dict[str, int] = {k: 0 for k in _KINDS}
        self.fault_stats["partitioned"] = 0
        self.fault_stats["to_dead"] = 0
        #: payload bytes copied so a fault could own (not alias) a live view
        self.fault_stats["cow_bytes"] = 0

    # -- the five functions --------------------------------------------------------

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def send_packet(self, pkt: Packet) -> bool:
        if self.plan.is_dead(self.rank):
            return True  # a crashed rank's sends vanish
        # a held packet overtaken by enough later sends is released first,
        # keeping "reorder" meaning 'arrives after its successors'
        self._count_send(pkt.dst)
        dst = pkt.dst
        idx = self._link_index.get(dst, 0)
        self._link_index[dst] = idx + 1
        fault = self._decide(dst, idx)
        if self.plan.is_dead(dst) or self.plan.is_partitioned(self.rank, dst):
            key = "to_dead" if self.plan.is_dead(dst) else "partitioned"
            self.fault_stats[key] += 1
            self._release_expired()
            return True  # the wire accepted it; it just never arrives
        if fault is not None:
            self.fault_log.append((dst, idx, fault, pkt.kind))
            self.fault_stats[fault] += 1
            cbs = self.hooks.fault_injected
            if cbs:
                for cb in cbs:
                    cb(dst, idx, fault, pkt.kind)
        if fault == DUPLICATE:
            # copy-on-write: the duplicate owns its payload bytes, so only
            # the original aliases the sender's buffer
            dup = self._owned_clone(pkt)
            self._forward(pkt)
            self._forward(dup)
        elif fault == CORRUPT:
            self._forward(self._corrupted(pkt, dst))  # only the bad copy travels
        elif fault == REORDER:
            # released after `reorder_depth` later sends overtake it, or
            # after a poll budget if the sender goes quiet on this link
            self._hold(pkt, self.plan.reorder_depth, self.plan.delay_polls)
        elif fault == DELAY:
            self._hold(pkt, None, self.plan.delay_polls)
        elif fault != DROP:  # a dropped packet just never arrives
            self._forward(pkt)
        self._release_expired()
        return True

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        self._count_poll()
        self._release_expired()
        if self.plan.is_dead(self.rank):
            return []
        pkts = self.inner.recv_packets(limit)
        self.packets_received += len(pkts)
        return pkts

    def has_incoming(self) -> bool:
        if self.plan.is_dead(self.rank):
            return False
        return bool(self._held) or self.inner.has_incoming()

    def finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        self._held.clear()
        self.inner.finalize()

    # -- delegated to the inner endpoint -------------------------------------------

    def retire(self) -> None:
        self.inner.retire()

    def owes(self) -> bool:
        return self.inner.owes()

    def rma_caps(self) -> frozenset[str]:
        return self.inner.rma_caps()

    def rma_register(self, win_id: int, rank: int, desc, transient: bool = False) -> None:
        self.inner.rma_register(win_id, rank, desc, transient)

    def rma_deregister(self, win_id: int, rank: int) -> None:
        self.inner.rma_deregister(win_id, rank)

    def rma_put(self, win_id: int, target: int, offset: int, src_mv) -> bool:
        return self.inner.rma_put(win_id, target, offset, src_mv)

    def rma_get(self, win_id: int, target: int, offset: int, dst_mv) -> bool:
        return self.inner.rma_get(win_id, target, offset, dst_mv)

    def rma_accumulate(
        self, win_id: int, target: int, offset: int, src_mv, dtype: str
    ) -> bool:
        return self.inner.rma_accumulate(win_id, target, offset, src_mv, dtype)

    # -- fault machinery -------------------------------------------------------------

    def _decide(self, dst: int, idx: int) -> str | None:
        forced = self.plan.forced.get((self.rank, dst))
        if forced is not None and idx in forced:
            return forced[idx]
        if not (self.plan.drop or self.plan.duplicate or self.plan.corrupt
                or self.plan.reorder or self.plan.delay):
            return None
        rng = self._rng.get(dst)
        if rng is None:
            rng = self._rng[dst] = self.plan.rng_for(self.rank, dst)
        # one uniform draw decides among the categories, so the decision
        # stream is a pure function of (seed, src, dst, index)
        u = rng.random()
        for kind, p in (
            (DROP, self.plan.drop),
            (DUPLICATE, self.plan.duplicate),
            (CORRUPT, self.plan.corrupt),
            (REORDER, self.plan.reorder),
            (DELAY, self.plan.delay),
        ):
            if u < p:
                return kind
            u -= p
        return None

    def _corrupted(self, pkt: Packet, dst: int) -> Packet:
        """Flip one payload bit (or a header field for empty payloads).

        Strictly copy-on-write: the bit flips in an owned copy of the
        payload, never in a live view of the sender's latched buffer.
        """
        bad = pkt.clone()
        rng = self._rng.get(dst)
        if rng is None:
            rng = self._rng[dst] = self.plan.rng_for(self.rank, dst)
        if len(bad.payload):
            data = bytearray(pkt.payload_mv())
            self.fault_stats["cow_bytes"] += len(data)
            bit = rng.randrange(len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
            bad.payload = bytes(data)
        else:
            bad.tag ^= 1  # header-only packet: corrupt a sealed field
        return bad

    def _owned_clone(self, pkt: Packet) -> Packet:
        """A clone whose payload is an owned snapshot (COW for duplicates)."""
        dup = pkt.clone()
        if type(dup.payload) is not bytes:
            self.fault_stats["cow_bytes"] += len(dup.payload)
            dup.freeze_payload()
        return dup

    def _hold(self, pkt: Packet, sends_left: int | None, polls_left: int | None) -> None:
        """Park a packet; a held payload must own its bytes (the sender may
        recycle its buffer long before the release fires)."""
        if type(pkt.payload) is not bytes:
            self.fault_stats["cow_bytes"] += len(pkt.payload)
            pkt.freeze_payload()
        self._held.append(_Held(pkt, sends_left, polls_left))

    def _forward(self, pkt: Packet) -> None:
        self.inner.send_packet(pkt)
        self.packets_sent += 1
        self.bytes_sent += len(pkt.payload)

    def _count_send(self, dst: int) -> None:
        for h in self._held:
            if h.sends_left is not None and h.pkt.dst == dst:
                h.sends_left -= 1

    def _count_poll(self) -> None:
        for h in self._held:
            if h.polls_left is not None:
                h.polls_left -= 1

    def _release_expired(self) -> None:
        if not self._held:
            return
        still: list[_Held] = []
        for h in self._held:
            if (h.sends_left is not None and h.sends_left <= 0) or (
                h.polls_left is not None and h.polls_left <= 0
            ):
                if not (
                    self.plan.is_dead(h.pkt.dst)
                    or self.plan.is_partitioned(self.rank, h.pkt.dst)
                ):
                    self._forward(h.pkt)
            else:
                still.append(h)
        self._held = still


class FaultyFabric(ChannelFabric):
    """Wraps a concrete fabric so every endpoint injects the same plan."""

    def __init__(self, inner: ChannelFabric, plan: FaultPlan) -> None:
        super().__init__(inner.world_size)
        self.inner = inner
        self.plan = plan

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> FaultyChannel:
        return FaultyChannel(self.inner.endpoint(rank, clock, costs), self.plan)

    def add_rank(self, rank: int) -> None:
        self.inner.add_rank(rank)
        self.world_size = self.inner.world_size

    def shutdown(self) -> None:
        super().shutdown()
        self.inner.shutdown()
