"""The five-function channel interface and the fabric that wires ranks.

Per Gropp & Lusk's channel-device note (paper ref [19]/[20]), the minimal
channel port implements five entry points; everything above (matching,
protocol, collectives) is channel-independent.  Swapping the channel is
how Motor would move from Windows sockets to shared memory or InfiniBand
(paper §4.1).

:class:`Channel` is the abstract transport contract (enforced with
:mod:`abc` so a port that forgets an entry point fails at construction,
not mid-run).  The one stacking layer,
:class:`~repro.mp.channels.faulty.FaultyChannel`, composes over any
concrete endpoint, which it holds as ``inner``; hook wiring
(:func:`repro.mp.hooks.wire_engine`) walks ``inner`` so both share the
rank's spine.
"""

from __future__ import annotations

import abc

from repro.mp.hooks import NULL_SPINE
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel, LinkProfile


class Channel(abc.ABC):
    """One rank's endpoint into the interconnect.

    The five functions of the minimal channel port:

    ``init``          — bind this endpoint to its rank and peers;
    ``send_packet``   — enqueue one packet toward a destination rank
                        (non-blocking, and never refused: returns True);
    ``recv_packets``  — drain every packet currently deliverable here;
    ``has_incoming``  — cheap readiness test (progress-engine fast path);
    ``finalize``      — tear the endpoint down.
    """

    name = "abstract"

    #: the rank's hook spine; the counters below are exported as pull-model
    #: pvars (mp.ch.packets_sent, ...) at snapshot time
    hooks = NULL_SPINE

    def __init__(self, rank: int, clock: Clock, costs: CostModel) -> None:
        self.rank = rank
        self.clock = clock
        self.costs = costs
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        #: set by finalize(); implementations guard on it so teardown is
        #: idempotent even when wiring crashed half-way
        self._finalized = False
        #: virtual-clock link model: when each outgoing link drains
        self._link_busy_until: dict[int, float] = {}

    # -- the five functions ----------------------------------------------------

    @abc.abstractmethod
    def init(self, world_size: int) -> None:
        raise NotImplementedError

    @abc.abstractmethod
    def send_packet(self, pkt: Packet) -> bool:
        raise NotImplementedError

    @abc.abstractmethod
    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        raise NotImplementedError

    @abc.abstractmethod
    def has_incoming(self) -> bool:
        raise NotImplementedError

    def finalize(self) -> None:
        self._finalized = True

    # -- the exit drain (``World.quiesce``) ------------------------------------

    def retire(self) -> None:
        """This rank's main has returned: it reads no more, and is owed nothing."""

    def owes(self) -> bool:
        """True while this endpoint holds back bytes (sock's ring backlog,
        pushed only by its own polls) for a peer still reading."""
        return False

    # -- one-sided (RMA) capability --------------------------------------------
    #
    # A channel may expose a *native* one-sided path: Put/Get/Accumulate
    # that land straight in the target's window memory without involving
    # the target's message path (Liu et al.'s MPICH2-over-InfiniBand
    # design).  Capability is negotiated, never assumed: the window layer
    # asks ``rma_caps()`` and lowers unsupported ops onto the two-sided
    # emulation (PUT/GET/ACC packets through the CH3 device).  The
    # defaults below are that graceful fallback — a transport that cannot
    # do RMA reports no caps and every native entry point returns False.
    #
    # The same engine can carry a *rendezvous*: ``rndv_caps()`` is the
    # sibling negotiation for message payloads.  A channel advertising
    # ``"grant"`` lets the CH3 device expose a matched receive's buffer for
    # one transfer (``rma_register(..., transient=True)``) and the sender
    # land the payload with a single ``rma_put``.  It is a separate query
    # because ``rma_caps()`` is the *window* contract (exactly the three
    # one-sided ops) and the two answers differ under the fault wrapper:
    # windows reach through it, message payloads do not.

    def rma_caps(self) -> frozenset[str]:
        """The ops this transport can complete natively ("put", "get",
        "accumulate").  Empty set == emulation only; never raises."""
        return frozenset()

    def rndv_caps(self) -> frozenset[str]:
        """How this transport can land a rendezvous payload besides DATA
        packets (``"grant"``); empty == the packet plane only."""
        return frozenset()

    def rma_register(self, win_id: int, rank: int, desc, transient: bool = False) -> None:
        """Expose ``desc`` (a BufferDesc) as window ``win_id``'s memory on
        ``rank``; ``transient`` marks a rendezvous grant (ids < 0, one
        transfer long).  No-op on transports without a native path."""

    def rma_deregister(self, win_id: int, rank: int) -> None:
        """Withdraw a window exposure; idempotent, never raises."""

    def rma_put(self, win_id: int, target: int, offset: int, src_mv) -> bool:
        """Native direct write into the target window; False == no path
        (caller must fall back to emulation)."""
        return False

    def rma_get(self, win_id: int, target: int, offset: int, dst_mv) -> bool:
        """Native direct read from the target window; False == no path."""
        return False

    def rma_accumulate(
        self, win_id: int, target: int, offset: int, src_mv, dtype: str
    ) -> bool:
        """Native element-wise sum into the target window; False == no
        path."""
        return False

    # -- shared accounting -------------------------------------------------------

    def _stamp_and_charge(self, pkt: Packet, nbytes: int, link: LinkProfile) -> None:
        """Charge the submit cost and stamp the virtual arrival time of
        ``pkt``, whose payload the caller measured (``nbytes``), on the
        link priced by the row ``link`` — the one pricing of both transports.

        The link to each destination serialises bandwidth: a packet enters
        the wire when the link is free, occupies it for its byte time, and
        arrives one latency later.  Back-to-back packets of a rendezvous
        stream therefore queue instead of travelling in parallel.
        """
        costs = self.costs
        self.clock.charge(costs.packet_overhead_ns)
        latency = costs.message_latency_ns * link.latency_fraction
        if nbytes <= link.inline_max:
            latency *= link.inline_discount
        per_byte_ns = costs.per_byte_ns * link.per_byte_fraction
        # causal_now: a packet emitted after an async-handled receive may
        # depend on that data; its stamp must carry the deferred arrival
        # floor even though the local clock has not merged it yet
        enter = max(self.clock.causal_now(), self._link_busy_until.get(pkt.dst, 0.0))
        drain = enter + costs.packet_overhead_ns + per_byte_ns * nbytes
        self._link_busy_until[pkt.dst] = drain
        pkt.ts = drain + latency
        self.packets_sent += 1
        self.bytes_sent += nbytes


class ChannelFabric:
    """Constructs and wires one channel endpoint per rank."""

    def __init__(self, world_size: int) -> None:
        self.world_size = world_size
        self._endpoints: dict[int, Channel] = {}
        self._shut_down = False

    def endpoint(self, rank: int, clock: Clock, costs: CostModel) -> Channel:
        if rank in self._endpoints:
            return self._endpoints[rank]
        ch = self._make(rank, clock, costs)
        ch.init(self.world_size)
        self._endpoints[rank] = ch
        return ch

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> Channel:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Finalize every endpoint; idempotent and best-effort.

        A crash during world wiring leaves some endpoints half-built, so
        one endpoint's teardown failure must not leak the rest.
        """
        if self._shut_down:
            return
        self._shut_down = True
        errors: list[Exception] = []
        for ch in self._endpoints.values():
            try:
                ch.finalize()
            except Exception as exc:  # noqa: BLE001 - collect, keep tearing down
                errors.append(exc)
        self._endpoints.clear()
        if errors:
            raise errors[0]
