"""Channel implementations: delivery, framing across polls, link model."""

import sys
import threading
import time

import pytest

from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FABRICS, SockChannel, SockFabric
from repro.mp.channels.mem import MemChannel
from repro.mp.channels.sock import ring_mapping
from repro.mp.packets import DATA, EAGER, Packet
from repro.simtime import LINK_PROFILES, CostModel, VirtualClock, WallClock


def make_pair(fabric_cls, **kw):
    fab = fabric_cls(2, **kw)
    c0 = fab.endpoint(0, WallClock(), CostModel())
    c1 = fab.endpoint(1, WallClock(), CostModel())
    return fab, c0, c1


@pytest.mark.parametrize(
    "fabric_cls",
    [FABRICS["shm"], SockFabric, FABRICS["ssm"]],
    ids=["ShmFabric", "SockFabric", "SsmFabric"],
)
class TestDelivery:
    def test_single_packet(self, fabric_cls):
        _, c0, c1 = make_pair(fabric_cls)
        pkt = Packet(ptype=EAGER, src=0, dst=1, tag=5, payload=b"data!")
        assert c0.send_packet(pkt)
        got = c1.recv_packets()
        assert len(got) == 1
        assert got[0].payload == b"data!"
        assert got[0].tag == 5

    def test_order_preserved_per_pair(self, fabric_cls):
        _, c0, c1 = make_pair(fabric_cls)
        for i in range(10):
            c0.send_packet(Packet(ptype=DATA, src=0, dst=1, offset=i, payload=bytes([i])))
        got = []
        while len(got) < 10:
            got.extend(c1.recv_packets())
        assert [p.offset for p in got] == list(range(10))

    def test_recv_limit(self, fabric_cls):
        _, c0, c1 = make_pair(fabric_cls)
        for i in range(6):
            c0.send_packet(Packet(ptype=DATA, src=0, dst=1, payload=b"x"))
        first = c1.recv_packets(limit=4)
        assert len(first) == 4
        rest = c1.recv_packets()
        assert len(rest) == 2

    def test_has_incoming(self, fabric_cls):
        _, c0, c1 = make_pair(fabric_cls)
        assert not c1.has_incoming()
        c0.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=b"z"))
        assert c1.has_incoming()
        c1.recv_packets()
        assert not c1.has_incoming()

    def test_empty_recv(self, fabric_cls):
        _, _c0, c1 = make_pair(fabric_cls)
        assert c1.recv_packets() == []

    def test_stats(self, fabric_cls):
        _, c0, c1 = make_pair(fabric_cls)
        c0.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=b"abcd"))
        c1.recv_packets()
        assert c0.packets_sent == 1
        assert c0.bytes_sent == 4
        assert c1.packets_received == 1


class TestSockSpecific:
    def test_large_payload_streams_across_polls(self):
        """A payload bigger than the ring arrives over multiple polls —
        the flow control the GC-hazard window depends on."""
        fab, c0, c1 = make_pair(SockFabric, mapping=ring_mapping(2, 4096))
        try:
            big = bytes(range(256)) * (c0._tx[1].capacity // 64)  # 4x the ring
            c0.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=big))
            assert c0.owes()
            got = []
            for _ in range(100):
                got = c1.recv_packets()
                if got:
                    break
                c0.flush_all()
            assert got and got[0].payload == big
            assert not c0.owes()
        finally:
            fab.shutdown()

    def test_interleaved_sources(self):
        fab = SockFabric(3)
        cm = CostModel()
        c0 = fab.endpoint(0, WallClock(), cm)
        c1 = fab.endpoint(1, WallClock(), cm)
        c2 = fab.endpoint(2, WallClock(), cm)
        c0.send_packet(Packet(ptype=EAGER, src=0, dst=2, payload=b"from0"))
        c1.send_packet(Packet(ptype=EAGER, src=1, dst=2, payload=b"from1"))
        got = c2.recv_packets()
        assert {p.payload for p in got} == {b"from0", b"from1"}


class TestVirtualLinkModel:
    def test_bandwidth_serialises(self):
        """Back-to-back packets queue on the link: the second arrives a
        full byte-time after the first (regression for the 'infinite
        pipelining' bug)."""
        fab = FABRICS["shm"](2)
        cm = CostModel()
        clock = VirtualClock()
        c0 = fab.endpoint(0, clock, cm)
        c1 = fab.endpoint(1, VirtualClock(), cm)
        nbytes = 16 * 1024
        c0.send_packet(Packet(ptype=DATA, src=0, dst=1, payload=b"a" * nbytes))
        c0.send_packet(Packet(ptype=DATA, src=0, dst=1, payload=b"a" * nbytes))
        p1, p2 = c1.recv_packets()
        assert p2.ts - p1.ts >= nbytes * cm.per_byte_ns * 0.4  # shm halves per-byte

    def test_arrival_after_send(self):
        fab = SockFabric(2)
        cm = CostModel()
        clock = VirtualClock()
        c0 = fab.endpoint(0, clock, cm)
        c1 = fab.endpoint(1, VirtualClock(), cm)
        c0.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=b"x" * 100))
        got = c1.recv_packets()
        assert got[0].ts >= cm.message_latency_ns


def _stamp(fab, dst, nbytes=100):
    """The arrival stamp of one packet, the first on its link, from rank 0."""
    pkt = Packet(ptype=EAGER, src=0, dst=dst, payload=b"x" * nbytes)
    fab.endpoint(0, VirtualClock(), CostModel()).send_packet(pkt)
    return pkt.ts


class TestSsm:
    def test_local_peers_use_shm(self):
        """ssm is a table: the shm row within a node, the sock row across."""
        shm, sock = _stamp(FABRICS["shm"](4), 1), _stamp(FABRICS["sock"](4), 2)
        assert shm < sock
        assert _stamp(FABRICS["ssm"](4, node_of={0: 0, 1: 0, 2: 1, 3: 1}), 1) == shm
        assert _stamp(FABRICS["ssm"](4, node_of={0: 0, 1: 0, 2: 1, 3: 1}), 2) == sock
        # the default: pairs of ranks per node, ranks added later included
        assert _stamp(FABRICS["ssm"](2), 1) == shm
        late = FABRICS["ssm"](2)
        late.add_rank(5)
        assert _stamp(late, 5) == sock

    def test_no_one_sided_path_unless_every_row_has_one(self):
        for name, caps in (("shm", True), ("ib", True), ("sock", False), ("ssm", False)):
            ch = FABRICS[name](2).endpoint(0, VirtualClock(), CostModel())
            assert bool(ch.rma_caps()) is caps and bool(ch.rndv_caps()) is caps

    def test_registry(self):
        assert set(FABRICS) == {"shm", "sock", "ssm", "ib"}


#: the rows with a one-sided path: native RMA and the rendezvous grant
ONE_SIDED = sorted(n for n, row in LINK_PROFILES.items() if row.rma_per_byte_fraction is not None)


class TestInMemoryLinks:
    @pytest.mark.parametrize("name", sorted(LINK_PROFILES))
    @pytest.mark.parametrize("nbytes", [64, 221, 64 * 1024])
    def test_send_cost_is_the_literal_formula(self, name, nbytes):
        """The profile table against the formulas of the sock, shm and ib
        channels it replaced, written out."""
        cm = CostModel()
        clock = VirtualClock()
        ch = FABRICS[name](2).endpoint(0, clock, cm)
        pkt = Packet(ptype=DATA, src=0, dst=1, payload=b"x" * nbytes)
        assert ch.send_packet(pkt)
        if name == "sock":
            registration = None
            latency = cm.message_latency_ns
            per_byte = cm.per_byte_ns
        elif name == "shm":
            registration = None  # no charge at all, not a zero charge
            latency = cm.message_latency_ns * 0.25
            per_byte = cm.per_byte_ns * 0.5
        else:
            registration = 0.0 if nbytes <= 220 else 18_000.0 * (1 + nbytes // (256 * 4096))
            latency = cm.message_latency_ns * 0.08
            if nbytes <= 220:
                latency *= 0.6
            per_byte = cm.per_byte_ns * 0.12
        now = (registration or 0.0) + cm.packet_overhead_ns
        assert clock.now() == now
        assert clock.charges == (1 if registration is None else 2)
        assert pkt.ts == now + cm.packet_overhead_ns + per_byte * nbytes + latency

    @pytest.mark.parametrize("name", ONE_SIDED)
    def test_rma_put_cost_is_the_literal_formula(self, name):
        cm = CostModel()
        clock = VirtualClock()
        fab = FABRICS[name](2)
        ch = fab.endpoint(0, clock, cm)
        target = NativeMemory(16 * 1024)
        fab.endpoint(1, VirtualClock(), cm).rma_register(7, 1, BufferDesc.from_native(target))
        src = memoryview(b"r" * 16 * 1024)
        assert ch.rma_put(7, 1, 0, src)
        latency_frac, rma_frac = {"shm": (0.25, 0.2), "ib": (0.08, 0.06)}[name]
        assert clock.now() == (
            cm.packet_overhead_ns
            + cm.message_latency_ns * latency_frac
            + len(src) * cm.per_byte_ns * rma_frac
        )
        assert clock.charges == 1
        assert bytes(target.mem) == bytes(src)

    @pytest.mark.parametrize("name", ONE_SIDED)
    def test_transient_grant_registers_through_the_size_class_cache(self, name):
        """A rendezvous grant recurs per message: on ib the first grant of a
        size class pays registration and the next ten do not (a window pays
        afresh every time); shm never charges at all."""
        cm = CostModel()
        clock = VirtualClock()
        ch = FABRICS[name](2).endpoint(0, clock, cm)
        desc = BufferDesc.from_native(NativeMemory(256 * 1024))
        first = {"shm": 0.0, "ib": 18_000.0 * (1 + 256 * 1024 // (256 * 4096))}[name]
        for i in range(11):
            ch.rma_register(-(i + 1), 0, desc, transient=True)
            assert clock.now() == first
            ch.rma_deregister(-(i + 1), 0)
        assert ch.registrations == (1 if first else 0)
        assert clock.charges == (11 if first else 0)  # ten of them zero
        other = BufferDesc.from_native(NativeMemory(512 * 1024))  # a new class
        ch.rma_register(-12, 0, other, transient=True)
        assert clock.now() == first * 2 and ch.registrations == (2 if first else 0)
        ch.rma_register(7, 0, desc)  # a window: registered afresh, uncached
        assert ch.registrations == (3 if first else 0)


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_a_link_never_refuses(name):
    """A channel accepts every packet: 5 000 toward one rank, all of them
    stamped and queued, arrive in order whatever the row."""
    fab = FABRICS[name](2)
    c0 = fab.endpoint(0, VirtualClock(), CostModel())
    c1 = fab.endpoint(1, VirtualClock(), CostModel())
    for i in range(5000):
        assert c0.send_packet(Packet(ptype=DATA, src=0, dst=1, offset=i, payload=b"p"))
    got = c1.recv_packets()
    assert [p.offset for p in got] == list(range(5000))
    assert c0.packets_sent == c1.packets_received == 5000


def test_producers_racing_a_consumer_lose_nothing():
    """The queue has no lock: four sender threads append while rank 0
    drains in small polls, with the interpreter switching threads as often
    as it can; every packet arrives, in order per sender."""
    fab, per_sender = FABRICS["shm"](5), 2000
    c0 = fab.endpoint(0, VirtualClock(), CostModel())
    senders = [fab.endpoint(r, VirtualClock(), CostModel()) for r in range(1, 5)]

    def produce(ch):
        for i in range(per_sender):
            ch.send_packet(Packet(ptype=DATA, src=ch.rank, dst=0, offset=i, payload=b"s"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=produce, args=(ch,)) for ch in senders]
        for t in threads:
            t.start()
        got, deadline = [], time.monotonic() + 30.0
        while len(got) < 4 * per_sender and time.monotonic() < deadline:
            got += c0.recv_packets(limit=7)
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(got) == 4 * per_sender and not c0.has_incoming()
    for r in range(1, 5):
        assert [p.offset for p in got if p.src == r] == list(range(per_sender))


#: what a ring and a queue are given alike: sizes toward rank 1, then a self-send
SIZES = [0, 64, 16 * 1024, 200 * 1024]


def _priced(fab):
    """Rank 0's clock and links, and every packet's stamp, after ``SIZES``."""
    c0 = fab.endpoint(0, VirtualClock(), CostModel())
    c1 = fab.endpoint(1, VirtualClock(), CostModel())
    sent = [Packet(ptype=DATA, src=0, dst=1, offset=n, payload=bytes(n)) for n in SIZES]
    sent.append(Packet(ptype=DATA, src=0, dst=0, offset=1, payload=b"self"))
    for pkt in sent:
        assert c0.send_packet(pkt)
    got = []
    for _ in range(8):  # the ring holds 256 KiB: its sender pushes the rest
        got += c1.recv_packets() + c0.recv_packets()
    return (
        type(c0),
        c0.clock.now(),
        c0.clock.charges,
        c0._link_busy_until,
        [p.ts for p in sent],
        sorted((p.dst, p.offset, p.ts) for p in got),
    )


def test_the_ring_and_the_sock_row_price_alike():
    """Two transports, one pricing: the ring of real processes and the
    queue under ``channel="sock"`` leave the same clock, the same links and
    the same stamps, packet for packet."""
    ring_type, *ring = _priced(SockFabric(2))
    queue_type, *queue = _priced(FABRICS["sock"](2))
    assert (ring_type, queue_type) == (SockChannel, MemChannel)
    assert ring == queue
    assert len(queue[-1]) == len(SIZES) + 1  # every packet arrived
