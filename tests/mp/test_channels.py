"""Channel implementations: delivery, framing across polls, link model."""

import pytest

from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FABRICS, ShmFabric, SockFabric, SsmFabric
from repro.mp.channels.sock import ring_mapping
from repro.mp.packets import DATA, EAGER, Packet
from repro.simtime import LINK_PROFILES, CostModel, VirtualClock, WallClock


def make_pair(fabric_cls, **kw):
    fab = fabric_cls(2, **kw)
    c0 = fab.endpoint(0, WallClock(), CostModel())
    c1 = fab.endpoint(1, WallClock(), CostModel())
    return fab, c0, c1


@pytest.mark.parametrize("fabric_cls", [ShmFabric, SockFabric, SsmFabric])
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
        fab = ShmFabric(2)
        cm = CostModel()
        clock = VirtualClock()
        c0 = fab.endpoint(0, clock, cm)
        fab.endpoint(1, VirtualClock(), cm)
        nbytes = 16 * 1024
        c0.send_packet(Packet(ptype=DATA, src=0, dst=1, payload=b"a" * nbytes))
        c0.send_packet(Packet(ptype=DATA, src=0, dst=1, payload=b"a" * nbytes))
        q = fab._queues[1]
        p1, p2 = q.drain()
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


class TestSsm:
    def test_local_peers_use_shm(self):
        fab = SsmFabric(4, node_of={0: 0, 1: 0, 2: 1, 3: 1})
        cm = CostModel()
        c0 = fab.endpoint(0, WallClock(), cm)
        fab.endpoint(1, WallClock(), cm)
        fab.endpoint(2, WallClock(), cm)
        c0.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=b"local"))
        c0.send_packet(Packet(ptype=EAGER, src=0, dst=2, payload=b"remote"))
        assert c0._shm.packets_sent == 1
        assert c0._sock.packets_sent == 1

    def test_registry(self):
        assert set(FABRICS) == {"shm", "sock", "ssm", "ib"}


def _observables(ch, dst):
    return (
        ch.clock.now(),
        ch.clock.charges,
        ch._link_busy_until.get(dst),
        ch.packets_sent,
        ch.bytes_sent,
    )


@pytest.mark.parametrize("name", sorted(LINK_PROFILES))
class TestInMemoryLinks:
    def test_refused_packet_is_free(self, name):
        """A backed-up link is retried every poll; the retries must not be
        charged, or modelled time depends on the poll count."""
        cm = CostModel()
        payload = b"p" * 8192  # above ib's inline size: registration is live

        def pkt():
            return Packet(ptype=DATA, src=0, dst=1, payload=payload)

        fab = FABRICS[name](2, queue_capacity=2)
        c0 = fab.endpoint(0, VirtualClock(), cm)
        c1 = fab.endpoint(1, VirtualClock(), cm)
        assert c0.send_packet(pkt()) and c0.send_packet(pkt())
        before = _observables(c0, 1)
        for _ in range(5):
            assert not c0.send_packet(pkt())
            assert _observables(c0, 1) == before
        assert len(c1.recv_packets(limit=1)) == 1
        third = pkt()
        assert c0.send_packet(third)
        # the stamp a first attempt would have got: a twin fabric with room
        twin = FABRICS[name](2).endpoint(0, VirtualClock(), cm)
        stamps = []
        for _ in range(3):
            p = pkt()
            assert twin.send_packet(p)
            stamps.append(p.ts)
        assert third.ts == stamps[2]
        assert _observables(c0, 1) == _observables(twin, 1)

    @pytest.mark.parametrize("nbytes", [64, 221, 64 * 1024])
    def test_send_cost_is_the_literal_formula(self, name, nbytes):
        """The profile table against the formulas of the shm and ib
        channels it replaced, written out."""
        cm = CostModel()
        clock = VirtualClock()
        ch = FABRICS[name](2).endpoint(0, clock, cm)
        pkt = Packet(ptype=DATA, src=0, dst=1, payload=b"x" * nbytes)
        assert ch.send_packet(pkt)
        if name == "shm":
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
