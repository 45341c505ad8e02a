"""One conformance contract for every Channel ABC implementation.

The five-function channel port (paper §6) is only swappable if every
implementation honours the same observable contract.  This suite runs
each concrete fabric — and the fault wrapper with an *empty* FaultPlan,
which must be indistinguishable from its inner channel — through the
same checks: per-source FIFO ordering, partial reads, drain quiescence
and idempotent teardown.  ``shm``, ``sock``, ``ssm`` and ``ib`` are the
in-memory transport under each table of link rows; ``proc`` is the ring
transport as the proc substrate's workers hold it: each rank's endpoint
from a fabric of its own, over one mapping.
"""

import abc
import time

import pytest

from repro.mp.channels import FABRICS, FaultPlan, FaultyFabric
from repro.mp.channels.base import Channel
from repro.mp.channels.sock import SockFabric, ring_mapping
from repro.mp.packets import EAGER, Packet
from repro.simtime import CostModel, WallClock


class WorkerFabrics:
    """The proc substrate's layout in one process: a SockFabric per rank
    (per worker), all over the one mapping their launcher made."""

    def __init__(self, size):
        mapping = ring_mapping(size)
        self._fabs = [SockFabric(size, mapping=mapping) for _ in range(size)]

    def endpoint(self, rank, clock, costs):
        return self._fabs[rank].endpoint(rank, clock, costs)

    def shutdown(self):
        for fab in self._fabs:
            fab.shutdown()


def _fabric(name, size=2):
    if name.startswith("faulty-"):
        inner = FABRICS[name.removeprefix("faulty-")](size)
        return FaultyFabric(inner, FaultPlan())
    if name == "proc":
        return WorkerFabrics(size)
    return FABRICS[name](size)


IMPLS = sorted(FABRICS) + ["proc", "faulty-shm", "faulty-sock"]

#: hard per-loop bound: every receive loop in this suite must finish well
#: inside it on any healthy transport ("eventually" needs a wall deadline,
#: not faith)
DRAIN_TIMEOUT = 10.0


def _drain(ch, want, limit=None):
    """Receive until ``want`` packets arrive or the hard deadline hits."""
    got = []
    deadline = time.monotonic() + DRAIN_TIMEOUT
    while len(got) < want:
        chunk = ch.recv_packets(limit)
        got.extend(chunk)
        if not chunk and time.monotonic() > deadline:
            raise AssertionError(
                f"{ch.name}: {len(got)}/{want} packets after {DRAIN_TIMEOUT}s"
            )
    return got


@pytest.fixture(params=IMPLS)
def pair(request):
    fab = _fabric(request.param)
    c0 = fab.endpoint(0, WallClock(), CostModel())
    c1 = fab.endpoint(1, WallClock(), CostModel())
    yield fab, c0, c1
    fab.shutdown()


def _pkt(i=0, payload=b"x"):
    return Packet(ptype=EAGER, src=0, dst=1, tag=i, op_id=i, payload=payload)


class TestContract:
    def test_is_a_channel(self, pair):
        _, c0, _ = pair
        assert isinstance(c0, Channel)

    def test_per_source_fifo(self, pair):
        _, c0, c1 = pair
        for i in range(16):
            assert c0.send_packet(_pkt(i, payload=bytes([i])))
        got = _drain(c1, 16)
        assert [p.tag for p in got] == list(range(16))

    def test_partial_reads_preserve_order(self, pair):
        _, c0, c1 = pair
        for i in range(10):
            c0.send_packet(_pkt(i))
        got = _drain(c1, 10, limit=3)
        assert [p.tag for p in got] == list(range(10))

    def test_quiescent_after_drain(self, pair):
        _, c0, c1 = pair
        c0.send_packet(_pkt())
        _drain(c1, 1)
        # a drained endpoint reports nothing incoming and returns empty
        assert not c1.has_incoming()
        assert c1.recv_packets() == []

    def test_empty_recv_on_idle_endpoint(self, pair):
        _, _, c1 = pair
        assert c1.recv_packets() == []
        assert not c1.has_incoming()

    def test_counters_track_traffic(self, pair):
        _, c0, c1 = pair
        c0.send_packet(_pkt(payload=b"abcd"))
        _drain(c1, 1)
        assert c0.packets_sent == 1
        assert c0.bytes_sent == 4
        assert c1.packets_received == 1

    def test_finalize_idempotent(self, pair):
        fab, c0, _ = pair
        c0.finalize()
        c0.finalize()  # second teardown must be a no-op, not an error

    def test_fabric_shutdown_idempotent(self, pair):
        fab, _, _ = pair
        fab.shutdown()
        fab.shutdown()

    def test_endpoint_cached_per_rank(self, pair):
        fab, c0, _ = pair
        assert fab.endpoint(0, WallClock(), CostModel()) is c0


@pytest.mark.parametrize("impl", IMPLS)
def test_limit_bounds_one_poll_across_sources(impl):
    """``limit`` caps a whole poll, not each source: the device's
    ``MAX_PACKETS_PER_POLL`` must mean the same on every fabric."""
    fab = _fabric(impl, 3)
    c0, c1, c2 = (fab.endpoint(r, WallClock(), CostModel()) for r in range(3))
    try:
        for i in range(6):
            for src, ch in ((0, c0), (1, c1)):
                assert ch.send_packet(Packet(ptype=EAGER, src=src, dst=2, tag=i, op_id=i))
        first = c2.recv_packets(limit=8)
        second = c2.recv_packets(limit=8)
        assert (len(first), len(second)) == (8, 4)
        for src in (0, 1):
            assert [p.tag for p in first + second if p.src == src] == list(range(6))
    finally:
        fab.shutdown()


def _view_pkt(src_buf, tag=0):
    """A packet whose payload is a view of the sender's buffer."""
    return Packet(
        ptype=EAGER, src=0, dst=1, tag=tag, op_id=tag,
        payload=memoryview(src_buf),
    )


class TestViewPayloads:
    """Channels consume view payloads synchronously: send_packet is the
    wire crossing, so later mutation of the source buffer cannot reach
    the receiver."""

    def test_sender_mutation_after_send_is_invisible(self, pair):
        _, c0, c1 = pair
        src = bytearray(b"original")
        assert c0.send_packet(_view_pkt(src))
        src[:] = b"mutated!"  # the wire already crossed
        got = _drain(c1, 1)
        assert bytes(got[0].payload_mv()) == b"original"


class TestFaultCopyOnWrite:
    """Faults that materialize a payload must copy, never alias: the
    sender's latched buffer stays byte-identical through every fault."""

    def _faulty_pair(self, plan):
        fab = FaultyFabric(FABRICS["shm"](2), plan)
        c0 = fab.endpoint(0, WallClock(), CostModel())
        c1 = fab.endpoint(1, WallClock(), CostModel())
        return fab, c0, c1

    def test_corrupt_copies_on_write(self):
        plan = FaultPlan().force(0, 1, 0, "corrupt")
        fab, c0, c1 = self._faulty_pair(plan)
        src = bytearray(b"pristine-payload")
        assert c0.send_packet(_view_pkt(src))
        assert src == b"pristine-payload"  # the bit flipped in a copy
        assert c0.fault_stats["cow_bytes"] == len(src)
        src[:] = bytes(len(src))  # the sender reuses its buffer
        got = _drain(c1, 1)
        delivered = bytes(got[0].payload_mv())
        assert delivered != b"pristine-payload"
        diff = [a ^ b for a, b in zip(delivered, b"pristine-payload")]
        assert sum(bin(d).count("1") for d in diff) == 1  # exactly one bit
        fab.shutdown()

    def test_duplicate_copies_on_write(self):
        plan = FaultPlan().force(0, 1, 0, "duplicate")
        fab, c0, c1 = self._faulty_pair(plan)
        src = bytearray(b"dup-me")
        assert c0.send_packet(_view_pkt(src))
        assert c0.fault_stats["cow_bytes"] == len(src)
        src[:] = b"XXXXXX"
        got = _drain(c1, 2)
        assert all(bytes(p.payload_mv()) == b"dup-me" for p in got)
        fab.shutdown()

    def test_delay_freezes_the_view(self):
        plan = FaultPlan().force(0, 1, 0, "delay")
        plan.delay_polls = 2
        fab, c0, c1 = self._faulty_pair(plan)
        src = bytearray(b"held-payload")
        assert c0.send_packet(_view_pkt(src))
        assert c0.fault_stats["cow_bytes"] == len(src)  # frozen when parked
        src[:] = b"recycled!!!!"  # sender reuses the buffer while held
        got = []
        for _ in range(8):
            c0.recv_packets()  # the sender's own polls expire the hold
            got.extend(c1.recv_packets())
            if got:
                break
        assert bytes(got[0].payload_mv()) == b"held-payload"
        fab.shutdown()

    def test_drop_releases_the_lease(self):
        """A dropped send is done with the sender's buffer: reused at
        once, it carries only its new bytes on the next send."""
        plan = FaultPlan().force(0, 1, 0, "drop")
        fab, c0, c1 = self._faulty_pair(plan)
        src = bytearray(b"gone")
        assert c0.send_packet(_view_pkt(src))
        assert c0.fault_stats["cow_bytes"] == 0  # dropping never copies
        src[:] = b"next"
        assert c0.send_packet(_view_pkt(src, tag=1))
        src[:] = b"XXXX"
        got = _drain(c1, 1)
        assert [(p.tag, bytes(p.payload_mv())) for p in got] == [(1, b"next")]
        assert c1.recv_packets() == []
        fab.shutdown()


class TestAbc:
    def test_partial_port_fails_at_construction(self):
        class Halfway(Channel):
            def init(self, world_size):
                pass

            def send_packet(self, pkt):
                return True

            # recv_packets / has_incoming missing

        with pytest.raises(TypeError):
            Halfway(0, WallClock(), CostModel())

    def test_abstract_methods_are_declared(self):
        declared = Channel.__abstractmethods__
        assert {"init", "send_packet", "recv_packets", "has_incoming"} <= set(
            declared
        )
        assert isinstance(Channel, abc.ABCMeta)

    def test_stack_unwraps_to_concrete(self):
        fab = _fabric("faulty-shm")
        ch = fab.endpoint(0, WallClock(), CostModel())
        assert ch.name == "faulty"
        inner = ch.inner
        assert not hasattr(inner, "inner")
        assert inner.name == "shm"
        fab.shutdown()

    def test_empty_plan_wrapper_is_transparent(self):
        """FaultyChannel with no faults must behave as pure delegation."""
        fab = _fabric("faulty-sock")
        c0 = fab.endpoint(0, WallClock(), CostModel())
        c1 = fab.endpoint(1, WallClock(), CostModel())
        for i in range(8):
            c0.send_packet(_pkt(i))
        got = _drain(c1, 8)
        assert [p.tag for p in got] == list(range(8))
        assert c0.fault_log == []
        assert all(v == 0 for v in c0.fault_stats.values())
        fab.shutdown()


class TestRmaContract:
    """Capability negotiation is part of the port contract.

    A channel either implements the native one-sided surface (``shm``,
    ``ib``) or inherits the ABC defaults — an empty capability set and
    ``False`` from every fast-path entry.  Either way the calls must be
    graceful on every fabric: a miss means "fall
    back to the packet plane", never an exception.
    """

    def test_caps_well_formed(self, pair):
        _fab, c0, c1 = pair
        for ch in (c0, c1):
            caps = ch.rma_caps()
            assert isinstance(caps, frozenset)
            assert caps <= {"put", "get", "accumulate"}

    def test_ops_without_registration_never_raise(self, pair):
        """An unregistered window degrades the op, it does not fail."""
        _fab, c0, _ = pair
        buf = bytearray(8)
        assert c0.rma_put(99, 1, 0, memoryview(buf)) is False
        assert c0.rma_get(99, 1, 0, memoryview(buf)) is False
        assert c0.rma_accumulate(99, 1, 0, memoryview(buf), "int32") is False

    def test_register_deregister_idempotent(self, pair):
        from repro.mp.buffers import BufferDesc

        _fab, c0, _ = pair
        desc = BufferDesc.from_bytes(bytes(16))
        c0.rma_register(7, 0, desc)
        c0.rma_deregister(7, 0)
        c0.rma_deregister(7, 0)   # second withdrawal is a no-op
        c0.rma_deregister(42, 3)  # never-registered: also a no-op

    def test_native_path_reaches_registered_peer(self, pair):
        """Where caps exist, a registered peer window accepts direct ops."""
        from repro.mp.buffers import BufferDesc

        _fab, c0, c1 = pair
        if not c0.rma_caps():
            pytest.skip("channel has no native RMA surface")
        desc = BufferDesc.from_bytes(bytes(8))
        c1.rma_register(5, 1, desc)
        ok = c0.rma_put(5, 1, 0, memoryview(b"\x01\x02\x03\x04"))
        assert ok is True
        assert bytes(desc.view())[:4] == b"\x01\x02\x03\x04"
        c1.rma_deregister(5, 1)
        assert c0.rma_put(5, 1, 0, memoryview(b"\x05\x06")) is False

    def test_finalize_then_rma_calls_stay_graceful(self, pair):
        """Teardown ordering gap: late one-sided calls after finalize
        must degrade like any other miss, not explode."""
        _fab, c0, _ = pair
        c0.finalize()
        c0.finalize()  # idempotent, as elsewhere in the contract
        assert c0.rma_caps() <= {"put", "get", "accumulate"}
        assert c0.rma_put(1, 1, 0, memoryview(b"zz")) is False

    def test_finalize_idempotent_after_traffic(self, pair):
        """Idempotency must hold on a *used* endpoint, not just a fresh
        one: queues drained, leases released, then torn down twice."""
        _fab, c0, c1 = pair
        for i in range(4):
            c0.send_packet(_pkt(i))
        _drain(c1, 4)
        c1.finalize()
        c1.finalize()
        c0.finalize()
        c0.finalize()
