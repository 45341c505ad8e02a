"""Rendezvous by grant: on a channel that can put (``shm``, ``ib``) the CTS
names the receiver's latched buffer and the payload lands with one direct
write.  Every exit closes the grant; every shape of receive gets the bytes
the DATA stream would have delivered."""

import functools
import struct

import pytest

from repro.cluster import mpiexec
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.ch3 import CH3Device
from repro.mp.channels import FABRICS, FaultPlan, FaultyFabric
from repro.mp.datatypes import INT
from repro.mp.packets import CTS, FIN
from repro.mp.reliability import PROC_FAILED
from repro.mp.request import RECV, SEND, Request
from repro.simtime import CostModel, VirtualClock

LARGE = 256 * 1024


@functools.lru_cache(maxsize=None)
def pattern(n, salt=0):
    return bytes((i * 13 + salt) % 251 for i in range(n))


def grants(channel):
    """What the fabric's registry still exposes (grant ids are negative);
    nothing, ever, on a channel without one."""
    registry = getattr(channel, "_windows", None)
    return dict(registry._map) if registry is not None else {}


def lockstep(name="shm", **dev_kw):
    """Two devices on one fabric, polled by hand: no threads, no baton."""
    fab, cm = FABRICS[name](2), CostModel()
    devs = []
    for rank in (0, 1):
        clock = VirtualClock()
        devs.append(CH3Device(rank, fab.endpoint(rank, clock, cm), clock, cm, **dev_kw))
    return devs[0], devs[1]


def start(d0, d1, payload, cap):
    """Post the receive, send the RTS, let rank 1 match: the grant is open."""
    rreq = Request(RECV, BufferDesc.from_native(NativeMemory(cap)), 0, 1, 0, cap)
    d1.post_recv(rreq)
    sreq = Request(SEND, BufferDesc.from_bytes(payload), 1, 1, 0, len(payload))
    d0.start_send(sreq, 1)
    assert d1.poll() == 1 and rreq.started and not rreq.completed
    return sreq, rreq


class TestNegotiation:
    @pytest.mark.parametrize("name,granted", [
        ("shm", True), ("ib", True), ("sock", False), ("ssm", False),
    ])
    def test_only_the_in_memory_links_grant(self, name, granted):
        fab = FABRICS[name](2)
        try:
            ch = fab.endpoint(0, VirtualClock(), CostModel())
            assert ("grant" in ch.rndv_caps()) is granted
            assert CH3Device(0, ch, ch.clock, ch.costs)._grant is granted
        finally:
            fab.shutdown()

    def test_a_fault_wrapper_keeps_the_payload_on_the_wire(self):
        """The fault rule: windows reach through the wrapper, messages do
        not — a rendezvous under a plan is RTS/CTS/DATA even over shm."""
        fab = FaultyFabric(FABRICS["shm"](2), FaultPlan())
        cm = CostModel()
        chans = [fab.endpoint(r, VirtualClock(), cm) for r in (0, 1)]
        assert "put" in chans[0].rma_caps() and not chans[0].rndv_caps()
        d0, d1 = (CH3Device(r, chans[r], chans[r].clock, cm) for r in (0, 1))
        payload = pattern(LARGE)
        sreq, rreq = start(d0, d1, payload, LARGE)
        assert not grants(chans[1].inner)
        while not (sreq.completed and rreq.completed):
            d0.poll()
            d1.poll()
        assert rreq.buf.tobytes() == payload
        assert d1.stats["bytes_copied"] == LARGE  # the DATA landing copy
        assert chans[0].packets_sent == 1 + LARGE // cm.packet_size


class TestEveryExitClosesTheGrant:
    def test_hundred_round_trips_leave_the_registry_empty(self):
        def main(ctx):
            eng, peer = ctx.engine, 1 - ctx.rank
            out = pattern(LARGE, ctx.rank)
            for _ in range(100):
                buf = BufferDesc.from_native(NativeMemory(LARGE))
                if ctx.rank == 0:
                    eng.send(BufferDesc.from_bytes(out), peer, 3)
                    eng.recv(buf, peer, 3)
                else:
                    eng.recv(buf, peer, 3)
                    eng.send(BufferDesc.from_bytes(out), peer, 3)
                assert buf.tobytes() == pattern(LARGE, peer)
            eng.barrier()
            return grants(eng.device.channel), eng.device.quiescent

        assert mpiexec(2, main, channel="shm") == [({}, True)] * 2

    def test_sender_dies_between_cts_and_landing(self):
        d0, d1 = lockstep()
        sreq, rreq = start(d0, d1, pattern(LARGE), LARGE)
        assert list(grants(d1.channel)) == [(-rreq.op_id, 1)]
        assert not d1.quiescent
        d1._peer_failed(0)
        assert grants(d1.channel) == {}
        assert rreq.status.error == PROC_FAILED and d1.quiescent
        # the sender was only slow: its CTS finds the grant withdrawn, the
        # send fails, and not one byte is written into the receiver
        d0.poll()
        assert sreq.status.error == PROC_FAILED and d0.quiescent
        assert rreq.buf.tobytes() == bytes(LARGE)

    def test_receiver_dies_between_cts_and_landing(self):
        d0, d1 = lockstep()
        sreq, _rreq = start(d0, d1, pattern(LARGE), LARGE)
        d0._peer_failed(1)
        assert sreq.status.error == PROC_FAILED and d0.quiescent
        d1.channel.finalize()  # the dead rank's endpoint closes: so does its grant
        assert grants(d0.channel) == {}

    def test_truncation_writes_exactly_the_buffer(self):
        size, cap = 200 * 1024, 64 * 1024
        d0, d1 = lockstep()
        region = NativeMemory(cap + 64)
        region.mem[cap:] = b"\xaa" * 64  # canary after the buffer
        rreq = Request(RECV, BufferDesc.from_native(region, 0, cap), 0, 1, 0, cap)
        d1.post_recv(rreq)
        payload = pattern(size)
        sreq = Request(SEND, BufferDesc.from_bytes(payload), 1, 1, 0, size)
        d0.start_send(sreq, 1)
        d1.poll(), d0.poll(), d1.poll()
        assert sreq.completed and rreq.completed
        assert rreq.status.error == "MPI_ERR_TRUNCATE" and rreq.status.count == cap
        assert bytes(region.mem[:cap]) == payload[:cap]
        assert bytes(region.mem[cap:]) == b"\xaa" * 64
        # the tail never left the sender: one put of ``cap`` bytes, and the
        # three packets (RTS, CTS, FIN) carried no payload at all
        assert d0.channel.rma_bytes == cap
        assert d0.channel.bytes_sent == d1.channel.bytes_sent == 0
        assert d1.stats["bytes_moved"] == cap and d1.stats["bytes_copied"] == 0
        assert grants(d1.channel) == {} and d0.quiescent and d1.quiescent


class TestWhatCrossesTheWire:
    def test_the_cts_names_the_grant_and_the_fin_points_back(self):
        d0, d1 = lockstep()
        seen = []
        for dev in (d0, d1):
            send = dev.channel.send_packet
            dev.channel.send_packet = lambda p, send=send: seen.append(p) or send(p)
        _sreq, rreq = start(d0, d1, pattern(LARGE), LARGE)
        d0.poll(), d1.poll()
        cts, fin = seen[1], seen[2]
        assert [p.ptype for p in seen[1:]] == [CTS, FIN]
        assert (cts.tag, cts.total, cts.src) == (-rreq.op_id, LARGE, 1)
        assert (fin.tag, fin.total, fin.src, fin.op_id) == (cts.tag, LARGE, 0, cts.op_id)
        assert rreq.buf.tobytes() == pattern(LARGE)

    def test_round_trip_counts_under_the_baton(self):
        """The numbers ``pp_large`` reports: 36 packets became 6."""

        def main(ctx):
            eng, peer = ctx.engine, 1 - ctx.rank
            ch = eng.device.channel
            out = BufferDesc.from_bytes(pattern(LARGE, ctx.rank))
            buf = BufferDesc.from_native(NativeMemory(LARGE))

            def trip():
                if ctx.rank == 0:
                    eng.send(out, peer, 3)
                    eng.recv(buf, peer, 3)
                else:
                    eng.recv(buf, peer, 3)
                    eng.send(out, peer, 3)

            trip()  # warm: the first trip's polls depend on who boots first
            trip()
            before = (ch.packets_sent + ch.packets_received, eng.progress.polls,
                      dict(eng.device.stats))
            trip()
            stats = {k: v - before[2][k] for k, v in eng.device.stats.items()}
            return (ch.packets_sent + ch.packets_received - before[0],
                    eng.progress.polls - before[1], stats, buf.tobytes())

        res = mpiexec(2, main, channel="shm", clock_mode="virtual")
        assert [r[0] for r in res] == [6, 6]
        assert [r[1] for r in res] == [6, 6]
        assert sum(r[2]["rndv"] for r in res) == 2
        assert sum(r[2]["bytes_moved"] for r in res) == 2 * 262_144
        assert sum(r[2]["bytes_copied"] for r in res) == 0
        assert sum(r[2]["rma_native_ops"] for r in res) == 0  # windows only
        assert [r[3] for r in res] == [pattern(LARGE, 1), pattern(LARGE, 0)]


def _same_on_both_planes(main, n, **kw):
    """Run on the grant plane and on the DATA plane: payloads must agree."""
    granted = mpiexec(n, main, channel="shm", **kw)
    streamed = mpiexec(n, main, channel="sock", **kw)
    assert granted == streamed
    return granted


class TestEveryShapeOfReceive:
    def test_ssend(self):
        def main(ctx):
            if ctx.rank == 0:
                ctx.engine.ssend(BufferDesc.from_bytes(pattern(LARGE)), 1, 2)
                return None
            buf = NativeMemory(LARGE)
            ctx.engine.recv(BufferDesc.from_native(buf), 0, 2)
            return buf.tobytes()

        assert _same_on_both_planes(main, 2)[1] == pattern(LARGE)

    def test_rts_arrives_before_the_receive_is_posted(self):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                req = eng.isend(BufferDesc.from_bytes(pattern(LARGE)), 1, 2)
                eng.barrier()
                eng.wait(req)
                return None
            eng.barrier()  # the RTS is queued as unexpected by now
            unexpected = eng.device.stats["unexpected"]
            buf = NativeMemory(LARGE)
            eng.recv(BufferDesc.from_native(buf), 0, 2)
            return unexpected, buf.tobytes()

        assert _same_on_both_planes(main, 2)[1] == (1, pattern(LARGE))

    def test_any_source(self):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank:
                eng.send(BufferDesc.from_bytes(pattern(LARGE, ctx.rank)), 0, 4)
                return None
            got = {}
            for _ in (1, 2):
                buf = NativeMemory(LARGE)
                st = eng.recv(BufferDesc.from_native(buf), -1, 4)
                got[st.source] = buf.tobytes()
            return got

        assert _same_on_both_planes(main, 3)[0] == {1: pattern(LARGE, 1), 2: pattern(LARGE, 2)}

    def test_large_ibcast_and_iallreduce_over_four_ranks(self):
        n_ints = 512 * 1024 // 4

        def main(ctx):
            eng = ctx.engine
            bc = NativeMemory(pattern(4 * n_ints, 9) if ctx.rank == 2 else 4 * n_ints)
            eng.wait(eng.ibcast(BufferDesc.from_native(bc), root=2))
            mine = NativeMemory(struct.pack(f"<{n_ints}i", *range(ctx.rank, ctx.rank + n_ints)))
            total = NativeMemory(4 * n_ints)
            eng.wait(eng.iallreduce(BufferDesc.from_native(mine),
                                    BufferDesc.from_native(total), INT, "sum"))
            eng.barrier()
            return bc.tobytes(), total.tobytes(), grants(eng.device.channel)

        res = _same_on_both_planes(main, 4)
        want = struct.pack(f"<{n_ints}i", *(4 * i + 6 for i in range(n_ints)))
        assert all(r == (pattern(4 * n_ints, 9), want, {}) for r in res)

    def test_spawned_rank(self):
        """A rank added with ``MemFabric.add_rank`` grants like a boot rank."""

        def child(cctx):
            buf = NativeMemory(LARGE)
            cctx.engine.recv(BufferDesc.from_native(buf), 0, 1, cctx.parent_comm)
            cctx.engine.send(BufferDesc.from_native(buf), 0, 2, cctx.parent_comm)
            return cctx.engine.device.stats["bytes_copied"]

        def main(ctx):
            inter = ctx.world.spawn(ctx, child, 1)
            ctx.engine.send(BufferDesc.from_bytes(pattern(LARGE, 5)), 0, 1, inter)
            buf = NativeMemory(LARGE)
            ctx.engine.recv(BufferDesc.from_native(buf), 0, 2, inter)
            return buf.tobytes(), ctx.engine.device.stats["bytes_copied"]

        assert mpiexec(1, main, channel="shm") == [(pattern(LARGE, 5), 0)]

    def test_async_progress(self):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                eng.wait(eng.isend(BufferDesc.from_bytes(pattern(LARGE)), 1, 2))
                return None
            buf = NativeMemory(LARGE)
            req = eng.irecv(BufferDesc.from_native(buf), 0, 2)
            for _ in range(20_000):
                if req.completed:
                    break
                ctx.clock.charge(5_000.0)  # compute only: the task progresses
                eng.progress.cede()
            assert req.completed
            return buf.tobytes(), eng.device.stats["bytes_copied"]

        res = mpiexec(2, main, channel="shm", clock_mode="virtual", progress="async")
        assert res[1] == (pattern(LARGE), 0)
