"""sendrecv, scan and the ib channel (the future-work port)."""

import pytest

from repro.cluster import mpiexec
from repro.mp import collectives
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FABRICS, MemFabric
from repro.mp.datatypes import DOUBLE, INT
from repro.simtime import LINK_PROFILES


class TestSendrecv:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_ring_shift_no_deadlock(self, n):
        """Every rank sends right and receives left simultaneously — the
        pattern that deadlocks with naive blocking sends."""

        def main(ctx):
            eng = ctx.engine
            me = ctx.rank
            sb = BufferDesc.from_bytes(INT.pack_values([me * 7]))
            rb = BufferDesc.from_native(NativeMemory(4))
            st = collectives.sendrecv(
                eng, eng.comm_world, sb, (me + 1) % n, rb, (me - 1) % n
            )
            return (INT.unpack_values(rb.tobytes())[0], st.count)

        results = mpiexec(n, main)
        for me, (val, count) in enumerate(results):
            assert val == ((me - 1) % n) * 7
            assert count == 4

    def test_self_exchange(self):
        def main(ctx):
            eng = ctx.engine
            sb = BufferDesc.from_bytes(b"self")
            rb = BufferDesc.from_native(NativeMemory(4))
            collectives.sendrecv(eng, eng.comm_world, sb, ctx.rank, rb, ctx.rank)
            return rb.tobytes()

        assert mpiexec(2, main) == [b"self", b"self"]

    def test_user_tags(self):
        def main(ctx):
            eng = ctx.engine
            peer = 1 - ctx.rank
            sb = BufferDesc.from_bytes(bytes([ctx.rank + 1]))
            rb = BufferDesc.from_native(NativeMemory(1))
            collectives.sendrecv(
                eng, eng.comm_world, sb, peer, rb, peer, sendtag=9, recvtag=9
            )
            return rb.tobytes()[0]

        assert mpiexec(2, main) == [2, 1]


class TestScan:
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_inclusive_prefix_sum(self, n):
        def main(ctx):
            eng = ctx.engine
            sb = BufferDesc.from_bytes(INT.pack_values([ctx.rank + 1]))
            rb = BufferDesc.from_native(NativeMemory(4))
            collectives.scan(eng, eng.comm_world, sb, rb, INT, "sum")
            return INT.unpack_values(rb.tobytes())[0]

        results = mpiexec(n, main)
        assert results == [sum(range(1, r + 2)) for r in range(n)]

    def test_scan_max(self):
        def main(ctx):
            eng = ctx.engine
            vals = [3.0, 1.0, 7.0, 2.0]
            sb = BufferDesc.from_bytes(DOUBLE.pack_values([vals[ctx.rank]]))
            rb = BufferDesc.from_native(NativeMemory(8))
            collectives.scan(eng, eng.comm_world, sb, rb, DOUBLE, "max")
            return DOUBLE.unpack_values(rb.tobytes())[0]

        assert mpiexec(4, main) == [3.0, 3.0, 7.0, 7.0]


class TestIbChannel:
    def test_registered_in_fabrics(self):
        fab = FABRICS["ib"](2)
        assert isinstance(fab, MemFabric) and fab.links.rows == (LINK_PROFILES["ib"],)

    def test_pingpong_over_ib(self):
        def main(ctx):
            eng = ctx.engine
            buf = NativeMemory(64)
            if ctx.rank == 0:
                buf.mem[:3] = b"rdma"[:3]
                eng.send(BufferDesc.from_native(buf), 1, 1)
            else:
                eng.recv(BufferDesc.from_native(buf), 0, 1)
                return bytes(buf.mem[:3])

        assert mpiexec(2, main, channel="ib")[1] == b"rdm"

    def test_rendezvous_over_ib(self):
        size = 256 * 1024

        def main(ctx):
            eng = ctx.engine
            buf = NativeMemory(size)
            if ctx.rank == 0:
                buf.mem[-1] = 0x7F
                eng.send(BufferDesc.from_native(buf), 1, 1)
            else:
                eng.recv(BufferDesc.from_native(buf), 0, 1)
                return buf.mem[-1]

        assert mpiexec(2, main, channel="ib")[1] == 0x7F

    def test_lower_latency_than_sock(self):
        """The whole point of the port: same stack, faster interconnect."""
        from repro.workloads.pingpong import sweep_buffer_pingpong

        quick = dict(iterations=6, timed=3, runs=1)
        sock = sweep_buffer_pingpong("cpp", sizes=[4, 65536], channel="sock", **quick)
        ib = sweep_buffer_pingpong("cpp", sizes=[4, 65536], channel="ib", **quick)
        assert ib[4] < sock[4] * 0.5
        assert ib[65536] < sock[65536] * 0.5

    def test_registration_cache(self):
        from repro.mp.packets import EAGER, Packet
        from repro.simtime import CostModel, VirtualClock

        fab = FABRICS["ib"](2)
        clock = VirtualClock()
        ch = fab.endpoint(0, clock, CostModel())
        big = b"x" * 32768
        ch.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=big))
        regs_after_first = ch.registrations
        ch.send_packet(Packet(ptype=EAGER, src=0, dst=1, payload=big))
        assert ch.registrations == regs_after_first  # cache hit
        assert regs_after_first == 1

    def test_motor_runs_unmodified_over_ib(self):
        """Nothing above the channel changes (paper §9's portability claim)."""
        from repro.motor import motor_session

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("int32", 4, values=[1, 2, 3, 4] if comm.Rank == 0 else None)
            comm.Bcast(arr, 0)
            return [arr[i] for i in range(4)]

        res = mpiexec(2, main, channel="ib", session_factory=motor_session)
        assert res == [[1, 2, 3, 4], [1, 2, 3, 4]]
