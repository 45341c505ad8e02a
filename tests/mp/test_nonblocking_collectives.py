"""Nonblocking collectives: scheduled requests driven by the progress engine."""

import pytest

from repro.cluster import mpiexec
from repro.mp import collectives
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.datatypes import DOUBLE, INT
from repro.mp.errors import MpiErrCount, MpiErrRoot


def ints(*vals):
    import struct

    mem = NativeMemory(4 * len(vals))
    mem.view()[:] = struct.pack(f"<{len(vals)}i", *vals)
    return BufferDesc.from_native(mem)


def read_ints(buf):
    import struct

    return list(struct.unpack(f"<{buf.nbytes // 4}i", bytes(buf.view())))


class TestCompletion:
    def test_ibarrier_completes(self):
        def main(ctx):
            req = ctx.engine.ibarrier()
            ctx.engine.wait(req)
            return req.completed

        assert all(mpiexec(3, main))

    def test_ibcast_matches_bcast(self):
        def main(ctx):
            buf = ints(7, 8, 9) if ctx.rank == 0 else ints(0, 0, 0)
            req = ctx.engine.ibcast(buf, root=0)
            ctx.engine.wait(req)
            return read_ints(buf)

        assert mpiexec(3, main) == [[7, 8, 9]] * 3

    def test_ireduce_matches_reduce(self):
        def main(ctx):
            send = ints(ctx.rank + 1, 10)
            recv = ints(0, 0) if ctx.rank == 0 else None
            req = ctx.engine.ireduce(send, recv, INT, "sum", root=0)
            ctx.engine.wait(req)
            return read_ints(recv) if ctx.rank == 0 else None

        assert mpiexec(3, main)[0] == [6, 30]  # 1+2+3, 10*3

    def test_iallreduce_matches_allreduce(self):
        def main(ctx):
            send = ints(ctx.rank)
            recv = ints(0)
            req = ctx.engine.iallreduce(send, recv, INT, "max")
            ctx.engine.wait(req)
            return read_ints(recv)

        assert mpiexec(3, main) == [[2]] * 3

    def test_igather_and_iscatter(self):
        def main(ctx):
            eng, comm = ctx.engine, ctx.engine.comm_world
            n = comm.size
            recv = ints(0)
            sendall = ints(*range(10, 10 + n)) if ctx.rank == 0 else None
            r1 = collectives.iscatter(eng, comm, sendall, recv, 0)
            eng.wait(r1)
            got = read_ints(recv)[0]
            gath = ints(*([0] * n)) if ctx.rank == 1 else None
            r2 = collectives.igather(eng, comm, ints(got), gath, 1)
            eng.wait(r2)
            return read_ints(gath) if ctx.rank == 1 else None

        assert mpiexec(3, main)[1] == [10, 11, 12]

    def test_ialltoall_and_iallgather(self):
        def main(ctx):
            eng, comm = ctx.engine, ctx.engine.comm_world
            n = comm.size
            send = ints(*[ctx.rank * 10 + i for i in range(n)])
            recv = ints(*([0] * n))
            eng.wait(collectives.ialltoall(eng, comm, send, recv))
            transposed = read_ints(recv)
            out = ints(*([0] * n))
            eng.wait(collectives.iallgather(eng, comm, ints(transposed[0]), out))
            return transposed, read_ints(out)

        rows = mpiexec(3, main)
        assert rows[0][0] == [0, 10, 20]
        assert rows[1][0] == [1, 11, 21]
        assert all(r[1] == [0, 1, 2] for r in rows)

    def test_iscan(self):
        def main(ctx):
            eng, comm = ctx.engine, ctx.engine.comm_world
            recv = ints(0)
            eng.wait(collectives.iscan(eng, comm, ints(ctx.rank + 1), recv, INT))
            return read_ints(recv)[0]

        assert mpiexec(3, main) == [1, 3, 6]  # prefix sums


@pytest.mark.parametrize("progress", ["polled", "async"])
class TestOverlap:
    def test_computation_overlaps_ibcast(self, progress):
        """The point of nonblocking collectives: traffic progresses while
        the caller computes between test() polls."""

        def main(ctx):
            big = 256 * 1024  # rendezvous-sized payload
            mem = NativeMemory(big)
            if ctx.rank == 0:
                mem.view()[:] = b"\x5a" * big
            req = ctx.engine.ibcast(BufferDesc.from_native(mem), root=0)
            acc = 0
            spins = 0
            while not ctx.engine.test(req):
                acc += sum(range(32))  # the overlapped computation
                spins += 1
            assert req.completed
            if ctx.rank != 0:
                # receivers genuinely overlapped: completion took polls
                assert spins > 0
            return bytes(mem.view(0, 4))

        res = mpiexec(2, main, channel="sock", progress=progress)
        assert res == [b"\x5a\x5a\x5a\x5a"] * 2

    def test_two_collectives_in_flight(self, progress):
        """Two independent schedules progress concurrently."""

        def main(ctx):
            eng, comm = ctx.engine, ctx.engine.comm_world
            r1 = eng.ibarrier()
            recv = ints(0)
            r2 = eng.iallreduce(ints(ctx.rank + 1), recv, INT, "sum")
            eng.progress.wait_all([r1, r2])
            return read_ints(recv)[0]

        assert mpiexec(3, main, progress=progress) == [6, 6, 6]

    def test_wait_all_on_mixed_requests(self, progress):
        def main(ctx):
            eng = ctx.engine
            coll = eng.ibarrier()
            buf = BufferDesc.from_native(NativeMemory(8))
            if ctx.rank == 0:
                p2p = eng.isend(buf, 1, 5)
            else:
                p2p = eng.irecv(buf, 0, 5)
            eng.progress.wait_all([coll, p2p])
            return coll.completed and p2p.completed

        assert all(mpiexec(2, main, progress=progress))


class TestValidation:
    def test_errors_raise_at_call_site(self):
        """start_schedule advances once synchronously, so parameter
        checking fires before any wait."""

        def main(ctx):
            eng, comm = ctx.engine, ctx.engine.comm_world
            with pytest.raises(MpiErrRoot):
                eng.ibcast(ints(1), root=99)
            if ctx.rank == 0:
                # size checks are the root's to make; they fire on the
                # synchronous first step, before any wait
                with pytest.raises(MpiErrCount):
                    collectives.iscatter(eng, comm, ints(1, 2, 3), ints(1, 2), 0)
            # the failed schedules must not leave residue: a clean
            # barrier still completes
            eng.wait(eng.ibarrier())
            return True

        assert all(mpiexec(2, main))

    def test_single_rank_completes_inline(self):
        def main(ctx):
            req = ctx.engine.ibarrier()
            assert req.completed  # nothing to exchange; never registered
            recv = ints(0)
            r2 = ctx.engine.iallreduce(ints(5), recv, INT, "sum")
            assert r2.completed
            return read_ints(recv)

        assert mpiexec(1, main) == [[5]]

    def test_double_precision_ireduce(self):
        import struct

        def main(ctx):
            mem = NativeMemory(8)
            mem.view()[:] = struct.pack("<d", float(ctx.rank + 1))
            out = NativeMemory(8)
            req = ctx.engine.ireduce(
                BufferDesc.from_native(mem),
                BufferDesc.from_native(out) if ctx.rank == 0 else None,
                DOUBLE,
                "prod",
                root=0,
            )
            ctx.engine.wait(req)
            if ctx.rank == 0:
                return struct.unpack("<d", bytes(out.view()))[0]
            return None

        assert mpiexec(3, main)[0] == 6.0  # 1*2*3
