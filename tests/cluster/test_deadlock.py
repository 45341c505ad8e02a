"""The baton's deadlock verdict: sound where idle polls change nothing,
exact where every rank waits, and never louder than the error behind it.

Under the inproc baton a world without the reliability sublayer and
without a fault plan raises :class:`MpiErrDeadlock` once every hosted
rank is blocked in a wait, has done nothing since its last cede, and no
rank holds anything in flight.  These tests pin both halves: runs that
merely look idle for a while finish, and runs that cannot finish fail at
once, naming each rank's wait.
"""

import time

import pytest

from repro.cluster import World, mpiexec
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FaultPlan
from repro.mp.datatypes import INT
from repro.mp.errors import MpiErrDeadlock

CLOCKS = ["virtual"]


def ints(*vals):
    return BufferDesc.from_bytes(INT.pack_values(list(vals)))


def read_ints(buf):
    return list(INT.unpack_values(buf.tobytes()))


def _raises_at_once(exc, main, n=2, **kw):
    """Run ``main`` at a generous timeout; it must fail with ``exc`` within 1 s."""
    t0 = time.monotonic()
    with pytest.raises(exc) as info:
        mpiexec(n, main, timeout=60.0, **kw)
    assert time.monotonic() - t0 < 1.0
    return str(info.value)


# ------------------------------------------------------- no false verdict


@pytest.mark.parametrize("clock", CLOCKS)
class TestNoVerdict:
    def test_a_rank_missing_on_test_is_not_blocked(self, clock):
        """Rank 1 spins on ``test()`` ten times before it sends; rank 0
        waits in ``recv`` the whole while."""

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                buf = ints(0)
                eng.recv(buf, 1, 5)
                eng.send(ints(read_ints(buf)[0] + 1), 1, 6)
                return read_ints(buf)[0]
            reply = ints(0)
            req = eng.irecv(reply, 0, 6)
            misses = sum(not eng.test(req) for _ in range(10))
            eng.send(ints(41), 0, 5)
            eng.wait(req)
            return misses, read_ints(reply)[0]

        assert mpiexec(2, main, clock_mode=clock, timeout=60.0) == [41, (10, 42)]

    def test_a_rank_ceding_in_a_loop_is_not_blocked(self, clock):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                buf = ints(0)
                eng.recv(buf, 1, 5)
                return read_ints(buf)[0]
            for _ in range(10):
                eng.progress.cede()
            eng.send(ints(7), 0, 5)
            return None

        assert mpiexec(2, main, clock_mode=clock, timeout=60.0) == [7, None]

    def test_native_puts_alone_end_the_waits(self, clock):
        """A put ping-pong through window memory over shm, inside one
        fence epoch: each ``poll_until`` ends because the peer's native
        put landed in it.  No packet moves and no rank handles anything;
        the put's charge is the only sign of work."""
        rounds = 5

        def main(ctx):
            eng, peer = ctx.engine, 1 - ctx.rank
            buf = ints(0)
            win = eng.win_create(buf, dtype="int32")
            win.fence()
            for k in range(1, rounds + 1):
                if ctx.rank == 0:
                    win.put(ints(k), target=peer)
                eng.progress.poll_until(lambda: read_ints(buf)[0] == k, what=f"round {k}")
                if ctx.rank == 1:
                    win.put(ints(k), target=peer)
            win.fence()
            native = eng.device.stats["rma_native_ops"]
            win.free()
            return read_ints(buf)[0], native

        res = mpiexec(2, main, channel="shm", clock_mode=clock, timeout=60.0)
        assert res == [(rounds, rounds), (rounds, rounds)]


@pytest.mark.parametrize("reply", [True, False], ids=["sender-waits", "sender-returns"])
@pytest.mark.parametrize("channel", ["sock", "ssm"])
def test_an_eager_frame_larger_than_the_ring_streams(channel, reply):
    """A 512 KiB eager frame over a 256 KiB sock ring (ssm's between its
    two nodes): the sender pushes its backlog — in its wait, or in its
    exit drain — and a push charges nothing, while the receiver reads
    partial frames and handles nothing.  Neither is deadlocked."""
    nbytes = 512 * 1024
    dst = 1 if channel == "sock" else 2  # ssm: ranks 0, 1 | 2, 3 share a node

    def main(ctx):
        eng = ctx.engine
        if ctx.rank == 0:
            eng.send(BufferDesc.from_bytes(b"\x05" * nbytes), dst, 1)
            if reply:
                eng.recv(ints(0), dst, 2)
            return None
        if ctx.rank != dst:
            return None
        buf = BufferDesc.from_native(NativeMemory(nbytes))
        eng.recv(buf, 0, 1)
        if reply:
            eng.send(ints(1), 0, 2)
        return bytes(buf.view()) == b"\x05" * nbytes

    n = dst + 1
    res = mpiexec(n, main, channel=channel, eager_threshold=1024 * 1024, timeout=60.0)
    assert res[dst] is True


def test_a_reliable_world_waits_out_a_dropped_packet():
    """Every rank waits and the dropped packet is in nobody's channel,
    yet the retransmit timer, counted in polls, delivers it."""
    plan = FaultPlan(seed=1).force(0, 1, 0, "drop")

    def main(ctx):
        eng, peer = ctx.engine, 1 - ctx.rank
        buf = ints(0)
        if ctx.rank == 0:
            eng.send(ints(9), peer, 1)
            eng.recv(buf, peer, 2)
        else:
            eng.recv(buf, peer, 1)
            eng.send(buf, peer, 2)
        return read_ints(buf)[0], eng.device.rel.stats["retransmits"]

    res = mpiexec(2, main, fault_plan=plan, clock_mode="virtual",
                  reliability_opts=dict(retransmit_after=16, max_retries=10),
                  timeout=60.0)
    assert [v for v, _ in res] == [9, 9]
    assert res[0][1] >= 1


@pytest.mark.parametrize("opts", [
    dict(reliable=True),
    dict(fault_plan=FaultPlan(seed=1), reliable=False),
    dict(fault_plan=FaultPlan(seed=1)),
])
def test_the_verdict_is_off_where_idle_polls_change_state(opts):
    assert World(2, **opts).substrate.baton.deadlock is None
    assert World(2).substrate.baton.deadlock is MpiErrDeadlock


# ---------------------------------------------------------- exact verdict


@pytest.mark.parametrize("clock", CLOCKS)
class TestVerdict:
    def test_recv_recv_pair_is_named_at_once(self, clock):
        def main(ctx):
            ctx.engine.recv(ints(0), 1 - ctx.rank, 5)

        msg = _raises_at_once(MpiErrDeadlock, main, clock_mode=clock)
        assert msg == ("deadlock across 2 rank(s): rank 0 [Recv(src=1, tag=5)], "
                       "rank 1 [Recv(src=0, tag=5)]")

    def test_a_recv_from_a_returned_peer(self, clock):
        def main(ctx):
            if ctx.rank == 1:
                return "done"
            ctx.engine.recv(ints(0), 1, 5)

        msg = _raises_at_once(MpiErrDeadlock, main, clock_mode=clock)
        assert msg == "deadlock across 1 rank(s): rank 0 [Recv(src=1, tag=5)]"

    def test_a_condition_wait_is_named_by_its_description(self, clock):
        def main(ctx):
            ctx.engine.probe(1 - ctx.rank, 3)

        msg = _raises_at_once(MpiErrDeadlock, main, clock_mode=clock)
        assert "rank 0 [no message from 1 with tag 3]" in msg

    def test_the_root_cause_outranks_the_deadlock_it_caused(self, clock):
        """Rank 1 raises while rank 0 waits on it: the launch re-raises
        rank 1's error, not rank 0's verdict."""

        def main(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            ctx.engine.recv(ints(0), 1, 5)

        assert _raises_at_once(ValueError, main, clock_mode=clock) == "boom"
