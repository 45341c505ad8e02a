"""The baton: one inproc rank thread runs at a time, chosen from
simulation state alone.

Covers what the scheduler (:class:`repro.simtime.sched.Baton`, owned by
``InprocSubstrate``) promises: the same run gives the same modelled
numbers and poll counts every time; a rank whose clock is far ahead is
not starved by two ranks waiting on it; every way a rank thread can end
passes the baton on; spawned children and replacements run under it; and
engines nobody hosts still cede through the operating system.
"""

import threading

import pytest

from repro.cluster import World, mpiexec
from repro.mp import MpiEngine, collectives, recovery
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FABRICS, FaultPlan
from repro.mp.communicator import ERRORS_RETURN
from repro.mp.datatypes import INT
from repro.mp.errors import MpiErrProcFailed
from repro.simtime import Baton, CostModel, VirtualClock, WallClock
from repro.workloads.halo import HaloExchange

OPTS = dict(retransmit_after=16, max_retries=10, heartbeat_after=128)


def ints(*vals):
    return BufferDesc.from_bytes(INT.pack_values(list(vals)))


def read_ints(buf):
    return list(INT.unpack_values(buf.tobytes()))


def baton_of(ctx) -> Baton:
    return ctx.world.substrate.baton


def fingerprint(ctx) -> tuple:
    """Everything modelled or counted that one rank ends a run with."""
    assert baton_of(ctx).holder == ctx.rank  # whoever runs holds the baton
    eng = ctx.engine
    out = (ctx.clock.now(), ctx.clock.charges, eng.progress.polls,
           dict(eng.device.stats))
    if eng.device.rel is not None:
        out += (eng.device.rel.stats["retransmits"],)
    return out


# ------------------------------------------------- same run, same numbers


def _mix_main(ctx):
    """ibcast + iallreduce in flight over a ring of point-to-point."""
    eng, me, n = ctx.engine, ctx.rank, ctx.size
    bbuf = ints(*range(512)) if me == 0 else ints(*([0] * 512))
    breq = eng.ibcast(bbuf, root=0)
    recv = ints(0)
    areq = eng.iallreduce(ints(me + 1), recv, INT, "sum")
    ring = ints(0)
    rreq = eng.irecv(ring, source=(me - 1) % n, tag=3)
    ctx.clock.charge(1_000.0 * (me + 1))  # ranks drift apart
    eng.send(ints(me * 11), (me + 1) % n, 3)
    eng.wait_all([breq, areq, rreq])
    result = (read_ints(bbuf)[-1], read_ints(recv), read_ints(ring))
    return result, fingerprint(ctx)


def _halo_main(ctx):
    result = HaloExchange(rows=4, cols=256, iterations=2)(ctx)
    return result, fingerprint(ctx)


def _lossy_pingpong_main(ctx):
    eng, peer = ctx.engine, 1 - ctx.rank
    buf = ints(0)
    for i in range(150):
        if ctx.rank == 0:
            eng.send(ints(i), peer, 1)
            eng.recv(buf, peer, 2)
        else:
            eng.recv(buf, peer, 1)
            eng.send(buf, peer, 2)
    return read_ints(buf), fingerprint(ctx)


class TestSameRunSameNumbers:
    """Clock, charge count, poll count and device stats of every rank are
    equal across two runs — each of these differs run to run under an OS
    yield, where the run queue decides who polls when."""

    def test_collectives_and_pt2pt_mix(self):
        def run():
            return mpiexec(4, _mix_main, channel="shm", clock_mode="virtual")

        first = run()
        assert [r for r, _ in first] == [
            (511, [10], [((me - 1) % 4) * 11]) for me in range(4)
        ]
        assert run() == first

    def test_halo_exchange(self):
        def run():
            return mpiexec(2, _halo_main, channel="shm", clock_mode="virtual")

        assert run() == run()

    def test_reliable_pingpong_on_a_lossy_wire(self):
        def run():
            return mpiexec(2, _lossy_pingpong_main, channel="sock",
                           clock_mode="virtual",
                           fault_plan=FaultPlan(seed=4, drop=0.05))

        first = run()
        assert first[0][0] == [149]
        assert first[0][1][-1] > 0  # the wire did drop, and it was repaired
        assert run() == first


# ----------------------------------------------------------- no starvation


class TestNoStarvation:
    def test_two_waiters_cannot_starve_a_rank_far_ahead(self):
        """Ranks 0 and 1 wait on rank 2, whose clock is a second ahead and
        which must be picked several times to stream a rendezvous to each:
        lowest-clock-first alone would alternate 0 and 1 forever."""
        nbytes = 64 * 1024

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 2:
                ctx.clock.charge(1e9)
                eng.progress.cede()  # the waiters run first, and find nothing
                payload = BufferDesc.from_bytes(b"\x07" * nbytes)
                eng.wait_all([eng.isend(payload, dst, 5) for dst in (0, 1)])
                return baton_of(ctx).handoffs
            buf = BufferDesc.from_native(NativeMemory(nbytes))
            eng.recv(buf, 2, 5)
            assert ctx.clock.now() >= 1e9  # the match carried rank 2's time
            return bytes(buf.view()) == b"\x07" * nbytes

        res = mpiexec(3, main, channel="shm", clock_mode="virtual",
                      eager_threshold=1024, timeout=30.0)
        assert res[:2] == [True, True]
        assert res[2] < 200, res[2]


# -------------------------------------------------------- leaving hands on


class TestLeavingHandsOn:
    def test_return_and_raise_both_pass_the_baton(self):
        world = World(3, clock_mode="virtual")

        def main(ctx):
            if ctx.rank == 0:
                return "early"
            if ctx.rank == 1:
                raise ValueError("boom from rank 1")
            # outlives both: would park forever if either kept the baton
            for _ in range(5):
                ctx.engine.progress.cede()
            return "late"

        with pytest.raises(ValueError, match="boom from rank 1"):
            world.launch(3, main, timeout=30.0)
        baton = world.substrate.baton
        assert baton.ranks == frozenset() and baton.holder is None

    def test_a_rank_killed_by_the_fault_plan_passes_the_baton(self):
        plan = FaultPlan(seed=2)
        world = World(3, channel="shm", clock_mode="virtual", fault_plan=plan,
                      reliability_opts=OPTS)

        def main(ctx):
            eng = ctx.engine
            eng.comm_world.set_errhandler(ERRORS_RETURN)
            if ctx.rank == 2:
                plan.kill(2)
                return "crashed"
            peer = 1 - ctx.rank
            buf = ints(0)
            if ctx.rank == 0:
                eng.send(ints(41), peer, 1)
                eng.recv(buf, peer, 2)
            else:
                eng.recv(buf, peer, 1)
                eng.send(ints(read_ints(buf)[0] + 1), peer, 2)
            with pytest.raises(MpiErrProcFailed):
                eng.recv(ints(0), 2, 9)  # the dead rank is detected, not waited for
            return read_ints(buf)

        assert world.launch(3, main, timeout=60.0) == [[42], [41], "crashed"]
        assert sum(world.quiesce_expired.values()) == 0
        baton = world.substrate.baton
        assert baton.ranks == frozenset() and baton.holder is None


# ------------------------------------------------------------- exit drain

STREAM = 512 * 1024  # twice the sock ring: the sender's last DATA backs up


def _stream_main(ctx):
    """Each pair 2k -> 2k+1 moves one rendezvous stream and returns."""
    eng = ctx.engine
    if ctx.rank % 2 == 0:
        eng.send(BufferDesc.from_bytes(bytes(STREAM)), ctx.rank + 1, 1)
    else:
        eng.recv(BufferDesc.from_native(NativeMemory(STREAM)), ctx.rank - 1, 1)
    return ctx.clock.now()


def _unreceived_main(ctx):
    """Rank 0's eager frame outgrows the ring; rank 1 never receives it."""
    if ctx.rank == 0:
        ctx.engine.send(BufferDesc.from_bytes(bytes(STREAM)), 1, 1)
        return ctx.engine.device.channel.owes()
    for _ in range(5):  # still running when rank 0's drain starts
        ctx.engine.progress.cede()
    return None


class TestExitDrain:
    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_every_pair_finishes_with_the_two_rank_clocks(self, pairs, ring_threads):
        """On the rings a sender's main returns with its stream's tail in the
        backlog; its exit drain pushes it, so the receiver is not stranded.
        The queue under ``channel="sock"`` ends on the same clocks."""
        for substrate in (ring_threads, "inproc"):
            clocks = mpiexec(2 * pairs, _stream_main, channel="sock",
                             substrate=substrate, timeout=60.0)
            assert clocks == [103200.0, 5109436.0] * pairs

    def test_an_unreceived_stream_does_not_hold_the_drain(self, ring_threads):
        """What is owed to a rank whose main has returned is owed to nobody:
        the drain ends when the peer retires, not at its timeout."""
        world = World(2, substrate=ring_threads, eager_threshold=2 * STREAM)
        assert world.launch(2, _unreceived_main, timeout=60.0) == [True, None]
        assert sum(world.quiesce_expired.values()) == 0


# ------------------------------------------------------------ late joiners


class TestLateJoiners:
    def test_spawned_children_run_under_the_baton(self):
        def child_main(ctx):
            baton = baton_of(ctx)
            assert ctx.rank in baton.ranks and baton.holder == ctx.rank
            buf = ints(0)
            ctx.engine.recv(buf, 0, 1, ctx.parent_comm)
            assert baton.holder == ctx.rank
            ctx.engine.send(ints(read_ints(buf)[0] * 2), 0, 2, ctx.parent_comm)
            return sorted(baton.ranks)

        def parent_main(ctx):
            inter = ctx.world.spawn(ctx, child_main, 2)
            if ctx.rank != 0:
                return None
            assert {2, 3} <= baton_of(ctx).ranks
            out = []
            for child in range(2):
                ctx.engine.send(ints(21 + child), child, 1, inter)
            for child in range(2):
                buf = ints(0)
                ctx.engine.recv(buf, child, 2, inter)
                out.append(read_ints(buf)[0])
            return out

        world = World(2, clock_mode="virtual")
        assert world.launch(2, parent_main, timeout=30.0)[0] == [42, 44]
        assert world.substrate.baton.ranks == frozenset()

    def test_a_replacement_runs_under_the_baton(self):
        plan = FaultPlan(seed=5)
        seated = []

        def allreduce(eng, comm, value):
            recv = ints(0)
            collectives.allreduce(eng, comm, ints(value), recv, INT)
            return read_ints(recv)[0]

        def replacement_main(ctx):
            baton = baton_of(ctx)
            seated.append((ctx.rank, ctx.rank in baton.ranks,
                           baton.holder == ctx.rank))
            state = recovery.replacement_entry(ctx)
            ctx.comm_world.set_errhandler(ERRORS_RETURN)
            return allreduce(ctx.engine, ctx.comm_world, state["v"])

        def main(ctx):
            eng, comm = ctx.engine, ctx.engine.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            comm.checkpoint({"v": ctx.rank + 10})
            if ctx.rank == 2:
                plan.kill(2)
                return "crashed"
            with pytest.raises(MpiErrProcFailed):
                eng.recv(ints(0), 2, 7)
            full = recovery.recover(ctx, comm, replacement_main)
            return allreduce(eng, full, eng.recovery.restore(full)["v"])

        res = mpiexec(3, main, channel="shm", clock_mode="virtual",
                      fault_plan=plan, reliability_opts=OPTS, timeout=60.0)
        assert res == [33, 33, "crashed"]  # 10 + 11 + the restored 12
        assert seated == [(3, True, True)]


# --------------------------------------------------------- unhosted engines


class TestUnhostedEngines:
    def test_directly_built_engines_pingpong_through_the_os_yield(self):
        fab, cm = FABRICS["shm"](2), CostModel()
        trips = 50

        def mk(rank):
            clock = WallClock()
            return MpiEngine(rank, 2, fab.endpoint(rank, clock, cm),
                             clock=clock, costs=cm)

        engines = [mk(0), mk(1)]
        assert all(e.progress.hand_off is None for e in engines)
        got = {}

        def run(eng):
            peer, buf = 1 - eng.rank, ints(0)
            for i in range(trips):
                if eng.rank == 0:
                    eng.send(ints(i), peer, 1)
                    eng.recv(buf, peer, 2)
                else:
                    eng.recv(buf, peer, 1)
                    eng.send(buf, peer, 2)
            got[eng.rank] = read_ints(buf)

        threads = [threading.Thread(target=run, args=(e,), daemon=True)
                   for e in engines]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        assert got == {0: [trips - 1], 1: [trips - 1]}


# ------------------------------------------------------ the scheduler itself


class TestPick:
    """The pick rule on a bare Baton (no threads: ``_pick`` only reads)."""

    def _baton(self, clocks):
        baton = Baton()
        for rank, now in enumerate(clocks):
            baton.join(rank, VirtualClock(now), lambda: 0, lambda: None, lambda: False)
        return baton

    def test_lowest_clock_then_lowest_rank(self):
        baton = self._baton([50.0, 30.0, 30.0, 10.0])
        seats = baton._seats
        assert baton._pick(seats[3]).rank == 1
        assert baton._pick(seats[1]).rank == 3

    def test_stale_ranks_are_passed_over_until_all_are(self):
        baton = self._baton([0.0, 10.0, 20.0, 30.0])
        seats = baton._seats
        baton._stale.update({1})
        assert baton._pick(seats[0]).rank == 2
        baton._stale.update({2, 3})
        seats[1].ceded_at, seats[2].ceded_at, seats[3].ceded_at = 7, 5, 6
        assert baton._pick(seats[0]).rank == 2  # ceded longest ago

    def test_first_to_join_holds_the_baton(self):
        baton = self._baton([0.0, 0.0])
        assert baton.holder == 0 and baton.ranks == {0, 1}
        assert not baton._seats[0].gate.locked()
        assert baton._seats[1].gate.locked()
