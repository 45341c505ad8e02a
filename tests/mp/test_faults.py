"""Fault injection and fault tolerance: the failure behaviour DESIGN.md §5
promises, exercised deterministically.

Lockstep tests drive two CH3 devices by hand (no threads), so the fault
sequence *and* the recovery actions are exactly reproducible run-to-run.
mpiexec-based tests assert on delivered bytes and surfaced errors, which
are deterministic even though thread scheduling is not.
"""

import pytest

from repro.cluster import mpiexec
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.ch3 import CH3Device
from repro.mp.channels import FABRICS, FaultPlan, FaultyFabric, SockFabric
from repro.mp.channels.faulty import CORRUPT, DELAY, DROP, DUPLICATE, REORDER
from repro.mp.errors import (
    ERRORS_RETURN,
    MpiErrProcFailed,
    MpiErrTimeout,
    MpiFatalError,
)
from repro.mp.packets import EAGER, Packet
from repro.mp.progress import ProgressEngine
from repro.mp.request import RECV, SEND, Request
from repro.simtime import CostModel, WallClock

# quick retransmits, capped backoff, deep retry budget: high-loss plans
# (50% combined drop+corrupt) must never false-positive a peer failure
FAST = dict(retransmit_after=4, backoff=1.5, max_backoff_polls=32,
            max_retries=40, heartbeat_after=16)


def reliable_pair(plan: FaultPlan, **dev_kw):
    """Two lockstep devices over a fault-injecting shm fabric."""
    fab = FaultyFabric(FABRICS["shm"](2), plan)
    cm = CostModel()
    mk = lambda r: CH3Device(
        r, fab.endpoint(r, WallClock(), cm), WallClock(), cm,
        reliable=True, reliability_opts=dict(FAST), **dev_kw,
    )
    return mk(0), mk(1)


def lockstep(devices, done, limit=20000):
    for _ in range(limit):
        for d in devices:
            d.poll()
        if done():
            return
    raise AssertionError("lockstep transfer did not finish")


def transfer(d0, d1, payload: bytes, tag: int = 1):
    sreq = Request(SEND, BufferDesc.from_bytes(payload), 1, tag, 0, len(payload))
    rreq = Request(RECV, BufferDesc.from_native(NativeMemory(len(payload))), 0, tag, 0, len(payload))
    d1.post_recv(rreq)
    d0.start_send(sreq, 1)
    lockstep((d0, d1), lambda: sreq.completed and rreq.completed)
    return bytes(rreq.buf.view())


class TestFaultPlanDeterminism:
    def test_same_seed_same_fault_sequence(self):
        """The acceptance criterion: one seed, one fault sequence."""
        logs = []
        for _ in range(2):
            plan = FaultPlan(seed=99, drop=0.2, corrupt=0.1, duplicate=0.1, reorder=0.1)
            d0, d1 = reliable_pair(plan)
            for i in range(8):
                assert transfer(d0, d1, bytes([i]) * 700, tag=i + 1) == bytes([i]) * 700
            logs.append(list(d0.channel.fault_log))
        assert logs[0] == logs[1]
        assert logs[0], "a 50% combined rate over ~8 packets must fault at least once"

    def test_different_seed_different_sequence(self):
        logs = []
        for seed in (1, 2):
            plan = FaultPlan(seed=seed, drop=0.3, corrupt=0.2)
            d0, d1 = reliable_pair(plan)
            for i in range(8):
                transfer(d0, d1, b"x" * 600, tag=i + 1)
            logs.append(list(d0.channel.fault_log))
        assert logs[0] != logs[1]

    def test_forced_fault_fires_at_exact_index(self):
        plan = FaultPlan(seed=0).force(0, 1, 2, DROP)
        d0, d1 = reliable_pair(plan)
        for i in range(5):
            transfer(d0, d1, b"y" * 100, tag=i + 1)
        assert (1, 2, DROP, "EAGER") in d0.channel.fault_log
        assert [e for e in d0.channel.fault_log if e[2] == DROP] == [(1, 2, DROP, "EAGER")]

    def test_force_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultPlan().force(0, 1, 0, "gremlins")


class TestPacketIntegrity:
    def test_seal_and_intact(self):
        pkt = Packet(ptype=EAGER, src=0, dst=1, tag=3, payload=b"hello").seal()
        assert pkt.intact()
        pkt.payload = b"hellp"
        assert not pkt.intact()

    def test_header_corruption_detected(self):
        pkt = Packet(ptype=EAGER, src=0, dst=1, tag=3, payload=b"hello").seal()
        pkt.tag ^= 1
        assert not pkt.intact()

    def test_ts_not_covered(self):
        # channels stamp the virtual arrival time after sealing
        pkt = Packet(ptype=EAGER, src=0, dst=1, payload=b"z").seal()
        pkt.ts = 123.456
        assert pkt.intact()

    def test_unsealed_packets_always_intact(self):
        assert Packet(ptype=EAGER, src=0, dst=1, payload=b"q").intact()

    def test_clone_is_independent(self):
        pkt = Packet(ptype=EAGER, src=0, dst=1, tag=5, payload=b"abc", seq=7).seal()
        twin = pkt.clone()
        pkt.tag = 9
        assert twin.tag == 5 and twin.seq == 7 and twin.intact()


class TestReliableRecovery:
    @pytest.mark.parametrize("kind", [DROP, CORRUPT, DUPLICATE, REORDER, DELAY])
    def test_forced_single_fault_recovers(self, kind):
        plan = FaultPlan(seed=5).force(0, 1, 0, kind)
        d0, d1 = reliable_pair(plan)
        payload = bytes(range(256)) * 4
        assert transfer(d0, d1, payload) == payload

    def test_drop_triggers_retransmit(self):
        plan = FaultPlan(seed=5).force(0, 1, 0, DROP)
        d0, d1 = reliable_pair(plan)
        transfer(d0, d1, b"r" * 64)
        assert d0.rel.stats["retransmits"] >= 1

    def test_corrupt_dropped_at_receiver(self):
        plan = FaultPlan(seed=5).force(0, 1, 0, CORRUPT)
        d0, d1 = reliable_pair(plan)
        payload = b"c" * 64
        assert transfer(d0, d1, payload) == payload
        assert d1.rel.stats["corrupt_dropped"] == 1

    def test_duplicate_discarded(self):
        plan = FaultPlan(seed=5).force(0, 1, 0, DUPLICATE)
        d0, d1 = reliable_pair(plan)
        transfer(d0, d1, b"d" * 64)
        assert d1.rel.stats["dup_dropped"] >= 1

    def test_reorder_buffered_and_resequenced(self):
        # hold the first of two back-to-back eager messages; both must
        # still be delivered in MPI (non-overtaking) order
        plan = FaultPlan(seed=5).force(0, 1, 0, REORDER)
        d0, d1 = reliable_pair(plan)
        reqs = []
        for i in range(3):
            sreq = Request(SEND, BufferDesc.from_bytes(bytes([i]) * 50), 1, 9, 0, 50)
            rreq = Request(RECV, BufferDesc.from_native(NativeMemory(50)), 0, 9, 0, 50)
            d1.post_recv(rreq)
            d0.start_send(sreq, 1)
            reqs.append(rreq)
        lockstep((d0, d1), lambda: all(r.completed for r in reqs))
        for i, r in enumerate(reqs):
            assert bytes(r.buf.view()) == bytes([i]) * 50
        assert d1.rel.stats["ooo_buffered"] >= 1

    def test_rendezvous_recovers_from_faults(self):
        plan = FaultPlan(seed=21, drop=0.1, corrupt=0.05, reorder=0.05)
        d0, d1 = reliable_pair(plan, eager_threshold=128, packet_size=256)
        payload = bytes((i * 7 + 1) % 256 for i in range(4096))
        assert transfer(d0, d1, payload) == payload

    def test_partition_heals(self):
        plan = FaultPlan(seed=5)
        d0, d1 = reliable_pair(plan)
        plan.partition(0, 1)
        sreq = Request(SEND, BufferDesc.from_bytes(b"p" * 32), 1, 1, 0, 32)
        rreq = Request(RECV, BufferDesc.from_native(NativeMemory(32)), 0, 1, 0, 32)
        d1.post_recv(rreq)
        d0.start_send(sreq, 1)
        for _ in range(20):
            d0.poll()
            d1.poll()
        assert not rreq.completed  # the link is cut
        plan.heal(0, 1)
        lockstep((d0, d1), lambda: rreq.completed)  # retransmit gets through
        assert bytes(rreq.buf.view()) == b"p" * 32


class TestDeadPeerDetection:
    def test_heartbeat_detects_silent_peer(self):
        """A posted receive from a crashed rank must not spin forever."""
        plan = FaultPlan(seed=3)
        d0, d1 = reliable_pair(plan)
        plan.kill(1)
        rreq = Request(RECV, BufferDesc.from_native(NativeMemory(8)), 1, 1, 0, 8)
        d0.post_recv(rreq)
        eng = ProgressEngine(d0)
        with pytest.raises(MpiErrProcFailed) as ei:
            eng.wait(rreq)
        assert 1 in ei.value.failed
        assert d0.rel.stats["pings_sent"] >= 1
        assert 1 in d0.failed_ranks

    def test_send_to_failed_peer_fails_immediately(self):
        plan = FaultPlan(seed=3)
        d0, d1 = reliable_pair(plan)
        plan.kill(1)
        d0.failed_ranks.add(1)  # already detected
        sreq = Request(SEND, BufferDesc.from_bytes(b"x"), 1, 1, 0, 1)
        d0.start_send(sreq, 1)
        assert sreq.completed
        assert sreq.status.error == "MPI_ERR_PROC_FAILED"


class TestWaitTimeout:
    def _lonely_device(self):
        fab = FABRICS["shm"](2)
        cm = CostModel()
        return CH3Device(0, fab.endpoint(0, WallClock(), cm), WallClock(), cm)

    def test_wait_times_out(self):
        d0 = self._lonely_device()
        eng = ProgressEngine(d0)
        req = Request(RECV, BufferDesc.from_native(NativeMemory(4)), 1, 1, 0, 4)
        d0.post_recv(req)
        with pytest.raises(MpiErrTimeout):
            eng.wait(req, timeout=0.05)

    def test_wait_all_times_out(self):
        d0 = self._lonely_device()
        eng = ProgressEngine(d0)
        reqs = []
        for _ in range(2):
            r = Request(RECV, BufferDesc.from_native(NativeMemory(4)), 1, 1, 0, 4)
            d0.post_recv(r)
            reqs.append(r)
        with pytest.raises(MpiErrTimeout):
            eng.wait_all(reqs, timeout=0.05)

    def test_engine_wait_any_times_out(self):
        def main(ctx):
            if ctx.rank == 1:
                return None
            req = ctx.engine.irecv(
                BufferDesc.from_native(NativeMemory(4)), 1, 5
            )
            with pytest.raises(MpiErrTimeout):
                ctx.engine.wait_any([req], timeout=0.05)
            ctx.engine.cancel(req)
            return "timed-out"

        assert mpiexec(2, main, channel="shm")[0] == "timed-out"

    def test_engine_wait_timeout_passthrough(self):
        def main(ctx):
            if ctx.rank == 1:
                return None
            req = ctx.engine.irecv(
                BufferDesc.from_native(NativeMemory(4)), 1, 5
            )
            with pytest.raises(MpiErrTimeout):
                ctx.engine.wait(req, timeout=0.05)
            ctx.engine.cancel(req)
            return "timed-out"

        assert mpiexec(2, main, channel="shm")[0] == "timed-out"


class TestIdempotentTeardown:
    @pytest.mark.parametrize(
        "fabric_cls",
        [FABRICS["shm"], SockFabric, FABRICS["ssm"], FABRICS["ib"]],
        ids=["ShmFabric", "SockFabric", "SsmFabric", "IbFabric"],
    )
    def test_double_finalize_and_shutdown(self, fabric_cls):
        fab = fabric_cls(2)
        cm = CostModel()
        ch = fab.endpoint(0, WallClock(), cm)
        ch.finalize()
        ch.finalize()  # second call must be a no-op
        fab.shutdown()
        fab.shutdown()

    def test_partial_initialization_teardown(self):
        # only one of two endpoints ever built: shutdown must still work
        fab = SockFabric(2)
        fab.endpoint(0, WallClock(), CostModel())
        fab.shutdown()
        fab.shutdown()

    def test_faulty_fabric_shutdown_idempotent(self):
        plan = FaultPlan(seed=0)
        fab = FaultyFabric(FABRICS["shm"](2), plan)
        fab.endpoint(0, WallClock(), CostModel())
        fab.shutdown()
        fab.shutdown()

    def test_world_shutdown_idempotent(self):
        from repro.cluster.world import World

        w = World(2, channel="sock")
        w.context_for(0)
        w.shutdown()
        w.shutdown()


SIZE = 192 * 1024
PATTERN = bytes((i * 13 + 5) % 256 for i in range(SIZE))


class TestCorruptionScenarioPromoted:
    """The §2.3 GC-corruption scenario, rebuilt on FaultPlan: instead of a
    GC moving the buffer mid-stream, the wire corrupts a DATA chunk at a
    fixed, seeded packet index — and the reliability sublayer repairs it."""

    def test_forced_midstream_corruption_is_repaired(self):
        # packet index 4 on link 0->1 is deep inside the DATA stream
        plan = FaultPlan(seed=17).force(0, 1, 4, CORRUPT)
        d0, d1 = reliable_pair(plan, eager_threshold=1024, packet_size=4096)
        got = transfer(d0, d1, PATTERN)
        assert got == PATTERN
        assert (1, 4, CORRUPT, "DATA") in d0.channel.fault_log
        assert d1.rel.stats["corrupt_dropped"] == 1
        assert d0.rel.stats["retransmits"] >= 1

    def test_same_scenario_without_reliability_corrupts(self):
        """Control: with the sublayer off, the flipped bit lands in the
        buffer — proving the test would catch a broken repair path."""
        plan = FaultPlan(seed=17).force(0, 1, 4, CORRUPT)
        fab = FaultyFabric(FABRICS["shm"](2), plan)
        cm = CostModel()
        mk = lambda r: CH3Device(
            r, fab.endpoint(r, WallClock(), cm), WallClock(), cm,
            eager_threshold=1024, packet_size=4096,
        )
        d0, d1 = mk(0), mk(1)
        got = transfer(d0, d1, PATTERN)
        assert got != PATTERN


class TestKillAndShrink:
    OPTS = dict(retransmit_after=8, max_retries=5, heartbeat_after=64)

    def test_kill_then_shrink_survivors_continue(self):
        """The acceptance scenario: a rank dies mid-run; outstanding
        requests complete with MpiErrProcFailed under MPI_ERRORS_RETURN,
        and a shrink()-derived communicator finishes a barrier and an
        allreduce on the survivors."""
        from repro.mp import collectives
        from repro.mp.datatypes import INT

        plan = FaultPlan(seed=1)

        def main(ctx):
            eng = ctx.engine
            comm = eng.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            if ctx.rank == 2:
                eng.send(BufferDesc.from_bytes(b"pre"), 0, 5)
                plan.kill(2)
                return "crashed"
            if ctx.rank == 0:
                buf = BufferDesc.from_bytes(bytearray(3))
                eng.recv(buf, 2, 5)
            caught = None
            try:
                eng.recv(BufferDesc.from_native(NativeMemory(8)), 2, 9)
            except MpiErrProcFailed as exc:
                caught = sorted(exc.failed)
            newcomm = comm.shrink()
            collectives.barrier(eng, newcomm)
            send = BufferDesc.from_bytes(INT.pack_values([ctx.rank + 1]))
            recv = BufferDesc.from_native(NativeMemory(4))
            collectives.allreduce(eng, newcomm, send, recv, INT)
            total = INT.unpack_values(recv.tobytes())[0]
            return (caught, tuple(newcomm.group.ranks), total)

        res = mpiexec(3, main, channel="shm", fault_plan=plan,
                      reliability_opts=self.OPTS)
        assert res[2] == "crashed"
        for out in res[:2]:
            assert out == ([2], (0, 1), 3)  # 1 + 2 from the survivors

    def test_errors_are_fatal_marks_engine_aborted(self):
        plan = FaultPlan(seed=1)

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 1:
                plan.kill(1)
                return "crashed"
            with pytest.raises(MpiFatalError):
                eng.recv(BufferDesc.from_native(NativeMemory(4)), 1, 5)
            return eng.aborted

        res = mpiexec(2, main, channel="shm", fault_plan=plan,
                      reliability_opts=self.OPTS)
        assert res == [True, "crashed"]

    def test_a_motor_recv_honours_errors_are_fatal(self):
        """A System.MP blocking Recv waits as the engine's does: under the
        default handler a dead peer aborts the engine."""
        from repro.motor import motor_session

        plan = FaultPlan(seed=1)

        def main(ctx):
            if ctx.rank == 1:
                plan.kill(1)
                return "crashed"
            with pytest.raises(MpiFatalError):
                ctx.session.comm_world.Recv(ctx.session.new_array("byte", 4), 1, 5)
            return ctx.engine.aborted

        res = mpiexec(2, main, channel="shm", fault_plan=plan,
                      reliability_opts=self.OPTS, session_factory=motor_session)
        assert res == [True, "crashed"]

    def test_shrink_surfaces_through_system_mp(self):
        """Motor programs observe and recover from failure via System.MP."""
        from repro.motor import motor_session

        plan = FaultPlan(seed=1)

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            comm.SetErrhandler(comm.ERRORS_RETURN)
            if ctx.rank == 2:
                plan.kill(2)
                return "crashed"
            caught = False
            arr = vm.new_array("byte", 8)
            try:
                comm.Recv(arr, 2, 5)
            except MpiErrProcFailed:
                caught = True
            small = comm.Shrink()
            small.Barrier()
            return (caught, 2 in comm.FailedRanks, small.Size)

        res = mpiexec(
            3, main, channel="shm", fault_plan=plan,
            reliability_opts=self.OPTS,
            session_factory=motor_session,
        )
        assert res[2] == "crashed"
        for out in res[:2]:
            assert out == (True, True, 2)
