"""Self-healing runtime: message-based agreement, coordinated
checkpoint/restart, rank replacement, and the failure paths around them.

Everything here runs over mpiexec worlds (ranks = threads) with the
reliability sublayer on, so detection is the real retransmit-exhaustion
path, not a stubbed verdict.  Assertions are on agreed values, restored
state and rebuilt communicator shapes — all deterministic even though
thread scheduling is not.
"""

import time

import pytest

from repro.cluster import World, mpiexec
from repro.mp import collectives, recovery
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FaultPlan
from repro.mp.datatypes import INT
from repro.mp.errors import (
    ERRORS_RETURN,
    MpiErrComm,
    MpiErrDeadlock,
    MpiErrProcFailed,
    MpiErrTimeout,
)
from repro.mp.reliability import ReliabilityLayer

pytestmark = pytest.mark.recovery

# generous budgets: a GIL-descheduled thread must never be declared dead,
# but a real kill should still resolve in milliseconds of wall time
OPTS = dict(retransmit_after=16, max_retries=10, heartbeat_after=128)


def _int_allreduce(engine, comm, value: int) -> int:
    send = BufferDesc.from_bytes(INT.pack_values([value]))
    recv = BufferDesc.from_native(NativeMemory(4))
    collectives.allreduce(engine, comm, send, recv, INT)
    return INT.unpack_values(recv.tobytes())[0]


class TestAgree:
    def test_agree_fault_free(self):
        """All survivors fold their value and see an empty failed set."""

        def main(ctx):
            comm = ctx.engine.comm_world
            lo, failed_min = comm.agree(ctx.rank + 1, op="min")
            masks = [0b011, 0b110, 0b111]
            band, failed_band = comm.agree(masks[ctx.rank])
            return (lo, sorted(failed_min), band, sorted(failed_band))

        res = mpiexec(3, main, channel="shm", reliability_opts=OPTS)
        assert res == [(1, [], 0b010, [])] * 3

    def test_agree_over_a_failure(self):
        """Survivors converge on the same fold and the same failed set
        even though only their local detectors saw the death."""
        plan = FaultPlan(seed=3)

        def main(ctx):
            eng = ctx.engine
            comm = eng.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            if ctx.rank == 3:
                plan.kill(3)
                return "crashed"
            value, failed = comm.agree(1 << ctx.rank, op="bor")
            return (value, sorted(failed))

        res = mpiexec(4, main, channel="shm", fault_plan=plan,
                      reliability_opts=OPTS)
        assert res[3] == "crashed"
        for out in res[:3]:
            assert out == (0b0111, [3])

    def test_agree_rejects_unknown_op(self):
        def main(ctx):
            comm = ctx.engine.comm_world
            try:
                comm.agree(0, op="gremlins")
            except KeyError:
                return "rejected"

        assert mpiexec(2, main, channel="shm",
                       reliability_opts=OPTS) == ["rejected"] * 2

    def test_stuck_agreement_is_named_a_deadlock_at_once(self):
        """Regression: the agreement kept a wait loop of its own that the
        baton could not see, so a follower whose coordinator had returned
        sat out its whole timeout and raised a bare MpiErrTimeout.  Waiting
        through ``drive``, it is named a deadlock the moment nothing can
        run."""

        def main(ctx):
            if ctx.rank == 0:
                return None
            t0 = time.monotonic()
            with pytest.raises(MpiErrDeadlock) as ei:
                ctx.engine.recovery.agree(ctx.engine.comm_world, 1, timeout=3.0)
            return str(ei.value), time.monotonic() - t0

        _, (msg, took) = mpiexec(2, main, clock_mode="virtual")
        assert "rank 1 [agreement 1: the result from rank 0 unmet]" in msg
        assert took < 1.0


class TestShrinkCounters:
    """The context-id regression the message-based protocol fixes: one
    rank shrinking a sub-communicator the others never saw used to skew
    the engine-global counter and silently collide context ids."""

    def _drifted_main(self, ctx):
        eng = ctx.engine
        comm = eng.comm_world
        # every rank splits off a size-1 communicator; only rank 0
        # shrinks its own, drifting its engine-local shrink counter
        solo = eng.comm_split(comm, color=ctx.rank, key=0)
        if ctx.rank == 0:
            eng.comm_shrink(solo)
        return eng.comm_shrink(comm)

    def test_mismatched_counters_raise_without_reliability(self):
        """Satellite regression: with no detector to agree over, drifted
        counters surface as a clear MpiErrComm on every rank instead of
        colliding context ids."""

        def main(ctx):
            try:
                self._drifted_main(ctx)
            except MpiErrComm as exc:
                return ("mismatch", "disagree" in str(exc))

        res = mpiexec(3, main, channel="shm")
        assert res == [("mismatch", True)] * 3

    def test_agreement_absorbs_drift_with_reliability(self):
        """The message-based shrink agreement takes max(counter)+1, so
        the same drift yields one identical context id everywhere."""

        def main(ctx):
            newcomm = self._drifted_main(ctx)
            return (newcomm.context_id, newcomm.size)

        res = mpiexec(3, main, channel="shm", reliable=True,
                      reliability_opts=OPTS)
        assert len({out[0] for out in res}) == 1
        assert all(out[1] == 3 for out in res)


class TestCheckpointRestore:
    def test_roundtrip_root_placement(self):
        def main(ctx):
            comm = ctx.engine.comm_world
            state = {"rank": ctx.rank, "units": list(range(ctx.rank + 1))}
            epoch = comm.checkpoint(state, placement="root")
            return (epoch, comm.restore(), comm.restore() == state)

        res = mpiexec(3, main, channel="shm", reliability_opts=OPTS)
        for rank, (epoch, restored, same) in enumerate(res):
            assert epoch == 1
            assert same
            assert restored == {"rank": rank, "units": list(range(rank + 1))}

    def test_roundtrip_peer_placement(self):
        def main(ctx):
            comm = ctx.engine.comm_world
            epoch = comm.checkpoint((ctx.rank, b"blob", 2.5), placement="peer")
            return (epoch, comm.restore())

        res = mpiexec(3, main, channel="shm", reliability_opts=OPTS)
        for rank, (epoch, restored) in enumerate(res):
            assert epoch == 1
            assert restored == (rank, b"blob", 2.5)

    def test_successive_epochs_and_explicit_restore(self):
        def main(ctx):
            comm = ctx.engine.comm_world
            e1 = comm.checkpoint({"v": 1})
            e2 = comm.checkpoint({"v": 2})
            return (e1, e2, comm.restore(), comm.restore(epoch=e1))

        res = mpiexec(2, main, channel="shm", reliability_opts=OPTS)
        assert res == [(1, 2, {"v": 2}, {"v": 1})] * 2

    def test_restore_without_commit_raises(self):
        def main(ctx):
            comm = ctx.engine.comm_world
            try:
                comm.restore()
            except MpiErrComm:
                return "no-epoch"

        res = mpiexec(2, main, channel="shm", reliability_opts=OPTS)
        assert res == ["no-epoch"] * 2


class TestFullRecovery:
    @pytest.mark.parametrize("progress", ["polled", "async"])
    def test_kill_recover_restore_rebuilds_full_world(self, progress):
        """The tentpole cycle: checkpoint, kill, detect, then
        recover() returns a full-size communicator where the replacement
        has restored the victim's committed state."""
        plan = FaultPlan(seed=5)

        def replacement_main(ctx):
            state = recovery.replacement_entry(ctx)
            comm = ctx.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            return _int_allreduce(ctx.engine, comm, state["v"])

        def main(ctx):
            eng = ctx.engine
            comm = eng.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            comm.checkpoint({"v": ctx.rank + 10})
            if ctx.rank == 2:
                plan.kill(2)
                return "crashed"
            try:
                eng.recv(BufferDesc.from_native(NativeMemory(4)), 2, 7)
            except MpiErrProcFailed:
                pass
            full = recovery.recover(ctx, comm, replacement_main)
            state = eng.recovery.restore(full)
            total = _int_allreduce(eng, full, state["v"])
            stats = eng.recovery.stats
            return (full.size, total, stats["recoveries"],
                    stats["ranks_replaced"])

        res = mpiexec(4, main, channel="shm", fault_plan=plan,
                      reliability_opts=OPTS, timeout=120.0,
                      progress=progress)
        assert res[2] == "crashed"
        # 10 + 11 + 12 (restored by the replacement) + 13
        for out in (res[0], res[1], res[3]):
            assert out == (4, 46, 1, 1)


class TestBackoffJitter:
    """Deterministic-seeded retransmit jitter: reproducible per rank,
    desynchronized across ranks (the herd-breaking property)."""

    def _schedule(self, rank: int, seed: int = 0, jitter: float = 0.1):
        rl = ReliabilityLayer(rank, jitter=jitter, jitter_seed=seed)
        return [
            rl._jitter_polls(dst, seq, retries, 512.0)
            for dst in range(4)
            for seq in range(8)
            for retries in range(4)
        ]

    def test_jitter_is_deterministic_per_rank(self):
        assert self._schedule(0) == self._schedule(0)
        assert self._schedule(1, seed=7) == self._schedule(1, seed=7)

    def test_jitter_desynchronizes_ranks(self):
        """Two ranks whose backed-off timers sit at the same cap must not
        retry on the same poll: their jitter sequences differ."""
        a, b = self._schedule(0), self._schedule(1)
        assert a != b
        # and not by a single constant shift, which would re-collide
        assert len({x - y for x, y in zip(a, b)}) > 1

    def test_seed_changes_schedule(self):
        assert self._schedule(0, seed=0) != self._schedule(0, seed=1)

    def test_zero_jitter_is_exact(self):
        assert set(self._schedule(0, jitter=0.0)) == {0}

    def test_jitter_bounded_by_fraction_of_deadline(self):
        span = int(512.0 * 0.1)
        assert all(0 <= j <= span for j in self._schedule(3))


class TestNonblockingCollectiveFailure:
    """A rank dying mid-i*-collective must surface MpiErrProcFailed on a
    bounded wait — never a hang, never a timeout — on every survivor."""

    @pytest.mark.parametrize("progress", ["polled", "async"])
    def test_kill_mid_iallreduce_fails_all_survivors(self, progress):
        plan = FaultPlan(seed=9)

        def main(ctx):
            eng = ctx.engine
            comm = eng.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            if ctx.rank == 2:
                plan.kill(2)
                return "crashed"
            send = BufferDesc.from_bytes(INT.pack_values([ctx.rank + 1]))
            recv = BufferDesc.from_native(NativeMemory(4))
            req = collectives.iallreduce(eng, comm, send, recv, INT)
            try:
                eng.wait(req, timeout=60.0)
            except MpiErrProcFailed as exc:
                return ("proc-failed", 2 in exc.failed)
            except MpiErrTimeout:
                return "timed-out"
            return "completed"

        world = World(3, channel="shm", fault_plan=plan,
                      reliability_opts=OPTS, progress=progress)
        res = world.launch(3, main, timeout=120.0)
        assert res[2] == "crashed"
        # no survivor sat out its exit drain waiting for an aborted peer
        assert sum(world.quiesce_expired.values()) == 0
        # allreduce needs the dead rank's contribution: no survivor may
        # complete, and none may hang into the timeout
        assert res[0] == ("proc-failed", True)
        assert res[1] == ("proc-failed", True)

    @pytest.mark.parametrize("progress", ["polled", "async"])
    def test_kill_mid_ibcast_no_rank_hangs(self, progress):
        # the payload must exceed the eager threshold: an eager send to a
        # dead peer completes locally, but rendezvous stalls on the CTS
        # and the sender's retransmit budget surfaces the failure
        plan = FaultPlan(seed=11)
        values = list(range(256))

        def main(ctx):
            eng = ctx.engine
            comm = eng.comm_world
            comm.set_errhandler(ERRORS_RETURN)
            if ctx.rank == 2:
                plan.kill(2)
                return "crashed"
            buf = BufferDesc.from_bytes(
                INT.pack_values(values) if ctx.rank == 0
                else bytearray(4 * len(values))
            )
            req = collectives.ibcast(eng, comm, buf, root=0)
            try:
                eng.wait(req, timeout=60.0)
            except MpiErrProcFailed:
                return "proc-failed"
            except MpiErrTimeout:
                return "timed-out"
            return "completed"

        world = World(3, channel="shm", fault_plan=plan, eager_threshold=64,
                      reliability_opts=OPTS, progress=progress)
        res = world.launch(3, main, timeout=120.0)
        assert res[2] == "crashed"
        assert sum(world.quiesce_expired.values()) == 0
        # a survivor off the dead subtree may legitimately finish, but
        # whoever feeds the dead rank must fail — and nobody may hang
        assert all(out in ("completed", "proc-failed") for out in res[:2])
        assert "proc-failed" in res[:2]
