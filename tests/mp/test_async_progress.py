"""Async progress mode: the progress engine stepped by the clock's tick.

Covers the tick's cadence (``ProgressEngine.start_ticking``), deferred causal
merges, completion *without* caller polls in ``progress="async"`` worlds,
mode parity (identical results), the sanitizer under third-party
progression, and the wait/test-family regressions the async work exposed:
``test_all`` swallowing dead-peer failures, the one ``drive`` loop's idle
policy per rank hosting (including ``wait_any`` never resetting its
backoff), the unbounded ``probe``, silent quiesce expiry, and
expired-deadline ``wait_all`` grinding through N zero-timeout waits.
"""

import time

import pytest

from repro.cluster import mpiexec
from repro.cluster.world import World
from repro.mp import MpiEngine
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FABRICS, FaultPlan, FaultyFabric
from repro.mp.errors import MpiErrProcFailed, MpiErrTimeout
from repro.mp.progress import ProgressEngine
from repro.mp.status import Status
from repro.simtime import CostModel, VirtualClock, WallClock

pytestmark = pytest.mark.progress

# quick failure detection for the dead-peer regression (same knobs as
# tests/mp/test_faults.py)
FAST = dict(retransmit_after=4, backoff=1.5, max_backoff_polls=32,
            max_retries=40, heartbeat_after=16)


def ints(*vals):
    import struct

    mem = NativeMemory(4 * len(vals))
    mem.view()[:] = struct.pack(f"<{len(vals)}i", *vals)
    return BufferDesc.from_native(mem)


def read_ints(buf):
    import struct

    return list(struct.unpack(f"<{buf.nbytes // 4}i", bytes(buf.view())))


# --------------------------------------------------------------- the tick


class _IdleDevice:
    """Just enough of a CH3 device for a progress engine: a clock, no
    packets; ``on_poll`` runs at every poll."""

    def __init__(self, clock, on_poll=None):
        self.clock = clock
        self.on_poll = on_poll

    def poll(self):
        if self.on_poll is not None:
            self.on_poll()
        return 0


def _ticking(period_ns, clock=None, on_poll=None):
    """A progress engine ticking on ``clock``; returns (engine, poll times)."""
    clock = clock if clock is not None else VirtualClock()
    fired = []

    def poll():
        fired.append(clock.now())
        if on_poll is not None:
            on_poll()

    eng = ProgressEngine(_IdleDevice(clock, poll))
    eng.start_ticking(period_ns)
    return eng, fired


class TestTaskScheduler:
    """The clock's one scheduled task: the progress engine's async tick."""

    def test_fires_on_charges_at_period(self):
        eng, fired = _ticking(1_000.0)
        clock = eng.device.clock
        clock.charge(2_500.0)  # periods at 1000 and 2000 are due
        assert len(fired) == 2
        clock.charge(500.0)  # crosses 3000
        assert len(fired) == 3

    def test_catchup_cap_snaps_past_horizon(self):
        eng, fired = _ticking(1_000.0)
        clock = eng.device.clock
        clock.charge(100_000.0)  # 100 periods due, burst capped at 8
        assert len(fired) == 8
        clock.charge(999.0)  # snapped onto cadence: next due at 101_000
        assert len(fired) == 8
        clock.charge(1.0)
        assert len(fired) == 9

    def test_task_charging_does_not_recurse(self):
        clock = VirtualClock()
        # a step that charges its own clock must not nest a tick
        _, fired = _ticking(1_000.0, clock, lambda: clock.charge(10_000.0))
        clock.charge(1_500.0)
        # the horizon was read at tick entry: only the one fire at t=1000,
        # however far the step's own charges moved the clock
        assert len(fired) == 1

    def test_tick_due_inside_a_caller_step_is_consumed(self):
        """A tick falling due while the caller's own step charges the clock
        does not re-enter the device, but its due time still advances."""
        clock, cost = VirtualClock(), [1_500.0]
        eng, fired = _ticking(1_000.0, clock, lambda: cost and clock.charge(cost.pop()))
        eng.step()  # polls once, charging past the tick due at 1000
        assert fired == [0.0] and eng.async_polls == 0
        clock.charge(499.0)  # 1999: the consumed tick's successor is due at 2000
        assert len(fired) == 1
        clock.charge(1.0)
        assert fired == [0.0, 2_000.0] and eng.async_polls == 1

    def test_rejects_nonpositive_period(self):
        eng = ProgressEngine(_IdleDevice(VirtualClock()))
        with pytest.raises(ValueError):
            eng.start_ticking(0.0)



class TestDeferredMerges:
    def test_merge_floors_instead_of_jumping(self):
        clock = VirtualClock()
        clock.charge(1_000.0)
        clock.defer_merges = True
        clock.merge(5_000.0)
        assert clock.now() == 1_000.0  # no mid-compute jump
        assert clock.causal_now() == 5_000.0  # dependent sends stay causal
        clock.defer_merges = False
        clock.apply_pending()
        assert clock.now() == 5_000.0

    def test_immediate_merge_without_defer(self):
        clock = VirtualClock()
        clock.merge(2_000.0)
        assert clock.now() == 2_000.0
        clock.apply_pending()  # nothing pending: no-op
        assert clock.now() == 2_000.0


# ------------------------------------------------------------- async mode


class TestAsyncMode:
    def test_an_async_step_never_reaches_the_safepoint(self):
        """Async steps run inside ``clock.charge`` — possibly mid-allocation —
        so they skip the safepoint yield; a charge therefore never collects,
        and the deserializer's nursery runs cannot move under a charge."""
        clock = VirtualClock()
        yields = []
        eng = ProgressEngine(_IdleDevice(clock), yield_fn=lambda: yields.append(clock.now()))
        eng.start_ticking(1_000.0)
        clock.charge(10_000.0)
        assert eng.async_polls > 0
        assert yields == []
        eng.step()  # a caller-initiated step is a safepoint
        assert yields == [clock.now()]

    def test_world_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            World(1, progress="eager")

    def test_finalize_stops_the_progress_task(self):
        """The tick's teardown: after ``finalize`` the rank's clock no
        longer steps the engine, however much it is charged."""
        fab = FABRICS["shm"](1)
        clock, cm = VirtualClock(), CostModel()
        eng = MpiEngine(0, 1, fab.endpoint(0, clock, cm), clock=clock, costs=cm,
                        progress="async")
        clock.charge(10 * cm.async_poll_period_ns)
        stepped = eng.progress.async_polls
        assert stepped > 0
        eng.finalize()
        clock.charge(10 * cm.async_poll_period_ns)
        assert eng.progress.async_polls == stepped
        assert clock.tick is None

    def test_one_tick_per_clock(self):
        """A second async engine built on the same clock (communicator
        shrink, rank replacement) takes the ticking over; finalizing the
        first leaves the second's tick running, and once both are
        finalized a charge steps nothing."""
        fab = FABRICS["shm"](1)
        clock, cm = VirtualClock(), CostModel()

        def engine():
            return MpiEngine(0, 1, fab.endpoint(0, clock, cm), clock=clock,
                             costs=cm, progress="async")

        first, second = engine(), engine()
        burst = 4 * cm.async_poll_period_ns
        clock.charge(burst)
        assert first.progress.async_polls == 0
        assert second.progress.async_polls == 4
        first.finalize()
        clock.charge(burst)
        assert first.progress.async_polls == 0
        assert second.progress.async_polls == 8
        second.finalize()
        assert clock.tick is None
        clock.charge(burst)
        assert first.progress.async_polls == 0
        assert second.progress.async_polls == 8

    def test_async_completes_without_caller_polls(self):
        """The tentpole property: a rank that only computes (charges) still
        makes progress — the tick completes its collective."""

        def main(ctx):
            if ctx.rank == 0:
                buf = ints(*range(64))
                ctx.engine.wait(ctx.engine.ibcast(buf, root=0))
                return None
            buf = ints(*([0] * 64))
            req = ctx.engine.ibcast(buf, root=0)
            spun = 0
            while not req.completed and spun < 20_000:
                ctx.clock.charge(5_000.0)  # pure compute, never a poll
                time.sleep(0)
                spun += 1
            assert req.completed, "async progress never completed the ibcast"
            prog = ctx.engine.progress
            return (read_ints(buf), prog.async_polls, prog.overlap_ratio)

        res = mpiexec(2, main, channel="sock", clock_mode="virtual",
                      progress="async")
        vals, async_polls, overlap = res[1]
        assert vals == list(range(64))
        assert async_polls > 0
        assert overlap > 0.0  # the handling happened inside async steps

    def test_polled_mode_counters_stay_zero(self):
        def main(ctx):
            buf = ints(*range(8)) if ctx.rank == 0 else ints(*([0] * 8))
            ctx.engine.wait(ctx.engine.ibcast(buf, root=0))
            prog = ctx.engine.progress
            return (read_ints(buf), prog.async_polls, prog.overlap_ratio)

        for vals, async_polls, overlap in mpiexec(2, main):
            assert vals == list(range(8))
            assert async_polls == 0
            assert overlap == 0.0

    def test_modes_produce_identical_results(self):
        def main(ctx):
            buf = ints(*range(32)) if ctx.rank == 0 else ints(*([0] * 32))
            req = ctx.engine.ibcast(buf, root=0)
            ctx.clock.charge(100_000.0)  # overlap window for the async tick
            ctx.engine.wait(req)
            return read_ints(buf)

        kw = dict(channel="sock", clock_mode="virtual")
        polled = mpiexec(2, main, progress="polled", **kw)
        asynced = mpiexec(2, main, progress="async", **kw)
        assert polled == asynced == [list(range(32))] * 2

    def test_sanitizer_clean_under_async(self):
        """Third-party progression must not fake a wait-for edge: requests
        completed between a waiter's polls are not deadlock-knot members."""

        def main(ctx):
            buf = ints(*range(16)) if ctx.rank == 0 else ints(*([0] * 16))
            req = ctx.engine.ibcast(buf, root=0)
            ctx.clock.charge(200_000.0)
            ctx.engine.wait(req)
            return read_ints(buf)

        results = mpiexec(
            2, main, channel="sock", clock_mode="virtual", progress="async",
            sanitize="enabled",
        )
        assert results == [list(range(16))] * 2
        assert not results.report.findings, results.report.render_text()


# ------------------------------------------- wait/test family regressions


def _engine_pair(plan, **kw):
    """Two MpiEngines over a fault-injecting shm fabric (wall clocks)."""
    fab = FaultyFabric(FABRICS["shm"](2), plan)
    cm = CostModel()

    def mk(rank):
        clock = WallClock()
        return MpiEngine(rank, 2, fab.endpoint(rank, clock, cm), clock=clock,
                         costs=cm, reliable=True,
                         reliability_opts=dict(FAST), **kw)

    return mk(0), mk(1)


def _lonely_engine(**kw):
    fab = FABRICS["shm"](1)
    clock = WallClock()
    cm = CostModel()
    return MpiEngine(0, 1, fab.endpoint(0, clock, cm), clock=clock, costs=cm,
                     **kw)


class _FakeReq:
    """Just enough of a Request for the wait-family control flow."""

    def __init__(self, completed=False):
        self.done = completed
        self.op_id = 99
        self.status = Status()

    @property
    def completed(self):
        return self.done

    def check_usable(self):
        pass


class TestTestAllDeadPeer:
    def test_test_all_raises_on_dead_peer(self):
        """Regression: test_all used to report plain True for a recv
        completed by peer failure, swallowing MPI_ERR_PROC_FAILED."""
        plan = FaultPlan(seed=3)
        e0, _e1 = _engine_pair(plan)
        plan.kill(1)
        req = e0.irecv(ints(0, 0), source=1, tag=1)
        with pytest.raises(MpiErrProcFailed) as ei:
            for _ in range(20_000):
                if e0.test_all([req]):
                    break
            else:
                pytest.fail("dead peer never detected")
        assert 1 in ei.value.failed


def _scripted(monkeypatch, eng, script, req):
    """Replace the engine's step with ``script`` (packets handled per poll);
    the request completes on the poll after the script runs out.  Returns
    the list ``time.sleep`` calls are recorded in."""
    script = list(script)
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)

    def step(from_async=False):
        if script:
            return script.pop(0)
        req.done = True
        return 1

    monkeypatch.setattr(eng.progress, "step", step)
    return sleeps


class TestIdlePolicy:
    """What one idle poll does follows from how the rank is hosted."""

    def test_thread_hosted_cedes_on_first_idle_poll(self, monkeypatch):
        eng = _lonely_engine()  # a directly constructed stack: thread-hosted
        req = _FakeReq()
        sleeps = _scripted(monkeypatch, eng, [0], req)
        eng.progress.wait(req)
        assert sleeps == [0]  # one idle poll, one hand-off

    def test_thread_hosted_cedes_on_every_idle_poll(self, monkeypatch):
        eng = _lonely_engine()
        req = _FakeReq()
        sleeps = _scripted(monkeypatch, eng, [0] * 130, req)
        eng.progress.wait(req)
        assert len(sleeps) == 130  # no backoff: every idle poll cedes

    def test_process_hosted_spins_63_polls_before_first_yield(self, monkeypatch):
        eng = _lonely_engine(hosting="process")
        req = _FakeReq()
        sleeps = _scripted(monkeypatch, eng, [0] * 63, req)
        eng.progress.wait(req)
        assert sleeps == []
        req = _FakeReq()
        sleeps = _scripted(monkeypatch, eng, [0] * 64, req)
        eng.progress.wait(req)
        assert sleeps == [0]  # the 64th idle poll is the first yield

    def test_process_hosted_productive_poll_resets_backoff(self, monkeypatch):
        """Regression: wait_any never reset its idle count after a
        productive poll, so 64 *cumulative* idle polls locked in the
        sleep(0) cadence forever, even on a busy link."""
        eng = _lonely_engine(hosting="process")
        req = _FakeReq()
        sleeps = _scripted(monkeypatch, eng, [0, 1] * 200, req)
        assert eng.wait_any([req]) == 0
        assert sleeps == []

    def test_hosted_thread_hands_the_baton_on_once_per_idle_poll(self, monkeypatch):
        """A rank the inproc substrate hosts cedes through its scheduler:
        every idle poll is exactly one hand-off, and never an OS yield."""
        trips = 50

        def main(ctx):
            eng, peer = ctx.engine, 1 - ctx.rank
            prog, cedes = eng.progress, []
            hand_off = prog.hand_off
            assert hand_off is not None  # the substrate seated this rank

            def counted():
                cedes.append(1)
                hand_off()

            prog.hand_off = counted
            idle0, buf = prog.idle_polls, ints(0)
            for _ in range(trips):
                if ctx.rank == 0:
                    eng.send(buf, peer, 1)
                    eng.recv(buf, peer, 2)
                else:
                    eng.recv(buf, peer, 1)
                    eng.send(buf, peer, 2)
            return len(cedes), prog.idle_polls - idle0

        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        res = mpiexec(2, main, channel="sock", clock_mode="virtual")
        for cedes, idle in res:
            assert cedes == idle > 0
        assert sleeps == []

    def test_inproc_pingpong_polls_per_round_trip(self):
        """Thread-hosted ranks hand the interpreter to the peer instead of
        spinning 64 polls under the GIL: a round trip costs a few polls."""
        trips = 200

        def main(ctx):
            eng, peer = ctx.engine, 1 - ctx.rank
            buf = ints(0)
            eng.barrier()
            before = eng.progress.polls
            for _ in range(trips):
                if ctx.rank == 0:
                    eng.send(buf, peer, 1)
                    eng.recv(buf, peer, 2)
                else:
                    eng.recv(buf, peer, 1)
                    eng.send(buf, peer, 2)
            return (eng.progress.polls - before) / trips

        for per_trip in mpiexec(2, main, channel="sock", clock_mode="virtual"):
            assert per_trip <= 4, per_trip

    def test_fault_free_reliable_exchange_never_retransmits(self):
        """Retransmit timers count polls; a waiting rank that hands off at
        once cannot out-poll a peer that is merely descheduled."""

        def main(ctx):
            eng, peer = ctx.engine, 1 - ctx.rank
            buf = ints(0)
            for _ in range(200):
                if ctx.rank == 0:
                    eng.send(buf, peer, 1)
                    eng.recv(buf, peer, 2)
                else:
                    eng.recv(buf, peer, 1)
                    eng.send(buf, peer, 2)
            return eng.device.rel.stats["retransmits"]

        assert mpiexec(2, main, channel="sock", reliable=True) == [0, 0]


class TestBoundedProbeAndQuiesce:
    def test_probe_times_out_on_a_silent_peer(self):
        """Regression: probe was a bare ``while True: iprobe()`` — no
        yield, no deadline."""
        eng = _lonely_engine()
        with pytest.raises(MpiErrTimeout):
            eng.probe(0, 5, timeout=0.05)

    def test_quiesce_expiry_is_counted_and_exported(self):
        world = World(2, reliable=True, observe="enabled")
        ctx = world.context_for(0)
        world.context_for(1)  # its main never returns: the drain cannot finish
        world.quiesce(0, ctx.engine, timeout=0.05)  # still does not raise
        assert world.quiesce_expired == {0: 1}
        counters = world.merged_snapshot()["counters"]
        assert counters["cluster.quiesce_expired"]["total"] == 1


class TestWaitAllExpiredDeadline:
    def test_engine_raises_immediately_for_stragglers(self):
        """Regression: an expired batch deadline used to hand every
        remaining request a zero-timeout wait cycle instead of raising."""
        eng = _lonely_engine()
        stuck = [_FakeReq(), _FakeReq()]
        before = eng.progress.polls
        with pytest.raises(MpiErrTimeout):
            eng.wait_all(stuck, timeout=0.0)
        assert eng.progress.polls == before  # no wait cycles ran

    def test_progress_engine_checks_completed_then_raises(self):
        eng = _lonely_engine()
        done = _FakeReq(completed=True)
        stuck = _FakeReq()
        before = eng.progress.polls
        with pytest.raises(MpiErrTimeout):
            eng.progress.wait_all([done, stuck], timeout=0.0)
        assert eng.progress.polls == before
