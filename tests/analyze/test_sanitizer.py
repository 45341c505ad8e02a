"""Runtime sanitizer: deadlock knots, races, buffer bugs, pin leaks.

Everything runs through ``mpiexec(sanitize=...)`` — the same integration
surface users get — so these tests also pin down the hook wiring in the
device, matching queues, progress engine, collector and pin policy.
"""

import pytest

from repro.cluster.world import mpiexec
from repro.motor import motor_session

pytestmark = pytest.mark.analyze


def _run(n, main, **kw):
    kw.setdefault("session_factory", motor_session)
    kw.setdefault("sanitize", "enabled")
    results = mpiexec(n, main, **kw)
    return (None if results.deadlocked else results), results.report


# --------------------------------------------------------------------------
# clean runs stay clean
# --------------------------------------------------------------------------

def _clean_exchange(ctx):
    vm = ctx.session
    comm = vm.comm_world
    me, peer = comm.Rank, 1 - comm.Rank
    for tag in (1, 2):
        if me == 0:
            out = vm.new_array("int32", 32, values=list(range(32)))
            comm.Send(out, peer, tag)
            inn = vm.new_array("int32", 32)
            comm.Recv(inn, peer, tag)
        else:
            inn = vm.new_array("int32", 32)
            comm.Recv(inn, peer, tag)
            comm.Send(inn, peer, tag)
    comm.Barrier()
    return "ok"


class TestCleanRuns:
    def test_clean_exchange_no_findings(self):
        results, report = _run(2, _clean_exchange)
        assert results == ["ok", "ok"]
        assert not report.findings, report.render_text()

    def test_nonblocking_exchange_no_findings(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me, peer = comm.Rank, 1 - comm.Rank
            out = vm.new_array("float64", 64, values=[me] * 64)
            inn = vm.new_array("float64", 64)
            rs = comm.Isend(out, peer, tag=4)
            rr = comm.Irecv(inn, peer, tag=4)
            rs.Wait()
            rr.Wait()
            comm.Barrier()
            return inn[0]

        results, report = _run(2, main)
        assert results == [1.0, 0.0]
        assert not report.findings, report.render_text()

    def test_rendezvous_exchange_no_findings(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me, peer = comm.Rank, 1 - comm.Rank
            n = 8192
            out = vm.new_array("int32", n, values=[me] * n)
            inn = vm.new_array("int32", n)
            if me == 0:
                comm.Send(out, peer, tag=1)
                comm.Recv(inn, peer, tag=1)
            else:
                comm.Recv(inn, peer, tag=1)
                comm.Send(out, peer, tag=1)
            return inn[0]

        results, report = _run(2, main, eager_threshold=1024)
        assert results == [1, 0]
        assert not report.findings, report.render_text()

    def test_collectives_no_findings(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            buf = vm.new_array("int32", 16, values=[comm.Rank] * 16)
            comm.Bcast(buf, 0)
            comm.Barrier()
            return buf[0]

        results, report = _run(3, main)
        assert results == [0, 0, 0]
        assert not report.findings, report.render_text()


# --------------------------------------------------------------------------
# MA-R01: deadlock knots
# --------------------------------------------------------------------------

class TestDeadlock:
    def test_recv_recv_pair(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            buf = vm.new_array("int32", 4)
            comm.Recv(buf, 1 - comm.Rank, tag=1)  # nobody sends
            return "unreachable"

        results, report = _run(2, main, timeout=60.0)
        assert results is None
        hits = report.by_rule("MA-R01")
        assert len(hits) == 1
        assert "rank 0" in hits[0].message and "rank 1" in hits[0].message

    def test_rendezvous_send_send_pair(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            out = vm.new_array("int32", 8192, values=[1] * 8192)
            comm.Send(out, 1 - comm.Rank, tag=2)  # both rendezvous, no recvs
            return "unreachable"

        results, report = _run(2, main, eager_threshold=1024, timeout=60.0)
        assert results is None
        assert report.by_rule("MA-R01")

    def test_three_rank_ring(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            buf = vm.new_array("int32", 4)
            left = (comm.Rank - 1) % comm.Size
            comm.Recv(buf, left, tag=1)  # everyone waits on the left
            return "unreachable"

        results, report = _run(3, main, timeout=60.0)
        assert results is None
        hits = report.by_rule("MA-R01")
        assert hits and "3 rank(s)" in hits[0].message

    def test_knot_excludes_runnable_ranks(self):
        # ranks 0/1 deadlock; ranks 2/3 exchange normally and must be
        # neither blamed nor blocked from appearing in the results
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me = comm.Rank
            buf = vm.new_array("int32", 4, values=[me] * 4)
            if me in (0, 1):
                comm.Recv(buf, 1 - me, tag=1)
                return "unreachable"
            peer = 5 - me  # 2 <-> 3
            if me == 2:
                comm.Send(buf, peer, tag=2)
                comm.Recv(buf, peer, tag=3)
            else:
                comm.Recv(buf, peer, tag=2)
                comm.Send(buf, peer, tag=3)
            return me

        results, report = _run(4, main, timeout=60.0)
        assert results is None  # the run as a whole is halted
        hits = report.by_rule("MA-R01")
        assert len(hits) == 1
        msg = hits[0].message
        assert "2 rank(s)" in msg
        assert "rank 2" not in msg and "rank 3" not in msg

    def test_eager_send_is_never_stuck(self):
        # the classic "unsafe but works" pattern: both ranks Send small
        # (eager) then Recv — eager staging means this completes, and the
        # sanitizer must not cry wolf mid-flight
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me, peer = comm.Rank, 1 - comm.Rank
            out = vm.new_array("int32", 16, values=[me] * 16)
            inn = vm.new_array("int32", 16)
            comm.Send(out, peer, tag=1)
            comm.Recv(inn, peer, tag=1)
            return inn[0]

        results, report = _run(2, main)
        assert results == [1, 0]
        assert not report.findings, report.render_text()


# --------------------------------------------------------------------------
# MA-R02: wildcard races
# --------------------------------------------------------------------------

class TestWildcardRace:
    def test_two_candidate_senders_flagged(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me = comm.Rank
            if me == 0:
                comm.Barrier()
                seen = []
                for _ in range(2):
                    buf = vm.new_array("int32", 4)
                    st = comm.Recv(buf, comm.ANY_SOURCE, tag=9)
                    seen.append(st.source)
                return sorted(seen)
            buf = vm.new_array("int32", 4, values=[me] * 4)
            comm.Send(buf, 0, tag=9)
            comm.Barrier()
            return me

        results, report = _run(3, main)
        assert results[0] == [1, 2]
        hits = report.by_rule("MA-R02")
        assert hits
        assert all(f.rank == 0 for f in hits)

    def test_single_sender_wildcard_is_fine(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                buf = vm.new_array("int32", 4)
                st = comm.Recv(buf, comm.ANY_SOURCE, tag=9)
                return st.source
            buf = vm.new_array("int32", 4, values=[7] * 4)
            comm.Send(buf, 0, tag=9)
            return comm.Rank

        results, report = _run(2, main)
        assert results == [1, 1]
        assert not report.by_rule("MA-R02"), report.render_text()

    def test_distinct_tags_do_not_race(self):
        # two senders but the wildcard recv selects on tag, so each
        # receive has exactly one candidate
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me = comm.Rank
            if me == 0:
                comm.Barrier()
                out = []
                for tag in (1, 2):
                    buf = vm.new_array("int32", 4)
                    st = comm.Recv(buf, comm.ANY_SOURCE, tag=tag)
                    out.append(st.source)
                return out
            buf = vm.new_array("int32", 4, values=[me] * 4)
            comm.Send(buf, 0, tag=me)
            comm.Barrier()
            return me

        results, report = _run(3, main)
        assert results[0] == [1, 2]
        assert not report.by_rule("MA-R02"), report.render_text()


# --------------------------------------------------------------------------
# MA-R03 / MA-R04: buffer discipline
# --------------------------------------------------------------------------

class TestBufferChecks:
    def test_modified_in_flight(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                buf = vm.new_array("int32", 8192, values=[1] * 8192)
                req = comm.Isend(buf, 1, tag=1)
                buf[0] = 999
                comm.Barrier()
                req.Wait()
            else:
                comm.Barrier()
                buf = vm.new_array("int32", 8192)
                comm.Recv(buf, 0, tag=1)
            return "done"

        _results, report = _run(2, main, eager_threshold=1024)
        hits = report.by_rule("MA-R03")
        assert hits and hits[0].rank == 0

    def test_overlapping_receives(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                land = vm.new_array("int32", 8)
                r1 = comm.Irecv(land, 1, tag=1)
                r2 = comm.Irecv(land, 1, tag=2)
                r1.Wait()
                r2.Wait()
            else:
                a = vm.new_array("int32", 8, values=[1] * 8)
                b = vm.new_array("int32", 8, values=[2] * 8)
                comm.Send(a, 0, tag=1)
                comm.Send(b, 0, tag=2)
            comm.Barrier()
            return "done"

        _results, report = _run(2, main)
        hits = report.by_rule("MA-R04")
        assert hits and hits[0].rank == 0

    def test_unmodified_isend_is_clean(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                buf = vm.new_array("int32", 8192, values=[1] * 8192)
                req = comm.Isend(buf, 1, tag=1)
                comm.Barrier()
                req.Wait()
            else:
                comm.Barrier()
                buf = vm.new_array("int32", 8192)
                comm.Recv(buf, 0, tag=1)
            return "done"

        _results, report = _run(2, main, eager_threshold=1024)
        assert not report.findings, report.render_text()


# --------------------------------------------------------------------------
# MA-R05: pin leaks
# --------------------------------------------------------------------------

class TestPinLeaks:
    def test_unconditional_pin_leak(self):
        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("int32", 16)
            vm.runtime.gc.pin(arr.ref)  # never unpinned
            return "done"

        _results, report = _run(2, main)
        hits = report.by_rule("MA-R05")
        assert hits and "never released" in hits[0].message

    def test_conditional_pin_still_active_at_finalize(self):
        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("int32", 16)
            vm.runtime.gc.register_conditional_pin(arr.ref, lambda: True)
            return "done"

        _results, report = _run(2, main)
        assert report.by_rule("MA-R05")

    def test_completed_conditional_pin_is_benign(self):
        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("int32", 16)
            vm.runtime.gc.register_conditional_pin(arr.ref, lambda: False)
            return "done"

        _results, report = _run(2, main)
        assert not report.by_rule("MA-R05"), report.render_text()

    def test_balanced_pin_unpin_is_clean(self):
        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("int32", 16)
            cookie = vm.runtime.gc.pin(arr.ref)
            vm.runtime.gc.unpin(cookie)
            return "done"

        _results, report = _run(2, main)
        assert not report.findings, report.render_text()


# --------------------------------------------------------------------------
# modes: disabled hooks are inert
# --------------------------------------------------------------------------

class TestDisabledMode:
    def test_disabled_records_nothing(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me = comm.Rank
            if me == 0:
                comm.Barrier()
                for _ in range(2):
                    buf = vm.new_array("int32", 4)
                    comm.Recv(buf, comm.ANY_SOURCE, tag=9)  # racy on purpose
                return "done"
            buf = vm.new_array("int32", 4, values=[me] * 4)
            comm.Send(buf, 0, tag=9)
            comm.Barrier()
            return "done"

        results, report = _run(3, main, sanitize="disabled")
        assert results == ["done"] * 3
        assert not report.findings


# --------------------------------------------------------------------------
# no false positives under seeded faults (retransmits look like stalls)
# --------------------------------------------------------------------------

@pytest.mark.faults
class TestNoFalsePositivesUnderFaults:
    OPTS = dict(retransmit_after=8, backoff=1.5, max_backoff_polls=64,
                max_retries=30, heartbeat_after=512)

    @pytest.mark.parametrize("protocol", ["eager", "rendezvous"])
    def test_faulty_pingpong_stays_clean(self, protocol):
        from repro.mp.channels import FaultPlan

        threshold = None if protocol == "eager" else 256
        nwords = 64 if protocol == "eager" else 2048

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            me, peer = comm.Rank, 1 - comm.Rank
            inn = vm.new_array("int32", nwords)
            for i in range(3):
                out = vm.new_array("int32", nwords, values=[i] * nwords)
                if me == 0:
                    comm.Send(out, peer, tag=i)
                    comm.Recv(inn, peer, tag=i)
                else:
                    comm.Recv(inn, peer, tag=i)
                    comm.Send(inn, peer, tag=i)
            return inn[0]

        results, report = _run(
            2, main,
            fault_plan=FaultPlan(seed=7, drop=0.1, corrupt=0.1, reorder=0.1),
            reliability_opts=self.OPTS, eager_threshold=threshold,
            timeout=300.0,
        )
        assert results == [2, 2]
        assert not report.findings, report.render_text()

    def test_recv_from_a_killed_rank_is_proc_failed_not_a_knot(self):
        """A wait on a dead rank is the failure path's to finish, not a
        deadlock (a fault plan keeps the scheduler's verdict off)."""
        from repro.mp.channels import FaultPlan
        from repro.mp.errors import MpiErrProcFailed

        plan = FaultPlan(seed=1)

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            comm.SetErrhandler(comm.ERRORS_RETURN)
            arr = vm.new_array("int32", 8)
            if comm.Rank == 1:
                comm.Recv(arr, 0, tag=1)
                plan.kill(1)  # mid-exchange: the reply below never comes
                return "crashed"
            comm.Send(arr, 1, tag=1)
            with pytest.raises(MpiErrProcFailed):
                comm.Recv(arr, 1, tag=2)
            return sorted(ctx.engine.device.failed_ranks)

        results, report = _run(2, main, fault_plan=plan, reliability_opts=self.OPTS)
        assert results == [[1], "crashed"]
        assert not report.by_rule("MA-R01"), report.render_text()


class TestConditionalPinDrop:
    def test_completed_irecv_pin_dropped_at_mark_is_not_a_leak(self):
        """The ``cond_drop`` subscriber: the collector disregards a
        conditional pin whose request completed (§7.4), the sanitizer
        hears it, and nothing is left to report at finalize."""
        from repro.runtime.safepoint import EveryNStressor

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                comm.Barrier()  # the receive is posted (and pinned) first
                comm.Send(vm.new_array("int32", 64, values=list(range(64))), 1, tag=3)
                comm.Barrier()
                return None
            arr = vm.new_array("int32", 64)
            req = comm.Irecv(arr, 0, tag=3)
            comm.Barrier()
            req.Wait()
            # a collection at the next poll: its mark finds the request done
            vm.runtime.safepoint.stressor = EveryNStressor(1)
            comm.Barrier()
            pins = ctx.san.core._pins[comm.Rank].values()
            return (vm.runtime.gc.stats.conditional_pins_dropped,
                    [p.kind for p in pins if not p.released], arr[63])

        results, report = _run(2, main)
        dropped, unreleased, last = results[1]
        assert dropped >= 1 and unreleased == [] and last == 63
        assert not report.by_rule("MA-R05"), report.render_text()
