"""Window pin discipline: an exposed window is an unconditional pin.

The pin policy treats a window exposure as an epoch-long unconditional
pin (``policy.window_pin``), released when the epoch closes — so the
MA-R05 leak scan must stay quiet for any balanced window program, and
the ledger (``window_pins``/``window_releases``, ``active_pin_count``)
must return to zero.
"""

import pytest

from repro.cluster import mpiexec
from repro.cluster.world import mpiexec
from repro.motor import motor_session

pytestmark = pytest.mark.analyze


def _run(n, main, **kw):
    kw.setdefault("session_factory", motor_session)
    kw.setdefault("sanitize", "enabled")
    results = mpiexec(n, main, **kw)
    return (None if results.deadlocked else results), results.report


def _fence_program(ctx):
    vm = ctx.session
    comm = vm.comm_world
    arr = vm.new_array("int32", 8)
    win = comm.WinCreate(arr)
    src = vm.new_array("int32", 2, values=[1 + comm.Rank, 2 + comm.Rank])
    win.Fence()
    win.Put(src, (comm.Rank + 1) % comm.Size, 0)
    win.Fence()
    win.Free()
    p = vm.policy.stats
    return p.window_pins, p.window_releases, vm.runtime.gc.active_pin_count


class TestWindowPins:
    def test_exposed_window_never_trips_ma_r05(self):
        _results, report = _run(2, _fence_program)
        assert not report.by_rule("MA-R05"), report.render_text()

    def test_closing_epoch_releases_pin(self):
        res = mpiexec(2, _fence_program, channel="shm",
                      session_factory=motor_session, timeout=120)
        for pins, releases, active in res:
            assert pins == releases and pins >= 1, res
            assert active == 0, res

    def test_window_pinned_while_epoch_open(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("int32", 8)
            win = comm.WinCreate(arr)
            base = vm.runtime.gc.active_pin_count
            win.Fence()
            during = vm.runtime.gc.active_pin_count
            win.Fence()
            win.Free()
            return base, during, vm.runtime.gc.active_pin_count

        res = mpiexec(2, main, channel="shm", session_factory=motor_session,
                      timeout=120)
        for base, during, after in res:
            assert during > base, res  # the exposure holds a pin
            assert after == 0, res

    def test_free_with_open_epoch_balances_ledger(self):
        # mp_win_free tolerates a missing closing fence: the implicit
        # close must still release every pin the epoch took
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("int32", 8)
            win = comm.WinCreate(arr)
            src = vm.new_array("int32", 2, values=[5, 6])
            win.Fence()
            win.Put(src, (comm.Rank + 1) % comm.Size, 0)
            win.Free()
            p = vm.policy.stats
            return p.window_pins, p.window_releases, vm.runtime.gc.active_pin_count

        _results, report = _run(2, main)
        assert not report.by_rule("MA-R05"), report.render_text()
        res = mpiexec(2, main, channel="shm", session_factory=motor_session,
                      timeout=120)
        for pins, releases, active in res:
            assert pins == releases, res
            assert active == 0, res

    def test_pscw_epochs_balance(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("int32", 4)
            win = comm.WinCreate(arr)
            if comm.Rank == 0:
                src = vm.new_array("int32", 4, values=[5, 6, 7, 8])
                win.Start([1])
                win.Put(src, 1, 0)
                win.Complete()
            else:
                win.Post([0])
                win.Wait()
            win.Free()
            p = vm.policy.stats
            return p.window_pins, p.window_releases, vm.runtime.gc.active_pin_count

        _results, report = _run(2, main)
        assert not report.by_rule("MA-R05"), report.render_text()
        res = mpiexec(2, main, channel="shm", session_factory=motor_session,
                      timeout=120)
        for pins, releases, active in res:
            assert pins == releases, res
            assert active == 0, res
