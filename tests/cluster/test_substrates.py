"""Cross-substrate conformance: the same programs on inproc and proc.

One parametrized suite runs the acceptance subset — pt2pt eager and
rendezvous, a blocking and a nonblocking collective, the fig-9 pingpong
workload, and the observed-snapshot path — on both execution substrates.
The ``proc`` leg boots real OS processes, so it carries the ``realproc``
marker (excluded from tier-1 by default; run with ``-m realproc``) and
hard timeouts on every launch.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.cluster.world import mpiexec
from repro.mp.buffers import BufferDesc
from repro.mp.datatypes import LONG
from repro.mp.errors import ERRORS_RETURN, MpiErrProcFailed
from repro.workloads.pingpong import BufferPingPong

SUBSTRATES = ["inproc", pytest.param("proc", marks=pytest.mark.realproc)]
LAUNCH_TIMEOUT = 60.0
TAG = 7


def _payload(nbytes: int) -> bytes:
    return (bytes(range(256)) * (nbytes // 256 + 1))[:nbytes]


class PingMain:
    """Rank 0 sends ``nbytes`` to rank 1; rank 1 returns what arrived."""

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes

    def __call__(self, ctx):
        if ctx.rank == 0:
            ctx.engine.send(BufferDesc.from_bytes(_payload(self.nbytes)), 1, TAG)
            return "sent"
        buf = BufferDesc.from_bytes(bytearray(self.nbytes))
        status = ctx.engine.recv(buf, 0, TAG)
        assert status.source == 0
        return buf.tobytes()


class BarrierMain:
    """Blocking collective: everyone meets at the barrier, twice."""

    def __call__(self, ctx):
        ctx.engine.barrier()
        ctx.engine.barrier()
        return ctx.rank * 10


class AllreduceMain:
    """Nonblocking collective: sum of (rank + 1) across the world."""

    def __call__(self, ctx):
        sendbuf = BufferDesc.from_bytes(LONG.pack_values([ctx.rank + 1]))
        recvbuf = BufferDesc.from_bytes(bytearray(LONG.size))
        req = ctx.engine.iallreduce(sendbuf, recvbuf, LONG)
        ctx.engine.wait(req)
        return LONG.unpack_values(recvbuf.tobytes())[0]


class DyingMain:
    """Rank 1 dies mid-run; rank 0 waits on it with ERRORS_RETURN."""

    def __call__(self, ctx):
        ctx.comm_world.errhandler = ERRORS_RETURN
        if ctx.rank == 1:
            os._exit(1)
        buf = BufferDesc.from_bytes(bytearray(8))
        ctx.engine.recv(buf, 1, TAG)
        return "peer never died"


class ErrorMain:
    """Rank 1 raises an application error before communicating."""

    def __call__(self, ctx):
        if ctx.rank == 1:
            raise ValueError("boom from rank 1")
        ctx.comm_world.errhandler = ERRORS_RETURN
        buf = BufferDesc.from_bytes(bytearray(8))
        try:
            ctx.engine.recv(buf, 1, TAG)
        except MpiErrProcFailed:
            pass
        return "survived"


class SlowErrorMain:
    """Rank 1 raises at once; rank 0 sleeps past the launch timeout."""

    def __call__(self, ctx):
        if ctx.rank == 1:
            raise ValueError("boom before the timeout")
        time.sleep(30)


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestConformance:
    def test_pt2pt_eager(self, substrate):
        n = 1024  # well under the 128 KiB eager threshold
        results = mpiexec(2, PingMain(n), substrate=substrate, timeout=LAUNCH_TIMEOUT)
        assert results[0] == "sent"
        assert results[1] == _payload(n)

    def test_pt2pt_rendezvous(self, substrate):
        n = 256 * 1024  # over the 128 KiB eager threshold: RNDV path
        results = mpiexec(2, PingMain(n), substrate=substrate, timeout=LAUNCH_TIMEOUT)
        assert results[1] == _payload(n)

    def test_blocking_collective_barrier(self, substrate):
        results = mpiexec(4, BarrierMain(), substrate=substrate, timeout=LAUNCH_TIMEOUT)
        assert results == [0, 10, 20, 30]

    def test_nonblocking_collective_iallreduce(self, substrate):
        results = mpiexec(4, AllreduceMain(), substrate=substrate, timeout=LAUNCH_TIMEOUT)
        assert results == [10, 10, 10, 10]  # 1+2+3+4 on every rank

    def test_pingpong_workload(self, substrate):
        main = BufferPingPong(sizes=[4, 1024], iterations=4, timed=2, runs=1)
        results = mpiexec(2, main, substrate=substrate, timeout=LAUNCH_TIMEOUT)
        lead, idle = results
        assert idle is None  # odd rank of the pair reports nothing
        assert set(lead) == {4, 1024}
        assert all(us > 0 for us in lead.values())

    def test_observed_snapshot(self, substrate):
        results = mpiexec(
            2, PingMain(64), observe="enabled", substrate=substrate, timeout=LAUNCH_TIMEOUT
        )
        snapshot = results.snapshot
        assert results[1] == _payload(64)
        assert snapshot is not None
        assert sorted(snapshot["ranks"]) == [0, 1]
        assert snapshot["counters"]  # the send/recv showed up in the merge


@pytest.mark.realproc
class TestProcOnly:
    """Behavior only the real-process substrate can exhibit."""

    def test_dead_worker_surfaces_proc_failure(self):
        with pytest.raises(MpiErrProcFailed):
            mpiexec(2, DyingMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)

    def test_worker_error_is_root_cause(self):
        """The app error wins over the consequential peer-failure storm."""
        with pytest.raises(ValueError, match="boom from rank 1"):
            mpiexec(2, ErrorMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)

    def test_launch_timeout_keeps_the_root_cause(self):
        """An error one rank reported outranks the timeout another caused,
        which names every unfinished rank as the cause."""
        with pytest.raises(ValueError, match="boom before the timeout") as err:
            mpiexec(2, SlowErrorMain(), substrate="proc", timeout=3.0)
        assert isinstance(err.value.__cause__, TimeoutError)
        assert "rank(s) [0] did not finish" in str(err.value.__cause__)

    @pytest.mark.parametrize("n", [2, 4])
    def test_modelled_figures_equal_inproc_socks(self, n):
        """Hosting moves no modelled number: real processes referee the
        baton-scheduled threads, pair by pair."""
        main = BufferPingPong(
            sizes=[4, 1024, 65536, 131072, 262144], iterations=8, timed=4, runs=1
        )
        runs = [
            mpiexec(n, main, clock_mode="virtual", timeout=LAUNCH_TIMEOUT, **where)
            for where in ({"substrate": "proc"}, {"substrate": "inproc", "channel": "sock"})
        ]
        assert list(runs[0]) == list(runs[1])
        assert runs[0][0] == {
            4: 56.48, 1024: 76.88, 65536: 1367.12, 131072: 2677.84, 262144: 5190.136
        }

    def test_sanitize_rejected_under_proc(self):
        with pytest.raises(ValueError, match="sanitize"):
            mpiexec(2, BarrierMain(), substrate="proc", sanitize="enabled")

    def test_cli_smoke(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cluster", "-n", "2",
             "--sizes", "4,1024", "--iterations", "4"],
            capture_output=True, text=True, timeout=120, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "1024" in proc.stdout


def test_async_progress_rejected_under_proc_before_any_fork(monkeypatch):
    """``progress="async"`` is a tick on the modelled clock; process-hosted
    ranks have no progress thread, and proc says so before it builds or
    forks anything (tier-1: no ``realproc`` marker needed)."""
    from repro.cluster.procsub import ProcSubstrate

    def unreachable(self, *args, **kwargs):
        raise AssertionError("the proc substrate got past validate()")

    monkeypatch.setattr(ProcSubstrate, "build_fabric", unreachable)
    monkeypatch.setattr(ProcSubstrate, "launch", unreachable)
    with pytest.raises(ValueError, match="substrate='inproc'"):
        mpiexec(2, BarrierMain(), substrate="proc", progress="async")


def test_cli_clock_follows_the_substrate(capsys):
    """The CLI's clock defaults to the substrate's: inproc reports modelled
    time, and ``--clock wall`` there is a usage error (exit 2)."""
    from repro.cluster.__main__ import main

    with pytest.raises(SystemExit) as stop:
        main(["--substrate", "inproc", "--clock", "wall"])
    assert stop.value.code == 2
    assert "--clock wall needs --substrate proc" in capsys.readouterr().err
    argv = ["-n", "2", "--substrate", "inproc", "--sizes", "4", "--iterations", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "clock=virtual" in out and "sim-us/iter" in out
