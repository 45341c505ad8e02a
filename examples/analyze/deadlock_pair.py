#!/usr/bin/env python
"""Buggy on purpose: a head-to-head rendezvous send deadlock (MA-R01).

Both ranks issue a blocking ``Send`` of a rendezvous-sized buffer before
either posts its receive.  Rendezvous sends cannot complete until the
peer's matching receive supplies a landing buffer (CTS), so each rank
blocks forever inside its own ``Send`` — the classic unsafe exchange
that "happens to work" with small (eager) messages and then deadlocks
in production when the payload grows past the eager threshold.

The inproc scheduler sees the moment both ranks wait with nothing in
flight and raises ``MpiErrDeadlock`` naming each blocked ``Send`` at
once, instead of letting the run hang until its timeout.  Under the
runtime sanitizer that verdict becomes an MA-R01 finding and the run
comes back empty with ``.deadlocked`` set.

Run:  python examples/analyze/deadlock_pair.py
"""

from repro.cluster import mpiexec
from repro.motor import motor_session
from repro.mp.errors import MpiErrDeadlock

#: with a 4 KiB eager threshold this payload always takes the
#: rendezvous path; shrink it below the threshold and the deadlock
#: "disappears" — exactly why this bug survives testing
NBYTES = 64 * 1024
EAGER_THRESHOLD = 4 * 1024


def main(ctx):
    vm = ctx.session
    comm = vm.comm_world
    me, peer = comm.Rank, 1 - comm.Rank
    out = vm.new_array("int32", NBYTES // 4, values=[me] * (NBYTES // 4))
    inn = vm.new_array("int32", NBYTES // 4)
    comm.Send(out, peer, tag=3)  # BUG: both ranks send first
    comm.Recv(inn, peer, tag=3)  # never reached
    return "unreachable"


def run():
    """Run the buggy exchange bare, then under the sanitizer; return the Report."""
    opts = dict(session_factory=motor_session, eager_threshold=EAGER_THRESHOLD, timeout=60.0)
    try:
        mpiexec(2, main, clock_mode="virtual", **opts)
    except MpiErrDeadlock as err:
        assert "rank 0 [Send(dst=1, tag=3)]" in str(err), err
    else:
        raise AssertionError("the exchange should have deadlocked")
    results = mpiexec(2, main, sanitize="enabled", **opts)
    assert results.deadlocked, "the sanitizer should have halted the run"
    return results.report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-R01"), "expected a deadlock finding"
    print("OK: sanitizer reported the send/send deadlock instead of hanging")
