#!/usr/bin/env python
"""Buggy on purpose: a head-to-head rendezvous send deadlock (MA-R01).

Both ranks issue a blocking ``Send`` of a rendezvous-sized buffer before
either posts its receive.  Rendezvous sends cannot complete until the
peer's matching receive supplies a landing buffer (CTS), so each rank
blocks forever inside its own ``Send`` — the classic unsafe exchange
that "happens to work" with small (eager) messages and then deadlocks
in production when the payload grows past the eager threshold.

The runtime sanitizer builds the cross-rank wait-for graph, finds the
2-cycle, reports MA-R01, and halts the run instead of hanging it.

Run:  python examples/analyze/deadlock_pair.py
"""

from repro.cluster import mpiexec
from repro.motor import motor_session

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
    """Run the buggy exchange under the sanitizer; return the Report."""
    results = mpiexec(
        2, main, sanitize="enabled", session_factory=motor_session,
        eager_threshold=EAGER_THRESHOLD, timeout=60.0,
    )
    assert results.deadlocked, "the sanitizer should have halted the run"
    return results.report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-R01"), "expected a deadlock-cycle finding"
    print("OK: sanitizer reported the send/send deadlock instead of hanging")
