#!/usr/bin/env python
"""Buggy on purpose: a wildcard-receive message race (MA-R02).

Ranks 1 and 2 both send a result to rank 0 with the same tag; rank 0
collects them with two ``ANY_SOURCE`` receives and — the bug — assumes
the first arrival is rank 1's.  Whichever send is staged first wins, so
the program's output depends on timing, not program order.

The sanitizer flags every ANY_SOURCE match that had more than one
candidate sender, turning a heisenbug into a deterministic warning.

Run:  python examples/analyze/wildcard_race.py
"""

from repro.cluster import mpiexec
from repro.motor import motor_session


def main(ctx):
    vm = ctx.session
    comm = vm.comm_world
    me = comm.Rank
    if me == 0:
        comm.Barrier()  # both workers have already sent when we look
        arrivals = []
        for _ in range(2):
            buf = vm.new_array("int32", 8)
            st = comm.Recv(buf, comm.ANY_SOURCE, tag=11)  # BUG: racy wildcard
            arrivals.append((st.source, buf[0]))
        return arrivals
    # workers: compute, send, and only then hit the barrier
    buf = vm.new_array("int32", 8, values=[me * 100] * 8)
    comm.Send(buf, 0, tag=11)
    comm.Barrier()
    return me


def run():
    """Run the racy gather under the sanitizer; return the Report."""
    return mpiexec(3, main, sanitize="enabled", session_factory=motor_session).report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-R02"), "expected a wildcard-race finding"
    print("OK: sanitizer flagged the ANY_SOURCE race deterministically")
