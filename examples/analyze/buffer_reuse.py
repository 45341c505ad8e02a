#!/usr/bin/env python
"""Buggy on purpose: touching buffers owned by in-flight operations.

Two distinct bugs, both variants of the same mistake — treating a
buffer handed to a nonblocking operation as if it were still yours:

* **MA-R03** — rank 0 posts an ``Isend`` and then overwrites the buffer
  before ``Wait``.  The sanitizer checksums the payload at post time and
  again at completion; a mismatch means the receiver got bytes the
  sender never intended.
* **MA-R04** — rank 0 posts two ``Irecv`` operations landing in the
  same array.  Which receive's payload survives in the overlap depends
  on completion order; the sanitizer flags the overlapping post
  immediately.

Run:  python examples/analyze/buffer_reuse.py
"""

from repro.cluster import mpiexec
from repro.motor import motor_session

NWORDS = 16 * 1024  # rendezvous-sized with the 4 KiB threshold below
EAGER_THRESHOLD = 4 * 1024


def main(ctx):
    vm = ctx.session
    comm = vm.comm_world
    me = comm.Rank

    # --- bug 1: write into a buffer while its Isend is in flight ---------
    if me == 0:
        buf = vm.new_array("int32", NWORDS, values=[7] * NWORDS)
        req = comm.Isend(buf, 1, tag=1)
        buf[0] = 999            # BUG: the send has not completed
        comm.Barrier()          # peer posts its receive only after this
        req.Wait()
    else:
        comm.Barrier()
        buf = vm.new_array("int32", NWORDS)
        comm.Recv(buf, 0, tag=1)

    # --- bug 2: two concurrent receives into the same array --------------
    if me == 0:
        land = vm.new_array("int32", 8)
        r1 = comm.Irecv(land, 1, tag=2)   # BUG: same landing buffer
        r2 = comm.Irecv(land, 1, tag=3)
        r1.Wait()
        r2.Wait()
    else:
        a = vm.new_array("int32", 8, values=[1] * 8)
        b = vm.new_array("int32", 8, values=[2] * 8)
        comm.Send(a, 0, tag=2)
        comm.Send(b, 0, tag=3)
    comm.Barrier()
    return "done"


def run():
    """Run both buffer bugs under the sanitizer; return the Report."""
    return mpiexec(
        2, main, sanitize="enabled", session_factory=motor_session,
        eager_threshold=EAGER_THRESHOLD,
    ).report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-R03"), "expected a modified-in-flight finding"
    assert report.by_rule("MA-R04"), "expected an overlapping-buffers finding"
    print("OK: sanitizer caught both buffer-ownership violations")
