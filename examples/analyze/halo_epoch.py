#!/usr/bin/env python
"""Buggy on purpose: a one-sided halo exchange with no access epoch (MA-S11).

Each rank exposes its grid slab as a window and puts its edge cells into
the neighbour — but the author forgot the opening ``WinFence``, so the
``WinPut`` runs with every window epoch *definitely closed*.  Nothing
orders the remote write against the target's reads: the program is racy
by construction.

This demo is caught twice, once per analyzer pass:

* **statically** (MA-S11): the static pass carries a window-epoch cell
  on every path it walks and flags the put site, which every path
  reaches with the epoch closed (no ``WinFence`` dominates it);
* **at run time** (MA-R06): the window itself sees the op arrive outside
  any access epoch and reports it through the ``rma_violation`` hook
  (the op is tolerated, like every runtime rule).

Run:  python examples/analyze/halo_epoch.py
"""

from repro.analyze import analyze_assembly
from repro.il import assemble

BUGGY_IL = """
.method main() returns {
    .locals 2
    ldc.i4 8
    newarr int32                 // my grid slab (halo cells at the ends)
    callintern MP.WinCreate/1:r
    stloc 0
    ldc.i4 2
    newarr int32                 // my edge cells
    stloc 1
    ldloc 0
    ldloc 1
    ldc.i4 1
    callintern MP.Rank/0:r
    sub                          // neighbour = 1 - rank
    ldc.i4 0
    callintern MP.WinPut/4       // BUG: no WinFence dominates this site
    callintern MP.Barrier/0
    ldloc 0
    callintern MP.WinFree/1
    ldc.i4 0
    ret
}
"""

# The fixed twin brackets the put in a fence epoch: the first fence
# opens the access epoch, the second closes it and makes the remote
# write visible before anyone reads the slab.
CLEAN_IL = """
.method main() returns {
    .locals 2
    ldc.i4 8
    newarr int32
    callintern MP.WinCreate/1:r
    stloc 0
    ldc.i4 2
    newarr int32
    stloc 1
    ldloc 0
    callintern MP.WinFence/1     // open the access epoch (collective)
    ldloc 0
    ldloc 1
    ldc.i4 1
    callintern MP.Rank/0:r
    sub
    ldc.i4 0
    callintern MP.WinPut/4
    ldloc 0
    callintern MP.WinFence/1     // close: remote completion visible
    ldloc 0
    callintern MP.WinFree/1
    ldc.i4 0
    ret
}
"""


def run():
    """Static-check the buggy program; return the Report."""
    return analyze_assembly(assemble(BUGGY_IL, name="halo_epoch"), world_size=2)


def main(ctx):
    """Rank main: execute BUGGY_IL on this rank's Motor VM (module-level
    per the spawn-safety rule, even though sanitize mode is inproc-only)."""
    from repro.il import ExecutionEngine
    from repro.motor.system_mp import register_mp_internals

    vm = ctx.session
    asm = assemble(BUGGY_IL, name="halo_epoch")
    engine = ExecutionEngine(vm.runtime, asm, register_mp_internals(vm))
    return engine.call("main")


def run_sanitized():
    """Execute BUGGY_IL under the runtime sanitizer; return its Report.

    Cross-validation: the epoch violation MA-S11 predicts is the one
    MA-R06 observes when the put actually runs.
    """
    from repro.cluster.world import mpiexec
    from repro.motor import motor_session

    return mpiexec(2, main, channel="shm", sanitize="enabled",
                   session_factory=motor_session).report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-S11"), "expected an epoch-discipline finding"

    clean = analyze_assembly(assemble(CLEAN_IL, name="fixed"), world_size=2)
    assert not clean.findings, clean.render_text()

    runtime = run_sanitized()
    print(runtime.render_text())
    assert runtime.by_rule("MA-R06"), "expected the runtime sanitizer to agree"
    print("OK: the same epoch misuse caught statically (MA-S11) "
          "and at run time (MA-R06)")
