#!/usr/bin/env python
"""Buggy on purpose: a wildcard receive racing two matched sends (MA-S10).

Rank 0 receives twice from ``ANY_SOURCE`` while ranks 1 and 2 both have
matching sends in flight (the barrier guarantees both are staged before
rank 0 looks).  Which message lands first is timing-dependent — the
program is nondeterministic by construction.

This demo is caught twice, once per analyzer pass:

* **statically** (MA-S10): the matching simulation reaches the first
  wildcard receive with two live candidates and flags the ambiguity;
* **at run time** (MA-R02): ``run_sanitized()`` executes the same IL on
  a sanitized three-rank world and the wildcard-race hook records the
  same ambiguity as it actually happens.

Run:  python examples/analyze/wildcard_static.py
"""

from repro.analyze import analyze_assembly
from repro.il import assemble

BUGGY_IL = """
.method main() returns {
    .locals 1
    callintern MP.Rank/0:r
    brtrue sender
    callintern MP.Barrier/0      // both senders have staged before we look
    ldc.i4 4
    newarr int32
    stloc 0
    ldloc 0
    ldc.i4 -1
    ldc.i4 9
    callintern MP.Recv/3:r       // BUG: ANY_SOURCE with two candidates
    pop
    ldloc 0
    ldc.i4 -1
    ldc.i4 9
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
sender:
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 9
    callintern MP.Send/3
    callintern MP.Barrier/0
    ldc.i4 0
    ret
}
"""

# The fixed twin names its sources: first 1, then 2 — deterministic.
CLEAN_IL = """
.method main() returns {
    .locals 1
    callintern MP.Rank/0:r
    brtrue sender
    callintern MP.Barrier/0
    ldc.i4 4
    newarr int32
    stloc 0
    ldloc 0
    ldc.i4 1
    ldc.i4 9
    callintern MP.Recv/3:r
    pop
    ldloc 0
    ldc.i4 2
    ldc.i4 9
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
sender:
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 9
    callintern MP.Send/3
    callintern MP.Barrier/0
    ldc.i4 0
    ret
}
"""


def run():
    """Static-check the buggy program; return the Report."""
    return analyze_assembly(assemble(BUGGY_IL, name="wildcard_static"), world_size=3)


def main(ctx):
    """Rank main: execute BUGGY_IL on this rank's Motor VM (module-level
    per the spawn-safety rule, even though sanitize mode is inproc-only)."""
    from repro.il import ExecutionEngine
    from repro.motor.system_mp import register_mp_internals

    vm = ctx.session
    asm = assemble(BUGGY_IL, name="wildcard_static")
    engine = ExecutionEngine(vm.runtime, asm, register_mp_internals(vm))
    return engine.call("main")


def run_sanitized():
    """Execute BUGGY_IL under the runtime sanitizer; return its Report.

    Cross-validation: the static MA-S10 finding and the runtime MA-R02
    finding are the same nondeterminism seen by the two passes.
    """
    from repro.cluster.world import mpiexec
    from repro.motor import motor_session

    return mpiexec(3, main, sanitize="enabled", session_factory=motor_session).report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-S10"), "expected a wildcard-ambiguity finding"

    clean = analyze_assembly(assemble(CLEAN_IL, name="fixed"), world_size=3)
    assert not clean.findings, clean.render_text()

    runtime = run_sanitized()
    print(runtime.render_text())
    assert runtime.by_rule("MA-R02"), "expected the runtime sanitizer to agree"
    print("OK: the same race caught statically (MA-S10) and at run time (MA-R02)")
