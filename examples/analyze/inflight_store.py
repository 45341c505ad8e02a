#!/usr/bin/env python
"""Buggy on purpose: storing into a posted send buffer (MA-S07 / MA-R03).

A nonblocking ``Isend`` lends the buffer to the runtime until ``Wait``
returns it.  Here rank 0 posts a rendezvous-sized send, then scribbles
on element 0 *before* waiting — whether the peer sees the old or the
new value depends on when the transfer drains.

This demo is caught twice, once per analyzer pass:

* **statically** (MA-S07): the rank-symbolic pass tracks the request's
  in-flight window along each path and flags the store inside it;
* **at run time** (MA-R03): ``run_sanitized()`` executes the same IL on
  a sanitized world (4 KiB eager threshold, so the 64 KiB payload takes
  the rendezvous path and is genuinely in flight during the store).

Run:  python examples/analyze/inflight_store.py
"""

from repro.analyze import analyze_assembly
from repro.il import assemble

BUGGY_IL = """
.method main() returns {
    .locals 2
    callintern MP.Rank/0:r
    brtrue receiver
    ldc.i4 16384
    newarr int32                 // 64 KiB: rendezvous under a 4 KiB eager cap
    stloc 0
    ldloc 0
    ldc.i4 1
    ldc.i4 5
    callintern MP.Isend/3:r
    stloc 1
    ldloc 0
    ldc.i4 0
    ldc.i4 999
    stelem                       // BUG: the buffer is lent out until Wait
    callintern MP.Barrier/0      // peer posts its receive only after this
    ldloc 1
    callintern MP.Wait/1
    ldc.i4 0
    ret
receiver:
    callintern MP.Barrier/0
    ldc.i4 16384
    newarr int32
    ldc.i4 0
    ldc.i4 5
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
}
"""

# The fixed twin defers the store until Wait has returned the buffer.
CLEAN_IL = """
.method main() returns {
    .locals 2
    callintern MP.Rank/0:r
    brtrue receiver
    ldc.i4 16384
    newarr int32
    stloc 0
    ldloc 0
    ldc.i4 1
    ldc.i4 5
    callintern MP.Isend/3:r
    stloc 1
    callintern MP.Barrier/0
    ldloc 1
    callintern MP.Wait/1
    ldloc 0
    ldc.i4 0
    ldc.i4 999
    stelem                       // safe: the transfer has completed
    ldc.i4 0
    ret
receiver:
    callintern MP.Barrier/0
    ldc.i4 16384
    newarr int32
    ldc.i4 0
    ldc.i4 5
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
}
"""


def run():
    """Static-check the buggy program; return the Report."""
    return analyze_assembly(assemble(BUGGY_IL, name="inflight_store"), world_size=2)


def main(ctx):
    """Rank main: execute BUGGY_IL on this rank's Motor VM (module-level
    per the spawn-safety rule, even though sanitize mode is inproc-only)."""
    from repro.il import ExecutionEngine
    from repro.motor.system_mp import register_mp_internals

    vm = ctx.session
    asm = assemble(BUGGY_IL, name="inflight_store")
    engine = ExecutionEngine(vm.runtime, asm, register_mp_internals(vm))
    return engine.call("main")


def run_sanitized():
    """Execute BUGGY_IL under the runtime sanitizer; return its Report.

    Cross-validation: the static MA-S07 finding and the runtime MA-R03
    finding are the same bug seen by the two passes.
    """
    from repro.cluster.world import mpiexec
    from repro.motor import motor_session

    return mpiexec(
        2, main, sanitize="enabled", session_factory=motor_session, eager_threshold=4096
    ).report


if __name__ == "__main__":
    report = run()
    print(report.render_text())
    assert report.by_rule("MA-S07"), "expected an in-flight-store finding"

    clean = analyze_assembly(assemble(CLEAN_IL, name="fixed"), world_size=2)
    assert not clean.findings, clean.render_text()

    runtime = run_sanitized()
    print(runtime.render_text())
    assert runtime.by_rule("MA-R03"), "expected the runtime sanitizer to agree"
    print("OK: the same bug caught statically (MA-S07) and at run time (MA-R03)")
