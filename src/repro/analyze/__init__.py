"""Motor Analyzer: static binding-integrity checks + a runtime sanitizer.

Two coordinated passes over the same safety claims the paper makes for
Motor's restricted MPI bindings (§4.2/§4.3):

* the **static pass** (:mod:`repro.analyze.rankflow`) executes each IL
  method once per rank predicate over its CFG (:mod:`repro.analyze.cfg`)
  and models what reaches every ``System.MP`` ``callintern`` —
  rejecting reference-bearing buffers on raw transfers (MA-S01),
  call-signature mismatches (MA-S02), statically unmatchable sends
  (MA-S03), unknown MP internals (MA-S04) and one-sided ops outside any
  window epoch (MA-S11) — and the whole program's communication
  structure: collective divergence (MA-S05), matched-pair type/length
  mismatches (MA-S06), stores into in-flight buffers (MA-S07), request
  leaks (MA-S08), cyclic blocking dependencies (MA-S09) and ambiguous
  wildcard receives (MA-S10);
* the **runtime pass** (:mod:`repro.analyze.sanitizer`) subscribes to
  the hook spine of the device, matching queues, collector, pin policy
  and window layer — detecting wildcard-receive races (MA-R02), buffers
  modified or reused while an operation is in flight (MA-R03/MA-R04),
  pin leaks (MA-R05) and one-sided epoch violations (MA-R06/MA-R07) —
  and records the inproc scheduler's deadlock verdict as MA-R01.

Both passes emit :class:`~repro.analyze.findings.Finding` records into a
:class:`~repro.analyze.findings.Report`, exportable as text or JSON;
``python -m repro.analyze``
(or ``python -m repro.bench analyze``) runs them from the command line,
and ``python -m repro.analyze gate`` sweeps the repository's IL against
the checked-in baseline (:mod:`repro.analyze.gate`).
"""

from repro.analyze.cfg import CFG, BasicBlock, build_cfg
from repro.analyze.findings import (
    RULES,
    Finding,
    Report,
    Rule,
    finding_from_diagnostic,
    meets_threshold,
)
from repro.analyze.gate import discover_il_units, run_gate
from repro.analyze.rankflow import RankFlow, analyze_assembly, run_rankflow
from repro.analyze.sanitizer import (
    RankSanitizer,
    Sanitizer,
    attach_engine,
    attach_gc,
    attach_vm,
    detach_engine,
)

__all__ = [
    "Finding",
    "Report",
    "Rule",
    "RULES",
    "finding_from_diagnostic",
    "meets_threshold",
    "analyze_assembly",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "RankFlow",
    "run_rankflow",
    "discover_il_units",
    "run_gate",
    "Sanitizer",
    "RankSanitizer",
    "attach_engine",
    "attach_gc",
    "attach_vm",
    "detach_engine",
]
