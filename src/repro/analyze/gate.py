"""The analyzer CI gate: sweep the repo's IL, diff against a baseline.

The repository ships IL programs in two forms: ``*.il`` files, and
module-level Python string constants (the ``examples/analyze`` demos
embed ``BUGGY_IL``/``CLEAN_IL`` side by side).  The gate discovers both
under ``examples/`` and ``src/repro/baselines/``, runs the full static
analyzer over every unit, and compares the findings against a
checked-in **suppression baseline** (``analyze-baseline.json``):

* findings listed in the baseline are *expected* — the deliberately
  buggy demos stay red in the report but green in CI;
* findings NOT in the baseline fail the gate — a regression (or a new
  demo whose findings were not acknowledged);
* baseline entries that no longer fire are reported as *stale* so the
  file cannot rot silently (they do not fail the gate: an improved
  analyzer that loses a false positive should not break the build).

Baseline identity is ``(rule, assembly, method, pc)`` — message text is
deliberately excluded so rewording a diagnostic does not invalidate the
baseline.  ``--update-baseline`` rewrites the file from the current
findings, sorted, for a deterministic diff.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field

from repro.analyze.findings import Finding, Report, meets_threshold

#: Directories (repo-root relative) swept for IL programs.
GATE_ROOTS = ("examples", os.path.join("src", "repro", "baselines"))

#: Default baseline path, repo-root relative.
BASELINE_FILE = "analyze-baseline.json"


@dataclass(frozen=True)
class ILUnit:
    """One discovered IL program: a file, or a constant inside one."""

    name: str  # assembly name: file stem, or "stem.CONST"
    path: str  # the file it came from
    source: str  # the IL text


def _looks_like_il(text: str) -> bool:
    return any(line.lstrip().startswith(".method") for line in text.splitlines())


def _module_il_constants(py_source: str) -> list[tuple[str, str]]:
    """(constant name, IL text) for module-level string constants.

    Only simple module-level ``NAME = "..."`` bindings count — computed
    values (like a ``.replace()`` deriving a fixed twin from a buggy
    constant) are intentionally invisible to the gate.
    """
    try:
        tree = ast.parse(py_source)
    except SyntaxError:
        return []
    out: list[tuple[str, str]] = []
    for node in tree.body:
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            and _looks_like_il(value.value)
        ):
            out.append((targets[0].id, value.value))
    return out


def discover_il_units(root: str) -> list[ILUnit]:
    """Every IL program under the gate roots, deterministically ordered."""
    units: list[ILUnit] = []
    for sub in GATE_ROOTS:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirs, files in os.walk(base):
            dirs.sort()
            for fn in sorted(files):
                path = os.path.join(dirpath, fn)
                stem = fn.rsplit(".", 1)[0]
                if fn.endswith(".il"):
                    with open(path) as fh:
                        units.append(ILUnit(stem, path, fh.read()))
                elif fn.endswith(".py"):
                    with open(path) as fh:
                        source = fh.read()
                    for const, text in _module_il_constants(source):
                        units.append(ILUnit(f"{stem}.{const}", path, text))
    return units


# ---------------------------------------------------------------------------
# Baseline bookkeeping
# ---------------------------------------------------------------------------


def baseline_key(finding: Finding) -> tuple:
    """The suppression identity: where, not what the message says."""
    return (finding.rule, finding.assembly, finding.method, finding.pc)


def _key_to_entry(key: tuple) -> dict:
    rule, assembly, method, pc = key
    return {"rule": rule, "assembly": assembly, "method": method, "pc": pc}


def _entry_to_key(entry: dict) -> tuple:
    return (
        entry.get("rule", ""),
        entry.get("assembly", ""),
        entry.get("method", ""),
        entry.get("pc"),
    )


def load_baseline(path: str) -> set[tuple]:
    """The suppression set from *path*; empty when the file is absent."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return set()
    return {_entry_to_key(e) for e in data.get("suppressions", ())}


def render_baseline(report: Report) -> str:
    """A baseline file suppressing every finding of *report* (sorted)."""
    keys = sorted(
        {baseline_key(f) for f in report.findings},
        key=lambda k: tuple(str(x) for x in k),
    )
    return json.dumps(
        {
            "comment": (
                "Expected analyzer findings (the deliberately buggy demos). "
                "Regenerate with: python -m repro.analyze gate --update-baseline"
            ),
            "version": 1,
            "suppressions": [_key_to_entry(k) for k in keys],
        },
        indent=2,
    ) + "\n"


# ---------------------------------------------------------------------------
# The gate itself
# ---------------------------------------------------------------------------


@dataclass
class GateResult:
    """Everything a caller needs to render and exit."""

    report: Report
    units: list[ILUnit]
    new: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale: list[tuple] = field(default_factory=list)
    broken: list[tuple[str, str]] = field(default_factory=list)  # (unit, error)

    @property
    def ok(self) -> bool:
        return not self.new and not self.broken


def run_gate(
    root: str,
    baseline_path: str,
    *,
    world_size: int | None = None,
    threshold: str = "warning",
) -> GateResult:
    """Analyze every discovered unit and diff against the baseline.

    A finding fails the gate when it is at least *threshold* severe and
    its :func:`baseline_key` is not suppressed.  Units that fail to
    assemble (or fail IL verification, MA-S00) are always failures —
    the tree's IL must at minimum be well-formed.
    """
    from repro.analyze.rankflow import analyze_assembly
    from repro.il import AssembleError, assemble

    units = discover_il_units(root)
    report = Report()
    result = GateResult(report=report, units=units)
    for unit in units:
        try:
            asm = assemble(unit.source, name=unit.name)
        except AssembleError as exc:
            result.broken.append((unit.name, str(exc)))
            continue
        analyze_assembly(asm, world_size=world_size, report=report)

    suppressions = load_baseline(baseline_path)
    fired: set[tuple] = set()
    for finding in report.findings:
        key = baseline_key(finding)
        if finding.rule == "MA-S00":
            result.broken.append((finding.assembly, str(finding)))
            continue
        if key in suppressions:
            fired.add(key)
            result.suppressed.append(finding)
        elif meets_threshold(finding.severity, threshold):
            result.new.append(finding)
    result.stale = sorted(
        (k for k in suppressions - fired), key=lambda k: tuple(str(x) for x in k)
    )
    return result


def render_gate_text(result: GateResult, baseline_path: str) -> str:
    """Human summary of a gate run."""
    lines = [
        f"motor-analyzer gate: {len(result.units)} IL unit(s), "
        f"{len(result.report)} finding(s): "
        f"{len(result.suppressed)} baselined, {len(result.new)} new",
    ]
    for unit, error in result.broken:
        lines.append(f"  BROKEN {unit}: {error}")
    for finding in result.new:
        lines.append(f"  NEW {finding}")
    for key in result.stale:
        lines.append(
            f"  stale suppression (no longer fires): {_key_to_entry(key)}"
        )
    if result.ok:
        lines.append(
            "gate OK: every finding is acknowledged in "
            f"{os.path.basename(baseline_path)}"
        )
    else:
        lines.append(
            "gate FAILED: acknowledge intentional findings with "
            "--update-baseline, or fix the IL"
        )
    return "\n".join(lines) + "\n"
