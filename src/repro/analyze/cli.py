"""``python -m repro.analyze`` — run the Motor analyzer from the shell.

Three subcommands::

    python -m repro.analyze static app.il --world-size 2   # static pass
    python -m repro.analyze gate                           # repo CI gate
    python -m repro.analyze ablate                         # A12 overhead

``static`` assembles each IL file and runs the full static analyzer —
the call-site checks (MA-S00..MA-S04) and the rank-symbolic
message-flow rules (MA-S05..MA-S10); ``gate`` sweeps every IL program
under ``examples/`` and ``src/repro/baselines/`` and diffs the findings
against the checked-in
``analyze-baseline.json`` (see :mod:`repro.analyze.gate`); ``ablate``
runs the experiment table's A12 row (the three-way ping-pong: baseline /
sanitizer disabled / sanitizer enabled): it is
``python -m repro.bench ablate-sanitize``, same claims, same exit status.
The runtime sanitizer (rules MA-R01..MA-R05) has no subcommand: it is
``mpiexec(..., sanitize="enabled")``, demonstrated by the self-checking
programs under ``examples/analyze/``.

Reports render as ``--format text`` (default) or ``json``; ``--json``
remains an alias.

Exit status: **2** on usage errors, unassemblable IL, or IL that fails
baseline verification (MA-S00); **1** when any finding is at least
``--severity-threshold`` (default ``warning``); **0** otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.analyze.findings import Report, meets_threshold


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------

def _format_of(args: argparse.Namespace) -> str:
    if getattr(args, "json", False):
        return "json"
    return getattr(args, "format", "text")


def _render(report: Report, fmt: str) -> str:
    return report.to_json() if fmt == "json" else report.render_text()


def _exit_code(report: Report, threshold: str) -> int:
    """2 on verification failures, 1 on findings >= threshold, else 0."""
    if report.by_rule("MA-S00"):
        return 2
    if any(meets_threshold(f.severity, threshold) for f in report.findings):
        return 1
    return 0


def _emit(report: Report, args: argparse.Namespace) -> int:
    print(_render(report, _format_of(args)), end="")
    return _exit_code(report, getattr(args, "severity_threshold", "warning"))


def _cmd_static(args: argparse.Namespace) -> int:
    from repro.analyze.rankflow import analyze_assembly
    from repro.il import AssembleError, assemble

    report = Report()
    for path in args.files:
        try:
            with open(path) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        try:
            asm = assemble(source, name=name)
        except AssembleError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        analyze_assembly(asm, world_size=args.world_size, report=report)
    return _emit(report, args)


def _cmd_gate(args: argparse.Namespace) -> int:
    from repro.analyze.gate import render_baseline, render_gate_text, run_gate

    result = run_gate(
        args.root,
        args.baseline,
        world_size=args.world_size,
        threshold=args.severity_threshold,
    )
    if args.update_baseline:
        with open(args.baseline, "w") as fh:
            fh.write(render_baseline(result.report))
        print(
            f"wrote {args.baseline}: "
            f"{len({f.rule for f in result.report.findings})} rule(s), "
            f"{len(result.report)} finding(s) suppressed"
        )
        return 0
    fmt = _format_of(args)
    if fmt == "text":
        print(render_gate_text(result, args.baseline), end="")
    else:
        print(_render(result.report, fmt), end="")
    if any(result.report.by_rule("MA-S00")):
        return 2
    return 0 if result.ok else 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.bench.cli import main as bench_main

    return bench_main(["ablate-sanitize"] + ["--paper"] * args.paper)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Motor analyzer: static MP checks and runtime sanitizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default: text)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="alias for --format json",
        )
        p.add_argument(
            "--severity-threshold", choices=("info", "warning", "error"),
            default="warning",
            help="lowest severity that fails the exit code (default: warning)",
        )

    p_static = sub.add_parser(
        "static", help="statically check System.MP usage in IL files"
    )
    p_static.add_argument("files", nargs="+", metavar="FILE.il")
    p_static.add_argument(
        "--world-size", type=int, default=None,
        help="assume this many ranks when checking peer ranges",
    )
    add_output_options(p_static)
    p_static.set_defaults(func=_cmd_static)

    p_gate = sub.add_parser(
        "gate", help="analyze all repo IL and diff against the baseline"
    )
    p_gate.add_argument(
        "--root", default=".", help="repository root to sweep (default: .)"
    )
    p_gate.add_argument(
        "--baseline", default="analyze-baseline.json",
        help="suppression file (default: analyze-baseline.json)",
    )
    p_gate.add_argument(
        "--world-size", type=int, default=None,
        help="assume this many ranks when checking peer ranges",
    )
    p_gate.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    add_output_options(p_gate)
    p_gate.set_defaults(func=_cmd_gate)

    p_ablate = sub.add_parser(
        "ablate", help="A12: sanitizer overhead ablation (ping-pong)"
    )
    p_ablate.add_argument("--paper", action="store_true")
    p_ablate.set_defaults(func=_cmd_ablate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
