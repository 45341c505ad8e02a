"""``python -m repro.bench`` — regenerate the paper's figures as text.

Examples::

    python -m repro.bench fig9            # Figure 9, quick protocol
    python -m repro.bench fig10 --paper   # full 200/100/x3 protocol
    python -m repro.bench all --csv out/  # everything, plus CSV dumps
    python -m repro.bench report          # paper-vs-measured claim report
    python -m repro.bench metrics         # instrumented run, merged pvar report
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.report import (
    EXPERIMENTS,
    build_report,
    render_claims,
    rewrite_experiments_md,
    run_experiment,
    run_table,
)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "analyze":
        # `python -m repro.bench analyze ...` == `python -m repro.analyze ...`
        from repro.analyze.cli import main as analyze_main

        return analyze_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Motor paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "report", "write-experiments", "metrics", "smoke", "chaos"],
        help="which experiment to run (or 'all' / 'report' / "
        "'write-experiments' to refresh EXPERIMENTS.md's claim summary and "
        "data section, or "
        "'metrics' for an instrumented ping-pong with a merged pvar report, "
        "or 'smoke' for the CI gate over the smoke-flagged rows (A10-A17), "
        "or 'chaos' for the seeded fault-schedule soak (writes BENCH_recovery.json); "
        "'analyze ...' forwards to the Motor analyzer CLI)",
    )
    parser.add_argument(
        "--paper",
        action="store_true",
        help="run the full paper protocol (200 iterations, last 100 timed, "
        "mean of 3) instead of the quick deterministic one",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write <experiment>.csv files into DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="with 'metrics': also write a Chrome trace JSON (chrome://tracing)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="with 'chaos': number of seeded fault schedules to sweep "
        "(default 20, or 50 with --paper)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="with 'chaos'/'smoke': where to write the JSON summary "
        "(default ./BENCH_recovery.json / ./BENCH_smoke.json)",
    )
    args = parser.parse_args(argv)
    quick = not args.paper

    if args.experiment == "metrics":
        return _metrics(quick=quick, trace_path=args.trace)

    if args.experiment == "smoke":
        return _smoke(
            quick=quick,
            json_path=args.json or os.path.join(os.getcwd(), "BENCH_smoke.json"),
        )

    if args.experiment == "chaos":
        return _chaos(
            seeds=args.seeds if args.seeds is not None else (50 if args.paper else 20),
            json_path=args.json or os.path.join(os.getcwd(), "BENCH_recovery.json"),
        )

    if args.experiment == "report":
        print("# Motor reproduction: paper vs measured\n")
        print(build_report(quick=quick))
        return 0

    if args.experiment == "write-experiments":
        path = os.path.join(os.getcwd(), "EXPERIMENTS.md")
        try:
            with open(path) as fh:
                current = fh.read()
        except FileNotFoundError:
            current = "# EXPERIMENTS — paper vs measured\n\n"
        text = rewrite_experiments_md(current, run_table(quick=quick))
        with open(path, "w") as fh:
            fh.write(text)
        print(f"rewrote {path}", file=sys.stderr)
        return 0

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    differ = 0
    for exp_id in ids:
        series, claims = run_experiment(exp_id, quick=quick)
        differ += sum(not c.holds for c in claims)
        print(series.render_table())
        if claims:
            print(render_claims(claims))
            print()
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{exp_id}.csv")
            with open(path, "w") as fh:
                fh.write(series.to_csv())
            print(f"wrote {path}", file=sys.stderr)
    return 1 if differ else 0


def _smoke(quick: bool = True, json_path: str | None = None) -> int:
    """Run the smoke-flagged rows of the table (A10-A17); exit nonzero if any
    claim differs.

    When ``json_path`` is given, a standalone machine-readable summary is
    written there: one entry per ablation with its claims (paper bound,
    measured ratio, verdict) and per-experiment elapsed seconds — the CI
    artifact mirroring ``BENCH_recovery.json`` on the overhead side.
    """
    import dataclasses
    import json
    import time

    failed = 0
    experiments = []
    t0 = time.monotonic()
    for exp in (e for e in EXPERIMENTS.values() if e.smoke):
        e0 = time.monotonic()
        _series, claims = run_experiment(exp.id, quick=quick)
        exp_elapsed = time.monotonic() - e0
        print(f"== {exp.heading} ==")
        print(render_claims(claims))
        print()
        failed += sum(1 for c in claims if not c.holds)
        experiments.append(
            {
                "id": exp.id,
                "title": exp.heading,
                "elapsed_s": round(exp_elapsed, 3),
                "claims": [dataclasses.asdict(c) for c in claims],
            }
        )
    if json_path:
        from repro.bench.report import BENCH_SCHEMA_VERSION, run_metadata

        summary = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "run": run_metadata(),
            "suite": "smoke",
            "quick": quick,
            "experiments": experiments,
            "claims_total": sum(len(e["claims"]) for e in experiments),
            "claims_failed": failed,
            "holds": failed == 0,
            "elapsed_s": round(time.monotonic() - t0, 3),
        }
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_path}", file=sys.stderr)
    if failed:
        print(f"bench smoke: {failed} claim(s) DIFFER", file=sys.stderr)
        return 1
    print("bench smoke: all overhead claims hold", file=sys.stderr)
    return 0


def _chaos(seeds: int, json_path: str) -> int:
    """Soak the recovery path over seeded fault schedules; write the JSON."""
    from repro.bench.chaos import checkpoint_overhead, run_chaos, write_bench_json

    summary = run_chaos(seeds=seeds, echo=print)
    summary["checkpoint_overhead"] = checkpoint_overhead()
    write_bench_json(json_path, summary)
    lat = summary["mean_recovery_latency_us"]
    print(
        f"chaos soak: {summary['passed']}/{summary['seeds']} ledgers exact, "
        f"{summary['recoveries']} recoveries, "
        f"{summary['ranks_replaced']} ranks replaced, "
        f"mean recovery latency "
        f"{'n/a' if lat is None else f'{lat:.1f} us'}, "
        f"fault-free checkpoint overhead "
        f"{summary['checkpoint_overhead']['ratio']:.4f}x",
        file=sys.stderr,
    )
    print(f"wrote {json_path}", file=sys.stderr)
    return 0 if summary["passed"] == summary["seeds"] else 1


def _metrics(quick: bool, trace_path: str | None = None) -> int:
    """One instrumented ping-pong run; print the merged cluster report."""
    from repro.cluster.world import mpiexec
    from repro.obs import render_report, write_chrome_trace
    from repro.workloads.pingpong import BufferPingPong

    sizes = [4, 1024, 65536] if quick else [4 << i for i in range(17)]
    iters = 10 if quick else 200
    timed = 5 if quick else 100
    main_fn = BufferPingPong("cpp", sizes, iters, timed, 1, verify=True)
    merged = mpiexec(
        2, main_fn, channel="sock", observe="enabled"
    ).snapshot
    print(render_report(merged))
    if trace_path:
        write_chrome_trace(merged, trace_path)
        print(f"wrote {trace_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
