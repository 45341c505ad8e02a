#!/usr/bin/env python3
"""Write ``BENCH_perf.json``: the committed before/after rows of a change.

``bench_perf_json.py pairs PARENT_CHECKOUT PAIRS.json [-n 10] [WORKLOAD ...]``
    Alternating parent/change contract runs (``benchmarks/perf/run.py
    --workload W --trace 0`` in each checkout, which side goes first
    swapped every pair), appended to ``PAIRS.json`` as ``{workload:
    {"parent": [run, ...], "change": [run, ...]}}`` — a run being the
    contract line's metric values plus ``failed``/``attempted``.
``bench_perf_json.py write PAIRS.json PARENT_SUITE.json CHANGE_SUITE.json``
    One row per (workload, end-to-end metric): every run of both sides,
    medians, the parent's quartile distance, how many pairs the change
    won, and the verdict of the benchmark's own ``--compare`` rule and
    bounds (``run.py`` is imported, not re-implemented).  The two suite
    files (``run.py --seed S --out ...`` on each commit) supply the traced
    per-layer counters a change names beforehand (``COUNTERS``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

from run import MANIFEST, verdict  # noqa: E402

from repro.bench.report import BENCH_SCHEMA_VERSION, run_metadata  # noqa: E402

#: traced per-layer metrics copied beside the rows: the ones the issues
#: behind the committed rows named beforehand as "moves" or "must not move"
COUNTERS = (
    "virtual_us_per_op",
    "harness.layer_sum_share",
    "mp.progress.polls_per_op",
    "mp.progress.idle_poll_share",
    "mp.progress.wall_self_us_per_op",
    "mp.mpi.wall_self_us_per_op",
    "mp.mpi.calls_per_op",
    "mp.ch3.wall_self_us_per_op",
    "mp.ch3.calls_per_op",
    "mp.channels.wall_self_us_per_op",
    "mp.channels.calls_per_op",
    "motor.mpcore.wall_self_us_per_op",
    "motor.pinpolicy.calls_per_op",
    "mp.ch3.unexpected_share",
    "mp.ch3.rndv_per_op",
    "mp.ch3.copies_per_byte",
    "mp.ch3.bytes_moved_per_op",
    "mp.reliability.retransmits_per_kop",
    "mp.reliability.dup_dropped_per_kop",
    "mp.channels.packets_per_op",
    "motor.serialization.wall_self_us_per_op",
    "motor.serialization.virt_self_us_per_op",
    "motor.serialization.calls_per_op",
    "motor.serialization.bytes_per_op",
    "runtime.gcollector.gen0_per_kop",
    "runtime.gcollector.bytes_promoted_per_op",
    "cluster.router.frames_forwarded_per_op",
)


def contract_run(checkout: Path, workload: str) -> dict:
    cmd = [sys.executable, "benchmarks/perf/run.py", "--workload", workload, "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    values = {k: v["value"] for k, v in line["metrics"].items()}
    return {"failed": line["failed"], "attempted": line["attempted"], **values}


def measure_pairs(parent: Path, out: Path, n: int, workloads: list[str]) -> None:
    sides = {"parent": parent, "change": ROOT}
    data = json.loads(out.read_text()) if out.exists() else {}
    for i in range(n):
        for name in workloads:
            for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                run = contract_run(sides[side], name)
                data.setdefault(name, {"parent": [], "change": []})[side].append(run)
                print(i, name, side, f"{run['wall_us_per_op']:.1f} us", run["failed"], flush=True)
            out.write_text(json.dumps(data, indent=1))


def rows(pairs: dict, parent: dict, change: dict) -> dict:
    manifest = json.loads(MANIFEST.read_text())
    out = {}
    for name, sides in pairs.items():
        entry = {
            "pairs": len(sides["parent"]),
            "failed_ops": {s: sum(r["failed"] for r in runs) for s, runs in sides.items()},
        }
        for metric in manifest["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            base, new = ([r[key] for r in sides[s]] for s in ("parent", "change"))
            q1, _, q3 = statistics.quantiles(base, n=4)
            entry[key] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "parent": base,
                "change": new,
                "parent_median": statistics.median(base),
                "change_median": statistics.median(new),
                "parent_iqr": q3 - q1,
                "change_wins": sum((b < a) if lower else (b > a) for a, b in zip(base, new)),
                "verdict": verdict(base, new, metric["bound"], lower),
            }
        for key in COUNTERS:
            entry[key] = {
                side: suite["workloads"][name]["per_layer"][key]["value"]
                for side, suite in (("parent", parent), ("change", change))
            }
        out[name] = entry
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """The command line, with ``pairs``' workloads taken on either side of
    ``-n`` (argparse alone ends a ``nargs="*"`` positional at the option)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    mp = sub.add_parser("pairs")
    mp.add_argument("parent_checkout", type=Path)
    mp.add_argument("pairs", type=Path)
    mp.add_argument("-n", type=int, default=10)
    mp.add_argument("workloads", nargs="*")
    wp = sub.add_parser("write")
    wp.add_argument("pairs", type=Path)
    wp.add_argument("parent_suite", type=Path)
    wp.add_argument("change_suite", type=Path)
    wp.add_argument("--out", type=Path, default=ROOT / "BENCH_perf.json")
    args, extra = ap.parse_known_args(argv)
    if extra:
        if args.cmd != "pairs" or any(a.startswith("-") for a in extra):
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
        args.workloads += extra
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cmd == "pairs":
        names = [w["name"] for w in json.loads(MANIFEST.read_text())["workloads"]]
        measure_pairs(args.parent_checkout, args.pairs, args.n, args.workloads or names)
        return 0
    pairs, parent, change = (
        json.loads(p.read_text()) for p in (args.pairs, args.parent_suite, args.change_suite)
    )
    summary = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "run": run_metadata(),
        "suite": "perf",
        "parent": parent["meta"],
        "change": change["meta"],
        "workloads": rows(pairs, parent, change),
    }
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
