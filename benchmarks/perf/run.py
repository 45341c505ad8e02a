#!/usr/bin/env python3
"""The repo's benchmark: host and modelled time per operation, by layer.

Four ways in:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One workload (the ``BENCHMARK.json`` contract).  ``--trace 0`` runs
    :data:`REPS` untraced repetitions and prints the end-to-end metrics;
    ``--trace 1`` runs one untraced and one traced repetition and prints
    the per-layer metrics.  The last stdout line is one JSON object.
``run.py --seed S [--out FILE]``
    Every workload, untraced then traced; prints every metric by name
    with its unit and writes the raw per-repetition samples and the span
    dump under ``benchmarks/perf/results/``.
``run.py --compare A.json B.json``
    Apply the benchmark's own bounds to two result files.
``run.py --one W --seed S --seconds T --trace 0|1``
    One repetition, in this process (what the modes above spawn).

Host time is ``wall_*`` (what the Python simulator costs to run);
modelled time is ``virt*`` (what the 2006 hardware would take, from
``ctx.clock`` in ``clock_mode="virtual"``).  One run yields both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from tracer import LAYERS, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

#: untraced repetitions per ``--trace 0`` run, each a fresh subprocess
REPS = 5
#: a calibration reading within this share of the run's quiet level is quiet
NOISE_LIMIT = 0.20
#: a repetition with fewer quiet samples does not speak for the run
MIN_QUIET = 3

END_TO_END = {"wall_us_per_op": "us", "setup_s": "s", "peak_rss_mb": "MiB"}

#: counters derived from public stats dicts: name -> unit
COUNTERS = {
    "runtime.interop.fcalls_per_op": "count",
    "motor.pinpolicy.pins_per_op": "count",
    "motor.pinpolicy.elder_skip_share": "ratio",
    "motor.pinpolicy.deferred_share": "ratio",
    "motor.serialization.bytes_per_op": "bytes",
    "motor.buffers.pool_hit_share": "ratio",
    "runtime.gcollector.gen0_per_kop": "count",
    "runtime.gcollector.pinned_collections_per_kop": "count",
    "runtime.gcollector.bytes_promoted_per_op": "bytes",
    "mp.progress.polls_per_op": "count",
    "mp.progress.idle_poll_share": "ratio",
    "mp.ch3.eager_per_op": "count",
    "mp.ch3.rndv_per_op": "count",
    "mp.ch3.unexpected_share": "ratio",
    "mp.ch3.copies_per_byte": "ratio",
    "mp.ch3.bytes_moved_per_op": "bytes",
    "mp.ch3.outbox_owned_bytes_per_op": "bytes",
    "mp.channels.packets_per_op": "count",
    "mp.channels.rma_native_per_op": "count",
    "mp.channels.rma_emulated_per_op": "count",
    "mp.reliability.retransmits_per_kop": "count",
    "mp.reliability.acks_per_op": "count",
    "mp.reliability.dup_dropped_per_kop": "count",
    "mp.recovery.checkpoints": "count",
    "cluster.router.frames_forwarded_per_op": "count",
    "cluster.world.boot_s": "s",
    "cluster.world.teardown_s": "s",
    "harness.layer_sum_share": "ratio",
    "harness.trace_overhead_ratio": "ratio",
    "harness.wall_p99_us_per_op": "us",
    "harness.samples": "count",
    "harness.calib_us": "us",
    "harness.noisy_sample_share": "ratio",
    "virtual_us_per_op": "us",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.wall_self_us_per_op"] = "us"
        units[f"{layer}.virt_self_us_per_op"] = "us"
        units[f"{layer}.calls_per_op"] = "count"
    units.update(COUNTERS)
    return units


# -- one repetition (child process) ----------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One repetition in this process, pinned as its substrate needs."""
    probe = calibrate()  # before the heavy imports: set-up is bracketed too
    sys.path.insert(0, str(SRC))
    from rankmains import WORKLOADS, RunConfig, launch

    allowed = sorted(os.sched_getaffinity(0))
    # inproc ranks are GIL-bound threads: a second core only adds hand-off
    # noise, so they share one CPU; proc workers keep every allowed CPU
    cpus = allowed[-1:] if WORKLOADS[name].substrate == "inproc" else allowed
    os.sched_setaffinity(0, cpus)
    try:
        record = launch(name, RunConfig(seed=seed, seconds=seconds, trace=trace))
    except Exception as exc:  # a crashed repetition is a failed one, not a crash
        record = {"error": f"{type(exc).__name__}: {exc}", "attempted": 1, "failed": 1}
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record["setup_calib_ns"] = max(probe, record.get("setup_calib_ns", 0))
    record.update(peak_rss_mb=peak_kib / 1024, affinity=cpus)
    return record


# -- one run (parent process) ------------------------------------------------------------


def spawn_rep(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one repetition in a fresh subprocess and read its record."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--one", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    spawned = perf_counter_ns()
    # its own session: a repetition that hangs is killed with its worker processes
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=120.0 + 4 * seconds)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, cmd)
        record = json.loads(out.splitlines()[-1])
    except (subprocess.SubprocessError, IndexError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "attempted": 1, "failed": 1}
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if "first_op_ns" in record:
        # perf_counter is the system-wide monotonic clock: comparable across processes
        record["setup_s"] = (record["first_op_ns"] - spawned) / 1e9
    return record


def per_op_us(record: dict, key: str = "sample_wall_ns") -> list[float]:
    ops = record["ops_per_sample"]
    return [ns / ops / 1e3 for ns in record[key]]


def quiet_limit(records: list[dict]) -> float:
    """The slowest calibration reading that still counts as a quiet box.

    The sandbox's speed is bimodal: the probe loop flips between two
    levels ~45 % apart and stays on either for a fraction of a second up
    to minutes, with nothing in the sandbox to blame (a busy SMT sibling
    on the host).  The run's own quiet level is the 5th percentile of
    every reading it took; readings within ``NOISE_LIMIT`` of it are quiet.
    """
    readings = sorted(
        c for r in records for c in (*r["sample_calib_ns"], r["setup_calib_ns"])
    )
    return (1 + NOISE_LIMIT) * readings[len(readings) // 20]


def quiet_samples(record: dict, limit: float) -> list[float]:
    """Host microseconds per op of the samples no slow reading brackets."""
    return [us for us, c in zip(per_op_us(record), record["sample_calib_ns"]) if c <= limit]


def quiet_median(record: dict, limit: float) -> float:
    """The repetition's wall_us_per_op; over every sample when too few are quiet."""
    quiet = quiet_samples(record, limit)
    return statistics.median(quiet if len(quiet) >= MIN_QUIET else per_op_us(record))


def noisy_share(records: list[dict], limit: float) -> float:
    taken = sum(len(r["sample_calib_ns"]) for r in records)
    return 1 - sum(len(quiet_samples(r, limit)) for r in records) / taken


def end_to_end(records: list[dict]) -> dict[str, list[float]]:
    """Per-repetition values of every end-to-end metric (measured reps only).

    Noise guard: only quiet samples, and set-ups that ended on a quiet
    reading, speak — unless none did, then everything measured does.
    """
    good = [r for r in records if "error" not in r]
    if not good:
        return {name: [] for name in END_TO_END}
    limit = quiet_limit(good)
    spoke = [r for r in good if len(quiet_samples(r, limit)) >= MIN_QUIET] or good
    calm = [r for r in good if r["setup_calib_ns"] <= limit] or good
    return {
        "wall_us_per_op": [quiet_median(r, limit) for r in spoke],
        "setup_s": [r["setup_s"] for r in calm],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric from one untraced and one traced repetition."""
    ops = traced["attempted"]
    trace = traced["trace"]
    # a world without a VM or a reliability sublayer has none of their counters
    c = defaultdict(int, traced["counters"])
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.wall_self_us_per_op"] = trace["wall_self_ns"][layer] / ops / 1e3
        out[f"{layer}.virt_self_us_per_op"] = trace["virt_self_ns"][layer] / ops / 1e3
        out[f"{layer}.calls_per_op"] = trace["calls"][layer] / ops
    pins = c["pin_deferred_pins_taken"] + c["pin_unconditional_pins"] + c["pin_window_pins"]
    sent = c["eager"] + c["rndv"]
    limit = quiet_limit([plain, traced])
    plain_us = sorted(per_op_us(plain))
    out.update({
        "runtime.interop.fcalls_per_op": c["fcalls"] / ops,
        "motor.pinpolicy.pins_per_op": pins / ops,
        "motor.pinpolicy.elder_skip_share": share(c["pin_elder_skips"], c["pin_checks"]),
        "motor.pinpolicy.deferred_share": share(c["pin_deferred"], c["pin_checks"]),
        "motor.serialization.bytes_per_op": trace["counts"].get("serialized_bytes", 0) / ops,
        "motor.buffers.pool_hit_share": share(
            c["pool_reused"], c["pool_reused"] + c["pool_created"]),
        "runtime.gcollector.gen0_per_kop": 1e3 * c["gc_gen0_collections"] / ops,
        "runtime.gcollector.pinned_collections_per_kop": 1e3 * c["gc_pinned_collections"] / ops,
        "runtime.gcollector.bytes_promoted_per_op": c["gc_bytes_promoted"] / ops,
        "mp.progress.polls_per_op": c["polls"] / ops,
        "mp.progress.idle_poll_share": share(c["idle_polls"], c["polls"]),
        "mp.ch3.eager_per_op": c["eager"] / ops,
        "mp.ch3.rndv_per_op": c["rndv"] / ops,
        "mp.ch3.unexpected_share": share(c["unexpected"], sent),
        "mp.ch3.copies_per_byte": share(c["bytes_copied"], c["bytes_moved"]),
        "mp.ch3.bytes_moved_per_op": c["bytes_moved"] / ops,
        "mp.ch3.outbox_owned_bytes_per_op": c["outbox_owned"] / ops,
        "mp.channels.packets_per_op": c["packets"] / ops,
        "mp.channels.rma_native_per_op": c["rma_native_ops"] / ops,
        "mp.channels.rma_emulated_per_op": c["rma_emulated_ops"] / ops,
        "mp.reliability.retransmits_per_kop": 1e3 * c["rel_retransmits"] / ops,
        "mp.reliability.acks_per_op": c["rel_acks_sent"] / ops,
        "mp.reliability.dup_dropped_per_kop": 1e3 * c["rel_dup_dropped"] / ops,
        "mp.recovery.checkpoints": c["checkpoints"],
        "cluster.router.frames_forwarded_per_op": traced["frames_forwarded"] / traced["total_ops"],
        "cluster.world.boot_s": plain["boot_s"],
        "cluster.world.teardown_s": plain["teardown_s"],
        "harness.layer_sum_share": share(
            sum(trace["wall_self_ns"].values()), sum(traced["sample_wall_ns"])),
        "harness.trace_overhead_ratio": quiet_median(traced, limit) / quiet_median(plain, limit),
        "harness.wall_p99_us_per_op": plain_us[len(plain_us) * 99 // 100],
        "harness.samples": len(plain_us),
        "harness.calib_us": limit / (1 + NOISE_LIMIT) / 1e3,
        "harness.noisy_sample_share": noisy_share([plain, traced], limit),
        "virtual_us_per_op": statistics.median(per_op_us(plain, "sample_virt_ns")),
    })
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One contract run of one workload: result line plus the raw records."""
    if trace:
        plan = [(seconds / 2, False), (seconds / 2, True)]
    else:
        plan = [(seconds / REPS, False)] * REPS
    records = [spawn_rep(name, seed, rep_seconds, traced) for rep_seconds, traced in plan]
    errors = [r["error"] for r in records if "error" in r]
    for err in errors:
        print(f"[perf] {name}: repetition failed: {err}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    reps = None
    if trace:
        if errors:
            raise SystemExit(f"{name}: the traced pass needs both repetitions")
        values = per_layer(*records)
        units = per_layer_units()
    else:
        reps = end_to_end(records)
        if not reps["wall_us_per_op"]:
            raise SystemExit(f"{name}: no repetition completed")
        values = {k: statistics.median(v) for k, v in reps.items()}
        units = END_TO_END
        good = [r for r in records if "error" not in r]
        print(f"[perf] {name}: noisy sample share "
              f"{noisy_share(good, quiet_limit(good)):.2f}", file=sys.stderr)
    return {
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
        "records": records,
        "reps": reps,
    }


# -- the whole suite ------------------------------------------------------------------------


def run_metadata(seed: int, seconds: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a bare checkout has no history to name
    src_loc = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_loc": src_loc,
        "unix_time": time.time(),
    }


def run_suite(seed: int, seconds: float, out: Path | None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    meta = run_metadata(seed, seconds)
    print("run: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    result = {"meta": meta, "workloads": {}}
    failed_any = False
    for spec in manifest["workloads"]:
        name = spec["name"]
        plain = measure(name, seed, seconds, trace=False)
        traced = measure(name, seed, seconds, trace=True)
        line = plain["line"]
        failed_any |= not (line["correct"] and traced["line"]["correct"])
        print(f"\n== {name}: attempted {line['attempted']}, failed {line['failed']}")
        for block in (line, traced["line"]):
            for metric, entry in block["metrics"].items():
                print(f"  {metric:48s} {entry['value']:16.4f} {entry['unit']}")
        trace_record = traced["records"][1]
        result["workloads"][name] = {
            "attempted": line["attempted"],
            "failed": line["failed"],
            "end_to_end": {
                k: {"value": line["metrics"][k]["value"], "unit": END_TO_END[k], "reps": v}
                for k, v in plain["reps"].items()
            },
            "per_layer": traced["line"]["metrics"],
            "sample_wall_us_per_op": [per_op_us(r) for r in plain["records"] if "error" not in r],
            "sample_calib_ns": [r["sample_calib_ns"] for r in plain["records"] if "error" not in r],
            "spans": trace_record["trace"]["spans"],
        }
    out = out or HERE / "results" / f"seed{seed}-{int(meta['unix_time'])}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result))
    print(f"\nraw samples and span dump: {out}")
    return 1 if failed_any else 0


# -- comparing two result files -----------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    a, b = statistics.median(base), statistics.median(new)
    worse_by = sign * (b - a) / a
    if max(spread(base), spread(new)) > bound:
        # too wide to call, unless every new value beats every base value
        clear = max(new) < min(base) if lower_is_better else min(new) > max(base)
        return "better" if clear else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(path_a: Path, path_b: Path) -> int:
    manifest = json.loads(MANIFEST.read_text())
    a, b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    bad = False
    print(f"base A = {path_a}\nnew  B = {path_b}\n")
    print(f"{'workload':16s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name in a:
        if name not in b:
            continue
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            base, new = a[name]["end_to_end"][key]["reps"], b[name]["end_to_end"][key]["reps"]
            what = verdict(base, new, metric["bound"], metric["better"] == "lower")
            med_a, med_b = statistics.median(base), statistics.median(new)
            print(f"{name:16s} {key:16s} {med_a:12.4f} {med_b:12.4f} "
                  f"{med_b / med_a:7.3f} {metric['bound']:6.2f}  {what}")
            bad |= what == "worse"
        share_a = a[name]["failed"] / a[name]["attempted"]
        share_b = b[name]["failed"] / b[name]["attempted"]
        what = "worse" if share_b > share_a else "same"
        print(f"{name:16s} {'failed_ops_share':16s} {share_a:12.4f} {share_b:12.4f} "
              f"{'':7s} {0:6.2f}  {what}")
        bad |= share_b > share_a
    return 1 if bad else 0


# -- command line ------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (the BENCHMARK.json contract)")
    ap.add_argument("--one", metavar="WORKLOAD", help="one repetition, in this process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="result file of a whole-suite run")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(MANIFEST.read_text())["run_seconds"])
    if args.one:
        print(json.dumps(run_one(args.one, args.seed, seconds, bool(args.trace))))
        return 0
    if args.workload:
        print(json.dumps(measure(args.workload, args.seed, seconds, bool(args.trace))["line"]))
        return 0
    return run_suite(args.seed, seconds, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
