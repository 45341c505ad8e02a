"""Self-test of the benchmark harness (``python -m pytest benchmarks/perf -q``).

Not part of tier-1: it checks the measuring instrument, not the program.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import rankmains  # noqa: E402
import run  # noqa: E402
from rankmains import RunConfig, Workload, launch  # noqa: E402
from tracer import APP, LAYERS, Tracer, install  # noqa: E402

from repro.cluster import mpiexec  # noqa: E402
from repro.motor import motor_session  # noqa: E402
from repro.mp.channels import FaultPlan  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        self.t += 1.0
        return self.t


def test_self_times_of_a_nested_tree_sum_to_the_root_span():
    tracer = Tracer(_Ticks().now)
    tracer.enter(APP)
    tracer.enter("mp.mpi")
    for _ in range(3):
        tracer.enter("mp.ch3")
        tracer.enter("mp.channels")
        tracer.exit()
        tracer.exit()
    tracer.exit()
    tracer.enter("mp.progress")
    tracer.exit()
    tracer.exit()

    root = tracer.spans[0]
    assert root[0] == APP and root[3] == -1
    assert sum(tracer.wall_self.values()) == root[2] - root[1]
    # the fake clock ticks once per reading, two readings per span: the root's
    # own readings are the first and the last
    assert sum(tracer.virt_self.values()) == 2 * len(tracer.spans) - 1
    assert tracer.calls["mp.ch3"] == 3 and tracer.calls[APP] == 1
    # every child names its parent; a child lies inside its parent
    for layer, start, end, parent, _op in tracer.spans[1:]:
        assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2], layer
    assert set(tracer.wall_self) == set(LAYERS)


def test_wrappers_call_straight_through_outside_a_root_span():
    class Box:
        def poke(self):
            return 7

    box, tracer = Box(), Tracer(_Ticks().now)
    tracer.wrap(box, ("poke",), "mp.ch3")
    assert box.poke() == 7 and tracer.calls["mp.ch3"] == 0
    tracer.enter(APP)
    assert box.poke() == 7
    tracer.exit()
    assert tracer.calls["mp.ch3"] == 1
    tracer.uninstall()
    assert "poke" not in vars(box) and box.poke() == 7


def _install_probe(ctx):
    """Module-level rank main: what install() shadows, uninstall() restores."""
    engine, comm = ctx.engine, ctx.session.comm_world
    places = [(engine, "isend"), (engine.progress, "wait"), (engine.device, "poll"),
              (engine.device.channel, "send_packet"), (comm, "Send")]
    clean_before = not any(name in vars(obj) for obj, name in places)
    tracer = Tracer(ctx.clock.now)
    install(tracer, ctx)
    shadowed = all(name in vars(obj) for obj, name in places)
    tracer.uninstall()
    clean_after = not any(name in vars(obj) for obj, name in places)
    return clean_before, shadowed, clean_after


def test_wrappers_are_installed_and_restored():
    for verdicts in mpiexec(2, _install_probe, session_factory=motor_session):
        assert verdicts == (True, True, True)


class _ShadowProbe(rankmains.PingPong):
    """Fails every op unless wrappers are present exactly when tracing."""

    def ready(self, ctx, tracer):
        self.shadowed = "isend" in vars(ctx.engine)

    def finish(self, ctx, total_samples):
        return self.shadowed == self.run.trace


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_pass_runs_without_wrappers(monkeypatch, trace):
    monkeypatch.setitem(rankmains.WORKLOADS, "probe", Workload(_ShadowProbe, {"size": 64}))
    record = launch("probe", RunConfig(seed=5, seconds=0.0, trace=trace, samples=6))
    assert record["failed"] == 0 and record["attempted"] == 30
    assert (record["trace"] is not None) == trace


def test_traced_pass_closes_and_separates_eager_from_rendezvous():
    small = launch("pp_small", RunConfig(seed=2, seconds=0.0, trace=True, samples=8))
    large = launch("pp_large", RunConfig(seed=2, seconds=0.0, trace=True, samples=8))
    for record in (small, large):
        assert record["failed"] == 0
        metrics = run.per_layer(record, record)
        assert set(metrics) == set(run.per_layer_units())
        assert 0.95 <= metrics["harness.layer_sum_share"] <= 1.05
    assert small["counters"]["rndv"] == 0 and small["trace"]["calls"]["il.engine"] > 0
    assert large["counters"]["rndv"] > 0 and large["trace"]["calls"]["il.engine"] == 0


def test_corrupted_payload_counts_as_failed_ops_not_a_crash():
    # flip one payload bit in every echo (link 1 -> 0) after the set-up
    # barrier, with no reliability sublayer to repair it
    plan = FaultPlan(seed=3)
    for index in range(5, 2000):
        plan.force(1, 0, index, "corrupt")
    record = launch("pp_small", RunConfig(seed=3, seconds=0.0, samples=8),
                    fault_plan=plan, reliable=False)
    assert record["attempted"] == 50
    assert 0 < record["failed"] <= record["attempted"]


def test_names_match_the_manifest():
    manifest = json.loads(run.MANIFEST.read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    assert workloads == list(rankmains.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()
    names = workloads + list(run.END_TO_END) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_verdicts():
    base = [100.0, 101.0, 99.0]
    assert run.verdict(base, [100.5, 99.5, 100.0], 0.10, True) == "same"
    assert run.verdict(base, [120.0, 121.0, 119.0], 0.10, True) == "worse"
    assert run.verdict(base, [80.0, 81.0, 79.0], 0.10, True) == "better"
    assert run.verdict(base, [80.0, 81.0, 79.0], 0.10, False) == "worse"
    # spread wider than the bound: unresolved unless every run is better
    assert run.verdict(base, [90.0, 125.0, 100.0], 0.10, True) == "unresolved"
    assert run.verdict([100.0, 130.0, 115.0], [80.0, 81.0, 79.0], 0.10, True) == "better"


def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_prints_the_contract_line_for_both_passes():
    manifest = json.loads(run.MANIFEST.read_text())
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        done = _cli("--workload", "halo_rma", "--seed", "4", "--seconds", "0.9", "--trace", trace)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in manifest[group]}
        if trace == "1":
            assert line["metrics"]["mp.channels.rma_native_per_op"]["value"] > 0


def test_cli_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for name in ("run.py", "rankmains.py", "tracer.py"):
        (bare / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(run.MANIFEST.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "pp_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0 and done.stdout == ""


def _record(wall_us, calib_ns, setup_s, setup_calib_ns):
    return {"ops_per_sample": 10, "sample_wall_ns": [w * 10e3 for w in wall_us],
            "sample_calib_ns": calib_ns, "setup_s": setup_s,
            "setup_calib_ns": setup_calib_ns, "peak_rss_mb": 50.0}


def test_noise_guard_lets_only_quiet_samples_and_setups_speak():
    quiet, slow = 600_000, 900_000
    mixed = _record([700, 701, 1100, 1101, 1102, 699, 1103],
                    [quiet, quiet, slow, slow, slow, quiet, slow], 0.3, quiet)
    # too few quiet samples to speak for itself: stays out while others speak
    drowned = _record([1100, 1101, 700, 1102], [slow, slow, quiet, slow], 0.5, slow)
    calm = _record([698] * 20, [quiet] * 20, 0.31, quiet)
    reps = run.end_to_end([mixed, drowned, calm, {"error": "boom", "attempted": 1, "failed": 1}])
    assert reps["wall_us_per_op"] == [700.0, 698.0]
    assert reps["setup_s"] == [0.3, 0.31]
    assert reps["peak_rss_mb"] == [50.0, 50.0, 50.0]
    # a run that never saw the quiet level reports what it measured
    slow_run = run.end_to_end([_record([1100, 1102, 1104], [slow] * 3, 0.5, slow)])
    assert slow_run["wall_us_per_op"] == [1102.0] and slow_run["setup_s"] == [0.5]
