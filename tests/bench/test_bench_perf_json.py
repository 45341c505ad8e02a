"""``benchmarks/bench_perf_json.py``'s command line, parsed without running
a benchmark."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_perf_json  # noqa: E402


@pytest.mark.parametrize("argv", [
    # the order the docstring documents
    ["pairs", "PARENT", "PAIRS.json", "-n", "10", "proc_pp_small", "proc_pp_large"],
    ["pairs", "PARENT", "PAIRS.json", "proc_pp_small", "proc_pp_large", "-n", "10"],
    ["pairs", "PARENT", "PAIRS.json", "proc_pp_small", "-n", "10", "proc_pp_large"],
])
def test_pairs_takes_workloads_on_either_side_of_n(argv):
    args = bench_perf_json.parse_args(argv)
    assert (args.cmd, args.parent_checkout, args.pairs) == (
        "pairs", Path("PARENT"), Path("PAIRS.json"))
    assert args.n == 10
    assert args.workloads == ["proc_pp_small", "proc_pp_large"]


def test_pairs_defaults_to_every_workload():
    args = bench_perf_json.parse_args(["pairs", "PARENT", "PAIRS.json"])
    assert (args.n, args.workloads) == (10, [])


@pytest.mark.parametrize("argv", [
    ["pairs", "PARENT", "PAIRS.json", "-n", "10", "pp_small", "--bogus"],
    ["write", "PAIRS.json", "P.json", "C.json", "extra"],
])
def test_unknown_arguments_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        bench_perf_json.parse_args(argv)
    assert exc.value.code == 2
