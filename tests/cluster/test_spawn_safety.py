"""Spawn-safety audit: every rank main is module-level importable.

The proc substrate ships rank mains to worker processes by pickle, which
requires them to be module-level classes or functions — a ``def main``
nested inside another function has ``<locals>`` in its qualname and
cannot be pickled.  This audit sweeps every example and every workload
entry point so a closure main cannot sneak back in.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib
import pickle

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLE_FILES = sorted(
    p
    for pattern in ("examples/*.py", "examples/analyze/*.py")
    for p in REPO.glob(pattern)
)


def _load(path: pathlib.Path):
    name = "spawnaudit_" + path.stem
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _rank_mains(mod):
    """Module-level callables that look like rank mains (``main``/``*_main``)."""
    out = []
    for name, obj in vars(mod).items():
        if not callable(obj):
            continue
        if name == "main" or name.endswith("_main"):
            out.append((name, obj))
    return out


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_mains_are_module_level(path):
    mod = _load(path)
    for name, obj in _rank_mains(mod):
        qualname = getattr(obj, "__qualname__", name)
        assert "<locals>" not in qualname, (
            f"{path.name}:{name} is a closure ({qualname}); rank mains must "
            "be module-level so the proc substrate can pickle them"
        )


def test_examples_have_no_nested_rank_mains():
    """No example defines a ``main``/``*_main`` inside another function."""
    offenders = []
    for path in EXAMPLE_FILES:
        mod = _load(path)
        for _name, obj in inspect.getmembers(mod, callable):
            qualname = getattr(obj, "__qualname__", "")
            base = qualname.rsplit(".", 1)[-1]
            if "<locals>" in qualname and (base == "main" or base.endswith("_main")):
                offenders.append(f"{path.name}:{qualname}")
    assert not offenders, f"closure rank mains found: {offenders}"


def test_workload_mains_pickle_round_trip():
    """The shipped workload mains survive pickle (what proc launch needs)."""
    from repro.cluster.world import _ObservedMain
    from repro.workloads.pingpong import BufferPingPong, TreePingPong

    mains = [
        BufferPingPong("cpp", [4, 64], iterations=2, timed=1, runs=1, verify=True),
        TreePingPong("motor", [1, 4], total_bytes=64, iterations=2, timed=1,
                     runs=1, verify=True),
        _ObservedMain(BufferPingPong(sizes=[4], iterations=2)),
    ]
    for main in mains:
        clone = pickle.loads(pickle.dumps(main))
        assert type(clone) is type(main)
        assert callable(clone)


def test_elastic_main_is_module_level():
    from repro.workloads.elastic import ElasticMain

    assert "<locals>" not in ElasticMain.__qualname__
    assert ElasticMain.__module__ == "repro.workloads.elastic"
