#!/usr/bin/env python3
"""The execution census: which consumer executes which function of ``src/repro``.

``python benchmarks/census.py`` (``make census``, ~12 min) runs the five
consumers of the package, each command in a subprocess whose interpreter
(and every interpreter it starts or forks) carries a call-event tracer,
and writes ``docs/CENSUS.md``: package x consumer reach, the functions no
consumer enters and those tier-1 alone enters — each with the reason it
stays, from ``benchmarks/census_keep.txt`` — and an index of every top-level
name.  ``tests/test_census.py`` keeps the committed file honest between runs.
A consumer command that exits non-zero is named and the tool exits 2
without writing the file: its reach would be short.
"""

from __future__ import annotations

import atexit
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from multiprocessing import util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOC = ROOT / "docs" / "CENSUS.md"
KEEP = Path(__file__).with_name("census_keep.txt")
ENV = "REPRO_CENSUS_DIR"  # set here for the traced children, never by a user
PY = sys.executable


def consumers(tmp: str) -> dict[str, tuple[str, list[list[str]]]]:
    """letter -> (what it is, the commands that make it up)."""
    bench = [PY, "-m", "repro.bench"]
    perf = [PY, "benchmarks/perf/run.py", "--seed", "1", "--seconds", "3"]
    loads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    suite = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return {
        # tests/test_census.py fails exactly when the census is due: a rerun
        # must not need the file it is about to write
        "T": ("tier-1 (`pytest -q`)", [suite + ["--hypothesis-seed=0",
                                                "--deselect", "tests/test_census.py"]]),
        "B": ("`python -m repro.bench report`, `smoke`, `chaos`, `metrics`", [
            bench + ["report"], bench + ["smoke", "--json", f"{tmp}/smoke.json"],
            bench + ["chaos", "--json", f"{tmp}/chaos.json"],
            bench + ["metrics", "--trace", f"{tmp}/trace.json"]]),
        "A": ("`python -m repro.analyze gate`, `ablate` and every `examples/**.py`", [
            [PY, "-m", "repro.analyze", "gate"], [PY, "-m", "repro.analyze", "ablate"],
            *([PY, str(p)] for p in sorted((ROOT / "examples").rglob("*.py")))]),
        "P": ("`benchmarks/perf`: each workload, `--trace 0` and `1`, and its self-test", [
            *(perf + ["--workload", w, "--trace", t] for w in loads for t in "01"),
            suite + ["benchmarks/perf"]]),
        "R": ("`pytest -m realproc tests/` and `python -m repro.cluster`", [
            suite + ["-m", "realproc", "tests/"],
            [PY, "-m", "repro.cluster", "-n", "2", "--sizes", "4,65536", "--iterations", "6"]]),
    }


# -- the tracer (runs inside every traced interpreter, via sitecustomize) ----------

def install() -> None:
    out = os.environ.get(ENV)
    if not out:
        return
    seen: dict[int, object] = {}  # id(code) -> code: holding it keeps the id unique

    # call events only (returning None declines line events); names bound as
    # defaults because module globals are None by the time the last frames run
    def tracer(frame, event, arg, _seen=seen, _id=id):
        co = frame.f_code
        if _id(co) not in _seen:
            _seen[_id(co)] = co

    def dump(_seen=seen, _prefix=str(SRC) + os.sep, _out=out, _os=os, _time=time):
        hits = {(co.co_filename[len(_prefix):], co.co_firstlineno, co.co_name)
                for co in list(_seen.values()) if co.co_filename.startswith(_prefix)}
        with open(f"{_out}/{_os.getpid()}-{_time.monotonic_ns()}.txt", "w") as fh:
            fh.writelines(f"{f}:{line}:{name}\n" for f, line, name in sorted(hits))

    sys.settrace(tracer)
    threading.settrace(tracer)
    atexit.register(dump)
    # a multiprocessing child leaves through os._exit, and its _bootstrap clears
    # the finalizer registry *before* the after-fork hooks run: a Finalize made
    # any earlier is silently dropped (`tracer` is held weakly here, by threading)
    util.register_after_fork(tracer, lambda _t: util.Finalize(None, dump, exitpriority=0))


def trace(commands: list[list[str]], site: str,
          failed: list[str]) -> set[tuple[str, int, str]]:
    """Run ``commands`` traced; return the (file, first line, name) entered.
    Each command that exits non-zero is appended to ``failed``."""
    hits: set[tuple[str, int, str]] = set()
    with tempfile.TemporaryDirectory() as out:
        path = os.pathsep.join(filter(None, [site, str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, ENV: out, "PYTHONPATH": path}
        for cmd in commands:
            t0 = time.monotonic()
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
            print(f"  [{time.monotonic() - t0:6.1f}s exit {code}] {' '.join(cmd[1:])}",
                  file=sys.stderr)
            if code:
                failed.append(f"exit {code}: {' '.join(cmd)}")
        for dumped in Path(out).iterdir():
            rows = (ln.split(":", 2) for ln in dumped.read_text().splitlines())
            hits |= {(f, int(n), name) for f, n, name in rows}
    return hits


# -- the inventory: every function, method and class body of src/repro -------------

def inventory() -> dict[tuple[str, int, str], tuple[str, str, int]]:
    """(file, first line, name) -> (module, qualname, executable body lines)."""
    inv = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(SRC))
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        stack = [compile(path.read_text(), rel, "exec")]
        while stack:
            for co in stack.pop().co_consts:
                if hasattr(co, "co_code"):
                    stack.append(co)
                    if not co.co_name.startswith("<"):  # lambdas, comprehensions
                        lines = {ln for _, _, ln in co.co_lines() if ln}
                        qual = co.co_qualname.replace("<locals>.", "")
                        inv[rel, co.co_firstlineno, co.co_name] = (module, qual, len(lines))
    return inv


def render(inv: dict, reach: dict[str, set], what: dict[str, str]) -> str:
    keep, why = [], ""
    for ln in map(str.strip, KEEP.read_text().splitlines()):
        if ln.startswith("= "):
            why = ln[2:]
        elif ln and not ln.startswith("#"):
            keep.append((ln, why))
    letters = list(reach)
    who = {key: "".join(c for c in letters if key in reach[c]) for key in inv}
    out = ["# The execution census", "",
           "Generated by `make census` (`benchmarks/census.py`); do not edit. Every",
           "function, method and class body under `src/repro` against the consumers",
           "that enter it. *Lines* are executable lines of the bodies entered (call",
           "events only: a body counts whole once it is entered).", ""]
    out += [f"- **{c}** — {what[c]}" for c in letters]
    out += ["", "## Packages × consumers", "",
            "| package | all | " + " | ".join(letters) + " | nobody | T alone |",
            "|---|---|" + "---|" * (len(letters) + 2)]

    def cell(keys) -> str:
        return f"{len(keys)} / {sum(inv[k][2] for k in keys)}"

    def package(k) -> str:
        return (inv[k][0].split(".") + ["repro"])[1]

    for pkg in sorted(set(map(package, inv))) + ["**total**"]:
        mine = [k for k in inv if pkg in ("**total**", package(k))]
        cols = [[k for k in mine if c in who[k]] for c in letters]
        cols += [[k for k in mine if not who[k]], [k for k in mine if who[k] == "T"]]
        out.append(f"| {pkg} | {cell(mine)} | " + " | ".join(map(cell, cols)) + " |")
    out += ["", "(functions / executable lines)", ""]
    for title, want in (("Reached by nobody", ""), ("Reached by tier-1 alone", "T")):
        listed = sorted(k for k in inv if who[k] == want)
        out += [f"## {title}", "", f"{cell(listed)} lines. Why each stays:", ""]
        groups: dict[str, dict[str, list[str]]] = {}
        for module, qual, _ in map(inv.get, listed):
            why = next((w for pat, w in keep if fnmatch.fnmatchcase(f"{module}.{qual}", pat)),
                       "UNJUSTIFIED")
            groups.setdefault(why, {}).setdefault(module, []).append(qual)
        order = [why for _, why in keep] + ["UNJUSTIFIED"]
        for why in sorted(groups, key=order.index):
            out += [f"### {why}", ""]
            out += [f"- `{m}`: " + ", ".join(f"`{q}`" for q in sorted(set(qs)))
                    for m, qs in sorted(groups[why].items())]
            out.append("")
    out += ["## Index", "", "Every top-level name, the consumers that enter it or anything",
            "in it, and how many of its bodies are entered."]
    tops: dict[tuple[str, str], list] = {}
    for k, (module, qual, _) in inv.items():
        tops.setdefault((module, qual.split(".")[0]), []).append(who[k])
    module = None
    for (mod, top), whos in sorted(tops.items()):
        if mod != module:
            module = mod
            out += ["", f"### {mod}", ""]
        flags = "".join(c if any(c in w for w in whos) else "-" for c in letters)
        out.append(f"- `{top}` {flags} {sum(map(bool, whos))}/{len(whos)}")
    return "\n".join(out) + "\n"


def main() -> int:
    inv = inventory()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            f"import sys\nsys.path.insert(0, {str(KEEP.parent)!r})\n"
            "import census\ncensus.install()\n")
        runs = consumers(tmp)
        failed: list[str] = []
        reach = {c: trace(commands, tmp, failed) & inv.keys() for c, (_, commands) in runs.items()}
    if failed:  # a failing consumer reaches less than it should: write nothing
        for line in failed:
            print(f"census: a consumer failed, {DOC.name} left as it was: {line}",
                  file=sys.stderr)
        return 2
    text = render(inv, reach, {c: title for c, (title, _) in runs.items()})
    DOC.write_text(text)
    return 1 if "UNJUSTIFIED" in text else 0  # an unreached function nobody defends


if __name__ == "__main__":
    raise SystemExit(main())
