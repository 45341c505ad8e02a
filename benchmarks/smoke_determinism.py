"""Same run, same numbers: ``python -m repro.bench smoke`` N times over.

    python benchmarks/smoke_determinism.py [N=2]

Runs the smoke suite N times, each in a fresh interpreter, and compares
the JSON summaries — with each other and with the committed
``BENCH_smoke.json`` — with the ``run`` stamp and every ``elapsed_s``
(wall time) removed.  Prints the number of distinct summaries and exits 1
if there is more than one, if it is not the committed one (a change that
moves a modelled number on *every* run), or if any run had a claim that
DIFFERS.  A move that is meant: ``python -m repro.bench smoke --json
BENCH_smoke.json`` and commit the file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

WALL_KEYS = ("run", "elapsed_s")


def modelled(node):
    """The summary without its wall-clock fields."""
    if isinstance(node, dict):
        return {k: modelled(v) for k, v in node.items() if k not in WALL_KEYS}
    if isinstance(node, list):
        return [modelled(v) for v in node]
    return node


def main(argv: list[str]) -> int:
    runs = int(argv[1]) if len(argv) > 1 else 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    with open(os.path.join(root, "BENCH_smoke.json")) as fh:
        committed = json.dumps(modelled(json.load(fh)), sort_keys=True)
    seen: dict[str, int] = {}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "smoke.json")
        for i in range(runs):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.bench", "smoke", "--json", path],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            failed += proc.returncode != 0
            with open(path) as fh:
                key = json.dumps(modelled(json.load(fh)), sort_keys=True)
            seen[key] = seen.get(key, 0) + 1
            print(f"run {i + 1}/{runs}: summary #{list(seen).index(key) + 1}",
                  flush=True)
    moved = next(iter(seen)) != committed
    print(f"{len(seen)} distinct summaries in {runs} runs "
          f"(counts {sorted(seen.values(), reverse=True)}); "
          f"run 1 {'DIFFERS from' if moved else 'equals'} the committed "
          f"BENCH_smoke.json; {failed} run(s) with a claim that DIFFERS")
    return 0 if len(seen) == 1 and not moved and not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
