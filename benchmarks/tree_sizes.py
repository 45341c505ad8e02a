#!/usr/bin/env python3
"""Host time of Motor's object path at small and large tree sizes.

    python benchmarks/tree_sizes.py [--batches 15] [--repeat 20] [CHECKOUT ...]

Prints the host µs of one ``serialize``, one ``deserialize`` and their sum
for the Figure 10 list (4096 B of ``int32`` payload) at 2, 32, 512 and
2 048 objects, and of the 256-part split representation of two-object
parts: ``serialize_array_split`` and the gather side's landing
(``build_array_from_parts``).  Each figure is the median over ``--batches``
batches of the median of ``--repeat`` timed calls (a call's median, not
its mean: one descheduled call would otherwise move a whole batch); a batch
is one fresh interpreter per checkout, and the checkouts take turns going
first.

The checkout holding this script is always measured; each ``CHECKOUT`` is
another tree to compare with it (an exported commit, made as for
``bench_perf_json.py pairs``: ``git archive C | tar -x -C DIR``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: objects per regular representation: a list of k elements is 2k objects
SIZES = (2, 32, 512, 2048)
#: parts of the split representation, two objects each
PARTS = 256


def _median_us(call, repeat: int) -> float:
    call()  # warm: plans compiled, modules loaded
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def batch(repeat: int) -> dict[str, float]:
    """One batch in this interpreter: metric name -> median host µs."""
    from repro.motor.serialization import MotorSerializer
    from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
    from repro.workloads.linkedlist import build_linked_list, define_linked_array

    def runtime() -> ManagedRuntime:
        rt = ManagedRuntime(RuntimeConfig(heap_capacity=32 << 20, nursery_size=1 << 20))
        define_linked_array(rt)
        return rt

    a, b = runtime(), runtime()
    sa, sb = MotorSerializer(a), MotorSerializer(b)
    out = {}
    for n in SIZES:
        head = build_linked_list(a, elements=n // 2, total_bytes=4096)
        data = bytes(sa.serialize(head))
        ser = _median_us(lambda: sa.serialize(head), repeat)
        deser = _median_us(lambda: sb.deserialize(data), repeat)
        out[f"serialize {n}"], out[f"deserialize {n}"] = ser, deser
        out[f"sum {n}"] = ser + deser
    arr = a.new_array("LinkedArray", PARTS)
    for i in range(PARTS):
        node = a.new("LinkedArray")
        a.set_ref(node, "array", a.new_array("int32", 4, values=[i, i + 1, i + 2, i + 3]))
        a.set_elem_ref(arr, i, node)
    name, parts = sa.serialize_array_split(arr)
    out[f"split serialize {PARTS}x2"] = _median_us(lambda: sa.serialize_array_split(arr), repeat)
    out[f"gather landing {PARTS}x2"] = _median_us(
        lambda: sb.build_array_from_parts(name, parts), repeat)
    return out


def run_batch(checkout: Path, repeat: int) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", "--repeat", str(repeat)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path, help="other trees to compare")
    ap.add_argument("--batches", type=int, default=15)
    ap.add_argument("--repeat", type=int, default=20)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(batch(args.repeat)))
        return 0
    sides = [ROOT, *args.checkouts]
    runs: list[list[dict]] = [[] for _ in sides]
    for i in range(args.batches):
        order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
        for s in order:
            runs[s].append(run_batch(sides[s], args.repeat))
    labels = ["this checkout", *(str(c) for c in args.checkouts)]
    width = max(len(k) for k in runs[0][0])
    print(f"host µs, median of {args.batches} batches of {args.repeat} calls")
    print(f"{'':{width}}  " + "  ".join(f"{lab:>14}" for lab in labels))
    for key in runs[0][0]:
        cells = [f"{statistics.median(r[key] for r in side):14.1f}" for side in runs]
        print(f"{key:{width}}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
