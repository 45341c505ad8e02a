"""``python -m repro.cluster``: run a pingpong on an execution substrate.

The acceptance driver for real multi-process execution: by default boots
N worker OS processes talking over shared-memory rings and runs the Figure
9-style pairwise pingpong on them, printing a per-size latency table.
``--substrate inproc`` runs the identical workload on the simulated
thread-per-rank substrate for comparison, on the modelled clock.
"""

from __future__ import annotations

import argparse
import sys
import time


def _parse_sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Run a pairwise pingpong over real worker processes "
        "(or the simulated inproc substrate).",
    )
    ap.add_argument("-n", type=int, default=4, help="world size (default 4)")
    ap.add_argument(
        "--substrate", choices=("proc", "inproc"), default="proc",
        help="where ranks live: real OS processes (default) or threads",
    )
    ap.add_argument(
        "--channel", default="shm",
        help="inproc channel fabric (ignored under proc; default shm)",
    )
    ap.add_argument(
        "--clock", choices=("wall", "virtual"),
        help="clock mode (default: wall under proc, virtual, the only "
        "inproc clock, under inproc)",
    )
    ap.add_argument(
        "--flavor", default="cpp",
        help="the system under test, by flavor-table name (default cpp: "
        "raw native buffers)",
    )
    ap.add_argument(
        "--sizes", type=_parse_sizes, default=[4 << (2 * i) for i in range(8)],
        help="comma-separated buffer sizes in bytes (default 4..65536 x4)",
    )
    ap.add_argument(
        "--iterations", type=int, default=50,
        help="round trips per size (default 50, last half timed)",
    )
    ap.add_argument(
        "--progress", choices=("polled", "async"), default="polled",
        help="progress mode (async needs --substrate inproc: it is the "
        "engine's tick on the modelled clock; proc has no progress thread)",
    )
    ap.add_argument("--timeout", type=float, default=300.0)
    args = ap.parse_args(argv)

    if args.n < 2:
        ap.error("-n must be >= 2 (pingpong needs at least one pair)")
    if args.clock is None:
        args.clock = "wall" if args.substrate == "proc" else "virtual"
    elif args.clock == "wall" and args.substrate == "inproc":
        ap.error("--clock wall needs --substrate proc (inproc ranks run on "
                 "the modelled clock)")

    from repro.cluster import mpiexec
    from repro.workloads.pingpong import BufferPingPong

    workload = BufferPingPong(
        flavor=args.flavor,
        sizes=args.sizes,
        iterations=args.iterations,
        timed=max(1, args.iterations // 2),
        runs=1,
    )
    kind = (
        f"{args.n} worker processes (shared-memory ring transport)"
        if args.substrate == "proc"
        else f"{args.n} rank threads ({args.channel} fabric)"
    )
    print(f"booting {kind}, clock={args.clock}, progress={args.progress}")
    t0 = time.monotonic()
    results = mpiexec(
        args.n,
        workload,
        substrate=args.substrate,
        channel=args.channel,
        clock_mode=args.clock,
        progress=args.progress,
        timeout=args.timeout,
    )
    elapsed = time.monotonic() - t0
    pairs = [(r, res) for r, res in enumerate(results) if res is not None]
    if not pairs:
        print("no pair produced results", file=sys.stderr)
        return 1
    sizes = sorted(pairs[0][1])
    header = "size(B)".rjust(9) + "".join(
        f"  pair {r}-{r + 1}".rjust(12) for r, _ in pairs
    )
    print(header)
    unit = "us/iter" if args.clock == "wall" else "sim-us/iter"
    for size in sizes:
        row = f"{size:9d}" + "".join(
            f"{res[size]:12.2f}" for _, res in pairs
        )
        print(row)
    print(f"({unit}; wall elapsed {elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
