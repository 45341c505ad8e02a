"""The §8 ping-pong drivers.

"Two processes take turns to send and receive a piece of data.  A single
iteration is the time for a round trip.  Each experiment performed 200
iterations, the last 100 of which were timed.  A range of buffer sizes
were tested.  Each buffer size was tested three times.  The average time
in microseconds per iteration was calculated for all three experiments."

The drivers time on rank 0's clock: in wall mode that is real elapsed
time; in virtual mode the Lamport merges at each receive carry the full
causal round-trip time, so the same code measures both.

Every rank main here is a module-level class instance — spawn-safe and
picklable — so the same driver runs unchanged on the inproc substrate
(threads) and the proc substrate (real OS processes).
"""

from __future__ import annotations

from repro.cluster.world import mpiexec
from repro.simtime import CostModel
from repro.workloads.adapters import make_adapter

ITERATIONS = 200
TIMED = 100
RUNS = 3

#: Figure 9's buffer sizes: 4 B .. 256 KiB in powers of two
FIG9_SIZES = [4 << i for i in range(17)]  # 4 .. 262144

#: Figure 10's x-axis is total objects (2 per list element): 2 .. 8192
FIG10_OBJECT_COUNTS = [2 << i for i in range(13)]  # 2 .. 8192


def _pattern(nbytes: int) -> bytes:
    return bytes((i * 37 + 11) % 256 for i in range(nbytes))


class BufferPingPong:
    """Figure 9 rank main: raw-buffer round trips between ranks 0 and 1."""

    def __init__(self, flavor: str, sizes, iterations: int, timed: int,
                 runs: int, verify: bool) -> None:
        self.flavor = flavor
        self.sizes = list(sizes)
        self.iterations = iterations
        self.timed = timed
        self.runs = runs
        self.verify = verify

    def __call__(self, ctx):
        ad = make_adapter(self.flavor, ctx)
        clock = ctx.clock
        me = ctx.rank
        peer = 1 - me
        iterations, timed, verify = self.iterations, self.timed, self.verify
        results: dict[int, list[float]] = {}
        for size in self.sizes:
            buf = ad.alloc(size)
            if me == 0:
                ad.fill(buf, _pattern(size))
            per_run: list[float] = []
            for _run in range(self.runs):
                ad.barrier()
                t0 = 0.0
                for i in range(iterations):
                    if i == iterations - timed:
                        t0 = clock.now()
                    if me == 0:
                        ad.send(buf, peer, 1)
                        ad.recv(buf, peer, 2)
                    else:
                        ad.recv(buf, peer, 1)
                        if verify and i == 0:
                            assert ad.read(buf) == _pattern(size), (
                                f"{self.flavor}: ping payload corrupted at size {size}"
                            )
                        ad.send(buf, peer, 2)
                if me == 0:
                    per_run.append((clock.now() - t0) / timed / 1e3)  # us/iter
            if me == 0:
                if verify:
                    assert ad.read(buf) == _pattern(size), (
                        f"{self.flavor}: payload corrupted at size {size}"
                    )
                results[size] = per_run
        return results if me == 0 else None


def sweep_buffer_pingpong(
    flavor: str,
    sizes=FIG9_SIZES,
    iterations: int = ITERATIONS,
    timed: int = TIMED,
    runs: int = RUNS,
    channel: str = "sock",
    clock_mode: str = "virtual",
    costs: CostModel | None = None,
    verify: bool = True,
    eager_threshold: int | None = None,
    timeout: float = 900.0,
    fault_plan=None,
    reliable: bool | None = None,
    reliability_opts: dict | None = None,
    observe: str | None = None,
    sanitize: str | None = None,
    substrate: str = "inproc",
) -> dict[int, float]:
    """Run the Figure 9 protocol for one system; {size: mean us/iter}.

    ``reliable`` forces the seq/CRC/ack sublayer on (or off) regardless of
    whether a ``fault_plan`` is present — the A10 ablation times it over a
    fault-free wire to isolate its overhead.

    ``observe`` attaches the repro.obs instrumentation ("enabled" or
    "disabled") — the A11 ablation times the disabled hooks against the
    un-instrumented baseline.

    ``sanitize`` attaches the repro.analyze runtime sanitizer ("enabled"
    or "disabled") — the A12 ablation bounds the detached-hook residue.

    ``substrate`` picks where the two ranks live: ``"inproc"`` (threads
    over the simulated channel) or ``"proc"`` (real OS processes over the
    packet router).
    """
    main = BufferPingPong(flavor, sizes, iterations, timed, runs, verify)
    results = mpiexec(
        2, main, channel=channel, clock_mode=clock_mode, costs=costs,
        eager_threshold=eager_threshold, timeout=timeout,
        fault_plan=fault_plan, reliable=reliable,
        reliability_opts=reliability_opts, observe=observe,
        sanitize=sanitize, substrate=substrate,
    )[0]
    return {size: sum(vals) / len(vals) for size, vals in results.items()}


class TreePingPong:
    """Figure 10 rank main: linked-tree round trips between ranks 0 and 1."""

    def __init__(self, flavor: str, counts, total_bytes, iterations, timed,
                 runs, verify) -> None:
        self.flavor = flavor
        self.counts = list(counts)
        self.total_bytes = total_bytes
        self.iterations = iterations
        self.timed = timed
        self.runs = runs
        self.verify = verify

    def __call__(self, ctx):
        ad = make_adapter(self.flavor, ctx)
        clock = ctx.clock
        me = ctx.rank
        peer = 1 - me
        iterations, timed = self.iterations, self.timed
        results: dict[int, list[float] | None] = {}
        for total_objects in self.counts:
            elements = max(1, total_objects // 2)
            # Both ranks can predict the serializer stack overflow locally
            # (the paper's mpiJava series stops at 1024 objects for this
            # reason); the sweep records the gap instead of deadlocking.
            if ad.tree_will_overflow(elements):
                if me == 0:
                    results[total_objects] = None
                continue
            tree = ad.build_tree(elements, self.total_bytes) if me == 0 else None
            per_run: list[float] = []
            for _run in range(self.runs):
                ad.barrier()
                t0 = 0.0
                got = None
                for i in range(iterations):
                    if i == iterations - timed:
                        t0 = clock.now()
                    if me == 0:
                        ad.send_tree(tree, peer, 1)
                        got = ad.recv_tree(peer, 2)
                    else:
                        got = ad.recv_tree(peer, 1)
                        ad.send_tree(got, peer, 2)
                        got = None
                if me == 0:
                    per_run.append((clock.now() - t0) / timed / 1e3)
                    if self.verify and got is not None:
                        ad.verify_tree(got, elements, self.total_bytes)
            if me == 0:
                results[total_objects] = per_run
        return results if me == 0 else None


def sweep_tree_pingpong(
    flavor: str,
    object_counts=FIG10_OBJECT_COUNTS,
    total_bytes: int = 4096,
    iterations: int = ITERATIONS,
    timed: int = TIMED,
    runs: int = RUNS,
    channel: str = "sock",
    clock_mode: str = "virtual",
    costs: CostModel | None = None,
    verify: bool = True,
    timeout: float = 1800.0,
    substrate: str = "inproc",
) -> dict[int, float | None]:
    """Run the Figure 10 protocol; {total_objects: mean us/iter or None}.

    ``None`` marks points the system could not produce (mpiJava's stack
    overflow past 1024 objects).
    """
    main = TreePingPong(flavor, object_counts, total_bytes, iterations, timed, runs, verify)
    results = mpiexec(
        2, main, channel=channel, clock_mode=clock_mode, costs=costs,
        timeout=timeout, substrate=substrate,
    )[0]
    return {
        k: (None if vals is None else sum(vals) / len(vals))
        for k, vals in results.items()
    }


class PairPingPong:
    """Fig 9-style pingpong across an N-rank world, pairwise.

    Ranks pair up (2k with 2k+1); each pair runs the buffer round-trip
    protocol concurrently.  An odd final rank idles (returns ``None``).
    The ``python -m repro.cluster`` CLI's workload.
    """

    def __init__(self, flavor: str = "cpp", sizes=None, iterations: int = ITERATIONS,
                 timed: int = TIMED, runs: int = 1, verify: bool = True) -> None:
        self.flavor = flavor
        self.sizes = list(sizes) if sizes is not None else list(FIG9_SIZES)
        self.iterations = iterations
        self.timed = timed
        self.runs = runs
        self.verify = verify

    def __call__(self, ctx):
        if ctx.size % 2 and ctx.rank == ctx.size - 1:
            return None  # odd rank out: nobody to pong with
        ad = make_adapter(self.flavor, ctx)
        clock = ctx.clock
        me = ctx.rank
        lead = me % 2 == 0
        peer = me + 1 if lead else me - 1
        iterations, timed = self.iterations, self.timed
        results: dict[int, list[float]] = {}
        for size in self.sizes:
            buf = ad.alloc(size)
            if lead:
                ad.fill(buf, _pattern(size))
            per_run: list[float] = []
            for _run in range(self.runs):
                t0 = 0.0
                for i in range(iterations):
                    if i == iterations - timed:
                        t0 = clock.now()
                    if lead:
                        ad.send(buf, peer, 1)
                        ad.recv(buf, peer, 2)
                    else:
                        ad.recv(buf, peer, 1)
                        ad.send(buf, peer, 2)
                if lead:
                    per_run.append((clock.now() - t0) / timed / 1e3)
            if lead:
                if self.verify:
                    assert ad.read(buf) == _pattern(size), (
                        f"pair {me}<->{peer}: payload corrupted at size {size}"
                    )
                results[size] = per_run
        return {s: sum(v) / len(v) for s, v in results.items()} if lead else None
