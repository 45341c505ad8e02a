"""The §8 ping-pong drivers.

"Two processes take turns to send and receive a piece of data.  A single
iteration is the time for a round trip.  Each experiment performed 200
iterations, the last 100 of which were timed.  A range of buffer sizes
were tested.  Each buffer size was tested three times.  The average time
in microseconds per iteration was calculated for all three experiments."

Each rank main builds its rank's face of the system under test from the
flavor table (:mod:`repro.workloads.adapters`) and calls its verbs
directly, so every series in a figure runs the identical protocol.

The drivers time on the leading rank's clock: on the modelled clock the
Lamport merges at each receive carry the full causal round-trip time; on
real processes in wall mode it is real elapsed time, so the same code
measures both.

Every rank main here is a module-level dataclass instance — spawn-safe
and picklable — so the same driver runs unchanged on the inproc substrate
(threads) and the proc substrate (real OS processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.world import mpiexec
from repro.workloads import linkedlist
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


@dataclass(frozen=True)
class BufferPingPong:
    """Buffer round trips between ranks 2k and 2k+1, every pair at once.

    Figure 9 runs it on two ranks; ``python -m repro.cluster`` on N.  Every
    rank, an odd one out included, enters the barrier before each run.  A
    pair's leader (the even rank) returns ``{size: mean us/iter}``; the
    follower and an odd one out return ``None``.
    """

    flavor: str = "cpp"
    sizes: Sequence[int] = tuple(FIG9_SIZES)
    iterations: int = ITERATIONS
    timed: int = TIMED
    runs: int = RUNS
    verify: bool = True

    def __call__(self, ctx):
        face = make_adapter(self.flavor, ctx)
        clock = ctx.clock
        me = ctx.rank
        peer = me ^ 1
        lead = me % 2 == 0
        paired = peer < ctx.size
        iterations, timed, verify = self.iterations, self.timed, self.verify
        results: dict[int, float] = {}
        for size in self.sizes:
            buf = face.alloc_buffer(size)
            if lead:
                face.fill_buffer(buf, _pattern(size))
            per_run: list[float] = []
            for _run in range(self.runs):
                face.barrier()
                if not paired:
                    continue
                t0 = 0.0
                for i in range(iterations):
                    if i == iterations - timed:
                        t0 = clock.now()
                    if lead:
                        face.send(buf, peer, 1)
                        face.recv(buf, peer, 2)
                    else:
                        face.recv(buf, peer, 1)
                        if verify and i == 0:
                            assert face.buffer_bytes(buf) == _pattern(size), (
                                f"{self.flavor} pair {peer}<->{me}: ping payload "
                                f"corrupted at size {size}"
                            )
                        face.send(buf, peer, 2)
                if lead:
                    per_run.append((clock.now() - t0) / timed / 1e3)  # us/iter
            if lead and paired:
                if verify:
                    assert face.buffer_bytes(buf) == _pattern(size), (
                        f"{self.flavor} pair {me}<->{peer}: payload corrupted at size {size}"
                    )
                results[size] = sum(per_run) / len(per_run)
        return results if lead and paired else None


def sweep_buffer_pingpong(
    flavor: str,
    sizes=FIG9_SIZES,
    iterations: int = ITERATIONS,
    timed: int = TIMED,
    runs: int = RUNS,
    verify: bool = True,
    **world,
) -> dict[int, float]:
    """Run the Figure 9 protocol for one system; {size: mean us/iter}.

    ``world`` is passed to :func:`~repro.cluster.world.mpiexec` (``channel``,
    ``costs``, ``eager_threshold``, ``fault_plan``, ``reliable``,
    ``observe``, ``sanitize``, ``substrate``, ...); the sweep's defaults
    are the ``sock`` channel and a 900 s timeout.
    """
    main = BufferPingPong(flavor, sizes, iterations, timed, runs, verify)
    return mpiexec(2, main, **{"channel": "sock", "timeout": 900.0, **world})[0]


@dataclass(frozen=True)
class TreePingPong:
    """Figure 10 rank main: linked-tree round trips between ranks 0 and 1."""

    flavor: str
    counts: Sequence[int]
    total_bytes: int
    iterations: int
    timed: int
    runs: int
    verify: bool

    def __call__(self, ctx):
        face = make_adapter(self.flavor, ctx)
        linkedlist.define_linked_array(face.runtime)
        clock = ctx.clock
        me = ctx.rank
        peer = 1 - me
        iterations, timed = self.iterations, self.timed
        results: dict[int, float | None] = {}
        for total_objects in self.counts:
            elements = max(1, total_objects // 2)
            # Both ranks can predict the serializer stack overflow locally
            # (the paper's mpiJava series stops at 1024 objects for this
            # reason); the sweep records the gap instead of deadlocking.
            if face.tree_will_overflow(elements):
                if me == 0:
                    results[total_objects] = None
                continue
            tree = (
                linkedlist.build_linked_list(face.runtime, elements, self.total_bytes)
                if me == 0 else None
            )
            per_run: list[float] = []
            for _run in range(self.runs):
                face.barrier()
                t0 = 0.0
                got = None
                for i in range(iterations):
                    if i == iterations - timed:
                        t0 = clock.now()
                    if me == 0:
                        face.send_tree(tree, peer, 1)
                        got = face.recv_tree(peer, 2)
                    else:
                        got = face.recv_tree(peer, 1)
                        face.send_tree(got, peer, 2)
                        got = None
                if me == 0:
                    per_run.append((clock.now() - t0) / timed / 1e3)
                    if self.verify and got is not None:
                        linkedlist.verify_linked_list(
                            face.runtime, got, elements, self.total_bytes
                        )
            if me == 0:
                results[total_objects] = sum(per_run) / len(per_run)
        return results if me == 0 else None


def sweep_tree_pingpong(
    flavor: str,
    object_counts=FIG10_OBJECT_COUNTS,
    total_bytes: int = 4096,
    iterations: int = ITERATIONS,
    timed: int = TIMED,
    runs: int = RUNS,
    verify: bool = True,
    **world,
) -> dict[int, float | None]:
    """Run the Figure 10 protocol; {total_objects: mean us/iter or None}.

    ``None`` marks points the system could not produce (mpiJava's stack
    overflow past 1024 objects).  ``world`` is passed to
    :func:`~repro.cluster.world.mpiexec`, with the defaults of
    :func:`sweep_buffer_pingpong` and a 1800 s timeout.
    """
    main = TreePingPong(flavor, object_counts, total_bytes, iterations, timed, runs, verify)
    return mpiexec(2, main, **{"channel": "sock", "timeout": 1800.0, **world})[0]
