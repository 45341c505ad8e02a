"""How experiments run: the row type, the ping-pong sweep, the bespoke runners.

Every figure and ablation is one :class:`Experiment` row of the table in
:mod:`repro.bench.report`.  The ping-pong sweeps share one runner,
:class:`Sweep`; the rest are the functions below, each named by its row
and taking id, title and notes from it.  ``quick=True`` (the
default) runs a reduced iteration protocol — the virtual clock is
deterministic, so per-iteration results match the full paper protocol
(200 iterations, last 100 timed, mean of 3 runs) to within a ~1% warm-up
transient; ``quick=False`` runs the full protocol for rigour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.baselines.serializers import ClrBinarySerializer
from repro.bench.harness import SeriesSet
from repro.cluster.world import mpiexec
from repro.motor.serialization import MotorSerializer
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig
from repro.simtime import HOST_PROFILES, CostModel, VirtualClock
from repro.workloads.pingpong import (
    FIG9_SIZES,
    FIG10_OBJECT_COUNTS,
    sweep_buffer_pingpong,
    sweep_tree_pingpong,
)


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table: what runs, and what it must show."""

    id: str
    #: the EXPERIMENTS.md section heading, "A10: reliability sublayer overhead"
    heading: str
    #: the regenerated series' title
    title: str
    #: where the paper makes the claim, or which extension of it this gates
    section: str
    #: ``runner(row, quick) -> SeriesSet``: a :class:`Sweep` or a function below
    runner: Callable[["Experiment", bool], SeriesSet]
    #: ``check(series) -> list[ClaimResult]``: the claims, as predicates
    check: Callable[[SeriesSet], list]
    notes: tuple[str, ...] = ()
    #: part of ``python -m repro.bench smoke``, the CI gate
    smoke: bool = False

    def run(self, quick: bool = True) -> SeriesSet:
        return self.runner(self, quick)

    def series_set(self, x_label: str, y_label: str) -> SeriesSet:
        return SeriesSet(self.id, self.title, x_label, y_label, notes=list(self.notes))


_PAPER_PROTOCOL = {"iterations": 200, "timed": 100, "runs": 3}


class SweepKind(NamedTuple):
    """A ping-pong driver, its x label, its whole axis and its quick protocol."""

    sweep: Callable[..., dict]
    x_label: str
    axis: Sequence[int]
    quick_protocol: dict


BUFFER = SweepKind(
    sweep_buffer_pingpong, "bytes", FIG9_SIZES, {"iterations": 20, "timed": 10, "runs": 1}
)
# the virtual clock makes per-iteration times deterministic, so the quick
# tree protocol can be very short without changing the series
TREE = SweepKind(
    sweep_tree_pingpong, "objects", FIG10_OBJECT_COUNTS, {"iterations": 8, "timed": 4, "runs": 1}
)


@dataclass(frozen=True)
class Sweep:
    """The ping-pong runner: one series per arm over a shared axis."""

    kind: SweepKind
    #: (series label, adapter flavor, extra keyword arguments of the sweep)
    arms: Sequence[tuple[str, str, dict]]
    #: x values of the quick / full protocol; ``None`` is the kind's whole axis
    quick: Sequence[int] | None = None
    full: Sequence[int] | None = None

    def __call__(self, exp: Experiment, quick: bool) -> SeriesSet:
        out = exp.series_set(self.kind.x_label, "time per iteration (us)")
        xs = (self.quick if quick else self.full) or self.kind.axis
        protocol = self.kind.quick_protocol if quick else _PAPER_PROTOCOL
        for label, flavor, kwargs in self.arms:
            out.add(label, self.kind.sweep(flavor, xs, **kwargs, **protocol))
        return out


def ablate_calls(exp: Experiment, quick: bool) -> SeriesSet:
    """A1: per-call cost of FCall vs P/Invoke vs JNI gates."""
    n = 200 if quick else 2000
    out = exp.series_set("args", "ns per call")
    gates = [
        ("FCall", "fcall", None),
        ("P/Invoke", "pinvoke", HOST_PROFILES["sscli-free"]),
        ("JNI", "jni", HOST_PROFILES["jvm"]),
    ]
    for label, kind, profile in gates:
        points: dict[int, float] = {}
        for nargs in (0, 2, 6):
            rt = ManagedRuntime(RuntimeConfig(), clock=VirtualClock())
            gate = rt.gate(kind, profile)
            args = tuple(range(nargs))
            t0 = rt.clock.now()
            for _ in range(n):
                gate.call(lambda *a: None, *args)
            points[nargs] = (rt.clock.now() - t0) / n
        out.add(label, points)
    return out


def ablate_buildtype(exp: Experiment, quick: bool) -> SeriesSet:
    """A3 (footnote 4): pin/unpin cost under different host build types."""
    n = 200 if quick else 2000
    out = exp.series_set("bytes", "ns per pin/unpin pair")
    for pname in ("sscli-free", "sscli-fastchecked", "dotnet"):
        profile = HOST_PROFILES[pname]
        points: dict[int, float] = {}
        for size in (64, 4096, 262144):
            rt = ManagedRuntime(RuntimeConfig(), clock=VirtualClock())
            buf = rt.new_array("byte", size)
            t0 = rt.clock.now()
            for _ in range(n):
                cookie = rt.gc.pin(buf, cost_mult=profile.pin_mult)
                rt.gc.unpin(cookie, cost_mult=profile.pin_mult)
            points[size] = (rt.clock.now() - t0) / n
        out.add(pname, points)
    return out


def ablate_split(exp: Experiment, quick: bool) -> SeriesSet:
    """A5: split representation vs N separate standard serializations.

    Root-side cost of preparing an object-array scatter over 4 ranks:
    Motor produces one split representation in a single pass; a standard
    atomic serializer must construct N sub-arrays and serialize each
    (paper §2.4).
    """
    lengths = [8, 64, 256] if quick else [8, 64, 256, 1024]
    nranks = 4
    out = exp.series_set("array length", "us per scatter preparation")

    def build(rt: ManagedRuntime, length: int):
        if "Cell" not in rt.registry:
            rt.define_class("Cell", [("data", "int32[]", True)], transportable_class=True)
        arr = rt.new_array("Cell", length)
        for i in range(length):
            cell = rt.new("Cell")
            rt.set_ref(cell, "data", rt.new_array("int32", 8, values=[i] * 8))
            rt.set_elem_ref(arr, i, cell)
        return arr

    split_pts: dict[int, float] = {}
    atomic_pts: dict[int, float] = {}
    for length in lengths:
        # Motor split: one pass.
        rt = ManagedRuntime(RuntimeConfig(), clock=VirtualClock())
        ser = MotorSerializer(rt)
        arr = build(rt, length)
        t0 = rt.clock.now()
        name, parts = ser.serialize_array_split(arr)
        per = length // nranks
        for i in range(nranks):
            ser.frame_parts(name, parts[i * per : (i + 1) * per])
        split_pts[length] = (rt.clock.now() - t0) / 1e3

        # Standard: build sub-arrays, serialize each atomically.
        rt = ManagedRuntime(RuntimeConfig(), clock=VirtualClock())
        clr = ClrBinarySerializer(rt, HOST_PROFILES["sscli-free"])
        arr = build(rt, length)
        t0 = rt.clock.now()
        for i in range(nranks):
            sub = rt.new_array("Cell", per)
            for j in range(per):
                rt.set_elem_ref(sub, j, rt.get_elem(arr, i * per + j))
            clr.serialize(sub)
        atomic_pts[length] = (rt.clock.now() - t0) / 1e3
    out.add("motor-split", split_pts)
    out.add("standard-atomic", atomic_pts)
    return out


def ablate_pal(exp: Experiment, quick: bool) -> SeriesSet:
    """A8: thin (Windows) vs thick (UNIX) PAL backends (paper §5.4).

    The same PAL call sequence costs more through the UNIX emulation —
    the porting asymmetry the paper describes ("the Windows implementation
    is thin, while ... the UNIX PAL, is thicker").  A backend prices every
    call alike, so the series is one point: the calls one round makes
    (create, set and reset an event), as the PAL itself counted them.
    """
    from repro.pal import PAL

    n = 300 if quick else 3000
    out = exp.series_set("calls per round", "ns per PAL call")
    for backend in ("windows", "unix"):
        clock = VirtualClock()
        pal = PAL(backend, clock=clock, costs=CostModel())
        t0 = clock.now()
        for _ in range(n):
            ev = pal.create_event()
            pal.set_event(ev)
            pal.reset_event(ev)
        calls = sum(pal.call_counts.values())
        out.add(backend, {calls // n: (clock.now() - t0) / calls})
    return out


def _copy_accounting_main(mode: str, sizes: list[int]):
    """Rank main for A14: the receiver returns {size: copies per byte}.

    ``mode`` selects the delivery path: ``"matched"`` pre-posts the
    receive behind a barrier so the payload always finds a posted buffer
    (eager or rendezvous, depending on size); ``"unexpected"`` keeps the
    receive unposted until ``iprobe`` sees the message staged in the
    unexpected queue, forcing the stage-then-deliver path.
    """
    tag = 7

    def main(ctx):
        eng = ctx.engine
        dev = ctx.engine.device
        me = ctx.rank
        ratios: dict[int, float] = {}
        for size in sizes:
            if me == 0:
                eng.barrier()
                eng.send(BufferDesc.from_bytes(b"\x5a" * size), 1, tag)
                eng.barrier()
                continue
            moved0 = dev.stats["bytes_moved"]
            copied0 = dev.stats["bytes_copied"]
            rbuf = BufferDesc.from_native(NativeMemory(size))
            if mode == "unexpected":
                eng.barrier()
                # stay unposted until the message is staged: probe only
                # sees messages already in the unexpected queue
                eng.probe(0, tag)
                eng.recv(rbuf, 0, tag)
            else:
                req = eng.irecv(rbuf, 0, tag)
                eng.barrier()  # the post strictly precedes the send
                eng.wait(req)
            moved = dev.stats["bytes_moved"] - moved0
            copied = dev.stats["bytes_copied"] - copied0
            ratios[size] = copied / moved if moved else 0.0
            eng.barrier()
        return ratios if me == 1 else None

    return main


def ablate_copies(exp: Experiment, quick: bool) -> SeriesSet:
    """A14: the zero-copy data plane's ledger, per delivery path.

    The device counts ``bytes_moved`` (payload bytes accepted off the
    wire) and ``bytes_copied`` (payload memcpys above the channel).  A
    matched eager message delivers straight from the packet's wire view
    into the posted buffer (1 copy per byte); rendezvous DATA chunks land
    directly in the posted buffer (1); an unexpected eager message must
    be staged into native memory and delivered later (exactly 2); on a
    channel that grants (shm) the sender's put writes a rendezvous into
    the posted buffer and the receive path copies nothing (0).  The
    barrier traffic threading the driver is all zero-byte, so the ratios
    are exact.
    """
    eager_sizes = [4096, 65536] if quick else [1024, 4096, 16384, 65536, 131072]
    rndv_sizes = [262144, 524288] if quick else [262144, 524288, 1048576]
    out = exp.series_set("bytes", "bytes_copied / bytes_moved (receiver)")
    for label, mode, sizes, channel in (
        ("eager-matched", "matched", eager_sizes, "sock"),
        ("rendezvous", "matched", rndv_sizes, "sock"),
        ("eager-unexpected", "unexpected", eager_sizes, "sock"),
        ("rendezvous / shm", "matched", rndv_sizes, "shm"),
    ):
        ratios = mpiexec(
            2, _copy_accounting_main(mode, sizes), channel=channel,
            clock_mode="virtual",
        )[1]
        out.add(label, ratios)
    return out


def ablate_checkpoint(exp: Experiment, quick: bool) -> SeriesSet:
    """A15: fault-free coordinated-checkpoint overhead.

    The elastic work queue runs the same deterministic round-robin
    workload (0.4 ms simulated requests) with the checkpoint cadence off
    and on; under the virtual clock the elapsed difference is exactly
    what coordinated checkpointing costs when nothing ever fails: the
    drain to a consistent cut, the snapshot encode, the off-rank
    replication and the commit barrier.  The claim gated in CI is that
    at the recommended cadence (one checkpoint per 200 units) the whole
    premium stays within 2% — cheap enough to leave on everywhere, which
    is what makes the self-healing runtime's recovery story honest.
    """
    from repro.bench.chaos import OVERHEAD_CONFIG, checkpoint_overhead
    from repro.workloads.elastic import ElasticConfig

    cadences = [200] if quick else [100, 200, 300]
    reps = 3 if quick else 5
    out = exp.series_set("ckpt_every", "virtual ms per run")
    baseline: dict[int, float] = {}
    ckptd: dict[int, float] = {}
    for cadence in cadences:
        cfg = ElasticConfig(
            **{**OVERHEAD_CONFIG.__dict__, "ckpt_every": cadence}
        )
        o = checkpoint_overhead(cfg, reps=reps)
        baseline[cadence] = sum(o["baseline_ns"]) / len(o["baseline_ns"]) / 1e6
        ckptd[cadence] = (
            sum(o["checkpointed_ns"]) / len(o["checkpointed_ns"]) / 1e6
        )
    out.add("baseline", baseline)
    out.add("checkpointed", ckptd)
    return out


def _overlap_main(rounds: int, compute_ns: float, chunk_ns: float, bcast_bytes: int):
    """Rank main for A16: compute+communicate with ``i*`` collectives.

    Each round posts a rendezvous-sized ``ibcast`` plus a small
    ``iallreduce``, then simulates ``compute_ns`` of application work as a
    stream of small clock charges (ceding to the peer rank per chunk,
    the simulated analogue of other cores running).  In polled mode nothing
    progresses until the waits; in async mode the progress tick
    streams and consumes the collective traffic *during* the charges.
    Returns per-rank results, elapsed/blocked virtual time and the
    progress engine's overlap ledger.
    """
    import struct

    def main(ctx):
        eng = ctx.engine
        progress = eng.progress
        digest: list = []
        wait_ns = 0.0
        t0 = ctx.clock.now()
        for rnd in range(rounds):
            # align the ranks in real time so the overlap window is shared
            eng.barrier()
            mem = NativeMemory(bcast_bytes)
            if ctx.rank == 0:
                mem.view()[:] = struct.pack("<I", rnd * 2654435761 % (1 << 32)) * (
                    bcast_bytes // 4
                )
            breq = eng.ibcast(BufferDesc.from_native(mem), root=0)
            send = BufferDesc.from_bytes(struct.pack("<2i", ctx.rank + rnd, rnd * 3 + 1))
            recv = BufferDesc.from_native(NativeMemory(8))
            from repro.mp.datatypes import INT

            areq = eng.iallreduce(send, recv, INT, "sum")
            done = 0.0
            while done < compute_ns:
                ctx.clock.charge(chunk_ns)  # the overlapped computation
                eng.progress.cede()
                done += chunk_ns
            w0 = ctx.clock.now()
            eng.wait(breq)
            eng.wait(areq)
            wait_ns += ctx.clock.now() - w0
            digest.append(
                (bytes(mem.view(0, 8)).hex(), list(struct.unpack("<2i", bytes(recv.view()))))
            )
        return {
            "digest": digest,
            "elapsed_ms": (ctx.clock.now() - t0) / 1e6,
            "wait_ms": wait_ns / 1e6,
            "overlap": progress.overlap_ratio,
            "async_polls": progress.async_polls,
        }

    return main


def ablate_progress(exp: Experiment, quick: bool) -> SeriesSet:
    """A16: polled vs. async progress on a compute+communicate workload.

    The polling-wait pathology ("MPI Progress For All"): with polled
    progress a rendezvous ``ibcast`` cannot stream while the application
    computes, so its wire time serialises after the compute phase.  Async
    progress mode steps each rank's progress engine from a tick
    on its clock, so the same traffic flows during the charges: the
    overlap ratio pvar goes from 0 to ~1, the blocked-in-wait time
    collapses, elapsed virtual time drops toward max(compute, comm) — and
    the numerical results are identical byte for byte.
    """
    rounds = 4 if quick else 10
    compute_ns = 3_000_000.0  # 3 ms of simulated application work per round
    chunk_ns = 5_000.0
    bcast_bytes = 256 * 1024  # rendezvous-sized: must be pumped to flow
    out = exp.series_set("rank", "virtual ms (elapsed/blocked) and ratios")
    per_mode: dict[str, list[dict]] = {}
    for mode in ("polled", "async"):
        per_mode[mode] = mpiexec(
            2, _overlap_main(rounds, compute_ns, chunk_ns, bcast_bytes),
            channel="sock", clock_mode="virtual", progress=mode,
        )
        out.add(f"{mode}-elapsed-ms", {r: o["elapsed_ms"] for r, o in enumerate(per_mode[mode])})
        out.add(f"{mode}-wait-ms", {r: o["wait_ms"] for r, o in enumerate(per_mode[mode])})
        out.add(f"{mode}-overlap", {r: o["overlap"] for r, o in enumerate(per_mode[mode])})
    out.add(
        "results-identical",
        {
            r: 1.0 if per_mode["polled"][r]["digest"] == per_mode["async"][r]["digest"] else 0.0
            for r in range(2)
        },
    )
    return out


def ablate_rma(exp: Experiment, quick: bool) -> SeriesSet:
    """A17: one-sided windows — native channel RMA vs packet emulation.

    The same halo-exchange rank main runs twice: once over the channel's
    native window path (each put is one direct write into the target
    window, zero payload copies) and once with ``force_emulation=True``
    (the op lowers onto chunked packets; every byte is copied once at
    the landing site and the target CPU is charged).  Large windows
    isolate the per-byte gap: the native arm must be at least 2x faster
    inside the exchange epochs, move the same bytes with exactly zero
    extra copies, and produce bit-identical grids.
    """
    from repro.workloads.halo import run_halo

    rows, cols, iterations = (4, 16384, 2) if quick else (8, 32768, 4)
    arms: dict[str, list[dict]] = {}
    for arm, force in (("native", False), ("emulated", True)):
        arms[arm] = run_halo(
            2, rows=rows, cols=cols, iterations=iterations,
            force_emulation=force, channel="shm",
        )
    out = exp.series_set("rank", "virtual comm ms, copied bytes and op counts")
    for arm, res in arms.items():
        out.add(f"{arm}-comm-ms", {r: o["comm_ns"] / 1e6 for r, o in enumerate(res)})
        out.add(f"{arm}-rma-copied-bytes", {r: float(o["rma_copied"]) for r, o in enumerate(res)})
        out.add(f"{arm}-bytes-moved", {r: float(o["bytes_moved"]) for r, o in enumerate(res)})
        out.add(f"{arm}-native-ops", {r: float(o["rma_native_ops"]) for r, o in enumerate(res)})
        out.add(f"{arm}-emulated-ops", {r: float(o["rma_emulated_ops"]) for r, o in enumerate(res)})
    out.add(
        "speedup",
        {r: arms["emulated"][r]["comm_ns"] / arms["native"][r]["comm_ns"] for r in range(2)},
    )
    out.add(
        "digests-identical",
        {
            r: 1.0 if arms["native"][r]["digest"] == arms["emulated"][r]["digest"] else 0.0
            for r in range(2)
        },
    )
    out.notes.append(
        f"{rows}x{cols} int32 tiles, 2 boundary rows per fence epoch, "
        f"{iterations} iterations; the emulated arm's landing copies every "
        "byte on the target while the native arm's ledger shows zero"
    )
    return out
