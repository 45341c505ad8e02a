"""Experiment implementations: one function per figure/ablation.

Each function regenerates one row of DESIGN.md's experiment index and
returns a :class:`SeriesSet`.  ``quick=True`` (the default) runs a reduced
iteration protocol — the virtual clock is deterministic, so per-iteration
results match the full paper protocol (200 iterations, last 100 timed,
mean of 3 runs) to within a ~1% warm-up transient; ``quick=False`` runs
the full protocol for rigour.
"""

from __future__ import annotations

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

#: the paper's series labels, mapped to our adapter names
FIG9_SERIES = [
    ("Java", "mpijava"),
    ("Indiana SSCLI", "indiana-sscli"),
    ("Indiana .NET", "indiana-dotnet"),
    ("Motor", "motor"),
    ("C++", "cpp"),
]

FIG10_SERIES = [
    ("Motor", "motor"),
    ("mpiJava", "mpijava"),
    ("Indiana (.NET)", "indiana-dotnet"),
    ("Indiana (SSCLI)", "indiana-sscli"),
]


def _protocol(quick: bool) -> dict:
    if quick:
        return {"iterations": 20, "timed": 10, "runs": 1}
    return {"iterations": 200, "timed": 100, "runs": 3}


def _tree_protocol(quick: bool) -> dict:
    # the virtual clock makes per-iteration times deterministic, so the
    # quick tree protocol can be very short without changing the series
    if quick:
        return {"iterations": 8, "timed": 4, "runs": 1}
    return {"iterations": 200, "timed": 100, "runs": 3}


def figure9(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """Figure 9: ping-pong of regular MPI operations, time per iteration."""
    out = SeriesSet(
        experiment="fig9",
        title="Ping-pong comparison of regular MPI operations",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, flavor in FIG9_SERIES:
        out.add(
            label,
            sweep_buffer_pingpong(flavor, FIG9_SIZES, channel=channel, **_protocol(quick)),
        )
    out.notes.append(
        "expected shape: C++ fastest, Motor second, then Indiana .NET, "
        "Indiana SSCLI, Java (paper Figure 9)"
    )
    return out


def figure10(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """Figure 10: ping-pong of a linked list of objects (incl. serialization)."""
    out = SeriesSet(
        experiment="fig10",
        title="Ping-pong transport of a linked list of objects",
        x_label="objects",
        y_label="time per iteration (us)",
    )
    for label, flavor in FIG10_SERIES:
        out.add(
            label,
            sweep_tree_pingpong(
                flavor, FIG10_OBJECT_COUNTS, channel=channel, **_tree_protocol(quick)
            ),
        )
    out.notes.append(
        "mpiJava stops at 1024 objects: longer lists overflow the Java "
        "serializer's stack (paper Figure 10 caption)"
    )
    out.notes.append(
        "Motor is fastest below 2048 objects and degrades beyond it: the "
        "linear visited-object record (paper §8)"
    )
    return out


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


def ablate_calls(quick: bool = True) -> SeriesSet:
    """A1: per-call cost of FCall vs P/Invoke vs JNI gates."""
    n = 200 if quick else 2000
    out = SeriesSet(
        experiment="ablate-calls",
        title="Managed-to-native call gate cost",
        x_label="args",
        y_label="ns per call",
    )
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
    out.notes.append(
        "FCalls skip marshalling and security checks (paper §5.1); the gap "
        "is the per-MPI-call overhead wrapper bindings pay"
    )
    return out


def ablate_pinning(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A2: Motor's pinning policy vs pin-per-operation."""
    sizes = [4, 256, 4096, 65536, 262144] if quick else FIG9_SIZES
    out = SeriesSet(
        experiment="ablate-pinning",
        title="Pinning policy vs per-operation pinning (Motor)",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, flavor in (("policy", "motor"), ("pin-always", "motor-pin-always")):
        out.add(
            label,
            sweep_buffer_pingpong(flavor, sizes, channel=channel, **_protocol(quick)),
        )
    out.notes.append(
        "the policy skips elder-generation objects and defers young pins to "
        "the polling-wait (paper §7.4)"
    )
    return out


def ablate_buildtype(quick: bool = True) -> SeriesSet:
    """A3 (footnote 4): pin/unpin cost under different host build types."""
    n = 200 if quick else 2000
    out = SeriesSet(
        experiment="ablate-buildtype",
        title="Pin/unpin pair cost by host build type",
        x_label="bytes",
        y_label="ns per pin/unpin pair",
    )
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
    out.notes.append(
        "fastchecked builds pin several times more expensively than free "
        "builds — why [7] measured a larger pinning overhead (footnote 4)"
    )
    return out


def ablate_visited(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A4: linear vs hashed visited-object record in Motor's serializer."""
    counts = [2, 64, 512, 2048, 8192] if quick else FIG10_OBJECT_COUNTS
    out = SeriesSet(
        experiment="ablate-visited",
        title="Visited-object record: linear (paper) vs hashed (future work)",
        x_label="objects",
        y_label="time per iteration (us)",
    )
    for label, flavor in (("linear", "motor"), ("hashed", "motor-hashed")):
        out.add(
            label,
            sweep_tree_pingpong(flavor, counts, channel=channel, **_tree_protocol(quick)),
        )
    out.notes.append(
        "the hashed record removes the quadratic search the paper blames "
        "for Motor's degradation above 2048 objects (§8)"
    )
    return out


def ablate_split(quick: bool = True) -> SeriesSet:
    """A5: split representation vs N separate standard serializations.

    Root-side cost of preparing an object-array scatter over 4 ranks:
    Motor produces one split representation in a single pass; a standard
    atomic serializer must construct N sub-arrays and serialize each
    (paper §2.4).
    """
    lengths = [8, 64, 256] if quick else [8, 64, 256, 1024]
    nranks = 4
    out = SeriesSet(
        experiment="ablate-split",
        title="Object-array scatter preparation: split vs atomic",
        x_label="array length",
        y_label="us per scatter preparation",
    )

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
    out.notes.append(
        "atomic serializers must create N new sub-arrays and serialize them "
        "individually (paper §2.4); the split representation is one pass"
    )
    return out


def ablate_protocol(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A6: the eager/rendezvous crossover in the transfer curve."""
    sizes = [16384, 65536, 131072, 262144] if quick else FIG9_SIZES[8:]
    out = SeriesSet(
        experiment="ablate-protocol",
        title="Eager/rendezvous threshold and the curve knee (native)",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, threshold in (("eager@16K", 16 * 1024), ("eager@128K", 128 * 1024)):
        out.add(
            label,
            sweep_buffer_pingpong(
                "cpp", sizes, channel=channel, eager_threshold=threshold,
                **_protocol(quick),
            ),
        )
    out.notes.append(
        "messages above the threshold pay the RTS/CTS handshake; moving the "
        "threshold moves the knee (MPICH2 protocol, paper §6)"
    )
    return out


def ablate_pure_managed(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A7: pure managed MPI (JMPI over RMI) vs Motor vs native."""
    sizes = [4, 1024, 65536, 262144] if quick else FIG9_SIZES
    out = SeriesSet(
        experiment="ablate-pure-managed",
        title="Pure managed MPI (JMPI/RMI) vs Motor vs native",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, flavor in (("C++", "cpp"), ("Motor", "motor"), ("JMPI", "jmpi")):
        out.add(
            label,
            sweep_buffer_pingpong(flavor, sizes, channel=channel, **_protocol(quick)),
        )
    out.notes.append(
        "pure managed implementations are portable but slow (paper §2.1): "
        "every transfer is serialized through the RMI stack"
    )
    return out


def ablate_pal(quick: bool = True) -> SeriesSet:
    """A8: thin (Windows) vs thick (UNIX) PAL backends (paper §5.4).

    The same PAL call sequence costs more through the UNIX emulation —
    the porting asymmetry the paper describes ("the Windows implementation
    is thin, while ... the UNIX PAL, is thicker").
    """
    from repro.pal import PAL

    n = 300 if quick else 3000
    out = SeriesSet(
        experiment="ablate-pal",
        title="PAL backend cost: thin Windows vs thick UNIX emulation",
        x_label="calls",
        y_label="ns per PAL call",
    )
    for backend in ("windows", "unix"):
        points: dict[int, float] = {}
        for ncalls in (1, 10, 100):
            clock = VirtualClock()
            pal = PAL(backend, clock=clock, costs=CostModel())
            t0 = clock.now()
            for _ in range(n):
                ev = pal.create_event()
                pal.set_event(ev)
                pal.reset_event(ev)
            points[ncalls] = (clock.now() - t0) / (n * 3)
        out.add(backend, points)
    out.notes.append(
        "porting the runtime = re-implementing the PAL; the UNIX PAL pays "
        "Win32-emulation overhead on every call (paper §5.4)"
    )
    return out


def ablate_interconnect(quick: bool = True, **_: object) -> SeriesSet:
    """A9: the future-work interconnect port (paper §9).

    Motor and the native baseline run unmodified over the RDMA-flavoured
    ``ib`` channel; only the channel changed, and the Motor-vs-native gap
    stays small while absolute times drop.
    """
    sizes = [4, 4096, 65536] if quick else FIG9_SIZES[::4]
    out = SeriesSet(
        experiment="ablate-interconnect",
        title="Channel swap: sock vs ib, same stack above",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, flavor, channel in (
        ("C++ / sock", "cpp", "sock"),
        ("Motor / sock", "motor", "sock"),
        ("C++ / ib", "cpp", "ib"),
        ("Motor / ib", "motor", "ib"),
    ):
        out.add(
            label,
            sweep_buffer_pingpong(flavor, sizes, channel=channel, **_protocol(quick)),
        )
    out.notes.append(
        "'The layered Motor architecture will allow us to port Motor to "
        "other platforms and interconnects' (paper §9) — nothing above the "
        "five-function channel interface changed"
    )
    return out


def ablate_reliability(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A10: the reliability sublayer's fault-free cost.

    Seq/CRC sealing, ack generation and retransmit bookkeeping run on
    every packet once ``reliable`` is on; over a fault-free wire the whole
    sublayer should be close to free (the target is a <=5% mean slowdown
    on the Figure 9 ping-pong), which is what makes it acceptable to
    enable whenever a fault plan is present.
    """
    sizes = [4, 1024, 65536, 262144] if quick else FIG9_SIZES
    out = SeriesSet(
        experiment="ablate-reliability",
        title="Reliability sublayer overhead on a fault-free wire (native)",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, reliable in (("baseline", False), ("reliable", True)):
        out.add(
            label,
            sweep_buffer_pingpong(
                "cpp", sizes, channel=channel, reliable=reliable,
                **_protocol(quick),
            ),
        )
    out.notes.append(
        "acks are piggy-backed per poll batch and CRC32 is a single zlib "
        "call, so the sublayer prices in as noise; faults are what cost "
        "(retransmit timeouts), not the insurance"
    )
    return out


def ablate_obs(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A11: the observability layer's cost on the fast path.

    Three configurations of the same ping-pong: no instrumentation,
    hooks attached but disabled (how a production run would ship — every
    hot-path guard is crossed but nothing records), and full recording.
    The claim is that attached-but-disabled instrumentation costs <=5%
    (it is a handful of ``is not None`` tests per message), so leaving
    the hooks compiled in is free; recording costs whatever the pvar
    and span bookkeeping genuinely costs, which A11 also shows.
    """
    sizes = [4, 1024, 65536, 262144] if quick else FIG9_SIZES
    out = SeriesSet(
        experiment="ablate-obs",
        title="Observability layer overhead on the ping-pong fast path (native)",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, observe in (
        ("baseline", None),
        ("obs-disabled", "disabled"),
        ("obs-enabled", "enabled"),
    ):
        out.add(
            label,
            sweep_buffer_pingpong(
                "cpp", sizes, channel=channel, observe=observe,
                **_protocol(quick),
            ),
        )
    out.notes.append(
        "pvars are pull-model (read at snapshot time, MPI_T-style), so the "
        "progress loop carries no probe at all; disabled hooks cost one "
        "branch per message event, which prices in as noise"
    )
    return out


def ablate_sanitize(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A12: the runtime sanitizer's cost on the fast path.

    Same three-way shape as A11: no sanitizer, sanitizer attached but
    disabled (every ``san is not None`` guard is crossed and every rank
    view early-returns), and full checking (registry updates, CRC
    snapshots, wait-for-graph sweeps on idle waits).  The claim the
    acceptance criteria bound is the middle column: a detached/disabled
    sanitizer must price within 1% of the baseline, so the hooks can
    stay compiled into the device and progress engine permanently.
    """
    sizes = [4, 1024, 65536, 262144] if quick else FIG9_SIZES
    out = SeriesSet(
        experiment="ablate-sanitize",
        title="Runtime sanitizer overhead on the ping-pong fast path (native)",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, sanitize in (
        ("baseline", None),
        ("san-disabled", "disabled"),
        ("san-enabled", "enabled"),
    ):
        out.add(
            label,
            sweep_buffer_pingpong(
                "cpp", sizes, channel=channel, sanitize=sanitize,
                **_protocol(quick),
            ),
        )
    out.notes.append(
        "disabled rank views early-return before touching the shared core, "
        "so the residue is one attribute test plus one enabled test per "
        "message event; enabled runs pay registry locking, CRC snapshots "
        "and a deadlock sweep each idle-wait backoff"
    )
    return out


def ablate_spine(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A13: the hook spine's residue on an unobserved run.

    The unified spine replaced per-module ``obs``/``san`` attributes with
    one compiled dispatcher: every emit site is a slot load plus a falsy
    check on an empty tuple.  Three configurations of the ping-pong:
    nothing ever attached (baseline), observer and sanitizer attached
    then immediately detached (``"detached"`` — the emit sites cross an
    empty spine that once held subscribers), and both attached but
    disabled (the subscribers are dispatched to and early-return).  The
    acceptance bound is the middle column: a detached spine must price
    within 1% of never having attached at all.
    """
    sizes = [4, 1024, 65536, 262144] if quick else FIG9_SIZES
    out = SeriesSet(
        experiment="ablate-spine",
        title="Hook spine residue on the ping-pong fast path (native)",
        x_label="bytes",
        y_label="time per iteration (us)",
    )
    for label, mode in (
        ("baseline", None),
        ("spine-detached", "detached"),
        ("attached-disabled", "disabled"),
    ):
        out.add(
            label,
            sweep_buffer_pingpong(
                "cpp", sizes, channel=channel, observe=mode, sanitize=mode,
                **_protocol(quick),
            ),
        )
    out.notes.append(
        "detached dispatch tuples are empty, so each emit site costs one "
        "attribute load and one truth test — indistinguishable from never "
        "wiring the spine; disabled subscribers add the bound-method call "
        "and an early return per subscribed event"
    )
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


def ablate_copies(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A14: the zero-copy data plane's ledger, per delivery path.

    The device counts ``bytes_moved`` (payload bytes accepted off the
    wire) and ``bytes_copied`` (payload memcpys above the channel).  A
    matched eager message delivers straight from the packet's wire view
    into the posted buffer (1 copy per byte); rendezvous DATA chunks land
    directly in the posted buffer (1); an unexpected eager message must
    be staged into native memory and delivered later (exactly 2).  The
    barrier traffic threading the driver is all zero-byte, so the ratios
    are exact.
    """
    eager_sizes = [4096, 65536] if quick else [1024, 4096, 16384, 65536, 131072]
    rndv_sizes = [262144, 524288] if quick else [262144, 524288, 1048576]
    out = SeriesSet(
        experiment="ablate-copies",
        title="Copy accounting: receiver copies per byte moved",
        x_label="bytes",
        y_label="bytes_copied / bytes_moved (receiver)",
    )
    for label, mode, sizes in (
        ("eager-matched", "matched", eager_sizes),
        ("rendezvous", "matched", rndv_sizes),
        ("eager-unexpected", "unexpected", eager_sizes),
    ):
        ratios = mpiexec(
            2, _copy_accounting_main(mode, sizes), channel=channel,
            clock_mode="virtual",
        )[1]
        out.add(label, ratios)
    out.notes.append(
        "matched eager and rendezvous land at <=1 copy per byte (the wire "
        "view windows the latched source buffer); unexpected eager pays "
        "exactly one extra staging copy (stage + deliver = 2)"
    )
    return out


def ablate_checkpoint(quick: bool = True, **_: object) -> SeriesSet:
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
    out = SeriesSet(
        experiment="ablate-checkpoint",
        title="Coordinated checkpoint overhead on a fault-free run",
        x_label="ckpt_every",
        y_label="virtual ms per run",
    )
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
    out.notes.append(
        "the dominant term is not protocol chatter but the drain to a "
        "consistent cut (one batch of scheduling skew per checkpoint), "
        "so the premium shrinks as the cadence grows"
    )
    return out


def _overlap_main(rounds: int, compute_ns: float, chunk_ns: float, bcast_bytes: int):
    """Rank main for A16: compute+communicate with ``i*`` collectives.

    Each round posts a rendezvous-sized ``ibcast`` plus a small
    ``iallreduce``, then simulates ``compute_ns`` of application work as a
    stream of small clock charges (ceding to the peer rank per chunk,
    the simulated analogue of other cores running).  In polled mode nothing
    progresses until the waits; in async mode the recurring progress task
    streams and consumes the collective traffic *during* the charges.
    Returns per-rank results, elapsed/blocked virtual time and the
    progress core's overlap ledger.
    """
    import struct

    def main(ctx):
        eng = ctx.engine
        core = eng.progress.core
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
            "overlap": core.overlap_ratio,
            "async_polls": core.async_polls,
        }

    return main


def ablate_progress(quick: bool = True, channel: str = "sock") -> SeriesSet:
    """A16: polled vs. async progress on a compute+communicate workload.

    The polling-wait pathology ("MPI Progress For All"): with polled
    progress a rendezvous ``ibcast`` cannot stream while the application
    computes, so its wire time serialises after the compute phase.  Async
    progress mode drives each rank's progress core from a recurring task
    on its clock, so the same traffic flows during the charges: the
    overlap ratio pvar goes from 0 to ~1, the blocked-in-wait time
    collapses, elapsed virtual time drops toward max(compute, comm) — and
    the numerical results are identical byte for byte.
    """
    rounds = 4 if quick else 10
    compute_ns = 3_000_000.0  # 3 ms of simulated application work per round
    chunk_ns = 5_000.0
    bcast_bytes = 256 * 1024  # rendezvous-sized: must be pumped to flow
    out = SeriesSet(
        experiment="ablate-progress",
        title="Progress modes: polled vs. async on compute+communicate",
        x_label="rank",
        y_label="virtual ms (elapsed/blocked) and ratios",
    )
    per_mode: dict[str, list[dict]] = {}
    for mode in ("polled", "async"):
        per_mode[mode] = mpiexec(
            2, _overlap_main(rounds, compute_ns, chunk_ns, bcast_bytes),
            channel=channel, clock_mode="virtual", progress=mode,
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
    out.notes.append(
        "async progress defers clock merges for packets handled during "
        "compute (the arrival lands when the data is consumed), so the "
        "rendezvous stream's wire time hides under the charges instead of "
        "serialising after them"
    )
    return out


def ablate_rma(quick: bool = True, channel: str = "shm") -> SeriesSet:
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
            force_emulation=force, channel=channel,
        )
    out = SeriesSet(
        experiment="ablate-rma",
        title="One-sided windows: native channel RMA vs emulation",
        x_label="rank",
        y_label="virtual comm ms, copied bytes and op counts",
    )
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


#: experiment registry: id -> (title, callable)
EXPERIMENTS = {
    "fig9": ("Figure 9: regular MPI ping-pong", figure9),
    "fig10": ("Figure 10: object-tree ping-pong", figure10),
    "ablate-calls": ("A1: call mechanisms", ablate_calls),
    "ablate-pinning": ("A2: pinning policy", ablate_pinning),
    "ablate-buildtype": ("A3: build-type pinning cost", ablate_buildtype),
    "ablate-visited": ("A4: visited structure", ablate_visited),
    "ablate-split": ("A5: split vs atomic serialization", ablate_split),
    "ablate-protocol": ("A6: eager/rendezvous crossover", ablate_protocol),
    "ablate-pure-managed": ("A7: pure managed MPI", ablate_pure_managed),
    "ablate-pal": ("A8: PAL backend thickness", ablate_pal),
    "ablate-interconnect": ("A9: interconnect port (future work)", ablate_interconnect),
    "ablate-reliability": ("A10: reliability sublayer overhead", ablate_reliability),
    "ablate-obs": ("A11: observability layer overhead", ablate_obs),
    "ablate-sanitize": ("A12: runtime sanitizer overhead", ablate_sanitize),
    "ablate-spine": ("A13: hook spine residue", ablate_spine),
    "ablate-copies": ("A14: copy accounting per delivery path", ablate_copies),
    "ablate-checkpoint": ("A15: coordinated checkpoint overhead", ablate_checkpoint),
    "ablate-progress": ("A16: polled vs. async progress overlap", ablate_progress),
    "ablate-rma": ("A17: one-sided windows native vs emulated", ablate_rma),
}
