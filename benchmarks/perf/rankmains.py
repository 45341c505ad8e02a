"""The benchmark's rank mains: seven closed-loop, two-rank workloads.

Every rank main is a module-level class instance holding plain data, so
the proc substrate can ship it to worker processes (the repo's
spawn-safety rule).  All of them share one measuring loop
(:class:`PerfMain`): a *sample* is ``ops_per_sample`` consecutive
operations timed on rank 0 with ``perf_counter_ns`` (host time) and
``ctx.clock.now()`` (modelled time); between samples — outside the timed
window — rank 0 checks what came back and times a fixed calibration loop,
so the harness can tell a disturbed sample from a quiet one.

The run is bounded by time, not by an op count: rank 0 times a few pilot
samples, derives how many samples fit the budget, and tells rank 1 with
one control message *before* the timed phase, so the timed phase itself
carries no control traffic and every counter delta is the workload's own.
The first tenth of the samples is warm-up and is not recorded.
"""

from __future__ import annotations

import copy
import random
import zlib
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any

import numpy as np

from repro.cluster.world import World
from repro.il import ExecutionEngine, assemble
from repro.motor import motor_session, register_mp_internals
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FaultPlan
from repro.runtime.numpy_interop import as_numpy
from repro.workloads import linkedlist
from repro.workloads.elastic import ChaosSchedule, ElasticConfig, ElasticMain
from repro.workloads.halo import STENCIL_NS_PER_CELL

from tracer import APP, Tracer, calibrate, install, trace_window

TAG_CONTROL = 77


@dataclass(frozen=True)
class RunConfig:
    """What one repetition is asked to do (crosses the process boundary)."""

    seed: int
    #: budget of the measuring loop (pilot + warm-up + timed samples), seconds
    seconds: float
    trace: bool = False
    #: fixed total sample count instead of the time budget (the self-test)
    samples: int | None = None


def read_counters(ctx) -> dict[str, int]:
    """Cumulative public counters of one rank's stack, flattened."""
    engine = ctx.engine
    device = engine.device
    channel = device.channel
    out = {
        "polls": engine.progress.polls,
        "idle_polls": engine.progress.idle_polls,
        "packets": channel.packets_sent + channel.packets_received,
        "checkpoints": engine.recovery.stats["checkpoints_taken"] if device.rel else 0,
    }
    out.update(device.stats)
    if device.rel is not None:
        out.update({f"rel_{k}": v for k, v in device.rel.stats.items()})
    vm = ctx.session
    if vm is not None:
        out["fcalls"] = vm.fcall.stats.calls
        out["pool_created"] = vm.pool.created
        out["pool_reused"] = vm.pool.reused
        out.update({f"pin_{k}": v for k, v in vars(vm.policy.stats).items()})
        out.update({f"gc_{k}": v for k, v in vars(vm.runtime.gc.stats).items()})
    return out


class PerfMain:
    """The shared measuring loop; subclasses supply the operation."""

    ops_per_sample = 10
    pilot_samples = 3

    def __init__(self, run: RunConfig) -> None:
        self.run = run

    # -- what a workload provides ------------------------------------------------

    def setup(self, ctx) -> None:
        """Build buffers, trees, windows (collective calls allowed)."""

    def ready(self, ctx, tracer: Tracer | None) -> None:
        """Last set-up step, after the wrappers (if any) are installed."""

    def before_sample(self, index: int) -> None:
        """Untimed: prepare the next sample's payload."""

    def sample(self, ctx) -> None:
        """Timed: ``ops_per_sample`` operations on this rank."""
        raise NotImplementedError

    def after_sample(self, ctx) -> bool:
        """Untimed: True when the sample's output is correct."""
        return True

    def finish(self, ctx, total_samples: int) -> bool:
        """Untimed: whole-run check (digest); True when correct."""
        return True

    # -- the loop --------------------------------------------------------------------

    def __call__(self, ctx) -> dict[str, Any]:
        # inproc ranks are threads handed the *same* instance: each rank
        # keeps its state on a private copy
        return copy.copy(self)._run(ctx)

    def _run(self, ctx) -> dict[str, Any]:
        entered = perf_counter_ns()
        self.me = ctx.rank
        self.peer = 1 - ctx.rank
        tracer = Tracer(ctx.clock.now) if self.run.trace else None
        self.setup(ctx)
        if tracer is not None:
            install(tracer, ctx)
        self.ready(ctx, tracer)
        try:
            result = self._measure(ctx, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["entered_ns"] = entered
        result["returned_ns"] = perf_counter_ns()
        return result

    def _one(self, ctx, tracer: Tracer | None, index: int) -> None:
        if tracer is None:
            self.sample(ctx)
            return
        tracer.op = index * self.ops_per_sample
        tracer.enter(APP)
        try:
            self.sample(ctx)
        finally:
            tracer.exit()

    def _measure(self, ctx, tracer: Tracer | None) -> dict[str, Any]:
        lead = self.me == 0
        pilot = self.pilot_samples
        ctx.engine.barrier()
        first_op = perf_counter_ns()
        setup_calib = calibrate() if lead else 0
        pilot_from = perf_counter_ns()
        for i in range(pilot):
            self.before_sample(i)
            self._one(ctx, tracer, i)
        total = self._agree_total(ctx, (perf_counter_ns() - pilot_from) / pilot)
        warm = max(pilot, total // 10)
        for i in range(pilot, warm):
            self.before_sample(i)
            self._one(ctx, tracer, i)
        if tracer is not None:
            tracer.reset()

        clock = ctx.clock
        wall: list[int] = []
        virt: list[float] = []
        noise: list[int] = []
        failed_samples = 0
        before = read_counters(ctx)
        probe = calibrate() if lead else 0
        for i in range(warm, total):
            self.before_sample(i)
            if not lead:
                self._one(ctx, tracer, i)
                continue
            v0 = clock.now()
            t0 = perf_counter_ns()
            self._one(ctx, tracer, i)
            t1 = perf_counter_ns()
            wall.append(t1 - t0)
            virt.append(clock.now() - v0)
            # the probe brackets every sample: the slower reading is its noise level
            last, probe = probe, calibrate()
            noise.append(max(last, probe))
            if not self.after_sample(ctx):
                failed_samples += 1
        after = read_counters(ctx)
        ok = self.finish(ctx, total)

        ops = self.ops_per_sample
        return {
            "rank": self.me,
            "first_op_ns": first_op,
            "ops_per_sample": ops,
            "total_ops": total * ops,
            "attempted": (total - warm) * ops,
            "failed": failed_samples * ops,
            "finish_ok": ok,
            "setup_calib_ns": setup_calib,
            "sample_wall_ns": wall,
            "sample_virt_ns": virt,
            "sample_calib_ns": noise,
            "counters": {k: after[k] - before[k] for k in after},
            "trace": tracer.summary() if tracer is not None and lead else None,
        }

    def _agree_total(self, ctx, pilot_sample_ns: float) -> int:
        """Rank 0 sizes the run from the pilot and tells rank 1 (untimed)."""
        engine = ctx.engine
        if self.me == 0:
            total = self.run.samples
            if total is None:
                total = int(self.run.seconds * 1e9 / pilot_sample_ns)
            total = max(total, self.pilot_samples + 1)
            engine.send(BufferDesc.from_bytes(total.to_bytes(8, "little")), 1, TAG_CONTROL)
            return total
        box = BufferDesc.from_native(NativeMemory(8))
        engine.recv(box, 0, TAG_CONTROL)
        return int.from_bytes(box.tobytes(), "little")


# -- ping-pong ---------------------------------------------------------------------


class PingPong(PerfMain):
    """``byte[]`` round trips through System.MP, driven from Python.

    Rank 0 sends ``sbuf`` and receives into ``rbuf``; rank 1 echoes what
    it received.  Before each sample rank 0 stamps the sample index into
    the payload, so an equal ``rbuf`` proves the bytes went round *in
    this sample* — a stale buffer cannot pass.
    """

    def __init__(self, run: RunConfig, size: int) -> None:
        super().__init__(run)
        self.size = size

    def setup(self, ctx) -> None:
        vm = ctx.session
        self.runtime = vm.runtime
        self.comm = vm.comm_world
        self.expected = bytearray(random.Random(self.run.seed).randbytes(self.size))
        self.sbuf = vm.runtime.new_array("byte", self.size)
        self.rbuf = vm.runtime.new_array("byte", self.size)
        vm.runtime.fill_array_bytes(self.sbuf, self.expected)

    def before_sample(self, index: int) -> None:
        if self.me == 0:
            stamp = index.to_bytes(8, "little")
            self.expected[:8] = stamp
            self.runtime.fill_array_bytes(self.sbuf, stamp)

    def sample(self, ctx) -> None:
        comm, rbuf, peer = self.comm, self.rbuf, self.peer
        if self.me == 0:
            sbuf = self.sbuf
            for _ in range(self.ops_per_sample):
                comm.Send(sbuf, peer, 1)
                comm.Recv(rbuf, peer, 2)
        else:
            for _ in range(self.ops_per_sample):
                comm.Recv(rbuf, peer, 1)
                comm.Send(rbuf, peer, 2)

    def after_sample(self, ctx) -> bool:
        return self.runtime.array_bytes(self.rbuf) == self.expected


_PINGPONG_IL = """
.method ping(sbuf, rbuf, peer, n) {
    .locals 1
    ldc.i4 0
    stloc 0
loop:
    ldloc 0
    ldarg 3
    clt
    brfalse done
    ldarg 0
    ldarg 2
    ldc.i4 1
    callintern MP.Send/3
    ldarg 1
    ldarg 2
    ldc.i4 2
    callintern MP.Recv/3:r
    pop
    ldloc 0
    ldc.i4 1
    add
    stloc 0
    br loop
done:
    ret
}

.method echo(rbuf, peer, n) {
    .locals 1
    ldc.i4 0
    stloc 0
loop:
    ldloc 0
    ldarg 2
    clt
    brfalse done
    ldarg 0
    ldarg 1
    ldc.i4 1
    callintern MP.Recv/3:r
    pop
    ldarg 0
    ldarg 1
    ldc.i4 2
    callintern MP.Send/3
    ldloc 0
    ldc.i4 1
    add
    stloc 0
    br loop
done:
    ret
}
"""


class ILPingPong(PingPong):
    """The same round trips with the loop in managed IL (``callintern``)."""

    def ready(self, ctx, tracer: Tracer | None) -> None:
        # built after install(): the internals table binds the communicator's
        # methods as it finds them, traced or not
        vm = ctx.session
        self.il = ExecutionEngine(
            vm.runtime, assemble(_PINGPONG_IL, "perf_pingpong"), register_mp_internals(vm)
        )
        if tracer is not None:
            tracer.wrap(self.il, ("call",), "il.engine")

    def sample(self, ctx) -> None:
        if self.me == 0:
            self.il.call("ping", self.sbuf, self.rbuf, self.peer, self.ops_per_sample)
        else:
            self.il.call("echo", self.rbuf, self.peer, self.ops_per_sample)


# -- object tree ---------------------------------------------------------------------


class ObjTree(PerfMain):
    """``OSend``/``ORecv`` of the Figure 10 linked list (paper-default
    linear visited record); the echoed list is verified element by element."""

    ops_per_sample = 4
    pilot_samples = 1
    elements = 256  # 512 objects: each element carries its int array
    payload_bytes = 4096

    def setup(self, ctx) -> None:
        vm = ctx.session
        self.runtime = vm.runtime
        self.comm = vm.comm_world
        linkedlist.define_linked_array(vm.runtime)
        self.tree = None
        if self.me == 0:
            self.tree = linkedlist.build_linked_list(
                vm.runtime, self.elements, self.payload_bytes
            )
        self.got = None

    def sample(self, ctx) -> None:
        comm, peer = self.comm, self.peer
        if self.me == 0:
            tree = self.tree
            for _ in range(self.ops_per_sample):
                comm.OSend(tree, peer, 1)
                self.got = comm.ORecv(peer, 2)
        else:
            for _ in range(self.ops_per_sample):
                comm.OSend(comm.ORecv(peer, 1), peer, 2)

    def after_sample(self, ctx) -> bool:
        try:
            linkedlist.verify_linked_list(
                self.runtime, self.got, self.elements, self.payload_bytes
            )
        except AssertionError:
            return False
        return True


# -- halo exchange over windows ------------------------------------------------------


class HaloRma(PerfMain):
    """Fence / two 16 KiB ``Put``s / fence, then a whole-row update.

    Each rank owns two boundary rows (``top``, ``bot``) and exposes a
    two-row halo window.  The update is two vectorised row operations —
    a few per cent of a step — so the step's host time is the RMA path,
    not a per-cell Python stencil.  At the end every rank replays both
    ranks' arithmetic in one process and compares digests.
    """

    cols = 4096  # int32 cells: 16 KiB rows

    def setup(self, ctx) -> None:
        vm = ctx.session
        self.runtime = rt = vm.runtime
        self.row_bytes = self.cols * 4
        self.top = rt.new_array("int32", self.cols)
        self.bot = rt.new_array("int32", self.cols)
        self.halo = rt.new_array("int32", 2 * self.cols)
        start = self._initial_rows(self.me)
        rt.fill_array_bytes(self.top, start[0].tobytes())
        rt.fill_array_bytes(self.bot, start[1].tobytes())
        self.step = 0
        self.win = vm.comm_world.WinCreate(self.halo)

    def _initial_rows(self, rank: int) -> np.ndarray:
        rng = np.random.default_rng([self.run.seed, rank])
        return rng.integers(0, 1 << 16, size=(2, self.cols), dtype=np.int32)

    def ready(self, ctx, tracer: Tracer | None) -> None:
        if tracer is not None:
            self.win = trace_window(tracer, self.win)

    @staticmethod
    def _update(row: np.ndarray, halo: np.ndarray, step: int) -> None:
        row *= 3
        row += halo
        row += step
        row &= 0xFFFF

    def sample(self, ctx) -> None:
        rt, win, peer, cols = self.runtime, self.win, self.peer, self.cols
        for _ in range(self.ops_per_sample):
            win.Fence()
            win.Put(self.top, peer, self.row_bytes)  # -> peer's halo row 1
            win.Put(self.bot, peer, 0)  # -> peer's halo row 0
            win.Fence()
            # views latch current addresses: take them fresh, use them at once
            halo = as_numpy(rt, self.halo, allow_young=True)
            self._update(as_numpy(rt, self.top, allow_young=True), halo[:cols], self.step)
            self._update(as_numpy(rt, self.bot, allow_young=True), halo[cols:], self.step)
            ctx.clock.charge(STENCIL_NS_PER_CELL * 2 * cols)
            self.step += 1

    def finish(self, ctx, total_samples: int) -> bool:
        rows = [self._initial_rows(0), self._initial_rows(1)]
        halos = [None, None]
        for step in range(total_samples * self.ops_per_sample):
            halos = [rows[1 - r][::-1].copy() for r in (0, 1)]  # [peer.bot, peer.top]
            for r in (0, 1):
                self._update(rows[r][0], halos[r][0], step)
                self._update(rows[r][1], halos[r][1], step)
        rt = self.runtime
        mine = rt.array_bytes(self.top) + rt.array_bytes(self.bot) + rt.array_bytes(self.halo)
        want = rows[self.me].tobytes() + halos[self.me].tobytes()
        self.win.Free()
        return zlib.crc32(mine) == zlib.crc32(want)


# -- elastic work queue ------------------------------------------------------------------


class ElasticQueue(PerfMain):
    """One sample is one complete ``ElasticMain`` job (root + one worker)
    over a lossy wire; an op is one work unit."""

    ops_per_sample = 250
    pilot_samples = 1

    def setup(self, ctx) -> None:
        cfg = ElasticConfig(
            total=self.ops_per_sample, ckpt_every=self.ops_per_sample // 2, round_robin=True
        )
        self.job = ElasticMain(cfg, ChaosSchedule(), ctx.world.fault_plan)
        self.ledger = None

    def sample(self, ctx) -> None:
        self.ledger = self.job(ctx)

    def after_sample(self, ctx) -> bool:
        return bool(self.ledger["ok"]) and self.ledger["recoveries"] == 0


# -- registry and launcher ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    main: type
    params: dict
    substrate: str = "inproc"
    channel: str = "shm"
    motor: bool = True
    #: per-packet drop probability of the world's seeded FaultPlan
    drop: float = 0.0


WORKLOADS: dict[str, Workload] = {
    "pp_small": Workload(ILPingPong, {"size": 64}, channel="sock"),
    "pp_large": Workload(PingPong, {"size": 256 * 1024}),
    "objtree": Workload(ObjTree, {}, channel="sock"),
    "halo_rma": Workload(HaloRma, {}),
    "elastic_queue": Workload(ElasticQueue, {}, motor=False, drop=0.01),
    "proc_pp_small": Workload(PingPong, {"size": 64}, substrate="proc"),
    "proc_pp_large": Workload(PingPong, {"size": 64 * 1024}, substrate="proc"),
}


def launch(name: str, run: RunConfig, **world_options) -> dict[str, Any]:
    """Boot a two-rank world, run the workload, return rank 0's record."""
    workload = WORKLOADS[name]
    options: dict[str, Any] = {
        "channel": workload.channel,
        "clock_mode": "virtual",
        "substrate": workload.substrate,
    }
    if workload.drop:
        options["fault_plan"] = FaultPlan(seed=run.seed, drop=workload.drop)
    options.update(world_options)
    boot = perf_counter_ns()
    world = World(2, **options)
    ranks = world.launch(
        2,
        workload.main(run, **workload.params),
        motor_session if workload.motor else None,
        timeout=60.0 + 4 * run.seconds,
    )
    done = perf_counter_ns()
    record = ranks[0]
    if not all(r["finish_ok"] for r in ranks):
        record["failed"] = record["attempted"]
    record["boot_s"] = (record["entered_ns"] - boot) / 1e9
    record["teardown_s"] = (done - record["returned_ns"]) / 1e9
    router = getattr(world.substrate, "router", None)
    record["frames_forwarded"] = router.frames_forwarded if router is not None else 0
    return record
