"""An elastic sharded work queue that survives injected failures.

The self-healing runtime's acceptance workload: a root rank batches
simulated user requests (work units) to a pool of workers under
backpressure, takes coordinated checkpoints on a cadence, and — when a
worker is killed or a link partitioned by a :class:`ChaosSchedule` —
drives the full detect → agree → shrink → replace → restore sequence
(:func:`repro.mp.recovery.recover`) and resumes from the last committed
epoch.

Exactly-once accounting is by coordinated rollback: checkpoints are
taken only with the queue drained (no batch in flight), so the committed
epoch is a consistent cut — the root's ``issued`` counter and every
worker's aggregate describe the same prefix of the unit stream.  On
recovery *everyone* restores that cut: work acked after it is re-issued,
and the survivor aggregates that had absorbed it roll back, so each unit
lands in exactly one surviving aggregate.  The ledger is the
``(count, sum, xor)`` fold of every worker's aggregate, checked against
the closed forms over ``range(total)`` — a lost unit breaks count/sum, a
duplicated one breaks all three (xor catches a pair lost+duplicated).

Fault model: kills are victim-driven at unit boundaries (a worker that
claims a kill event crashes mid-batch, never mid-protocol — the classic
fail-stop process), partitions are root-driven and healed within the
retransmit budget (so the detector stays accurate; see
:mod:`repro.mp.recovery`).  The root never dies.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

from repro.cluster.world import mpiexec
from repro.mp import recovery
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FaultPlan
from repro.mp.errors import ERRORS_RETURN, MpiErrProcFailed
from repro.mp.reliability import PROC_FAILED

TAG_CMD = 1  # root -> worker
TAG_ACK = 2  # worker -> root

#: message kinds; every message is one fixed _MSG frame
K_WORK, K_CKPT, K_RECOVER, K_STOP = 1, 2, 3, 4
A_ACK, A_DONE = 5, 6

_MSG = struct.Struct("<qqqq")  # kind, a, b, c


@dataclass
class ElasticConfig:
    total: int = 400           # work units (simulated user requests)
    batch: int = 8             # units per dispatched batch
    window: int = 2            # outstanding batches per worker (backpressure)
    ckpt_every: int = 0        # checkpoint after this many acked units (0: never)
    placement: str = "root"    # snapshot placement ("root" or "peer")
    unit_cost_ns: int = 2000   # virtual compute charged per processed unit
    partition_polls: int = 60  # how long a root-driven partition stays cut
    round_robin: bool = False  # strict cyclic batch assignment: makes unit
                               # placement (and virtual elapsed) deterministic,
                               # for overhead measurements; the default lets
                               # ack timing drive assignment like a real queue


@dataclass
class ChaosEvent:
    kind: str      # "kill" or "partition"
    slot: int      # victim worker slot (communicator rank >= 1)
    at_units: int  # kill: the victim's processed-unit count;
                   # partition: the root's acked-unit count


class ChaosSchedule:
    """A shared, consumable schedule of fault events.

    Events are *claimed* (each fires at most once); kills by the victim
    at a unit boundary, partitions by the root between acks.  Shared
    across rank threads, hence the lock.
    """

    def __init__(self, events=()) -> None:
        self._events = list(events)
        self._lock = threading.Lock()
        self.fired: list[ChaosEvent] = []

    def claim_kill(self, slot: int, done: int) -> ChaosEvent | None:
        with self._lock:
            for ev in self._events:
                if ev.kind == "kill" and ev.slot == slot and done >= ev.at_units:
                    self._events.remove(ev)
                    self.fired.append(ev)
                    return ev
        return None

    def claim_partition(self, acked: int) -> ChaosEvent | None:
        with self._lock:
            for ev in self._events:
                if ev.kind == "partition" and acked >= ev.at_units:
                    self._events.remove(ev)
                    self.fired.append(ev)
                    return ev
        return None


# -- framing -------------------------------------------------------------------


def _send(engine, comm, dst: int, tag: int, kind: int, a: int = 0, b: int = 0,
          c: int = 0) -> None:
    engine.send(BufferDesc.from_bytes(_MSG.pack(kind, a, b, c)), dst, tag, comm)


def _recv_cmd(engine, comm) -> tuple[int, int, int, int]:
    buf = BufferDesc.from_native(NativeMemory(_MSG.size))
    engine.recv(buf, 0, TAG_CMD, comm)
    return _MSG.unpack(buf.tobytes())


def _fresh_state() -> dict:
    return {"done": 0, "sum": 0, "xor": 0}


# -- worker side ---------------------------------------------------------------


def _make_replacement(cfg: ElasticConfig, schedule: ChaosSchedule, plan: FaultPlan):
    def replacement(ctx):
        comm = ctx.comm_world
        state = recovery.replacement_entry(ctx)
        if state is None:
            state = _fresh_state()
        return _worker(ctx, comm, cfg, schedule, plan, state)

    return replacement


def _worker(ctx, comm, cfg: ElasticConfig, schedule: ChaosSchedule,
            plan: FaultPlan, state: dict):
    engine = ctx.engine
    while True:
        kind, a, b, _c = _recv_cmd(engine, comm)
        if kind == K_WORK:
            for unit in range(a, a + b):
                ctx.clock.charge(cfg.unit_cost_ns)
                state["done"] += 1
                state["sum"] += unit
                state["xor"] ^= unit
                if schedule.claim_kill(comm.rank, state["done"]) is not None:
                    # fail-stop crash at a unit boundary: the batch is
                    # never acked, and this worker's aggregate dies here
                    plan.kill(ctx.rank)
                    return ("killed", comm.rank, state["done"])
            _send(engine, comm, 0, TAG_ACK, A_ACK, a, b)
        elif kind == K_CKPT:
            try:
                comm.checkpoint(state, placement=cfg.placement)
            except MpiErrProcFailed:
                pass  # epoch rolled back; the root will drive recovery
        elif kind == K_RECOVER:
            comm = recovery.recover(
                ctx, comm, _make_replacement(cfg, schedule, plan)
            )
            mgr = engine.recovery
            state = (mgr.restore(comm) if mgr.committed_epoch > 0
                     else _fresh_state())
        elif kind == K_STOP:
            _send(engine, comm, 0, TAG_ACK, A_DONE,
                  state["done"], state["sum"], state["xor"])
            return ("done", comm.rank, state["done"])


# -- root side -----------------------------------------------------------------


def _root(ctx, comm, cfg: ElasticConfig, schedule: ChaosSchedule, plan: FaultPlan):
    engine = ctx.engine
    total = cfg.total
    t0 = ctx.clock.now()
    stats = {"recoveries": 0, "checkpoints": 0, "partitions": 0}
    inflight: dict[int, list] = {s: [] for s in range(1, comm.size)}
    ack_reqs: dict[int, tuple] = {}
    next_unit = acked = since_ckpt = 0
    rr_slot = 0

    def post_ack(slot: int) -> None:
        buf = BufferDesc.from_native(NativeMemory(_MSG.size))
        ack_reqs[slot] = (engine.irecv(buf, slot, TAG_ACK, comm), buf)

    def pump_acks() -> bool:
        """One idle step; process completed acks.  True when a failure showed."""
        nonlocal acked, since_ckpt
        engine.progress.idle()
        for s, (req, buf) in list(ack_reqs.items()):
            if not req.completed:
                continue
            if req.status.error == PROC_FAILED:
                return True
            kind, a, b, _c = _MSG.unpack(buf.tobytes())
            del ack_reqs[s]
            if kind == A_ACK and inflight[s] and inflight[s][0] == (a, b):
                inflight[s].pop(0)
                acked += b
                since_ckpt += b
            post_ack(s)
        return False

    def do_recover() -> None:
        nonlocal comm, next_unit, acked, since_ckpt
        stats["recoveries"] += 1
        for _s, (req, _buf) in list(ack_reqs.items()):
            if not req.completed:
                engine.cancel(req)
        ack_reqs.clear()
        known = engine.recovery.known_failed(comm)
        for s in range(1, comm.size):
            if s not in known:
                try:
                    _send(engine, comm, s, TAG_CMD, K_RECOVER)
                except MpiErrProcFailed:
                    pass  # detected between the known() snapshot and the send
        comm = recovery.recover(ctx, comm, _make_replacement(cfg, schedule, plan))
        mgr = engine.recovery
        issued = (mgr.restore(comm)["issued"] if mgr.committed_epoch > 0 else 0)
        # everyone is back on the committed cut: re-issue from there
        next_unit = acked = issued
        since_ckpt = 0
        for s in inflight:
            inflight[s].clear()
            post_ack(s)

    for s in inflight:
        post_ack(s)
    while acked < total:
        try:
            if cfg.round_robin:
                # strict cyclic order: the next batch waits for its slot's
                # window even if another slot is idle.  All the order allows
                # is issued before the pump may cede to a worker: merging its
                # ack first would serialise the other slots in virtual time
                while next_unit < total:
                    s = rr_slot % (comm.size - 1) + 1
                    if len(inflight[s]) >= cfg.window:
                        break
                    count = min(cfg.batch, total - next_unit)
                    _send(engine, comm, s, TAG_CMD, K_WORK, next_unit, count)
                    inflight[s].append((next_unit, count))
                    next_unit += count
                    rr_slot += 1
            else:
                for s in list(inflight):
                    while len(inflight[s]) < cfg.window and next_unit < total:
                        count = min(cfg.batch, total - next_unit)
                        _send(engine, comm, s, TAG_CMD, K_WORK, next_unit, count)
                        inflight[s].append((next_unit, count))
                        next_unit += count
        except MpiErrProcFailed:
            do_recover()
            continue
        if pump_acks():
            do_recover()
            continue
        ev = schedule.claim_partition(acked)
        if ev is not None and 0 < ev.slot < comm.size:
            # cut the root<->victim link briefly; the reliability layer's
            # retransmits (with jitter) must carry the queue through
            stats["partitions"] += 1
            me = comm.group.world_rank(comm.rank)
            them = comm.group.world_rank(ev.slot)
            plan.partition(me, them)
            for _ in range(cfg.partition_polls):
                engine.progress.idle()
            plan.heal(me, them)
        if cfg.ckpt_every and since_ckpt >= cfg.ckpt_every and acked < total:
            # drain: a checkpoint is only consistent with nothing in flight
            failed = False
            while any(inflight.values()) and not failed:
                failed = pump_acks()
            if failed:
                do_recover()
                continue
            try:
                for s in range(1, comm.size):
                    _send(engine, comm, s, TAG_CMD, K_CKPT)
                comm.checkpoint({"issued": acked}, placement=cfg.placement)
                stats["checkpoints"] += 1
                since_ckpt = 0
            except MpiErrProcFailed:
                do_recover()
                continue

    # every unit acked: stop the pool and fold the ledger
    count = sigma = 0
    xor = 0
    for s in range(1, comm.size):
        _send(engine, comm, s, TAG_CMD, K_STOP)
    for s in range(1, comm.size):
        req, buf = ack_reqs.pop(s)
        engine.wait(req, comm)
        kind, a, b, c = _MSG.unpack(buf.tobytes())
        assert kind == A_DONE, f"slot {s} answered {kind} to STOP"
        count += a
        sigma += b
        xor ^= c

    exp_sum = total * (total - 1) // 2
    exp_xor = 0
    for u in range(total):
        exp_xor ^= u
    mgr = engine.recovery
    return {
        "ok": (count, sigma, xor) == (total, exp_sum, exp_xor),
        "total": total,
        "count": count,
        "sum": sigma,
        "xor": xor,
        "expected_sum": exp_sum,
        "expected_xor": exp_xor,
        "recoveries": stats["recoveries"],
        "checkpoints": stats["checkpoints"],
        "partitions": stats["partitions"],
        "ranks_replaced": mgr.stats["ranks_replaced"],
        "epochs_rolled_back": mgr.stats["epochs_rolled_back"],
        "recovery_latency_ns": mgr.stats["recovery_latency_ns"],
        "committed_epoch": mgr.committed_epoch,
        "fired": [(ev.kind, ev.slot, ev.at_units) for ev in schedule.fired],
        "elapsed_ns": ctx.clock.now() - t0,
    }


# -- driver --------------------------------------------------------------------


class ElasticMain:
    """Module-level rank main (spawn-safety rule: no closure mains).

    The elastic workload itself stays inproc-only — it leans on the
    shared fault plan and dynamic rank replacement — but every rank main
    in this package is importable at module level so the audit holds
    uniformly.
    """

    def __init__(self, cfg: ElasticConfig, schedule: ChaosSchedule,
                 plan: FaultPlan) -> None:
        self.cfg = cfg
        self.schedule = schedule
        self.plan = plan

    def __call__(self, ctx):
        comm = ctx.comm_world
        comm.set_errhandler(ERRORS_RETURN)
        if comm.rank == 0:
            return _root(ctx, comm, self.cfg, self.schedule, self.plan)
        return _worker(ctx, comm, self.cfg, self.schedule, self.plan,
                       _fresh_state())


def run_elastic(
    nranks: int = 4,
    cfg: ElasticConfig | None = None,
    events=(),
    fault_plan: FaultPlan | None = None,
    channel: str = "shm",
    clock_mode: str = "virtual",
    costs=None,
    reliability_opts: dict | None = None,
    timeout: float = 120.0,
) -> dict:
    """Run the elastic work queue; returns the root's ledger summary.

    ``events`` is a sequence of :class:`ChaosEvent`; kills need at least
    one checkpoint cadence (``cfg.ckpt_every``) or the whole run replays
    from unit zero.  The fault plan's probabilistic faults (drop, delay,
    reorder, corrupt) compose freely with the scheduled events.
    """
    cfg = cfg if cfg is not None else ElasticConfig()
    if nranks < 2:
        raise ValueError("elastic needs a root and at least one worker")
    plan = fault_plan if fault_plan is not None else FaultPlan(seed=0)
    schedule = ChaosSchedule(events)
    main = ElasticMain(cfg, schedule, plan)
    results = mpiexec(
        nranks, main, channel=channel, clock_mode=clock_mode, costs=costs,
        fault_plan=plan, reliability_opts=reliability_opts, timeout=timeout,
    )
    return results[0]


__all__ = [
    "ElasticConfig",
    "ChaosEvent",
    "ChaosSchedule",
    "run_elastic",
]
