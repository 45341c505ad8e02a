"""The per-rank instrumentation facade, attached through the hook spine.

One :class:`Instrumentation` per rank bundles a metrics registry and a
span recorder behind a narrow write API (``inc``/``observe``/``event``/
``span``).  Nothing is wrapped or monkey-patched and no subsystem knows
this module exists: the messaging stack emits typed events on its
:class:`repro.mp.hooks.HookSpine`, and one :class:`_ObsSubscriber` per
instrumentation translates the events it cares about into metric and
timeline writes.  Detaching removes the subscriber from the spine; other
subscribers (the sanitizer, tests) are untouched.

Cost model: an *enabled* hook charges the rank clock the calibrated cost
of recording (``obs_event_ns`` etc.); an *attached but disabled* hook
charges only ``obs_hook_ns`` — the branch-and-return a compiled-in but
switched-off probe costs in a real runtime.  The A11 ablation measures
exactly that disabled residue and holds it under 5% on the Figure 9
ping-pong.  An unattached site costs one empty-tuple check on the spine
and charges nothing (bounded ≤1% by ablation A13).

Attach helpers wire a rank's whole stack:

* :func:`attach_engine` — subscribes to the engine's spine and registers
  pull-model pvars for the device, progress engine, reliability sublayer
  and channel;
* :func:`attach_vm` — extends over a Motor VM: collector, pin policy,
  serializer, System.MP;
* :func:`instrument` — dispatches on RankContext vs MotorVM, the
  one-call entry point that replaces ``attach_tracer``.
"""

from __future__ import annotations

from typing import Any

from repro.mp.hooks import NULL_SPINE, HookSpine, spine_of
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, SpanRecord


class _NullSpan:
    """Reusable no-op context manager for disabled/absent spans."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanCtx:
    """Context manager pairing start/end on the recorder."""

    __slots__ = ("_inst", "_name", "_args", "span")

    def __init__(self, inst: "Instrumentation", name: str, args: dict) -> None:
        self._inst = inst
        self._name = name
        self._args = args
        self.span: SpanRecord | None = None

    def __enter__(self) -> SpanRecord:
        self.span = self._inst.recorder.start(self._name, **self._args)
        return self.span

    def __exit__(self, *exc) -> bool:
        self._inst.recorder.end(self.span)
        return False


class _ObsSubscriber:
    """Spine subscriber: typed stack events -> the write API.

    Subscribes to exactly the events the pre-spine hooks recorded, so the
    charge sequence — and therefore the A11 virtual-clock ratios — is
    identical to the old per-module ``obs`` attribute plumbing.  Regions
    become spans (one stack per rank; regions nest strictly), marks
    become events, counts become counter increments.
    """

    __slots__ = ("inst", "_regions")

    def __init__(self, inst: "Instrumentation") -> None:
        self.inst = inst
        #: stack of open span context managers (regions nest per rank)
        self._regions: list = []

    # -- messaging core -----------------------------------------------------

    def on_send_posted(self, req, dst: int, rndv: bool) -> None:
        total = req.buf.nbytes
        self.inst.event(
            "mp.send",
            dst=dst,
            tag=req.tag,
            bytes=total,
            proto="rndv" if rndv else "eager",
        )
        self.inst.observe("mp.ch3.msg_bytes", total)

    def on_recv_posted(self, req) -> None:
        self.inst.event(
            "mp.recv.post", src=req.peer, tag=req.tag, cap=req.buf.nbytes
        )

    def on_recv_complete(self, status) -> None:
        self.inst.event(
            "mp.recv.complete",
            src=status.source,
            tag=status.tag,
            bytes=status.count,
        )

    # -- one-sided windows --------------------------------------------------

    def on_rma_op(self, win_id, kind, target, offset, nbytes, native) -> None:
        self.inst.event(
            "mp.rma.op",
            win=win_id,
            kind=kind,
            target=target,
            bytes=nbytes,
            native=native,
        )
        self.inst.observe("mp.rma.op_bytes", nbytes)

    def on_rma_epoch(self, win_id, kind, phase) -> None:
        self.inst.event("mp.rma.epoch", win=win_id, kind=kind, phase=phase)

    def on_rma_violation(self, win_id, rule, info) -> None:
        self.inst.event("mp.rma.violation", win=win_id, rule=rule)

    # -- regions / marks / counts ------------------------------------------

    def on_region_begin(self, name: str, args: dict) -> None:
        ctx = self.inst.span(name, **args)
        ctx.__enter__()
        self._regions.append(ctx)

    def on_region_end(self, name: str) -> None:
        if self._regions:
            self._regions.pop().__exit__(None, None, None)

    def on_mark(self, name: str, args: dict) -> None:
        self.inst.event(name, **args)

    def on_count(self, name: str, n: int) -> None:
        self.inst.inc(name, n)

    # -- GC lifecycle -------------------------------------------------------

    def on_pin(self, addr: int, slot: int) -> None:
        self.inst.event("gc.pin", addr=hex(addr), slot=slot)

    def on_unpin(self, slot: int) -> None:
        self.inst.event("gc.unpin", slot=slot)

    def on_cond_pin(self, addr: int, slot: int, active) -> None:
        self.inst.event("gc.pin.conditional", addr=hex(addr), slot=slot)

    def on_gc_phase(self, gen: int, info: dict) -> None:
        self.inst.event("gc.collect", gen=gen, **info)


class Instrumentation:
    """One rank's observability surface (metrics + spans + events)."""

    def __init__(self, rank: int, clock, costs=None, enabled: bool = True) -> None:
        if costs is None:
            from repro.simtime import CostModel

            costs = CostModel()
        self.rank = rank
        self.clock = clock
        self.costs = costs
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.recorder = SpanRecorder(rank, clock)
        #: the spine subscriber carrying this instance's event handlers
        self.subscriber = _ObsSubscriber(self)
        #: every spine the subscriber is attached to (consumed by detach_all)
        self.attached: list[HookSpine] = []

    # -- write API (the hook surface) -----------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            self.clock.charge(self.costs.obs_hook_ns)
            return
        self.clock.charge(self.costs.obs_counter_ns)
        self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            self.clock.charge(self.costs.obs_hook_ns)
            return
        self.clock.charge(self.costs.obs_counter_ns)
        self.metrics.histogram(name).observe(value)

    def event(self, name: str, **args: Any) -> None:
        if not self.enabled:
            self.clock.charge(self.costs.obs_hook_ns)
            return
        self.clock.charge(self.costs.obs_event_ns)
        self.recorder.event(name, **args)

    def span(self, name: str, **args: Any):
        if not self.enabled:
            self.clock.charge(self.costs.obs_hook_ns)
            return _NULL_SPAN
        self.clock.charge(self.costs.obs_span_ns)
        return _SpanCtx(self, name, args)

    # -- pull-model pvars -------------------------------------------------------

    def register_provider(self, fn) -> None:
        self.metrics.register_provider(fn)

    # -- snapshot ---------------------------------------------------------------

    def snapshot(self) -> dict:
        out = {"rank": self.rank, "enabled": self.enabled}
        out.update(self.metrics.snapshot())
        out.update(self.recorder.snapshot())
        return out


# ---------------------------------------------------------------------------
# attach points
# ---------------------------------------------------------------------------


def _scaled(prefix: str, stats: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in stats.items()}


def _subscribe(inst: Instrumentation, spine: HookSpine) -> None:
    spine.attach(inst.subscriber)  # idempotent: one spine per rank stack
    if spine not in inst.attached:
        inst.attached.append(spine)


def attach_engine(inst: Instrumentation, engine) -> None:
    """Wire one rank's MPI stack: device, progress, reliability, channel,
    and (once it exists) the recovery manager."""
    _subscribe(inst, engine.hooks)
    device = engine.device
    inst.register_provider(
        lambda: {
            "mp.ch3.eager_sends": device.stats["eager"],
            "mp.ch3.rndv_sends": device.stats["rndv"],
            "mp.ch3.unexpected": device.stats["unexpected"],
            "mp.ch3.truncated": device.stats["truncated"],
            "mp.ch3.bytes_moved": device.stats["bytes_moved"],
            "mp.ch3.bytes_copied": device.stats["bytes_copied"],
        }
    )
    progress = engine.progress
    inst.register_provider(
        lambda: {
            "mp.progress.polls": progress.polls,
            "mp.progress.idle_polls": progress.idle_polls,
            # async progress mode: steps initiated by the clock-driven
            # driver, and the fraction of packets they handled (0.0 in
            # polled mode — nothing progresses without a caller)
            "mp.progress.async_polls": progress.async_polls,
            "mp.progress.overlap_ratio": progress.overlap_ratio,
        }
    )
    channel = device.channel
    inst.register_provider(
        lambda: {
            "mp.ch.packets_sent": channel.packets_sent,
            "mp.ch.packets_received": channel.packets_received,
            "mp.ch.bytes_sent": channel.bytes_sent,
        }
    )
    if device.rel is not None:
        rel = device.rel
        inst.register_provider(lambda: _scaled("rel", rel.stats))
    # recovery pvars: read through the engine property each snapshot so an
    # engine that never checkpoints or agrees reports nothing (the manager
    # is lazy; don't instantiate it just to export zeros)
    inst.register_provider(
        lambda: (
            {} if engine._recovery is None
            else _scaled("recovery", engine._recovery.stats)
        )
    )


def attach_gc(inst: Instrumentation, gc) -> None:
    """Wire a collector: lifecycle events are pushed, GcStats is pulled."""
    _subscribe(inst, spine_of(gc))
    stats = gc.stats
    inst.register_provider(
        lambda: {
            "gc.collections.gen0": stats.gen0_collections,
            "gc.collections.gen1": stats.gen1_collections,
            "gc.objects_promoted": stats.objects_promoted,
            "gc.bytes_promoted": stats.bytes_promoted,
            "gc.pinned_collections": stats.pinned_collections,
            "gc.pins.calls": stats.pin_calls,
            "gc.pins.unpin_calls": stats.unpin_calls,
            "gc.pins.active_peak": stats.pins_active_peak,
            "gc.cond_pins.registered": stats.conditional_pins_registered,
            "gc.cond_pins.honored": stats.conditional_pins_honored,
            "gc.cond_pins.dropped": stats.conditional_pins_dropped,
            "gc.objects_swept": stats.objects_swept,
        }
    )


def attach_vm(inst: Instrumentation, vm) -> None:
    """Wire a MotorVM: collector, pin policy, serializer, System.MP.

    The whole VM shares one spine (``repro.mp.hooks.wire_vm``), so the
    subscription is a no-op if :func:`attach_engine` already ran; only
    the managed-side pull providers are new.
    """
    _subscribe(inst, vm.hooks)
    attach_gc(inst, vm.runtime.gc)
    policy = vm.policy
    inst.register_provider(
        lambda: {
            "gc.pins.checks": policy.stats.checks,
            "gc.pins.elder_skips": policy.stats.elder_skips,
            "gc.pins.deferred": policy.stats.deferred,
            "gc.pins.deferred_taken": policy.stats.deferred_pins_taken,
            "gc.pins.conditional_registered": policy.stats.conditional_registered,
            "gc.pins.unconditional": policy.stats.unconditional_pins,
        }
    )
    ser = vm.serializer
    inst.register_provider(
        lambda: {
            "motor.ser.objects": ser.objects_serialized,
            "motor.deser.objects": ser.objects_deserialized,
        }
    )
    pool = getattr(vm, "pool", None)
    if pool is not None:
        inst.register_provider(
            lambda: {
                "motor.pool.created": pool.created,
                "motor.pool.reused": pool.reused,
                "motor.pool.swept": pool.swept,
                "motor.pool.pooled": pool.pooled,
            }
        )


def instrument(ctx_or_vm, enabled: bool = True, costs=None) -> Instrumentation:
    """Attach a fresh :class:`Instrumentation` to a RankContext or MotorVM.

    The spine replacement for the old ``attach_tracer``: nothing is
    wrapped, so attaching and detaching never disturbs other layers.
    """
    # MotorVM: has .engine and .runtime
    if hasattr(ctx_or_vm, "runtime") and hasattr(ctx_or_vm, "engine"):
        vm = ctx_or_vm
        inst = Instrumentation(
            vm.engine.rank, vm.runtime.clock, costs=costs or vm.engine.costs,
            enabled=enabled,
        )
        attach_engine(inst, vm.engine)
        attach_vm(inst, vm)
        return inst
    ctx = ctx_or_vm
    inst = Instrumentation(
        ctx.rank, ctx.clock, costs=costs or ctx.engine.costs, enabled=enabled
    )
    attach_engine(inst, ctx.engine)
    # a context whose session is a Motor VM gets its managed side wired too
    session = getattr(ctx, "session", None)
    if session is not None and hasattr(session, "runtime") and hasattr(session, "policy"):
        attach_vm(inst, session)
    ctx.obs = inst
    return inst


def detach(target, inst: Instrumentation | None = None) -> None:
    """Remove an instrumentation's subscriber from a component's spine.

    ``target`` may be a spine or any component carrying one (``engine``,
    ``device``, a collector, ...).  With ``inst`` given, removes only
    that instrumentation's subscriber; without, removes every
    observability subscriber.  Other subscribers — a second
    instrumentation, the sanitizer — are never disturbed (the bug the
    old monkey-patching tracer had).
    """
    spine = target if isinstance(target, HookSpine) else getattr(target, "hooks", None)
    if spine is None or spine is NULL_SPINE:
        return
    for sub in list(spine.subscribers):
        if isinstance(sub, _ObsSubscriber) and (inst is None or sub.inst is inst):
            spine.detach(sub)


def detach_all(inst: Instrumentation) -> None:
    """Detach this instrumentation from every spine it subscribed to."""
    for spine in inst.attached:
        spine.detach(inst.subscriber)
    inst.attached.clear()
