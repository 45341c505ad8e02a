"""The one instrumentation spine for the messaging stack.

Every observer of the messaging core — the observability layer
(:mod:`repro.obs`), the message-passing sanitizer (:mod:`repro.analyze`),
fault-plan tooling, tests — attaches here instead of patching per-module
``obs``/``san`` attributes.  The stack itself knows nothing about who is
listening: components emit typed events on their :class:`HookSpine` and
subscribers implement ``on_<event>`` methods for the events they care
about.

Attach-time compilation keeps the disabled path free: :meth:`HookSpine
.attach` compiles the subscriber list into one tuple of bound methods
*per event*, stored as an instance attribute.  An emit site is then

    cbs = self.hooks.send_posted
    if cbs:
        for cb in cbs:
            cb(req, dst, rndv)

so with nothing attached (or nothing subscribed to that event) the cost
is a slot load and a falsy check on an empty tuple — no dict lookups, no
method calls, no isinstance checks.  This is what bounds the detached
overhead at 1.00x (ablation A13).

Event catalog (arguments each ``on_<event>`` receives):

========================  =====================================================
``packet_tx(pkt)``        device handed a wire-ready packet to the channel
``packet_rx(pkt)``        device accepted a verified packet from the channel
``copy(where, nbytes)``   the data plane copied payload bytes; ``where``
                          names the point ("eager-deliver",
                          "unexpected-stage", "staged-deliver",
                          "rndv-land", "rma-land", "rma-acc",
                          "rma-get-land")
``req_transition(req, old, new)``  request state machine moved
``send_posted(req, dst, rndv)``    send entered the device (dst = world rank)
``recv_posted(req)``      receive entered the device
``match(req, src, send_op_id)``    a receive matched a send
``recv_complete(status)`` a receive finished (post-truncation status)
``wildcard_scan(tag_sel, comm_sel, sources)``  ANY_SOURCE scanned a queue
``retransmit(pkt, retries)``       reliability re-sent an unacked packet
``fault_injected(dst, index, fault, kind)``    fault wrapper perturbed a packet
``region_begin(name, args)``       a named region (collective, serializer
                          pass) opened; regions nest strictly per rank
``region_end(name)``      the innermost open region closed
``mark(name, args)``      a point annotation (e.g. serializer output size)
``count(name, n)``        a named counter increment
``pin(addr, slot)``       GC pinned an object
``unpin(slot)``           GC released a pin
``cond_pin(addr, slot, active)``   conditional pin registered
``cond_drop(slot)``       conditional pin resolved as not needed
``pin_decision(decision)``         pin policy verdict ("pin-now", "defer", ...)
``gc_phase(gen, info)``   a collection finished (info: promoted/pins/cond)
``agree_round(seq, role, survivors)``  one attempt of the survivor agreement
                          protocol finished (role: "lead" or "follow")
``checkpoint_taken(epoch, nbytes)``    a checkpoint epoch committed locally
``checkpoint_restored(epoch, nbytes)`` rank-local state restored from an epoch
``recovery_begin(failed)``         detect → agree → shrink → replace started
``recovery_end(info)``    recovery finished (info: epoch/replaced/latency_ns)
``rma_op(win_id, kind, target, offset, nbytes, native)``  an origin issued
                          a one-sided op ("put"/"get"/"acc"); ``native``
                          is True on a channel RMA fast path
``rma_epoch(win_id, kind, phase)`` an epoch transition: kind is "fence",
                          "pscw-access", "pscw-exposure" or "lock",
                          phase "open" or "close"
``rma_violation(win_id, rule, info)``  the window layer observed an
                          epoch-discipline violation (rule: "MA-R06"
                          op outside an access epoch, "MA-R07"
                          unordered overlapping ops)
========================  =====================================================
"""

from __future__ import annotations

EVENTS: tuple[str, ...] = (
    "packet_tx",
    "packet_rx",
    "copy",
    "req_transition",
    "send_posted",
    "recv_posted",
    "match",
    "recv_complete",
    "wildcard_scan",
    "retransmit",
    "fault_injected",
    "region_begin",
    "region_end",
    "mark",
    "count",
    "pin",
    "unpin",
    "cond_pin",
    "cond_drop",
    "pin_decision",
    "gc_phase",
    "agree_round",
    "checkpoint_taken",
    "checkpoint_restored",
    "recovery_begin",
    "recovery_end",
    "rma_op",
    "rma_epoch",
    "rma_violation",
)


class HookSpine:
    """Per-rank event dispatcher, compiled at attach time.

    One spine is shared by every layer of a rank's stack (engine, device,
    queues, progress, reliability, each channel in the stack, and — for a
    Motor VM — the collector, pin policy and serializer), so a subscriber
    attaches once and sees the whole rank.
    """

    __slots__ = EVENTS + ("subscribers", "_frozen")

    def __init__(self, _frozen: bool = False) -> None:
        self.subscribers: list = []
        self._frozen = _frozen
        self._compile()

    def _compile(self) -> None:
        for name in EVENTS:
            setattr(
                self,
                name,
                tuple(
                    getattr(sub, "on_" + name)
                    for sub in self.subscribers
                    if hasattr(sub, "on_" + name)
                ),
            )

    def attach(self, subscriber) -> None:
        """Add a subscriber (idempotent) and recompile dispatch tuples."""
        if self._frozen:
            raise RuntimeError(
                "cannot attach to the shared null spine; wire the component "
                "into a stack first (repro.mp.hooks.wire_engine / wire_vm)"
            )
        if any(s is subscriber for s in self.subscribers):
            return
        self.subscribers.append(subscriber)
        self._compile()

    def detach(self, subscriber) -> None:
        """Remove a subscriber if attached and recompile; never raises."""
        for i, s in enumerate(self.subscribers):
            if s is subscriber:
                del self.subscribers[i]
                self._compile()
                return

    def detach_all(self) -> None:
        if self.subscribers:
            self.subscribers.clear()
            self._compile()

    @property
    def active(self) -> bool:
        return bool(self.subscribers)

    def __repr__(self) -> str:
        return f"<HookSpine subscribers={len(self.subscribers)}>"


#: Shared inert spine: components constructed outside a wired stack point
#: here, so every emit site can assume ``self.hooks`` exists.  Frozen —
#: attaching would silently fan out to unrelated components.
NULL_SPINE = HookSpine(_frozen=True)


def wire_engine(engine, spine: HookSpine | None = None) -> HookSpine:
    """Give every layer of one rank's MPI stack the same spine.

    Walks the channel *stack* (wrappers expose ``inner``) so stacking
    layers like fault injection share the spine too.  Reuses the engine's
    existing live spine unless ``spine`` is given, so re-wiring after
    adding a layer keeps subscribers.
    """
    if spine is None:
        spine = getattr(engine, "hooks", None)
        if spine is None or spine is NULL_SPINE:
            spine = HookSpine()
    engine.hooks = spine
    device = engine.device
    device.hooks = spine
    device.queues.hooks = spine
    engine.progress.hooks = spine
    if device.rel is not None:
        device.rel.hooks = spine
    ch = device.channel
    while ch is not None:
        ch.hooks = spine
        ch = getattr(ch, "inner", None)
    return spine


def wire_vm(vm) -> HookSpine:
    """Extend the engine's spine over a Motor VM's managed runtime."""
    spine = wire_engine(vm.engine)
    vm.hooks = spine
    vm.runtime.gc.hooks = spine
    vm.policy.hooks = spine
    vm.serializer.hooks = spine
    vm.fcall.hooks = spine
    pool = getattr(vm, "pool", None)
    if pool is not None:
        pool.hooks = spine
    return spine


def spine_of(component) -> HookSpine:
    """The component's spine, materialising a private one if unwired.

    For standalone components (a bare collector in a unit test, say) the
    class default is the frozen :data:`NULL_SPINE`; give such a component
    its own live spine on first request.
    """
    spine = getattr(component, "hooks", None)
    if spine is None or spine is NULL_SPINE:
        spine = HookSpine()
        component.hooks = spine
    return spine
