"""Two-generational garbage collector with SSCLI pinning semantics.

Reproduces the collector the paper builds on (§5.2) plus Motor's extension
(§4.3, §7.4):

* gen0 (nursery) is collected by **copying promotion**: survivors are
  copied — compacted — into the elder generation and every reference to
  them is rewritten (handle table, remembered set, promoted objects);
* when the nursery holds **pinned** objects at collection time, the SSCLI
  does not move them: the entire nursery block is reassigned to the elder
  generation (pinned objects keep their addresses; dead space in the block
  becomes fragmentation) while non-pinned survivors are still copied and
  compacted out, and a fresh nursery is carved;
* gen1 is collected mark-and-sweep without compaction ("once in the elder
  generation, objects are collected if abandoned, but are no longer
  compacted");
* **conditional pin requests** — Motor's augmentation: a pin that depends
  on the status of a non-blocking transport operation.  During the mark
  phase the collector evaluates each request: if the operation is still in
  flight the object is treated as pinned; otherwise the request is simply
  dropped.  No unpin call, no watcher thread (§4.3).
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.mp.hooks import NULL_SPINE
from repro.runtime.errors import GcInvariantError
from repro.runtime.handles import HandleTable, ObjRef
from repro.runtime.heap import GEN0, GEN1, ManagedHeap
from repro.runtime.objectmodel import FLAG_FORWARDED, HDR_FLAGS, HEADER, ObjectModel
from repro.simtime import Clock, CostModel


_U64 = struct.Struct("<Q")
#: a moved object's flags word and the new address over its size and aux words
_FORWARD = struct.Struct("<IQ")


@dataclass
class GcStats:
    gen0_collections: int = 0
    gen1_collections: int = 0
    objects_promoted: int = 0
    bytes_promoted: int = 0
    pinned_collections: int = 0
    pins_active_peak: int = 0
    conditional_pins_registered: int = 0
    conditional_pins_honored: int = 0
    conditional_pins_dropped: int = 0
    objects_swept: int = 0
    pin_calls: int = 0
    unpin_calls: int = 0


class PinCookie:
    """Opaque token returned by :meth:`GenGC.pin` (holds its handle slot)."""

    __slots__ = ("slot", "released")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.released = False


@dataclass
class ConditionalPin:
    """A status-dependent pin request (Motor non-blocking unpin solution)."""

    slot: int
    is_active: Callable[[], bool]
    dropped: bool = False


class GenGC:
    """The collector bound to one rank's heap."""

    #: the rank's hook spine (repro.mp.hooks): pin/collect lifecycle is
    #: emitted as typed events; GcStats is exported as pull-model pvars
    hooks = NULL_SPINE

    def __init__(
        self,
        heap: ManagedHeap,
        om: ObjectModel,
        handles: HandleTable,
        clock: Clock,
        costs: CostModel,
    ) -> None:
        self.heap = heap
        self.om = om
        self.handles = handles
        self.clock = clock
        self.costs = costs
        self.stats = GcStats()
        #: cookie-slot pins (classic GCHandle pinned handles)
        self._pins: dict[int, PinCookie] = {}
        #: Motor conditional pin requests, resolved at mark time
        self._conditional: list[ConditionalPin] = []
        #: absolute addresses of elder-gen reference slots that may point
        #: into the nursery (write-barrier remembered set)
        self._remembered: set[int] = set()
        #: callbacks run after every collection (e.g. Motor's OO buffer
        #: pool sweep, §7.5)
        self.post_collect_hooks: list[Callable[[int], None]] = []
        #: guards against re-entrant collection (alloc during GC)
        self._collecting = False

    # ------------------------------------------------------------------ pins

    def pin(self, ref: ObjRef, cost_mult: float = 1.0) -> PinCookie:
        """Pin an object: it will not move or be collected until unpinned."""
        addr = ref.addr
        slot = self.handles.alloc(addr)
        cookie = PinCookie(slot)
        self._pins[slot] = cookie
        self.stats.pin_calls += 1
        self.stats.pins_active_peak = max(self.stats.pins_active_peak, len(self._pins))
        size_kb = self.om.object_size(addr) / 1024.0
        self.clock.charge(
            (self.costs.pin_ns + self.costs.pin_per_kb_ns * size_kb) * cost_mult
        )
        cbs = self.hooks.pin
        if cbs:
            for cb in cbs:
                cb(addr, slot)
        return cookie

    def unpin(self, cookie: PinCookie, cost_mult: float = 1.0) -> None:
        if cookie.released:
            raise GcInvariantError("double unpin")
        cookie.released = True
        del self._pins[cookie.slot]
        self.handles.free(cookie.slot)
        self.stats.unpin_calls += 1
        self.clock.charge(self.costs.unpin_ns * cost_mult)
        cbs = self.hooks.unpin
        if cbs:
            for cb in cbs:
                cb(cookie.slot)

    def register_conditional_pin(self, ref: ObjRef, is_active: Callable[[], bool]) -> ConditionalPin:
        """Register a pin that holds only while ``is_active()`` is true.

        The collector itself evaluates the predicate during the mark phase
        and silently drops completed requests — the caller never unpins.
        """
        slot = self.handles.alloc(ref.addr)
        cp = ConditionalPin(slot, is_active)
        self._conditional.append(cp)
        self.stats.conditional_pins_registered += 1
        self.clock.charge(self.costs.conditional_pin_register_ns)
        cbs = self.hooks.cond_pin
        if cbs:
            for cb in cbs:
                cb(ref.addr, slot, is_active)
        return cp

    def pinned_addresses(self) -> set[int]:
        return {self.handles.get(c.slot) for c in self._pins.values()}

    @property
    def active_pin_count(self) -> int:
        return len(self._pins)

    @property
    def pending_conditional_count(self) -> int:
        return len(self._conditional)

    # ------------------------------------------------------- write barrier

    def record_write(self, slot_addr: int, target_addr: int) -> None:
        """Write-barrier hook: elder-gen slot now points at a nursery object."""
        if target_addr and self.heap.in_gen0(target_addr) and not self.heap.in_gen0(slot_addr):
            self._remembered.add(slot_addr)

    # ------------------------------------------------------------- collection

    def collect(self, gen: int = GEN0) -> None:
        """Stop-the-world collection of the given generation."""
        if self._collecting:
            raise GcInvariantError("re-entrant collection")
        before = self.stats.bytes_promoted
        self._collecting = True
        try:
            self._collect_gen0()
            if gen >= GEN1:
                self._collect_gen1()
        finally:
            self._collecting = False
        cbs = self.hooks.gc_phase
        if cbs:
            info = {
                "promoted": self.stats.bytes_promoted - before,
                "pins": self.active_pin_count,
                "cond": self.pending_conditional_count,
            }
            for cb in cbs:
                cb(gen, info)
        for hook in self.post_collect_hooks:
            hook(gen)

    # -- mark-phase pin resolution ------------------------------------------

    def _resolve_pins(self) -> set[int]:
        """Evaluate conditional pins (Motor's mark-phase check) and return
        the set of currently pinned addresses."""
        pinned = self.pinned_addresses()
        kept: list[ConditionalPin] = []
        for cp in self._conditional:
            self.clock.charge(self.costs.gc_mark_pin_check_ns)
            if cp.is_active():
                pinned.add(self.handles.get(cp.slot))
                self.stats.conditional_pins_honored += 1
                kept.append(cp)
            else:
                # "the pinning request is no longer necessary and is
                # disregarded" — free its root slot and forget it.
                cp.dropped = True
                self.handles.free(cp.slot)
                self.stats.conditional_pins_dropped += 1
                cbs = self.hooks.cond_drop
                if cbs:
                    for cb in cbs:
                        cb(cp.slot)
        self._conditional = kept
        pinned.discard(0)
        return pinned

    # -- gen0: copying promotion -----------------------------------------------

    def _collect_gen0(self) -> None:
        heap, om = self.heap, self.om
        mem, stats = heap.mem, self.stats
        stats.gen0_collections += 1
        nursery = range(heap.nursery.base, heap.nursery.end)  # 0 is never in it
        pinned = {a for a in self._resolve_pins() if a in nursery}
        header, alloc, mts = HEADER.unpack_from, heap.alloc_gen1, om.registry.ids
        sizes: list[int] = []  # the promoted objects' sizes, in forward order

        scan_q: deque[int] = deque()  # survivors that hold references
        kept_pinned: set[int] = set()

        def forward(target: int) -> int:
            mt_id, flags, size, aux = header(mem, target)
            if flags & FLAG_FORWARDED:
                return size | aux << 32  # the new address overwrote size and aux
            if target in pinned:
                if target in kept_pinned:
                    return target
                kept_pinned.add(target)
                new = target
            else:
                new = alloc(size)
                mem[new : new + size] = mem[target : target + size]
                _FORWARD.pack_into(mem, target + HDR_FLAGS, FLAG_FORWARDED, new)
                sizes.append(size)
            if mts[mt_id].has_references:
                scan_q.append(new)
            return new

        try:
            # Roots: every live handle slot (user ObjRefs, pins, conditional
            # pins all live in the handle table) ...
            handles = self.handles
            for slot in handles.live_slots():
                target = handles.get(slot)
                if target in nursery:
                    handles.set(slot, forward(target))
            # ... plus elder-generation slots recorded by the write barrier.
            for loc in self._remembered:
                (target,) = _U64.unpack_from(mem, loc)
                if target in nursery:
                    _U64.pack_into(mem, loc, forward(target))
            self._remembered.clear()

            # Transitive scan (Cheney-style): fix references inside everything
            # that survived, chasing newly discovered nursery objects.
            while scan_q:
                for loc in om.ref_slots(scan_q.popleft()):
                    (target,) = _U64.unpack_from(mem, loc)
                    if target in nursery:
                        _U64.pack_into(mem, loc, forward(target))

            if kept_pinned:
                # SSCLI pinned-collection path: the nursery block itself is
                # promoted; pinned objects keep their addresses.
                stats.pinned_collections += 1
                live = [(a, om.object_size(a)) for a in kept_pinned]
                heap.promote_nursery_block(live)
            else:
                heap.reset_nursery()
        finally:
            # the copies' charges, in forward order, once the heap is whole
            stats.objects_promoted += len(sizes)
            stats.bytes_promoted += sum(sizes)
            per_byte = self.costs.copy_per_byte_ns
            self.clock.charge_all([per_byte * size for size in sizes])

    # -- gen1: mark-sweep, no compaction ----------------------------------------

    def _collect_gen1(self) -> None:
        heap, om = self.heap, self.om
        self.stats.gen1_collections += 1
        pinned = self._resolve_pins()

        marked: set[int] = set()
        stack: list[int] = []

        def mark_root(addr: int) -> None:
            if addr and addr not in marked:
                marked.add(addr)
                stack.append(addr)

        for slot in self.handles.live_slots():
            mark_root(self.handles.get(slot))
        for addr in pinned:
            mark_root(addr)

        while stack:
            addr = stack.pop()
            for slot_addr in om.ref_slots(addr):
                mark_root(heap.read_u64(slot_addr))

        # Sweep: every elder allocation not marked is abandoned.
        for addr in list(heap.gen1_allocs):
            if addr not in marked:
                heap.free_gen1(addr)
                self.stats.objects_swept += 1
