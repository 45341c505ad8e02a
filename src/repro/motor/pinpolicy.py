"""Motor's pinning policy (paper §4.3 and §7.4).

Pinning is unavoidable — the transport does not understand managed memory —
but it is only *required* when (a) a collection might occur during the
operation and (b) the object could move in that collection.  Living next to
the collector lets Motor test both conditions:

* **elder-generation test** — objects outside the young-generation
  boundary have been promoted and will never move again (the SSCLI does
  not compact the elder generation), so they are never pinned;
* **deferred pinning (blocking ops)** — a young object is *not* pinned at
  operation start; many blocking operations complete without ever entering
  the polling-wait, and before the wait there is no safepoint at which a
  collection could run.  The pin happens only when the operation actually
  enters the polling-wait;
* **conditional pinning (non-blocking ops)** — a young object is
  registered with the collector immediately, but as a *status-dependent*
  request: during the mark phase the collector checks whether the
  transport is still in flight, pins if so, and silently drops the request
  otherwise.  Nobody ever needs to call unpin.

The ``enabled=False`` configuration (pin always, per operation — what the
Indiana bindings do) exists for the A2 ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.mp.hooks import NULL_SPINE
from repro.runtime.gcollector import PinCookie
from repro.runtime.handles import ObjRef


class PinDecision(Enum):
    NO_PIN = "no-pin"  # elder resident: can never move
    DEFER = "defer"  # young: pin only if we enter the polling-wait
    PIN_NOW = "pin-now"  # policy disabled: unconditional pin


@dataclass
class PinPolicyStats:
    checks: int = 0
    elder_skips: int = 0
    deferred: int = 0
    deferred_pins_taken: int = 0
    conditional_registered: int = 0
    unconditional_pins: int = 0
    window_pins: int = 0
    window_releases: int = 0


class PinningPolicy:
    """The decision procedure bound to one runtime's collector."""

    #: the rank's hook spine (repro.mp.hooks): decisions are emitted as
    #: ``pin_decision`` events; PinPolicyStats is exported as pull-model
    #: pvars (gc.pins.checks, gc.pins.deferred_taken, ...)
    hooks = NULL_SPINE

    def __init__(self, runtime, enabled: bool = True) -> None:
        self.runtime = runtime
        self.enabled = enabled
        self.stats = PinPolicyStats()

    # -- blocking operations -------------------------------------------------------

    def pre_blocking(self, ref: ObjRef) -> PinDecision:
        """Decide at operation start, *before* any safepoint."""
        if not self.enabled:
            self.stats.unconditional_pins += 1
            for cb in self.hooks.pin_decision:
                cb("pin-now")
            return PinDecision.PIN_NOW
        # the generation test: the object's address against the nursery
        rt = self.runtime
        rt.clock.charge(rt.costs.generation_check_ns)
        self.stats.checks += 1
        if not rt.heap.in_gen0(ref.addr):
            self.stats.elder_skips += 1
            return PinDecision.NO_PIN
        self.stats.deferred += 1
        for cb in self.hooks.pin_decision:
            cb("defer")
        return PinDecision.DEFER

    def on_enter_wait(self, decision: PinDecision, ref: ObjRef) -> PinCookie | None:
        """The operation is about to enter the polling-wait: pin deferred
        young objects now (they are at risk from this point on)."""
        if decision is PinDecision.DEFER:
            self.stats.deferred_pins_taken += 1
            return self.runtime.gc.pin(ref)
        return None

    def pin_now(self, ref: ObjRef) -> PinCookie:
        """Policy-disabled path: pin unconditionally (per-op pinning)."""
        return self.runtime.gc.pin(ref)

    def release(self, cookie: PinCookie | None) -> None:
        if cookie is not None:
            self.runtime.gc.unpin(cookie)

    # -- one-sided windows -------------------------------------------------------

    def window_pin(self, ref: ObjRef) -> PinCookie:
        """An exposed RMA window is an *unconditional* pin for the whole
        epoch: remote ranks may write the buffer at any moment between the
        epoch open and its close, so neither the elder-generation test nor
        deferral applies — even a never-moving elder object must not be
        *collected*, and there is no per-operation in-flight predicate a
        conditional pin could test.  The cookie MUST be released at the
        epoch close (the sanitizer's MA-R05 leak check sees the pair)."""
        self.stats.window_pins += 1
        for cb in self.hooks.pin_decision:
            cb("window-pin")
        return self.runtime.gc.pin(ref)

    def window_release(self, cookie: PinCookie | None) -> None:
        """Close of the epoch that took :meth:`window_pin`."""
        if cookie is not None and not cookie.released:
            self.stats.window_releases += 1
            self.runtime.gc.unpin(cookie)

    # -- non-blocking operations -----------------------------------------------------

    def pre_nonblocking(self, ref: ObjRef, in_flight: Callable[[], bool]) -> "ConditionalPin | PinCookie | None":
        """Register protection for a non-blocking operation's buffer."""
        if not self.enabled:
            # Without the policy the only safe discipline is to pin now and
            # leave release to the caller (the leak hazard of §2.3).
            self.stats.unconditional_pins += 1
            for cb in self.hooks.pin_decision:
                cb("pin-now")
            return self.runtime.gc.pin(ref)
        rt = self.runtime
        rt.clock.charge(rt.costs.generation_check_ns)  # the generation test
        self.stats.checks += 1
        if not rt.heap.in_gen0(ref.addr):
            self.stats.elder_skips += 1
            return None
        self.stats.conditional_registered += 1
        return self.runtime.gc.register_conditional_pin(ref, in_flight)
