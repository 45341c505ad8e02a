"""Runtime sanitizer: race, buffer and pin-leak detection, deadlock report.

A shared :class:`Sanitizer` watches every rank of a world through the
messaging stack's hook spine (:mod:`repro.mp.hooks`): each rank's
:class:`RankSanitizer` view is a spine subscriber whose ``on_*`` methods
receive the typed events the device, matching queues, window layer
and collector emit.  The view binds a rank, its clock and the cost
model; all cross-rank state lives in the shared core behind one lock
(rank threads only ever touch their own device, so the sanitizer is the
only cross-thread reader).

What it checks:

* **MA-R01 deadlock** — detected by the inproc scheduler, not here: the
  :class:`~repro.simtime.sched.Baton` raises
  :class:`~repro.mp.errors.MpiErrDeadlock` once every hosted rank waits
  and nothing is in flight, naming each rank's wait.  ``mpiexec`` hands
  that verdict to :meth:`Sanitizer.on_deadlock`, which records it.
* **MA-R02 wildcard race** — an ``ANY_SOURCE`` receive that had more
  than one candidate send in flight (or staged) from distinct sources:
  the match order is timing, not program order.
* **MA-R03 buffer modified in flight** — the send buffer's checksum at
  completion differs from its checksum at post.
* **MA-R04 overlapping buffers** — a region posted to a new operation
  while an in-flight operation on an overlapping region could write it
  (at least one of the two is a receive).
* **MA-R05 pin leak** — at rank finalize: an unconditional pin never
  unpinned, or a conditional pin whose transport operation is still in
  flight (abandoned request).  Completed-but-not-yet-collected
  conditional pins are the design working as intended and are ignored.
* **MA-R06 one-sided op outside an access epoch** — the window layer
  detects the violation itself (it owns the epoch state) and reports it
  through the ``rma_violation`` hook; the sanitizer turns the event into
  a finding.  The op still executes — tolerate-and-report, like MA-R03.
* **MA-R07 unordered overlapping one-sided ops** — detected *here*, from
  the ``rma_op``/``rma_epoch`` event stream: per (window, target) the
  sanitizer keeps the byte intervals each access epoch has touched and
  flags a new op that overlaps an earlier one when at least one of the
  two writes and they are not both accumulates (the one overlap MPI
  orders).  Interval state clears at every epoch close, so the hot path
  in the window layer stays free of the bookkeeping.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from repro.analyze.findings import Finding, Report
from repro.mp.matching import ANY_SOURCE, ANY_TAG
from repro.mp.request import RECV, SEND, Request


def _tag_match(send_tag: int, recv_sel: int) -> bool:
    return recv_sel == ANY_TAG or recv_sel == send_tag


@dataclass
class _SendEntry:
    """One posted send, tracked until a receive consumes it."""

    src: int
    dst: int
    tag: int
    comm_id: int


@dataclass
class _Region:
    """An in-flight operation's buffer region (per rank)."""

    base_id: int
    lo: int
    hi: int
    kind: str
    op_id: int


@dataclass
class _RmaInterval:
    """One one-sided op's target byte range within the current epoch."""

    kind: str  # "put" | "get" | "acc"
    lo: int
    hi: int


def _rma_conflict(a: str, b: str) -> bool:
    """Do two overlapping one-sided ops race?  Reads may share; same-op
    accumulates are ordered by MPI; everything else is unordered."""
    if a == "get" and b == "get":
        return False
    if a == "acc" and b == "acc":
        return False
    return True


@dataclass
class _PinRecord:
    slot: int
    kind: str  # "pin" | "conditional"
    released: bool = False
    is_active: object = None


class Sanitizer:
    """Shared cross-rank state and the checking core."""

    def __init__(self) -> None:
        self.report = Report()
        self._lock = threading.RLock()
        #: (src_rank, op_id) -> _SendEntry
        self._sends: dict[tuple[int, int], _SendEntry] = {}
        #: per-rank in-flight buffer regions
        self._regions: dict[int, list[_Region]] = {}
        #: per-rank live pin records, keyed by handle slot
        self._pins: dict[int, dict[int, _PinRecord]] = {}
        #: (rank, win_id, target) -> intervals this access epoch touched
        self._rma_spans: dict[tuple[int, int, int], list[_RmaInterval]] = {}

    def rank_view(self, rank: int, clock=None, costs=None, enabled: bool = True) -> "RankSanitizer":
        return RankSanitizer(self, rank, clock=clock, costs=costs, enabled=enabled)

    # ------------------------------------------------------------- p2p registry

    def on_send_post(self, rank: int, req: Request, dst: int) -> None:
        with self._lock:
            self._sends[(rank, req.op_id)] = _SendEntry(rank, dst, req.tag, req.comm_id)
            self._track_buffer(rank, req)

    def on_send_consumed(self, src: int, op_id: int) -> None:
        with self._lock:
            self._sends.pop((src, op_id), None)

    def on_recv_post(self, rank: int, req: Request) -> None:
        with self._lock:
            self._track_buffer(rank, req)

    def on_recv_matched(self, rank: int, req: Request, src: int) -> None:
        """A receive just matched a message from *src* (device side)."""
        if req.peer != ANY_SOURCE:
            return
        with self._lock:
            candidates = {
                e.src
                for e in self._sends.values()
                if e.dst == rank
                and e.comm_id == req.comm_id
                and _tag_match(e.tag, req.tag)
            }
            candidates.add(src)
            if len(candidates) >= 2:
                self.report.add(
                    Finding(
                        "MA-R02",
                        f"ANY_SOURCE receive (tag={req.tag}) matched rank {src} "
                        f"but {len(candidates)} senders were candidates: "
                        f"{sorted(candidates)}",
                        rank=rank,
                        details=(("candidates", sorted(candidates)),),
                    )
                )

    def on_wildcard_scan(self, rank: int, tag_sel: int, comm_sel: int, sources: list[int]) -> None:
        """The matching layer scanned the unexpected queue for ANY_SOURCE."""
        distinct = sorted(set(sources))
        if len(distinct) >= 2:
            with self._lock:
                self.report.add(
                    Finding(
                        "MA-R02",
                        f"ANY_SOURCE receive (tag={tag_sel}) found "
                        f"{len(distinct)} staged messages from distinct "
                        f"sources {distinct}; match order is arrival order",
                        rank=rank,
                        details=(("candidates", distinct),),
                    )
                )

    # ------------------------------------------------------------- buffer checks

    def _track_buffer(self, rank: int, req: Request) -> None:
        """Overlap check (MA-R04) + in-flight registration; caller holds lock."""
        buf = req.buf
        if buf is None:
            return
        region = _Region(id(buf.base), buf.addr, buf.addr + buf.nbytes, req.kind, req.op_id)
        for other in self._regions.setdefault(rank, []):
            if (
                other.base_id == region.base_id
                and region.lo < other.hi
                and other.lo < region.hi
                and (RECV in (other.kind, region.kind))
            ):
                self.report.add(
                    Finding(
                        "MA-R04",
                        f"{req.kind} op #{req.op_id} posted on bytes "
                        f"[{region.lo}, {region.hi}) while {other.kind} op "
                        f"#{other.op_id} on overlapping [{other.lo}, "
                        f"{other.hi}) is still in flight",
                        rank=rank,
                        details=(("other_op", other.op_id),),
                    )
                )
        self._regions[rank].append(region)
        crc = zlib.crc32(bytes(buf.view())) if req.kind == SEND else None
        req.on_complete.append(
            lambda r, _rank=rank, _crc=crc: self._op_done(_rank, r, _crc)
        )

    def _op_done(self, rank: int, req: Request, crc: int | None) -> None:
        with self._lock:
            regions = self._regions.get(rank, [])
            self._regions[rank] = [x for x in regions if x.op_id != req.op_id]
            if (
                crc is not None
                and req.buf is not None
                and req.status.error is None
                and zlib.crc32(bytes(req.buf.view())) != crc
            ):
                self.report.add(
                    Finding(
                        "MA-R03",
                        f"send op #{req.op_id} (dst={req.peer}, tag={req.tag}) "
                        "buffer contents changed between post and completion",
                        rank=rank,
                    )
                )

    # ------------------------------------------------------------- deadlock

    def on_deadlock(self, err: Exception) -> None:
        """MA-R01: the scheduler's verdict that no blocked wait can end."""
        with self._lock:
            self.report.add(Finding("MA-R01", str(err)))

    # ------------------------------------------------------------- one-sided

    def on_rma_op(
        self, rank: int, win_id: int, kind: str, target: int,
        offset: int, nbytes: int, native: bool,
    ) -> None:
        """MA-R07: overlap against every earlier op of this access epoch."""
        if nbytes <= 0:
            return
        lo, hi = offset, offset + nbytes
        with self._lock:
            spans = self._rma_spans.setdefault((rank, win_id, target), [])
            for other in spans:
                if lo < other.hi and other.lo < hi and _rma_conflict(kind, other.kind):
                    self.report.add(
                        Finding(
                            "MA-R07",
                            f"{kind} on win {win_id} target {target} bytes "
                            f"[{lo}, {hi}) overlaps an earlier {other.kind} "
                            f"on [{other.lo}, {other.hi}) in the same access "
                            "epoch with no ordering between them",
                            rank=rank,
                            details=(("win", win_id), ("target", target)),
                        )
                    )
                    break
            spans.append(_RmaInterval(kind, lo, hi))

    def on_rma_epoch(self, rank: int, win_id: int, kind: str, phase: str) -> None:
        """An epoch boundary orders everything before it against
        everything after: closing any access epoch clears the window's
        interval state for this rank."""
        if phase != "close":
            return
        with self._lock:
            for key in [k for k in self._rma_spans if k[0] == rank and k[1] == win_id]:
                del self._rma_spans[key]

    def on_rma_violation(self, rank: int, win_id: int, rule: str, info: dict) -> None:
        """The window layer diagnosed a discipline violation (MA-R06)."""
        with self._lock:
            self.report.add(
                Finding(
                    rule,
                    f"{info.get('kind', 'op')} on win {win_id} target "
                    f"{info.get('target')} issued outside any access epoch "
                    "(no fence open, no start() group, no lock held)",
                    rank=rank,
                    details=tuple(sorted({"win": win_id, **info}.items())),
                )
            )

    # ------------------------------------------------------------- pins

    def on_pin(self, rank: int, slot: int) -> None:
        with self._lock:
            self._pins.setdefault(rank, {})[slot] = _PinRecord(slot, "pin")

    def on_unpin(self, rank: int, slot: int) -> None:
        with self._lock:
            rec = self._pins.get(rank, {}).get(slot)
            if rec is not None:
                rec.released = True

    def on_conditional_pin(self, rank: int, slot: int, is_active) -> None:
        with self._lock:
            self._pins.setdefault(rank, {})[slot] = _PinRecord(
                slot, "conditional", is_active=is_active
            )

    def on_conditional_drop(self, rank: int, slot: int) -> None:
        with self._lock:
            rec = self._pins.get(rank, {}).get(slot)
            if rec is not None:
                rec.released = True

    # ------------------------------------------------------------- finalize

    def finalize_rank(self, rank: int) -> None:
        """Post-run scan for rank-held leaks (MA-R05)."""
        with self._lock:
            for rec in self._pins.get(rank, {}).values():
                if rec.released:
                    continue
                if rec.kind == "pin":
                    self.report.add(
                        Finding(
                            "MA-R05",
                            f"pin on handle slot {rec.slot} never released "
                            "(unconditional pins must be unpinned by the caller)",
                            rank=rank,
                            details=(("slot", rec.slot), ("kind", "pin")),
                        )
                    )
                elif rec.is_active is not None and rec.is_active():
                    self.report.add(
                        Finding(
                            "MA-R05",
                            f"conditional pin on handle slot {rec.slot} still "
                            "active at finalize: its transport operation was "
                            "abandoned in flight",
                            rank=rank,
                            details=(("slot", rec.slot), ("kind", "conditional")),
                        )
                    )


class RankSanitizer:
    """One rank's spine subscriber: binds rank + clock, charges, delegates.

    ``enabled=False`` is the A12 "attached but disabled" configuration:
    every handler returns immediately after the branch, so the overhead
    ablation measures exactly the residue of carrying the hooks.
    """

    def __init__(self, core: Sanitizer, rank: int, clock=None, costs=None, enabled: bool = True) -> None:
        self.core = core
        self.rank = rank
        self.clock = clock
        self.costs = costs
        self.enabled = enabled

    def _charge(self, ns: float) -> None:
        if self.clock is not None:
            self.clock.charge(ns)

    # -- device events -----------------------------------------------------

    def on_send_posted(self, req: Request, dst: int, rndv: bool) -> None:
        if not self.enabled:
            return
        self._charge(self.costs.san_check_ns if self.costs else 0.0)
        self.core.on_send_post(self.rank, req, dst)

    def on_recv_posted(self, req: Request) -> None:
        if not self.enabled:
            return
        self._charge(self.costs.san_check_ns if self.costs else 0.0)
        self.core.on_recv_post(self.rank, req)

    def on_match(self, req: Request, src: int, send_op_id: int) -> None:
        """A receive matched a send: race check, then retire the send."""
        if not self.enabled:
            return
        self.core.on_recv_matched(self.rank, req, src)
        self.core.on_send_consumed(src, send_op_id)

    def on_wildcard_scan(self, tag_sel: int, comm_sel: int, sources: list[int]) -> None:
        if not self.enabled:
            return
        self.core.on_wildcard_scan(self.rank, tag_sel, comm_sel, sources)

    # -- one-sided (RMA) events --------------------------------------------

    def on_rma_op(self, win_id: int, kind: str, target: int, offset: int, nbytes: int, native: bool) -> None:
        if not self.enabled:
            return
        self._charge(self.costs.san_check_ns if self.costs else 0.0)
        self.core.on_rma_op(self.rank, win_id, kind, target, offset, nbytes, native)

    def on_rma_epoch(self, win_id: int, kind: str, phase: str) -> None:
        if not self.enabled:
            return
        self.core.on_rma_epoch(self.rank, win_id, kind, phase)

    def on_rma_violation(self, win_id: int, rule: str, info: dict) -> None:
        if not self.enabled:
            return
        self.core.on_rma_violation(self.rank, win_id, rule, info)

    # -- GC / pin-policy events --------------------------------------------

    def on_pin(self, addr: int, slot: int) -> None:
        if not self.enabled:
            return
        self.core.on_pin(self.rank, slot)

    def on_unpin(self, slot: int) -> None:
        if not self.enabled:
            return
        self.core.on_unpin(self.rank, slot)

    def on_cond_pin(self, addr: int, slot: int, is_active) -> None:
        if not self.enabled:
            return
        self.core.on_conditional_pin(self.rank, slot, is_active)

    def on_cond_drop(self, slot: int) -> None:
        if not self.enabled:
            return
        self.core.on_conditional_drop(self.rank, slot)

    def on_pin_decision(self, decision: str) -> None:
        if not self.enabled:
            return

    def finalize(self) -> None:
        if not self.enabled:
            return
        self.core.finalize_rank(self.rank)


# ---------------------------------------------------------------------------
# attachment (one spine per rank stack; mirrors repro.obs.instrument)
# ---------------------------------------------------------------------------


def attach_engine(san: RankSanitizer, engine) -> None:
    """Subscribe a rank's view to its MPI stack's hook spine."""
    engine.hooks.attach(san)


def attach_gc(san: RankSanitizer, gc) -> None:
    from repro.mp.hooks import spine_of

    spine_of(gc).attach(san)


def attach_vm(san: RankSanitizer, vm) -> None:
    """Extend over a Motor VM session: collector + pinning policy.

    The VM shares its engine's spine (``repro.mp.hooks.wire_vm``), so
    when :func:`attach_engine` already ran this is a no-op — the spine
    attach is idempotent.
    """
    vm.hooks.attach(san)
    attach_gc(san, vm.runtime.gc)


def detach_engine(engine, san: RankSanitizer | None = None) -> None:
    """Remove sanitizer subscriber(s) from an engine's spine."""
    spine = engine.hooks
    if san is not None:
        spine.detach(san)
        return
    for sub in list(spine.subscribers):
        if isinstance(sub, RankSanitizer):
            spine.detach(sub)
