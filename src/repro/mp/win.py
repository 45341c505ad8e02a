"""One-sided RMA windows: the third first-class transfer mode.

Beside eager and rendezvous, a :class:`Win` exposes a latched region of a
rank's memory to its peers for Put/Get/Accumulate — MPI-2 one-sided
semantics over the same seams the two-sided path uses:

* **Native lowering** — when the channel negotiates an RMA capability
  (:meth:`Channel.rma_caps`), an op lands with one direct write into the
  target's registered window memory (Liu et al.'s MPICH2-over-InfiniBand
  design: the target's message path is never involved).  Charged to the
  ``bytes_moved`` ledger with exactly **zero** ``bytes_copied``.
* **Emulated lowering** — any other transport lowers the op onto the
  existing :class:`Request` state machine and the packet plane: PUT/ACC
  chunks stream to the target, GET round-trips a GETRESP; the CH3 device
  lands them in the window (one copy/byte, same as eager delivery).
  The fallback is negotiated per *window*: a target that never
  registered native memory simply misses from the channel's registry and
  every origin degrades to packets — no flags to misconfigure.

Epoch discipline (all three MPI synchronization flavors):

* ``fence()`` — toggling active-target epochs over the whole group; the
  closing fence flushes, exchanges WSYNC packet counts and waits until
  every peer's announced ops have landed (per-source FIFO makes the
  count exact).
* ``post``/``start``/``complete``/``wait`` — generalized active target
  (PSCW): exposure and access epochs over explicit rank groups, carried
  by WPOST/WCOMPLETE control packets.
* ``lock``/``unlock`` — passive target: the *target's CH3 device* owns
  the lock table, granting/queueing WLOCK requests and acking WUNLOCK
  from its poll path, so a target blocked in pure compute still serves
  lock traffic whenever the async progress tick steps its device
  ("MPI Progress For All").

Target-side completion of every packet above is driven by
:meth:`CH3Device.poll` — i.e. by the progress engine, not by the
application calling into the window.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.mp.buffers import BufferDesc, accumulate_into
from repro.mp.errors import MpiErrRma
from repro.mp.packets import (
    ACC,
    GET,
    GETRESP,
    PUT,
    WCOMPLETE,
    WLOCK,
    WLOCKGRANT,
    WPOST,
    WSYNC,
    WUNLOCK,
    WUNLOCKACK,
    Packet,
)
from repro.mp.request import RECV, SEND, Request

#: element widths for window datatypes (accumulate chunk alignment)
DTYPE_WIDTH = {"byte": 1, "int32": 4, "int64": 8, "double": 8}

#: wall-clock bound on any epoch-closing wait
EPOCH_TIMEOUT = 60.0


class Win:
    """One rank's handle on a collectively created RMA window.

    Created through :meth:`MpiEngine.win_create`; all state —
    origin-side (outstanding ops, held locks) and target-side (landed
    counts, the lock table) — lives here, mutated by the application
    thread on the origin side and by the CH3 device's poll path on the
    target side.
    """

    def __init__(
        self,
        engine,
        win_id: int,
        desc: BufferDesc,
        comm,
        dtype: str = "byte",
        force_emulation: bool = False,
    ) -> None:
        if dtype not in DTYPE_WIDTH:
            raise MpiErrRma(f"window dtype must be one of {sorted(DTYPE_WIDTH)}")
        self.engine = engine
        self.device = engine.device
        self.id = win_id
        self.desc = desc
        self.comm = comm
        self.dtype = dtype
        self.peers: tuple[int, ...] = tuple(comm.group.ranks)  # world ranks
        self.rank = engine.rank  # world rank
        self.force_emulation = force_emulation
        #: ops the transport completes natively (empty => emulation only)
        self.caps: frozenset[str] = (
            frozenset() if force_emulation else engine.device.channel.rma_caps()
        )
        self.freed = False

        #: max causal floor of one-sided arrivals not yet consumed by a
        #: synchronization call (see :meth:`note_floor`)
        self._floor_ns = 0.0

        # -- origin-side epoch state --------------------------------------
        self._fence_open = False
        self._fence_round = 0  # closing fences completed
        self._access_group: set[int] | None = None  # PSCW start() targets
        self._lock_held: dict[int, str] = {}  # target -> "excl"|"shared"
        self._reqs: list[Request] = []  # outstanding emulated op requests
        self._sent = defaultdict(int)  # target -> emulated packets, cumulative
        self._grants: set[int] = set()  # lock grants received, unconsumed
        self._posts = defaultdict(int)  # target -> WPOSTs received, cumulative
        self._posts_used = defaultdict(int)
        self._unlock_acks = defaultdict(int)  # target -> acks, cumulative
        self._unlock_used = defaultdict(int)
        self._pending_gets: dict[int, Request] = {}  # op_id -> recv request

        # -- target-side state (device poll path) -------------------------
        self._exposure_group: set[int] | None = None  # PSCW post() origins
        self._landed = defaultdict(int)  # src -> emulated packets landed
        self._announced = defaultdict(int)  # src -> packets owed, cumulative
        self._sync_rounds = defaultdict(int)  # src -> WSYNCs received
        self._completes = defaultdict(int)  # src -> WCOMPLETEs received
        self._completes_used = defaultdict(int)
        self._lock_state: tuple[str, set[int]] | None = None
        self._lock_queue: deque[Packet] = deque()

    # ------------------------------------------------------------ plumbing

    def _check_usable(self) -> None:
        if self.freed:
            raise MpiErrRma(f"window {self.id} already freed")

    def _check_range(self, offset: int, nbytes: int, target: int) -> None:
        # every window in the group has the local extent (symmetric
        # allocation): range-check against our own descriptor
        if offset < 0 or nbytes < 0 or offset + nbytes > self.desc.nbytes:
            raise MpiErrRma(
                f"window access [{offset}, {offset + nbytes}) outside "
                f"window of {self.desc.nbytes} bytes (target {target})"
            )

    def _world_target(self, target: int) -> int:
        return self.comm.world_rank_of(target)

    def _in_access_epoch(self, wtarget: int) -> bool:
        return (
            self._fence_open
            or (self._access_group is not None and wtarget in self._access_group)
            or wtarget in self._lock_held
        )

    def _pre_op(self, kind: str, wtarget: int, offset: int, nbytes: int, native: bool) -> None:
        h = self.engine.hooks
        cbs = h.rma_op
        if cbs:
            for cb in cbs:
                cb(self.id, kind, wtarget, offset, nbytes, native)
        if not self._in_access_epoch(wtarget):
            # epoch-discipline violation: report (MA-R06) and tolerate,
            # like the other runtime sanitizer rules — semantics preserved,
            # the finding carries the diagnosis
            vbs = h.rma_violation
            if vbs:
                for cb in vbs:
                    cb(
                        self.id,
                        "MA-R06",
                        {
                            "kind": kind,
                            "target": wtarget,
                            "offset": offset,
                            "nbytes": nbytes,
                        },
                    )

    def _epoch_event(self, kind: str, phase: str) -> None:
        cbs = self.engine.hooks.rma_epoch
        if cbs:
            for cb in cbs:
                cb(self.id, kind, phase)

    def note_floor(self, ts: float) -> None:
        """Record the causal floor of a one-sided arrival (device side).

        Parked here instead of on the clock so an unrelated wait cannot
        fold it early; see ``CH3Device._handle_rma``.
        """
        if ts > self._floor_ns:
            self._floor_ns = ts

    def _consume_sync(self) -> None:
        """Fold parked one-sided arrival floors into the clock.

        The synchronization call that reads the landed counters is where
        the receiver logically observes the epoch, so that is where the
        floor is applied.
        """
        f = self._floor_ns
        if f > 0.0:
            self._floor_ns = 0.0
            self.device.clock.merge(f)
        if self.device.clock.pending_ns:
            self.device.clock.apply_pending()

    def _chunks(self, offset: int, nbytes: int):
        """Packetize an emulated op at the device's stream chunk size,
        aligned down to the window element width."""
        step = max(
            DTYPE_WIDTH[self.dtype],
            self.device.packet_size - self.device.packet_size % DTYPE_WIDTH[self.dtype],
        )
        pos = 0
        while pos < nbytes:
            n = min(step, nbytes - pos)
            yield offset + pos, pos, n
            pos += n

    # ------------------------------------------------------------ the ops

    def put(self, src: BufferDesc, target: int, target_offset: int = 0) -> None:
        """One-sided write of ``src`` into the target window."""
        self._check_usable()
        wtarget = self._world_target(target)
        n = src.nbytes
        self._check_range(target_offset, n, target)
        # per-window negotiation: the capability is the channel's, but the
        # *target* must have registered native memory — a miss degrades
        # this one op to the packet plane, never raises
        native = "put" in self.caps and self.device.channel.rma_put(
            self.id, wtarget, target_offset, src.view()
        )
        self._pre_op("put", wtarget, target_offset, n, native)
        if native:
            self.device.stats["bytes_moved"] += n
            self.device.stats["rma_native_ops"] += 1
            return
        self._emulated_stream(PUT, src, wtarget, target_offset, n)

    def get(self, dst: BufferDesc, target: int, target_offset: int = 0) -> None:
        """One-sided read from the target window into ``dst``."""
        self._check_usable()
        wtarget = self._world_target(target)
        n = dst.nbytes
        self._check_range(target_offset, n, target)
        native = "get" in self.caps and self.device.channel.rma_get(
            self.id, wtarget, target_offset, dst.view()
        )
        self._pre_op("get", wtarget, target_offset, n, native)
        if native:
            self.device.stats["bytes_moved"] += n
            self.device.stats["rma_native_ops"] += 1
            return
        # emulated: one GET request; the target's device streams GETRESP
        # chunks back and the origin's device completes the request
        req = Request(
            RECV, dst, wtarget, self.id, self.comm.context_id, total=n,
            hooks=self.engine.hooks,
        )
        req.activate()
        self._pending_gets[req.op_id] = req
        self._reqs.append(req)
        self._sent[wtarget] += 1
        self.device.stats["rma_emulated_ops"] += 1
        self.device._emit(
            Packet(
                ptype=GET,
                src=self.rank,
                dst=wtarget,
                tag=self.id,
                comm_id=self.comm.context_id,
                op_id=req.op_id,
                offset=target_offset,
                total=n,
            )
        )

    def accumulate(self, src: BufferDesc, target: int, target_offset: int = 0) -> None:
        """One-sided element-wise sum of ``src`` into the target window."""
        self._check_usable()
        wtarget = self._world_target(target)
        n = src.nbytes
        self._check_range(target_offset, n, target)
        width = DTYPE_WIDTH[self.dtype]
        if n % width or target_offset % width:
            raise MpiErrRma(
                f"accumulate not aligned to {self.dtype} elements "
                f"(offset {target_offset}, {n} bytes)"
            )
        native = "accumulate" in self.caps and self.device.channel.rma_accumulate(
            self.id, wtarget, target_offset, src.view(), self.dtype,
        )
        self._pre_op("acc", wtarget, target_offset, n, native)
        if native:
            self.device.stats["bytes_moved"] += n
            self.device.stats["rma_native_ops"] += 1
            return
        self._emulated_stream(ACC, src, wtarget, target_offset, n)

    def _emulated_stream(
        self, ptype: int, src: BufferDesc, wtarget: int, target_offset: int, n: int
    ) -> None:
        """Lower a put/accumulate onto the Request state machine: stream
        chunk packets through the two-sided plane.  Channels consume the
        payload views synchronously, so the request completes locally on
        hand-off (remote completion is the epoch close's business)."""
        req = Request(
            SEND, src, wtarget, self.id, self.comm.context_id, total=n,
            hooks=self.engine.hooks,
        )
        req.wdst = wtarget
        req.activate()
        self.device.stats["rma_emulated_ops"] += 1
        for t_off, s_off, size in self._chunks(target_offset, n):
            self._sent[wtarget] += 1
            self.device._emit(
                Packet(
                    ptype=ptype,
                    src=self.rank,
                    dst=wtarget,
                    tag=self.id,
                    comm_id=self.comm.context_id,
                    op_id=req.op_id,
                    offset=t_off,
                    total=n,
                    payload=src.read(s_off, size),
                )
            )
            req.cursor += size
        req.bytes_moved = n
        req.complete()

    # ------------------------------------------------------------ fence

    def fence(self) -> None:
        """Toggle a fence epoch over the whole group.

        The opening fence is a plain synchronization; the closing fence
        flushes local ops, announces per-target packet counts (WSYNC)
        and waits until every peer announced *and* everything announced
        to us has landed.
        """
        self._check_usable()
        if not self._fence_open:
            self._epoch_event("fence", "open")
            self.engine.barrier(self.comm)
            self._fence_open = True
            return
        self._flush_local()
        rnd = self._fence_round
        for peer in self.peers:
            if peer == self.rank:
                continue
            self.device._emit(
                Packet(
                    ptype=WSYNC,
                    src=self.rank,
                    dst=peer,
                    tag=self.id,
                    comm_id=self.comm.context_id,
                    op_id=self._sent[peer],
                    offset=rnd,
                )
            )
        others = [p for p in self.peers if p != self.rank]
        self.engine.progress.poll_until(
            lambda: all(
                self._sync_rounds[p] > rnd and self._landed[p] >= self._announced[p]
                for p in others
            ),
            timeout=EPOCH_TIMEOUT,
            what=f"win {self.id} fence round {rnd}",
        )
        self._consume_sync()
        self._fence_round += 1
        self._fence_open = False
        self._epoch_event("fence", "close")

    # ------------------------------------------------------------ PSCW

    def post(self, origins) -> None:
        """Open an exposure epoch toward ``origins`` (group ranks)."""
        self._check_usable()
        if self._exposure_group is not None:
            raise MpiErrRma(f"window {self.id}: exposure epoch already open")
        worigins = {self._world_target(o) for o in origins}
        self._exposure_group = worigins
        self._epoch_event("pscw-exposure", "open")
        for o in worigins:
            self.device._emit(
                Packet(
                    ptype=WPOST, src=self.rank, dst=o, tag=self.id,
                    comm_id=self.comm.context_id,
                )
            )

    def start(self, targets) -> None:
        """Open an access epoch toward ``targets``; waits for their posts."""
        self._check_usable()
        if self._access_group is not None:
            raise MpiErrRma(f"window {self.id}: access epoch already open")
        wtargets = {self._world_target(t) for t in targets}
        self.engine.progress.poll_until(
            lambda: all(self._posts[t] > self._posts_used[t] for t in wtargets),
            timeout=EPOCH_TIMEOUT,
            what=f"win {self.id} start: waiting for posts",
        )
        self._consume_sync()
        for t in wtargets:
            self._posts_used[t] += 1
        self._access_group = wtargets
        self._epoch_event("pscw-access", "open")

    def complete(self) -> None:
        """Close the access epoch: flush and notify every target."""
        self._check_usable()
        if self._access_group is None:
            raise MpiErrRma(f"window {self.id}: complete() without start()")
        self._flush_local()
        for t in self._access_group:
            self.device._emit(
                Packet(
                    ptype=WCOMPLETE,
                    src=self.rank,
                    dst=t,
                    tag=self.id,
                    comm_id=self.comm.context_id,
                    op_id=self._sent[t],
                )
            )
        self._access_group = None
        self._epoch_event("pscw-access", "close")

    def wait(self) -> None:
        """Close the exposure epoch: wait for every origin's complete."""
        self._check_usable()
        if self._exposure_group is None:
            raise MpiErrRma(f"window {self.id}: wait() without post()")
        origins = [o for o in self._exposure_group if o != self.rank]
        self.engine.progress.poll_until(
            lambda: all(
                self._completes[o] > self._completes_used[o]
                and self._landed[o] >= self._announced[o]
                for o in origins
            ),
            timeout=EPOCH_TIMEOUT,
            what=f"win {self.id} wait: waiting for completes",
        )
        self._consume_sync()
        for o in origins:
            self._completes_used[o] += 1
        self._exposure_group = None
        self._epoch_event("pscw-exposure", "close")

    # ------------------------------------------------------------ passive

    def lock(self, target: int, exclusive: bool = True) -> None:
        """Open a passive-target epoch; blocks until the *target's
        device* grants (the application there need not call in)."""
        self._check_usable()
        wtarget = self._world_target(target)
        if wtarget in self._lock_held:
            raise MpiErrRma(f"window {self.id}: lock({target}) already held")
        self.device._emit(
            Packet(
                ptype=WLOCK,
                src=self.rank,
                dst=wtarget,
                tag=self.id,
                comm_id=self.comm.context_id,
                sync=exclusive,
            )
        )
        self.engine.progress.poll_until(
            lambda: wtarget in self._grants,
            timeout=EPOCH_TIMEOUT,
            what=f"win {self.id} lock({target})",
        )
        self._consume_sync()
        self._grants.discard(wtarget)
        self._lock_held[wtarget] = "excl" if exclusive else "shared"
        self._epoch_event("lock", "open")

    def unlock(self, target: int) -> None:
        """Close the passive epoch; returns once the target acked (all
        ops have landed remotely)."""
        self._check_usable()
        wtarget = self._world_target(target)
        if wtarget not in self._lock_held:
            raise MpiErrRma(f"window {self.id}: unlock({target}) without lock")
        self._flush_local()
        self.device._emit(
            Packet(
                ptype=WUNLOCK,
                src=self.rank,
                dst=wtarget,
                tag=self.id,
                comm_id=self.comm.context_id,
                op_id=self._sent[wtarget],
            )
        )
        self.engine.progress.poll_until(
            lambda: self._unlock_acks[wtarget] > self._unlock_used[wtarget],
            timeout=EPOCH_TIMEOUT,
            what=f"win {self.id} unlock({target})",
        )
        self._consume_sync()
        self._unlock_used[wtarget] += 1
        del self._lock_held[wtarget]
        self._epoch_event("lock", "close")

    # ------------------------------------------------------------ teardown

    def _flush_local(self) -> None:
        """Wait until every outstanding emulated request completed
        locally (GETs: the response landed)."""
        for req in self._reqs:
            if not req.completed:
                self.engine.progress.wait(req, timeout=EPOCH_TIMEOUT)
        self._consume_sync()
        self._reqs.clear()

    def free(self) -> None:
        """Collectively release the window (idempotent)."""
        if self.freed:
            return
        if self._fence_open:
            # tolerate a missing closing fence by running a real one:
            # in-flight emulated ops must land remotely before any peer
            # deregisters its side, or their packets hit a dead window
            self.fence()
        self._flush_local()
        self.device.channel.rma_deregister(self.id, self.rank)
        self.device.remove_window(self.id)
        self.freed = True
        self.engine.barrier(self.comm)

    # ---------------------------------------------------- device callbacks
    # Everything below runs on the target's poll path — i.e. whenever the
    # progress engine (polled or async) steps the device.

    def _on_put(self, pkt: Packet) -> None:
        n = len(pkt.payload)
        self.device.stats["bytes_moved"] += n
        self.device.clock.charge(self.device.costs.copy_per_byte_ns * n)
        self.device._copied("rma-land", n)
        self.desc.write(pkt.offset, pkt.payload_mv())
        self._landed[pkt.src] += 1

    def _on_acc(self, pkt: Packet) -> None:
        n = len(pkt.payload)
        self.device.stats["bytes_moved"] += n
        self.device.clock.charge(self.device.costs.copy_per_byte_ns * 2 * n)
        self.device._copied("rma-acc", n)
        accumulate_into(self.desc.read(pkt.offset, n), pkt.payload_mv(), self.dtype)
        self._landed[pkt.src] += 1

    def _on_get(self, pkt: Packet) -> None:
        # serve the read: stream GETRESP chunks back from the window.
        # The target's CPU does this work — exactly what the native path
        # avoids — so it is charged to the target's clock via _emit.
        self._landed[pkt.src] += 1
        for t_off, d_off, size in self._chunks(pkt.offset, pkt.total):
            self.device._emit(
                Packet(
                    ptype=GETRESP,
                    src=self.rank,
                    dst=pkt.src,
                    tag=self.id,
                    comm_id=pkt.comm_id,
                    op_id=pkt.op_id,
                    offset=d_off,
                    total=pkt.total,
                    payload=self.desc.read(t_off, size),
                )
            )

    def _on_getresp(self, pkt: Packet) -> None:
        req = self._pending_gets.get(pkt.op_id)
        if req is None:
            return  # response to a request a failed epoch abandoned
        n = len(pkt.payload)
        self.device.stats["bytes_moved"] += n
        self.device.clock.charge(self.device.costs.copy_per_byte_ns * n)
        self.device._copied("rma-get-land", n)
        req.buf.write(pkt.offset, pkt.payload_mv())
        req.bytes_moved += n
        if req.bytes_moved >= req.total:
            del self._pending_gets[pkt.op_id]
            req.complete()

    def _on_wsync(self, pkt: Packet) -> None:
        self._announced[pkt.src] = max(self._announced[pkt.src], pkt.op_id)
        self._sync_rounds[pkt.src] = pkt.offset + 1

    def _on_wpost(self, pkt: Packet) -> None:
        self._posts[pkt.src] += 1

    def _on_wcomplete(self, pkt: Packet) -> None:
        self._announced[pkt.src] = max(self._announced[pkt.src], pkt.op_id)
        self._completes[pkt.src] += 1

    def _on_wlock(self, pkt: Packet) -> None:
        exclusive = bool(pkt.sync)
        if self._grantable(exclusive):
            self._grant_lock(pkt.src, exclusive)
        else:
            self._lock_queue.append(pkt)

    def _grantable(self, exclusive: bool) -> bool:
        if self._lock_state is None:
            return True
        mode, _owners = self._lock_state
        return not exclusive and mode == "shared"

    def _grant_lock(self, origin: int, exclusive: bool) -> None:
        mode = "excl" if exclusive else "shared"
        if self._lock_state is None:
            self._lock_state = (mode, {origin})
        else:
            self._lock_state[1].add(origin)
        self.device._emit(
            Packet(
                ptype=WLOCKGRANT, src=self.rank, dst=origin, tag=self.id,
                comm_id=self.comm.context_id,
            )
        )

    def _on_wlockgrant(self, pkt: Packet) -> None:
        self._grants.add(pkt.src)

    def _on_wunlock(self, pkt: Packet) -> None:
        # per-source FIFO: every op packet the origin issued under the
        # lock was handled before this unlock, so landing is complete
        self._announced[pkt.src] = max(self._announced[pkt.src], pkt.op_id)
        if self._lock_state is not None:
            mode, owners = self._lock_state
            owners.discard(pkt.src)
            if not owners:
                self._lock_state = None
        self.device._emit(
            Packet(
                ptype=WUNLOCKACK, src=self.rank, dst=pkt.src, tag=self.id,
                comm_id=self.comm.context_id,
            )
        )
        # hand the lock to waiters now compatible
        while self._lock_queue and self._grantable(bool(self._lock_queue[0].sync)):
            nxt = self._lock_queue.popleft()
            self._grant_lock(nxt.src, bool(nxt.sync))

    def _on_wunlockack(self, pkt: Packet) -> None:
        self._unlock_acks[pkt.src] += 1

    def __repr__(self) -> str:
        return (
            f"<Win {self.id} rank={self.rank} {self.desc.nbytes}B "
            f"{self.dtype} caps={sorted(self.caps)}>"
        )
