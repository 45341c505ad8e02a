"""Coordinated checkpoint/restart and survivor agreement.

This is the self-healing layer over the failure *semantics* of the
reliability sublayer: the reliability layer turns silence into
``MPI_ERR_PROC_FAILED``; this module turns that into a protocol the
application can actually recover through —

* :meth:`RecoveryManager.agree` — a message-based agreement primitive
  over the survivors of a communicator (ULFM's ``MPI_Comm_agree``).  A
  deterministic coordinator (the lowest-ranked rank not known failed)
  collects one contribution per survivor, folds them, and fans the
  result back out.  A coordinator that dies mid-protocol is detected
  the same way any peer is (retransmit exhaustion / heartbeats), and
  the survivors re-run the round against the next coordinator.  The
  protocol is pure point-to-point traffic on reserved tags, so it is
  expressible unchanged over a real wire.
* :meth:`RecoveryManager.checkpoint` / :meth:`RecoveryManager.restore`
  — a coordinated application-level checkpoint: every rank of the
  communicator snapshots its local state (any codec-encodable value),
  the blobs are replicated off-rank (gathered at the root, or mirrored
  to each rank's right-hand neighbour), and a commit barrier makes the
  epoch durable.  A failure anywhere before the barrier leaves the
  epoch uncommitted — it is rolled back, never half-restored.
* :func:`recover` — the full detect → agree → shrink → replace →
  restore sequence, driving :meth:`repro.cluster.world.World
  .replace_failed` and resynchronising the checkpoint store so the
  replacement ranks restart from the last *committed* epoch.

Failure-detection accuracy: the simulated detector never accuses a live
peer unless a partition outlasts the retransmit budget, so the
agreement here assumes detection is eventually accurate (fault plans
that partition links must heal them inside the budget, or accept that a
partitioned rank is treated as dead — the classic fail-stop model).

State crosses the wire by value, through the same data plane as every
other payload, so checkpoint traffic shows up in the device's
``bytes_moved``/``bytes_copied`` ledger like any application byte.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.errors import MpiErrComm, MpiErrProcFailed
from repro.mp.matching import ANY_SOURCE
from repro.mp.reliability import PROC_FAILED

#: reserved tags, above the collective tag block ((1 << 20) + 1 .. + 9)
_TAG_AGREE_CONTRIB = (1 << 20) + 16
_TAG_AGREE_RESULT = (1 << 20) + 17
_TAG_SNAPSHOT = (1 << 20) + 18
_TAG_SNAPSHOT_HDR = (1 << 20) + 19

#: wire format of one agreement message: seq, failed-bitmap, value
_AGREE_FMT = "<qQq"
_AGREE_NBYTES = struct.calcsize(_AGREE_FMT)

#: agreement folds (a tiny subset of the collective ops; ``band`` is the
#: ULFM default, ``max`` derives shrink epochs)
_AGREE_OPS = {
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "min": min,
    "max": max,
}


# -- deterministic state codec -------------------------------------------------
#
# Checkpoint payloads must cross the wire as bytes without pickle (the
# encoding is part of the protocol, so a future real mode speaks it too).
# Tagged, length-prefixed, supports the plain-data types rank-local
# recovery state is made of.

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"f"
_T_BYTES = b"b"
_T_STR = b"s"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_DICT = b"d"


def encode_state(obj: Any) -> bytes:
    """Encode a plain-data value (None/bool/int/float/bytes/str/list/
    tuple/dict) into the deterministic checkpoint wire format."""
    out: list[bytes] = []
    _enc(obj, out)
    return b"".join(out)


def _enc(obj: Any, out: list[bytes]) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif isinstance(obj, int):
        raw = obj.to_bytes((obj.bit_length() + 8) // 8 + 1, "little", signed=True)
        out.append(_T_INT + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, float):
        out.append(_T_FLOAT + struct.pack("<d", obj))
    elif isinstance(obj, bytes):
        out.append(_T_BYTES + struct.pack("<I", len(obj)) + obj)
    elif isinstance(obj, str):
        raw = obj.encode()
        out.append(_T_STR + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, (list, tuple)):
        out.append((_T_LIST if isinstance(obj, list) else _T_TUPLE)
                   + struct.pack("<I", len(obj)))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, dict):
        out.append(_T_DICT + struct.pack("<I", len(obj)))
        for k, v in obj.items():
            _enc(k, out)
            _enc(v, out)
    else:
        raise TypeError(f"checkpoint state cannot encode {type(obj).__name__}")


def decode_state(data: bytes) -> Any:
    obj, pos = _dec(data, 0)
    if pos != len(data):
        raise ValueError(f"trailing checkpoint bytes at offset {pos}")
    return obj


def _dec(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos:pos + 1]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    (n,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if tag == _T_INT:
        return int.from_bytes(data[pos:pos + n], "little", signed=True), pos + n
    if tag == _T_BYTES:
        return data[pos:pos + n], pos + n
    if tag == _T_STR:
        return data[pos:pos + n].decode(), pos + n
    if tag in (_T_LIST, _T_TUPLE):
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        d = {}
        for _ in range(n):
            k, pos = _dec(data, pos)
            v, pos = _dec(data, pos)
            d[k] = v
        return d, pos
    raise ValueError(f"unknown checkpoint type tag {tag!r} at offset {pos - 1}")


# -- length-prefixed blob point-to-point ---------------------------------------


def send_blob(engine, comm, dst: int, blob: bytes, tag: int = _TAG_SNAPSHOT) -> None:
    """Send a variable-length blob on a reserved tag (header then payload)."""
    hdr = BufferDesc.from_bytes(struct.pack("<q", len(blob)))
    engine.send(hdr, dst, tag + 1, comm, _internal=True)
    engine.send(BufferDesc.from_bytes(blob), dst, tag, comm, _internal=True)


def recv_blob(engine, comm, src: int, tag: int = _TAG_SNAPSHOT) -> tuple[int, bytes]:
    """Receive a blob sent by :func:`send_blob`; returns (source, bytes).

    ``src`` may be ``ANY_SOURCE`` for the header; the payload is then
    received from the specific source the header named, so peer-failure
    detection covers the payload wait.
    """
    hdr = BufferDesc.from_native(NativeMemory(8))
    st = engine.recv(hdr, src, tag + 1, comm, _internal=True)
    (n,) = struct.unpack("<q", hdr.tobytes())
    src = st.source
    payload = BufferDesc.from_native(NativeMemory(n))
    engine.recv(payload, src, tag, comm, _internal=True)
    return src, payload.tobytes()


# -- the manager ---------------------------------------------------------------


class RecoveryManager:
    """One rank's agreement protocol state and checkpoint store."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: comm context id -> completed agreement sequence number
        self._agree_seq: dict[int, int] = {}
        #: committed checkpoint epoch (0 = none)
        self.committed_epoch = 0
        #: highest epoch ever attempted (committed or not)
        self.last_epoch = 0
        #: epoch -> {comm-local slot: encoded state blob}
        self._snapshots: dict[int, dict[int, bytes]] = {}
        #: placement of the most recent checkpoint ("root" or "peer")
        self.placement = "root"
        self.stats = {
            "agrees": 0,
            "agree_rounds": 0,
            "checkpoints_taken": 0,
            "bytes_snapshotted": 0,
            "restores": 0,
            "epochs_rolled_back": 0,
            "recoveries": 0,
            "ranks_replaced": 0,
            "recovery_latency_ns": 0,
        }

    # -- failure knowledge -----------------------------------------------------

    def known_failed(self, comm) -> set[int]:
        """Comm-local ranks this rank's detector has declared failed."""
        out = set()
        for w in self.engine.device.failed_ranks:
            if comm.group.contains(w):
                out.add(comm.group.local_rank(w))
        return out

    # -- agreement -------------------------------------------------------------

    def agree(self, comm, value: int = -1, op: str = "band",
              timeout: float | None = 60.0) -> tuple[int, frozenset]:
        """Agree on ``op``-fold of every survivor's ``value``.

        Returns ``(folded_value, failed_world_ranks)``.  Collective over
        the communicator's survivors; the failed set in the result is
        the agreed union of what every survivor detected, so all
        survivors return identical values even when their local
        detectors disagreed at call time.
        """
        if op not in _AGREE_OPS:
            raise KeyError(f"unknown agree op {op!r} (have {sorted(_AGREE_OPS)})")
        engine = self.engine
        seq = self._agree_seq.get(comm.context_id, 0) + 1
        known = self.known_failed(comm)
        if comm.rank in known:
            raise MpiErrComm("a failed rank cannot join an agreement")
        while True:
            live = [r for r in range(comm.size) if r not in known]
            coord = live[0]
            role = "lead" if comm.rank == coord else "follow"
            self.stats["agree_rounds"] += 1
            if role == "lead":
                result = self._agree_lead(comm, seq, value, op, known, timeout)
            else:
                result = self._agree_follow(comm, seq, value, coord, known, timeout)
            cbs = engine.hooks.agree_round
            if cbs:
                survivors = comm.size - len(known)
                for cb in cbs:
                    cb(seq, role, survivors)
            if result is not None:
                folded, bitmap = result
                self._agree_seq[comm.context_id] = seq
                self.stats["agrees"] += 1
                failed_world = frozenset(
                    comm.group.world_rank(i)
                    for i in range(comm.size) if bitmap & (1 << i)
                )
                # adopt the agreed failure knowledge locally
                known_now = {comm.group.local_rank(w) for w in failed_world}
                if comm.rank in known_now:
                    raise MpiErrComm("agreement declared this rank failed")
                return folded, failed_world
            # the coordinator died mid-round: refresh and retry
            known |= self.known_failed(comm)

    def _bitmap(self, ranks) -> int:
        bits = 0
        for r in ranks:
            bits |= 1 << r
        return bits

    def _agree_lead(self, comm, seq: int, value: int, op: str,
                    known: set[int], timeout: float | None):
        """Coordinator side: collect one contribution per survivor, fold,
        fan the result out.  Returns (folded, failed_bitmap)."""
        engine = self.engine
        fold = _AGREE_OPS[op]
        contributions: dict[int, tuple[int, int]] = {comm.rank: (value, self._bitmap(known))}
        pending: dict[int, tuple] = {}  # local rank -> (req, buf)

        def expect(r: int):
            buf = BufferDesc.from_native(NativeMemory(_AGREE_NBYTES))
            req = engine.irecv(buf, r, _TAG_AGREE_CONTRIB, comm, _internal=True)
            pending[r] = (req, buf)

        def collected() -> bool:
            for r, (req, buf) in list(pending.items()):
                if not req.completed:
                    continue
                del pending[r]
                if req.status.error == PROC_FAILED:
                    known.add(r)
                    continue
                cseq, cbits, cval = struct.unpack(_AGREE_FMT, buf.tobytes())
                if cseq != seq:
                    expect(r)  # stale leftover from an earlier sequence
                    continue
                contributions[r] = (cval, cbits)
                # a follower may know failures we don't; stop waiting on them
                for i in range(comm.size):
                    if cbits & (1 << i) and i in pending:
                        dead_req, _ = pending.pop(i)
                        engine.cancel(dead_req)
                        known.add(i)
            return not pending

        for r in range(comm.size):
            if r != comm.rank and r not in known:
                expect(r)
        engine.progress.poll_until(collected, timeout, f"agreement {seq}: every contribution")
        folded = None
        bits = self._bitmap(known)
        for r in sorted(contributions):
            v, b = contributions[r]
            if r in known:
                continue
            folded = v if folded is None else fold(folded, v)
            bits |= b
        result = struct.pack(_AGREE_FMT, seq, bits, folded)
        for r in sorted(contributions):
            if r == comm.rank or r in known:
                continue
            engine.isend(BufferDesc.from_bytes(result), r, _TAG_AGREE_RESULT,
                         comm, _internal=True)
        return folded, bits

    def _agree_follow(self, comm, seq: int, value: int, coord: int,
                      known: set[int], timeout: float | None):
        """Follower side: contribute to the coordinator, await the result.
        Returns (folded, failed_bitmap), or None if the coordinator died."""
        engine = self.engine
        contrib = struct.pack(_AGREE_FMT, seq, self._bitmap(known), value)
        sreq = engine.isend(BufferDesc.from_bytes(contrib), coord,
                            _TAG_AGREE_CONTRIB, comm, _internal=True)
        buf = rreq = result = None

        def expect() -> None:
            nonlocal buf, rreq
            buf = BufferDesc.from_native(NativeMemory(_AGREE_NBYTES))
            rreq = engine.irecv(buf, coord, _TAG_AGREE_RESULT, comm, _internal=True)

        def answered() -> bool:
            nonlocal result
            if sreq.completed and sreq.status.error == PROC_FAILED and not rreq.completed:
                engine.cancel(rreq)
                return True
            if not rreq.completed:
                return False
            if rreq.status.error == PROC_FAILED or rreq.status.cancelled:
                return True  # asked again after the cancel above: still over
            rseq, bits, folded = struct.unpack(_AGREE_FMT, buf.tobytes())
            if rseq != seq:
                expect()  # stale result from an earlier sequence; keep waiting
                return False
            result = folded, bits
            return True

        expect()
        engine.progress.poll_until(answered, timeout,
                                   f"agreement {seq}: the result from rank {coord}")
        return result

    # -- shrink epochs ---------------------------------------------------------

    def shrink_agree(self, comm) -> tuple[int, frozenset]:
        """Agree on the context epoch for a shrunken communicator.

        Folds ``max`` over every survivor's engine-local shrink counter,
        so survivors whose counters drifted (one shrank a sub-communicator
        the others never saw) still derive one shared epoch — the
        message-based replacement for the old engine-global counter.
        """
        epoch, failed = self.agree(comm, self.engine._shrink_count + 1, op="max")
        self.engine._shrink_count = epoch
        return epoch, failed

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self, comm, state: Any, placement: str | None = None,
                   root: int = 0) -> int:
        """Coordinated checkpoint; collective over ``comm``.

        Encodes ``state``, replicates the blob off-rank (``"root"``:
        gathered at ``root``; ``"peer"``: mirrored to the right-hand
        neighbour), then commits the epoch with a barrier.  Returns the
        committed epoch.  A failure before the barrier propagates as
        :class:`MpiErrProcFailed` and the epoch stays uncommitted.
        """
        from repro.mp import collectives

        engine = self.engine
        if placement is None:
            placement = self.placement
        if placement not in ("root", "peer"):
            raise ValueError(f"unknown snapshot placement {placement!r}")
        self.placement = placement
        epoch = max(self.committed_epoch, self.last_epoch) + 1
        self.last_epoch = epoch
        blob = encode_state(state)
        with collectives._region(engine, "recovery.checkpoint",
                                 epoch=epoch, bytes=len(blob)):
            try:
                slots = self._snapshots.setdefault(epoch, {})
                slots[comm.rank] = blob
                if placement == "root":
                    gathered = collectives.gather_bytes(engine, comm, blob, root)
                    if comm.rank == root:
                        for slot, b in enumerate(gathered):
                            slots[slot] = b
                elif comm.size > 1:
                    # mirror to the right-hand neighbour: a ring shift of
                    # header-then-payload, both directions posted before
                    # either wait so the exchange cannot deadlock
                    right = (comm.rank + 1) % comm.size
                    left = (comm.rank - 1) % comm.size
                    mirror = BufferDesc.from_native(NativeMemory(8))
                    rh = engine.irecv(mirror, left, _TAG_SNAPSHOT_HDR, comm,
                                      _internal=True)
                    sh = engine.isend(
                        BufferDesc.from_bytes(struct.pack("<q", len(blob))),
                        right, _TAG_SNAPSHOT_HDR, comm, _internal=True,
                    )
                    engine.progress.wait(rh)
                    engine.progress.wait(sh)
                    (n,) = struct.unpack("<q", mirror.tobytes())
                    theirs = BufferDesc.from_native(NativeMemory(n))
                    rp = engine.irecv(theirs, left, _TAG_SNAPSHOT, comm,
                                      _internal=True)
                    sp = engine.isend(BufferDesc.from_bytes(blob), right,
                                      _TAG_SNAPSHOT, comm, _internal=True)
                    engine.progress.wait(rp)
                    engine.progress.wait(sp)
                    slots[left] = theirs.tobytes()
                # commit: nobody is durable until everybody has replicated
                collectives.barrier(engine, comm)
            except (MpiErrProcFailed, MpiErrComm):
                self._snapshots.pop(epoch, None)
                self.stats["epochs_rolled_back"] += 1
                raise
        self.committed_epoch = epoch
        # drop superseded epochs, keeping one predecessor: commit is a
        # barrier, but a failure can split ranks across the commit line,
        # and resync may roll the authoritative epoch back by one
        for old in [e for e in self._snapshots if e < epoch - 1]:
            del self._snapshots[old]
        self.stats["checkpoints_taken"] += 1
        self.stats["bytes_snapshotted"] += len(blob)
        cbs = engine.hooks.checkpoint_taken
        if cbs:
            for cb in cbs:
                cb(epoch, len(blob))
        return epoch

    def restore(self, comm, epoch: int | None = None) -> Any:
        """Rank-local state from the last committed epoch (or ``epoch``)."""
        if epoch is None:
            epoch = self.committed_epoch
        if epoch <= 0:
            raise MpiErrComm("no committed checkpoint epoch to restore")
        slots = self._snapshots.get(epoch)
        blob = None if slots is None else slots.get(comm.rank)
        if blob is None:
            raise MpiErrComm(
                f"rank {comm.rank} holds no snapshot for epoch {epoch}"
            )
        if self.last_epoch > epoch:
            self.stats["epochs_rolled_back"] += self.last_epoch - epoch
            self.last_epoch = epoch
        self.stats["restores"] += 1
        cbs = self.engine.hooks.checkpoint_restored
        if cbs:
            for cb in cbs:
                cb(epoch, len(blob))
        return decode_state(blob)

    # -- post-replacement resynchronisation ------------------------------------

    def resync(self, comm, replaced_slots=None, root: int = 0) -> None:
        """Rebuild a consistent checkpoint view after rank replacement.

        Collective over the rebuilt full-size communicator.  The root
        broadcasts the authoritative committed epoch, placement and the
        replaced slots; the snapshot holders then feed each replacement
        its blob so ``restore()`` works everywhere.  Replacement ranks
        call this with ``replaced_slots=None`` — they learn everything
        from the broadcast.
        """
        from repro.mp import collectives

        engine = self.engine
        if comm.rank == root:
            meta = encode_state({
                "epoch": self.committed_epoch,
                "placement": self.placement,
                "replaced": sorted(replaced_slots or ()),
            })
        else:
            meta = None
        meta = decode_state(collectives.bcast_bytes(engine, comm, meta, root))
        epoch = meta["epoch"]
        self.placement = meta["placement"]
        replaced = list(meta["replaced"])
        self.committed_epoch = epoch
        self.last_epoch = max(self.last_epoch, epoch)
        if epoch <= 0 or not replaced:
            return
        # prune epochs the authoritative view never committed
        for e in [e for e in self._snapshots if e > epoch]:
            del self._snapshots[e]
            self.stats["epochs_rolled_back"] += 1
        slots = self._snapshots.setdefault(epoch, {})
        for slot in replaced:
            holder = self._holder_of(slot, comm.size, replaced, root)
            if holder is None:
                raise MpiErrComm(
                    f"snapshot for slot {slot} lost (owner and mirror both failed)"
                )
            if comm.rank == slot:
                _, blob = recv_blob(engine, comm, holder)
                slots[slot] = blob
            elif comm.rank == holder:
                blob = slots.get(slot)
                if blob is None:
                    raise MpiErrComm(
                        f"rank {comm.rank} expected to hold slot {slot}'s snapshot"
                    )
                send_blob(engine, comm, slot, blob)

    def _holder_of(self, slot: int, size: int, replaced, root: int):
        """Which surviving slot holds ``slot``'s blob under the placement."""
        if self.placement == "root":
            return root if root not in replaced else None
        mirror = (slot + 1) % size
        return mirror if mirror not in replaced else None


# -- the full recovery sequence ------------------------------------------------


def recover(ctx, comm, replacement_main, session_factory=None, root: int = 0):
    """Detect → agree → shrink → replace → restore, returning the rebuilt
    full-size communicator.

    Collective over the survivors of ``comm`` (every survivor calls with
    the same arguments once its detector or the coordinator has flagged
    a failure).  Replacement ranks are spawned running
    ``replacement_main``; their first act should be
    ``ctx.engine.recovery.resync(ctx.comm_world)`` then ``restore()`` —
    :func:`replacement_entry` wraps that.
    """
    engine = ctx.engine
    mgr = engine.recovery
    t0 = ctx.clock.now()
    cbs = engine.hooks.recovery_begin
    if cbs:
        failed_now = sorted(mgr.known_failed(comm))
        for cb in cbs:
            cb(failed_now)
    shrunken = engine.comm_shrink(comm)
    replaced_slots = [
        slot for slot in range(comm.size)
        if not shrunken.group.contains(comm.group.world_rank(slot))
    ]
    full = ctx.world.replace_failed(
        ctx, comm, shrunken, replacement_main, session_factory=session_factory
    )
    # future failure verdicts must reach the replacements too
    engine.device.gossip_ranks = lambda: full.group.ranks
    mgr.resync(full, replaced_slots, root=root)
    mgr.stats["recoveries"] += 1
    mgr.stats["ranks_replaced"] += len(replaced_slots)
    latency = int(ctx.clock.now() - t0)
    mgr.stats["recovery_latency_ns"] += latency
    cbs = engine.hooks.recovery_end
    if cbs:
        info = {"replaced": replaced_slots, "epoch": mgr.committed_epoch,
                "latency_ns": latency}
        for cb in cbs:
            cb(info)
    return full


def replacement_entry(ctx):
    """What a replacement rank runs first: resync the checkpoint store
    and return the restored state (or None when nothing was committed)."""
    mgr = ctx.engine.recovery
    mgr.resync(ctx.comm_world)
    if mgr.committed_epoch <= 0:
        return None
    return mgr.restore(ctx.comm_world)


__all__ = [
    "RecoveryManager",
    "recover",
    "replacement_entry",
    "encode_state",
    "decode_state",
    "send_blob",
    "recv_blob",
    "ANY_SOURCE",
]
