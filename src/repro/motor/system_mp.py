"""System.MP — the managed message-passing library (paper §7.2).

The user-facing, object-oriented API modelled on the official MPI-2 C++
bindings with the paper's simplifications (§4.2.1): no counts, no
datatypes, single-object buffers, array-only offset/count overloads.
Every method crosses into the Message Passing Core through the FCall
gate, matching the three-layer chain of Figure 8::

    System.MP  Recv(...)            (managed, this module)
      -> MPDirect InternalCall      (the FCall gate)
        -> MP_Recv FCIMPL           (MessagePassingCore.mp_recv)

The extended object-oriented operations carry the ``O`` prefix
(``OSend``/``ORecv``/``OBcast``/``OScatter``/``OGather``), per §4.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.motor.mpcore import (
    MessagePassingCore,
    MotorWindowHandle,
    NativeRequestHandle,
)
from repro.mp.communicator import Communicator
from repro.mp.errors import ERRORS_ARE_FATAL, ERRORS_RETURN
from repro.mp.datatypes import Datatype
from repro.mp.matching import ANY_SOURCE, ANY_TAG
from repro.mp.status import Status
from repro.runtime.handles import ObjRef
from repro.runtime.proxy import ManagedProxy


class MPStatus:
    """Managed MPI status (System.MP.Status)."""

    __slots__ = ("source", "tag", "count")

    def __init__(self, source: int = -1, tag: int = -1, count: int = 0) -> None:
        self.source = source
        self.tag = tag
        self.count = count

    def _fill(self, native: Status) -> "MPStatus":
        self.source = native.source
        self.tag = native.tag
        self.count = native.count
        return self

    def __repr__(self) -> str:
        return f"<MPStatus src={self.source} tag={self.tag} count={self.count}>"


class MotorRequest:
    """Managed request handle for Isend/Irecv."""

    __slots__ = ("_comm", "_handle")

    def __init__(self, comm: "MotorCommunicator", handle: NativeRequestHandle) -> None:
        self._comm = comm
        self._handle = handle

    def Wait(self, status: MPStatus | None = None, timeout: float | None = None) -> MPStatus:
        """Wait for completion; ``timeout`` (seconds) bounds the polling-wait
        and raises :class:`~repro.mp.errors.MpiErrTimeout` on expiry."""
        native = self._comm._vm.fcall.call(self._comm._core.mp_wait, self._handle, timeout)
        if status is None:
            return MPStatus(native.source, native.tag, native.count)
        return status._fill(native)

    def Test(self) -> bool:
        return self._comm._vm.fcall.call(self._comm._core.mp_test, self._handle)

    @property
    def completed(self) -> bool:
        return self._handle.req.completed


class MotorWindow:
    """System.MP.Window — the managed one-sided window handle.

    Wraps the MP_Win* FCIMPLs: every epoch call keeps the pin ledger
    balanced (the window buffer is unconditionally pinned while an epoch
    exposes it, op buffers until their access epoch closes) and every op
    goes through the §4.2.1 integrity check in the core.
    """

    __slots__ = ("_comm", "_handle")

    def __init__(self, comm: "MotorCommunicator", handle: MotorWindowHandle) -> None:
        self._comm = comm
        self._handle = handle

    def Put(self, obj, target: int, target_offset: int = 0) -> None:
        self._comm._vm.fcall.call(
            self._comm._core.mp_win_put, self._handle, _unwrap(obj), target, target_offset
        )

    def Get(self, obj, target: int, target_offset: int = 0) -> None:
        self._comm._vm.fcall.call(
            self._comm._core.mp_win_get, self._handle, _unwrap(obj), target, target_offset
        )

    def Accumulate(self, obj, target: int, target_offset: int = 0) -> None:
        self._comm._vm.fcall.call(
            self._comm._core.mp_win_accumulate, self._handle, _unwrap(obj), target, target_offset
        )

    def Fence(self) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_fence, self._handle)

    def Post(self, origins) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_post, self._handle, origins)

    def Start(self, targets) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_start, self._handle, targets)

    def Complete(self) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_complete, self._handle)

    def Wait(self) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_wait, self._handle)

    def Lock(self, target: int, exclusive: bool = True) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_lock, self._handle, target, exclusive)

    def Unlock(self, target: int) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_unlock, self._handle, target)

    def Free(self) -> None:
        self._comm._vm.fcall.call(self._comm._core.mp_win_free, self._handle)

    @property
    def native(self):
        return self._handle.win

    def __repr__(self) -> str:
        return f"<System.MP.Window id={self._handle.win.id}>"


def _unwrap(obj) -> ObjRef | None:
    if obj is None:
        return None
    if isinstance(obj, ManagedProxy):
        return obj.ref
    if isinstance(obj, ObjRef):
        return obj
    raise TypeError(f"expected a managed object, got {type(obj).__name__}")


class MotorCommunicator:
    """System.MP.Communicator (the MPI-2 C++ binding shape)."""

    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG
    ERRORS_ARE_FATAL = ERRORS_ARE_FATAL
    ERRORS_RETURN = ERRORS_RETURN

    def __init__(self, vm, comm: Communicator) -> None:
        self._vm = vm
        self._core: MessagePassingCore = vm.core
        self._comm = comm

    # -- plumbing -----------------------------------------------------------------

    @property
    def Rank(self) -> int:
        return self._comm.rank

    @property
    def Size(self) -> int:
        return self._comm.size

    @property
    def native(self) -> Communicator:
        return self._comm

    # -- regular MPI operations (object-to-object, §4.2.1) ---------------------

    def Send(self, obj, dest: int, tag: int, offset: int | None = None, length: int | None = None) -> None:
        self._vm.fcall.call(
            self._core.mp_send, _unwrap(obj), dest, tag, self._comm,
            offset, length,
        )

    def Ssend(self, obj, dest: int, tag: int) -> None:
        self._vm.fcall.call(
            self._core.mp_send, _unwrap(obj), dest, tag, self._comm,
            None, None, True,
        )

    def Recv(
        self,
        obj,
        source: int,
        tag: int,
        status: MPStatus | None = None,
        offset: int | None = None,
        length: int | None = None,
    ) -> MPStatus:
        native = self._vm.fcall.call(
            self._core.mp_recv, _unwrap(obj), source, tag, self._comm,
            offset, length,
        )
        if status is None:
            return MPStatus(native.source, native.tag, native.count)
        return status._fill(native)

    def Isend(self, obj, dest: int, tag: int, offset: int | None = None, length: int | None = None) -> MotorRequest:
        handle = self._vm.fcall.call(
            self._core.mp_isend, _unwrap(obj), dest, tag, self._comm,
            offset, length,
        )
        return MotorRequest(self, handle)

    def Irecv(self, obj, source: int, tag: int, offset: int | None = None, length: int | None = None) -> MotorRequest:
        handle = self._vm.fcall.call(
            self._core.mp_irecv, _unwrap(obj), source, tag, self._comm,
            offset, length,
        )
        return MotorRequest(self, handle)

    # -- collectives ---------------------------------------------------------------

    def Barrier(self) -> None:
        self._vm.fcall.call(self._core.mp_barrier, self._comm)

    def Bcast(self, obj, root: int = 0) -> None:
        self._vm.fcall.call(self._core.mp_bcast, _unwrap(obj), root, self._comm)

    def Scatter(self, sendarr, recvarr, root: int = 0) -> None:
        self._vm.fcall.call(
            self._core.mp_scatter, _unwrap(sendarr), _unwrap(recvarr), root, self._comm
        )

    def Gather(self, sendarr, recvarr, root: int = 0) -> None:
        self._vm.fcall.call(
            self._core.mp_gather, _unwrap(sendarr), _unwrap(recvarr), root, self._comm
        )

    def Reduce(self, sendarr, recvarr, datatype: Datatype, op: str = "sum", root: int = 0) -> None:
        self._vm.fcall.call(
            self._core.mp_reduce,
            _unwrap(sendarr),
            _unwrap(recvarr),
            datatype,
            op,
            root,
            self._comm,
        )

    def Allreduce(self, sendarr, recvarr, datatype: Datatype, op: str = "sum") -> None:
        self._vm.fcall.call(
            self._core.mp_allreduce,
            _unwrap(sendarr),
            _unwrap(recvarr),
            datatype,
            op,
            self._comm,
        )

    # -- extended object-oriented operations (§4.2.2) ---------------------------

    def OSend(self, obj, dest: int, tag: int, offset: int | None = None, numcomponents: int | None = None) -> None:
        self._vm.fcall.call(
            self._core.mp_osend, _unwrap(obj), dest, tag, self._comm,
            offset, numcomponents,
        )

    def ORecv(self, source: int, tag: int, status: MPStatus | None = None):
        ref, native = self._vm.fcall.call(self._core.mp_orecv, source, tag, self._comm)
        if status is not None:
            status._fill(native)
        return ref

    def OBcast(self, obj=None, root: int = 0):
        return self._vm.fcall.call(self._core.mp_obcast, _unwrap(obj), root, self._comm)

    def OScatter(self, array=None, root: int = 0):
        return self._vm.fcall.call(self._core.mp_oscatter, _unwrap(array), root, self._comm)

    def OGather(self, array, root: int = 0):
        return self._vm.fcall.call(self._core.mp_ogather, _unwrap(array), root, self._comm)

    # -- one-sided windows (MPI-2 §11 shape) ------------------------------------

    def WinCreate(self, obj, force_emulation: bool = False) -> MotorWindow:
        """Collectively expose ``obj``'s data as an RMA window.

        ``obj`` must satisfy the §4.2.1 integrity rule (reference-free);
        the window dtype follows the array element type, so Accumulate
        reduces in elements, not bytes.  ``force_emulation`` skips the
        channel's native registration — the A17 control arm.
        """
        handle = self._vm.fcall.call(
            self._core.mp_win_create, _unwrap(obj), self._comm, force_emulation
        )
        return MotorWindow(self, handle)

    # -- communicator management ---------------------------------------------------

    def Dup(self) -> "MotorCommunicator":
        return MotorCommunicator(self._vm, self._vm.engine.comm_dup(self._comm))

    def Split(self, color: int, key: int) -> "MotorCommunicator | None":
        sub = self._vm.engine.comm_split(self._comm, color, key)
        return None if sub is None else MotorCommunicator(self._vm, sub)

    def Merge(self, high: bool = False) -> "MotorCommunicator":
        """MPI_Intercomm_merge over this inter-communicator (MPI-2)."""
        merged = self._vm.engine.intercomm_merge(self._comm, high)
        return MotorCommunicator(self._vm, merged)

    # -- fault tolerance (ULFM-style) ----------------------------------------------

    def SetErrhandler(self, handler: str) -> None:
        """MPI_Comm_set_errhandler: ERRORS_ARE_FATAL or ERRORS_RETURN."""
        self._comm.set_errhandler(handler)

    def Shrink(self) -> "MotorCommunicator":
        """ULFM MPI_Comm_shrink: a survivors-only communicator after a
        rank failure; collective over the survivors."""
        return MotorCommunicator(self._vm, self._vm.engine.comm_shrink(self._comm))

    @property
    def FailedRanks(self) -> frozenset:
        """World ranks this rank's reliability layer has declared dead."""
        return frozenset(self._vm.engine.device.failed_ranks)

    def Agree(self, value: int = -1, op: str = "band") -> tuple[int, frozenset]:
        """ULFM MPI_Comm_agree: fold ``value`` with ``op`` across the
        survivors and agree on the failed set.  Returns ``(folded_value,
        failed_world_ranks)``, identical on every survivor even when
        their local failure detectors disagreed at call time."""
        return self._vm.fcall.call(self._comm.agree, value, op)

    def Checkpoint(self, state, placement: str | None = None, root: int = 0) -> int:
        """Coordinated checkpoint of rank-local ``state``; collective.

        ``state`` must be plain data (None/bool/int/float/bytes/str and
        lists/tuples/dicts of the same) — the deterministic checkpoint
        codec rejects reference-bearing managed objects, mirroring the
        §4.2.1 buffer-integrity rule.
        Replicates the encoded snapshot off-rank (``"root"``: gathered
        at ``root``; ``"peer"``: mirrored to the right-hand neighbour)
        and commits the epoch with a barrier.  Returns the committed
        epoch; a failure before the barrier raises
        :class:`~repro.mp.errors.MpiErrProcFailed` and leaves the epoch
        uncommitted on every rank."""
        return self._vm.fcall.call(self._comm.checkpoint, state, placement, root)

    def Restore(self, epoch: int | None = None):
        """Rank-local state from the last committed checkpoint epoch
        (or an explicit earlier ``epoch``)."""
        return self._vm.fcall.call(self._comm.restore, epoch)

    def __repr__(self) -> str:
        return f"<System.MP.Communicator rank={self.Rank} size={self.Size}>"


# ---------------------------------------------------------------------------
# The MPDirect InternalCall surface: what managed IL reaches through
# ``callintern`` (Figure 8's FCall gate), plus the declared call-signature
# table the static analyzer (repro.analyze.rankflow) checks sites against.
# ---------------------------------------------------------------------------

#: Argument kind codes for :class:`MPCallSig`:
#:
#: * ``I`` — int scalar (rank, tag, root)
#: * ``B`` — message buffer: a reference-free single object or primitive
#:   array (the §4.2.1 integrity rule; reference-bearing objects must use
#:   the ``O``-prefixed transport)
#: * ``A`` — any managed object (the object-graph transport serializes it)
#: * ``H`` — native request handle returned by Isend/Irecv
#: * ``W`` — one-sided window handle returned by WinCreate
KIND_INT = "I"
KIND_BUFFER = "B"
KIND_ANY_OBJECT = "A"
KIND_HANDLE = "H"
KIND_WINDOW = "W"

#: Argument *roles* — what each position means to the message-flow
#: analyzer (:mod:`repro.analyze.rankflow`), refining the kind codes:
#: a peer and a tag are both ``KIND_INT``, but only the peer is matched
#: against the world and only the tag against receives.
ROLE_BUFFER = "buffer"
ROLE_PEER = "peer"
ROLE_TAG = "tag"
ROLE_ROOT = "root"
ROLE_HANDLE = "handle"
ROLE_VALUE = "value"
ROLE_WINDOW = "window"

#: Call categories: how an internal participates in the communication
#: structure of a program.
CAT_RANKQUERY = "rankquery"  # MP.Rank / MP.Size — the analyzer's symbols
CAT_PT2PT = "pt2pt"  # matched send/recv endpoints
CAT_COLLECTIVE = "collective"  # must be called in the same order by all ranks
CAT_REQUEST = "request"  # completes / probes a nonblocking handle
CAT_RMA = "rma"  # one-sided window ops and epoch synchronization
CAT_OTHER = "other"


@dataclass(frozen=True)
class MPCallSig:
    """Declared signature + analyzer metadata of one System.MP internal.

    ``args`` keeps the MA-S02 kind codes; ``roles`` names what each
    position is (same length as ``args`` when given); ``category``,
    ``direction``, ``blocking``/``sync`` and the request flags describe
    the call's communication semantics for the whole-program
    message-flow rules (MA-S05..S10).
    """

    name: str
    args: tuple[str, ...]
    returns: bool
    doc: str = ""
    roles: tuple[str, ...] = ()
    category: str = CAT_OTHER
    direction: str | None = None  # "send" | "recv" for pt2pt ops
    blocking: bool = True  # completes only when matched/progressed
    sync: bool = False  # synchronous: completion requires the matching recv
    creates_request: bool = False  # returns a nonblocking handle
    completes_request: bool = False  # Wait: ends the handle's in-flight window
    query: str | None = None  # "rank" | "size" for CAT_RANKQUERY
    #: CAT_RMA refinement for the MA-S11 epoch-discipline pass:
    #: "create" | "op" | "fence" (toggles) | "open" | "close" | "free"
    rma: str | None = None

    @property
    def intern(self) -> str:
        """The ``callintern`` operand spelling (``name/arity[:r]``)."""
        suffix = ":r" if self.returns else ""
        return f"{self.name}/{len(self.args)}{suffix}"

    def role_index(self, role: str) -> int | None:
        """Position of *role* in the argument list, or None."""
        try:
            return self.roles.index(role)
        except ValueError:
            return None


def _sigs(*sigs: MPCallSig) -> dict[str, MPCallSig]:
    return {s.name: s for s in sigs}


#: Every System.MP internal, keyed by name.  ``repro.analyze`` rejects
#: ``MP.*`` call sites that disagree with this table (rule MA-S02) and
#: unknown ``MP.*`` names outright (rule MA-S04); the rank-symbolic
#: message-flow pass (MA-S05..S10) consumes the role/category metadata.
MP_CALLSIGS: dict[str, MPCallSig] = _sigs(
    MPCallSig("MP.Rank", (), True, "this rank in COMM_WORLD",
              category=CAT_RANKQUERY, query="rank"),
    MPCallSig("MP.Size", (), True, "number of ranks",
              category=CAT_RANKQUERY, query="size"),
    MPCallSig("MP.Send", (KIND_BUFFER, KIND_INT, KIND_INT), False, "Send(buf, dest, tag)",
              roles=(ROLE_BUFFER, ROLE_PEER, ROLE_TAG),
              category=CAT_PT2PT, direction="send"),
    MPCallSig("MP.Ssend", (KIND_BUFFER, KIND_INT, KIND_INT), False, "Ssend(buf, dest, tag)",
              roles=(ROLE_BUFFER, ROLE_PEER, ROLE_TAG),
              category=CAT_PT2PT, direction="send", sync=True),
    MPCallSig("MP.Recv", (KIND_BUFFER, KIND_INT, KIND_INT), True,
              "Recv(buf, source, tag) -> count",
              roles=(ROLE_BUFFER, ROLE_PEER, ROLE_TAG),
              category=CAT_PT2PT, direction="recv"),
    MPCallSig("MP.Isend", (KIND_BUFFER, KIND_INT, KIND_INT), True,
              "Isend(buf, dest, tag) -> handle",
              roles=(ROLE_BUFFER, ROLE_PEER, ROLE_TAG),
              category=CAT_PT2PT, direction="send", blocking=False, creates_request=True),
    MPCallSig("MP.Irecv", (KIND_BUFFER, KIND_INT, KIND_INT), True,
              "Irecv(buf, source, tag) -> handle",
              roles=(ROLE_BUFFER, ROLE_PEER, ROLE_TAG),
              category=CAT_PT2PT, direction="recv", blocking=False, creates_request=True),
    MPCallSig("MP.Wait", (KIND_HANDLE,), False, "Wait(handle)",
              roles=(ROLE_HANDLE,), category=CAT_REQUEST, completes_request=True),
    MPCallSig("MP.Test", (KIND_HANDLE,), True, "Test(handle) -> 0|1",
              roles=(ROLE_HANDLE,), category=CAT_REQUEST, blocking=False),
    MPCallSig("MP.Barrier", (), False, "Barrier()", category=CAT_COLLECTIVE),
    MPCallSig("MP.Bcast", (KIND_BUFFER, KIND_INT), False, "Bcast(buf, root)",
              roles=(ROLE_BUFFER, ROLE_ROOT), category=CAT_COLLECTIVE),
    MPCallSig("MP.OSend", (KIND_ANY_OBJECT, KIND_INT, KIND_INT), False,
              "OSend(obj, dest, tag)",
              roles=(ROLE_BUFFER, ROLE_PEER, ROLE_TAG),
              category=CAT_PT2PT, direction="send"),
    MPCallSig("MP.ORecv", (KIND_INT, KIND_INT), True, "ORecv(source, tag) -> obj",
              roles=(ROLE_PEER, ROLE_TAG), category=CAT_PT2PT, direction="recv"),
    MPCallSig("MP.OBcast", (KIND_ANY_OBJECT, KIND_INT), True, "OBcast(obj, root) -> obj",
              roles=(ROLE_BUFFER, ROLE_ROOT), category=CAT_COLLECTIVE),
    MPCallSig("MP.Agree", (KIND_INT,), True, "Agree(value) -> band-fold over survivors",
              roles=(ROLE_VALUE,), category=CAT_COLLECTIVE),
    MPCallSig("MP.Checkpoint", (KIND_ANY_OBJECT,), True,
              "Checkpoint(state) -> committed epoch",
              roles=(ROLE_VALUE,), category=CAT_COLLECTIVE),
    MPCallSig("MP.Restore", (), True, "Restore() -> state from the last committed epoch"),
    MPCallSig("MP.WinCreate", (KIND_BUFFER,), True,
              "WinCreate(buf) -> window (collective)",
              roles=(ROLE_BUFFER,), category=CAT_RMA, rma="create"),
    MPCallSig("MP.WinPut", (KIND_WINDOW, KIND_BUFFER, KIND_INT, KIND_INT), False,
              "WinPut(win, buf, target, offset)",
              roles=(ROLE_WINDOW, ROLE_BUFFER, ROLE_PEER, ROLE_VALUE),
              category=CAT_RMA, blocking=False, rma="op"),
    MPCallSig("MP.WinGet", (KIND_WINDOW, KIND_BUFFER, KIND_INT, KIND_INT), False,
              "WinGet(win, buf, target, offset)",
              roles=(ROLE_WINDOW, ROLE_BUFFER, ROLE_PEER, ROLE_VALUE),
              category=CAT_RMA, blocking=False, rma="op"),
    MPCallSig("MP.WinAccumulate", (KIND_WINDOW, KIND_BUFFER, KIND_INT, KIND_INT), False,
              "WinAccumulate(win, buf, target, offset)",
              roles=(ROLE_WINDOW, ROLE_BUFFER, ROLE_PEER, ROLE_VALUE),
              category=CAT_RMA, blocking=False, rma="op"),
    MPCallSig("MP.WinFence", (KIND_WINDOW,), False,
              "WinFence(win) — toggles the fence epoch (collective)",
              roles=(ROLE_WINDOW,), category=CAT_RMA, rma="fence"),
    MPCallSig("MP.WinFree", (KIND_WINDOW,), False,
              "WinFree(win) (collective)",
              roles=(ROLE_WINDOW,), category=CAT_RMA, rma="free"),
)


def register_mp_internals(vm) -> dict[str, Callable]:
    """The ``callintern`` dispatch table for System.MP.

    Returns a dict suitable for :class:`repro.il.ExecutionEngine`'s
    ``internals`` argument, binding each ``MP.*`` name to the managed
    communicator of *vm*'s COMM_WORLD.  Managed code sees exactly the
    surface declared in :data:`MP_CALLSIGS`.
    """
    comm: MotorCommunicator = vm.comm_world

    def mp_recv(buf, source: int, tag: int) -> int:
        return comm.Recv(buf, source, tag).count

    def mp_wait(handle: MotorRequest) -> None:
        handle.Wait()

    return {
        "MP.Rank": lambda: comm.Rank,
        "MP.Size": lambda: comm.Size,
        "MP.Send": comm.Send,
        "MP.Ssend": comm.Ssend,
        "MP.Recv": mp_recv,
        "MP.Isend": comm.Isend,
        "MP.Irecv": comm.Irecv,
        "MP.Wait": mp_wait,
        "MP.Test": lambda handle: 1 if handle.Test() else 0,
        "MP.Barrier": comm.Barrier,
        "MP.Bcast": comm.Bcast,
        "MP.OSend": comm.OSend,
        "MP.ORecv": comm.ORecv,
        "MP.OBcast": comm.OBcast,
        "MP.Agree": lambda value: comm.Agree(value)[0],
        "MP.Checkpoint": lambda state: comm.Checkpoint(state),
        "MP.Restore": comm.Restore,
        "MP.WinCreate": comm.WinCreate,
        "MP.WinPut": lambda win, buf, target, offset: win.Put(buf, target, offset),
        "MP.WinGet": lambda win, buf, target, offset: win.Get(buf, target, offset),
        "MP.WinAccumulate": lambda win, buf, target, offset: win.Accumulate(buf, target, offset),
        "MP.WinFence": lambda win: win.Fence(),
        "MP.WinFree": lambda win: win.Free(),
    }
