"""The Message Passing Core: MPI implemented *inside* the runtime.

These are the FCall implementations of Figure 8 (``MP_Recv`` etc.).  Each
regular MPI entry point performs the tasks the paper lists in §7.3:

* check parameters;
* evaluate object size (there is no count/datatype — the object knows);
* ensure the send or receive object does not contain object references
  (protecting the object model, §4.2.1);
* apply the pinning policy and perform the operation over the ported
  MPICH2 core, polling the collector in the polling-wait.

The extended OO entry points check parameters, serialize/deserialize via
the custom mechanism, and move the flat representation through static
buffers (no pinning needed).
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.motor.buffers import BufferPool
from repro.motor.pinpolicy import PinDecision, PinningPolicy
from repro.motor.serialization import SPLIT_MAGIC, MotorSerializer, PooledWriter
from repro.mp import collectives
from repro.mp.buffers import BufferDesc
from repro.mp.communicator import Communicator
from repro.mp.datatypes import Datatype
from repro.mp.errors import MpiError
from repro.mp.mpi import MpiEngine
from repro.mp.request import Request
from repro.mp.status import Status
from repro.runtime.errors import InvalidOperation, NullReferenceError_, ObjectModelViolation
from repro.runtime.gcollector import PinCookie
from repro.runtime.handles import ObjRef

#: reserved tags for the OO operations' internal traffic (they ride the
#: collective context id, so they can never match user receives).  Each
#: user tag (mod 64) gets a disjoint (size, data) tag pair.
_TAG_OO_BASE = (1 << 20) + 256
_TAG_OO_COLL = (1 << 20) + 512


def _oo_tags(tag: int) -> tuple[int, int]:
    slot = _TAG_OO_BASE + 2 * (tag % 64)
    return slot, slot + 1

_SIZE_HDR = 8


class NativeRequestHandle:
    """What MP_Isend/MP_Irecv hand back up to the managed layer."""

    __slots__ = ("req", "guard", "comm")

    def __init__(self, req: Request, guard, comm: Communicator) -> None:
        self.req = req
        self.guard = guard  # ConditionalPin | PinCookie | None
        self.comm = comm


#: managed array element type -> RMA window dtype (accumulate units);
#: anything else transfers as raw bytes
_WIN_DTYPES = {"int32": "int32", "int64": "int64", "float64": "double"}


class MotorWindowHandle:
    """What MP_WinCreate hands back up to the managed layer.

    Beside the native :class:`~repro.mp.win.Win` it carries the managed
    object the window latched and the epoch's pin bookkeeping: the
    window buffer's epoch-wide cookie plus one cookie per op buffer
    issued during the current access epoch (released when the epoch
    closes — fence, complete or unlock).
    """

    __slots__ = ("win", "obj", "epoch_cookie", "op_cookies")

    def __init__(self, win, obj: ObjRef) -> None:
        self.win = win
        self.obj = obj
        self.epoch_cookie: PinCookie | None = None
        self.op_cookies: list[PinCookie] = []


class MessagePassingCore:
    """Runtime-internal MPI core bound to one rank."""

    def __init__(
        self,
        runtime,
        engine: MpiEngine,
        serializer: MotorSerializer,
        pool: BufferPool,
        policy: PinningPolicy,
    ) -> None:
        self.runtime = runtime
        self.engine = engine
        self.serializer = serializer
        self.pool = pool
        self.policy = policy

    # ------------------------------------------------------------- validation

    def _data_window(self, obj: ObjRef | None, offset: int | None, count: int | None):
        """Check the object and evaluate its transferable data window."""
        if obj is None:
            raise NullReferenceError_("null buffer passed to a System.MP call")
        rt = self.runtime
        mt, data_addr, nbytes = rt.om.data_window(obj.require(), offset or 0, count)
        if mt.has_references:
            raise ObjectModelViolation(
                f"{mt.name} contains object references; only reference-free "
                "objects and arrays of simple types may use the MPI "
                "operations — use the extended OO operations for structured "
                "data (paper §4.2.1)"
            )
        if (offset is not None or count is not None) and not mt.is_array:
            raise ObjectModelViolation(
                "offset/count overloads apply to arrays only: there is no "
                "safe way to refer to a subset of an object"
            )
        return BufferDesc(rt.heap.mem, data_addr, nbytes)

    # ------------------------------------------------------------- blocking ops

    def _run_blocking(self, obj: ObjRef, start: Callable[..., Request], buf: BufferDesc,
                      peer: int, tag: int, comm: Communicator, *more) -> Request:
        """The §7.4 blocking discipline around ``start(buf, peer, tag, comm,
        *more)``, waiting as the engine's blocking calls do: a failed peer is
        reported per ``comm``'s error handler."""
        policy = self.policy
        decision = policy.pre_blocking(obj)
        cookie: PinCookie | None = None
        if decision is PinDecision.PIN_NOW:
            cookie = policy.pin_now(obj)
        try:
            req = start(buf, peer, tag, comm, *more)
            if not req.completed:
                if cookie is None:
                    # Deferred pin: we are about to enter the polling-wait.
                    cookie = policy.on_enter_wait(decision, obj)
                self.engine._guarded_wait(req, comm)
        finally:
            # parameter errors inside start() must not leak the pin either
            policy.release(cookie)
        return req

    def mp_send(
        self,
        obj: ObjRef,
        dest: int,
        tag: int,
        comm: Communicator,
        offset: int | None = None,
        count: int | None = None,
        sync: bool = False,
    ) -> None:
        buf = self._data_window(obj, offset, count)
        self._run_blocking(obj, self.engine.isend, buf, dest, tag, comm, sync)

    def mp_recv(
        self,
        obj: ObjRef,
        source: int,
        tag: int,
        comm: Communicator,
        offset: int | None = None,
        count: int | None = None,
    ) -> Status:
        buf = self._data_window(obj, offset, count)
        req = self._run_blocking(obj, self.engine.irecv, buf, source, tag, comm)
        return self.engine._finish_recv(req, comm)

    # ------------------------------------------------------------- non-blocking

    def mp_isend(
        self,
        obj: ObjRef,
        dest: int,
        tag: int,
        comm: Communicator,
        offset: int | None = None,
        count: int | None = None,
    ) -> NativeRequestHandle:
        buf = self._data_window(obj, offset, count)
        req = self.engine.isend(buf, dest, tag, comm)
        guard = None
        if not req.completed:
            guard = self.policy.pre_nonblocking(obj, req.in_flight)
        return NativeRequestHandle(req, guard, comm)

    def mp_irecv(
        self,
        obj: ObjRef,
        source: int,
        tag: int,
        comm: Communicator,
        offset: int | None = None,
        count: int | None = None,
    ) -> NativeRequestHandle:
        buf = self._data_window(obj, offset, count)
        req = self.engine.irecv(buf, source, tag, comm)
        guard = None
        if not req.completed:
            guard = self.policy.pre_nonblocking(obj, req.in_flight)
        return NativeRequestHandle(req, guard, comm)

    def mp_wait(self, handle: NativeRequestHandle, timeout: float | None = None) -> Status:
        try:
            st = self.engine.wait(handle.req, handle.comm, timeout=timeout)
        except MpiError:
            # proc-failed completes the request (release the pin guard);
            # a timeout leaves it in flight (the buffer stays guarded)
            if handle.req.completed:
                self._release_guard(handle)
            raise
        self._release_guard(handle)
        return st

    def mp_test(self, handle: NativeRequestHandle) -> bool:
        done = self.engine.test(handle.req)
        if done:
            self._release_guard(handle)
        return done

    def _release_guard(self, handle: NativeRequestHandle) -> None:
        # Conditional pins need no release — the collector drops them when
        # the operation is no longer in flight.  Hard cookies (policy
        # disabled) must be unpinned here.
        if isinstance(handle.guard, PinCookie) and not handle.guard.released:
            self.policy.release(handle.guard)
        handle.guard = None

    # ------------------------------------------------------------- collectives

    def _pin_for_collective(self, objs: list[ObjRef]) -> list[PinCookie]:
        """Collectives block for their whole duration: young buffers are
        pinned up front (the polling-wait starts immediately)."""
        cookies = []
        for obj in objs:
            decision = self.policy.pre_blocking(obj)
            if decision is PinDecision.PIN_NOW:
                cookies.append(self.policy.pin_now(obj))
            else:
                cookie = self.policy.on_enter_wait(decision, obj)
                if cookie is not None:
                    cookies.append(cookie)
        return cookies

    def mp_barrier(self, comm: Communicator) -> None:
        collectives.barrier(self.engine, comm)

    def mp_bcast(self, obj: ObjRef, root: int, comm: Communicator) -> None:
        buf = self._data_window(obj, None, None)
        cookies = self._pin_for_collective([obj])
        try:
            collectives.bcast(self.engine, comm, buf, root)
        finally:
            for c in cookies:
                self.policy.release(c)

    def mp_scatter(
        self, sendobj: ObjRef | None, recvobj: ObjRef, root: int, comm: Communicator
    ) -> None:
        recvbuf = self._data_window(recvobj, None, None)
        objs = [recvobj]
        sendbuf = None
        if comm.rank == root:
            if sendobj is None:
                raise InvalidOperation("scatter root requires a send array")
            sendbuf = self._data_window(sendobj, None, None)
            objs.append(sendobj)
        cookies = self._pin_for_collective(objs)
        try:
            collectives.scatter(self.engine, comm, sendbuf, recvbuf, root)
        finally:
            for c in cookies:
                self.policy.release(c)

    def mp_gather(
        self, sendobj: ObjRef, recvobj: ObjRef | None, root: int, comm: Communicator
    ) -> None:
        sendbuf = self._data_window(sendobj, None, None)
        objs = [sendobj]
        recvbuf = None
        if comm.rank == root:
            if recvobj is None:
                raise InvalidOperation("gather root requires a receive array")
            recvbuf = self._data_window(recvobj, None, None)
            objs.append(recvobj)
        cookies = self._pin_for_collective(objs)
        try:
            collectives.gather(self.engine, comm, sendbuf, recvbuf, root)
        finally:
            for c in cookies:
                self.policy.release(c)

    def mp_reduce(
        self,
        sendobj: ObjRef,
        recvobj: ObjRef | None,
        datatype: Datatype,
        op: str,
        root: int,
        comm: Communicator,
    ) -> None:
        sendbuf = self._data_window(sendobj, None, None)
        objs = [sendobj]
        recvbuf = None
        if comm.rank == root:
            if recvobj is None:
                raise InvalidOperation("reduce root requires a receive array")
            recvbuf = self._data_window(recvobj, None, None)
            objs.append(recvobj)
        cookies = self._pin_for_collective(objs)
        try:
            collectives.reduce(self.engine, comm, sendbuf, recvbuf, datatype, op, root)
        finally:
            for c in cookies:
                self.policy.release(c)

    def mp_allreduce(
        self,
        sendobj: ObjRef,
        recvobj: ObjRef,
        datatype: Datatype,
        op: str,
        comm: Communicator,
    ) -> None:
        sendbuf = self._data_window(sendobj, None, None)
        recvbuf = self._data_window(recvobj, None, None)
        cookies = self._pin_for_collective([sendobj, recvobj])
        try:
            collectives.allreduce(self.engine, comm, sendbuf, recvbuf, datatype, op)
        finally:
            for c in cookies:
                self.policy.release(c)

    # ------------------------------------------------------------- one-sided

    def _win_dtype(self, obj: ObjRef) -> str:
        mt = self.runtime.om.method_table(obj.require())
        if mt.is_array and not mt.element_is_ref:
            return _WIN_DTYPES.get(mt.element_type.name, "byte")
        return "byte"

    def mp_win_create(
        self, obj: ObjRef, comm: Communicator, force_emulation: bool = False
    ) -> MotorWindowHandle:
        """MP_WinCreate FCIMPL: collective; latches the object's data
        window and registers it with the transport.  The §4.2.1 integrity
        rule applies unchanged — a reference-bearing object can never
        become remotely writable memory."""
        buf = self._data_window(obj, None, None)
        win = self.engine.win_create(
            buf, comm, dtype=self._win_dtype(obj), force_emulation=force_emulation
        )
        return MotorWindowHandle(win, obj)

    def _win_epoch_open(self, handle: MotorWindowHandle) -> None:
        """The local window becomes remotely writable: unconditional pin
        for the whole epoch (no safepoint argument helps — a peer's
        native put can land between any two instructions)."""
        if handle.epoch_cookie is None:
            handle.epoch_cookie = self.policy.window_pin(handle.obj)

    def _win_epoch_close(self, handle: MotorWindowHandle) -> None:
        self.policy.window_release(handle.epoch_cookie)
        handle.epoch_cookie = None

    def _win_access_close(self, handle: MotorWindowHandle) -> None:
        for cookie in handle.op_cookies:
            self.policy.window_release(cookie)
        handle.op_cookies.clear()

    def mp_win_fence(self, handle: MotorWindowHandle) -> None:
        if handle.win._fence_open:
            handle.win.fence()
            self._win_access_close(handle)
            self._win_epoch_close(handle)
        else:
            self._win_epoch_open(handle)
            handle.win.fence()

    def _win_op_buf(self, handle: MotorWindowHandle, obj: ObjRef):
        """Latch + pin an op buffer until the access epoch closes: the
        emulated lowering may keep the transfer in flight until the
        closing synchronization polls it done, and polling-waits are
        collection points."""
        buf = self._data_window(obj, None, None)
        handle.op_cookies.append(self.policy.window_pin(obj))
        return buf

    def mp_win_put(
        self, handle: MotorWindowHandle, obj: ObjRef, target: int, target_offset: int = 0
    ) -> None:
        handle.win.put(self._win_op_buf(handle, obj), target, target_offset)

    def mp_win_get(
        self, handle: MotorWindowHandle, obj: ObjRef, target: int, target_offset: int = 0
    ) -> None:
        handle.win.get(self._win_op_buf(handle, obj), target, target_offset)

    def mp_win_accumulate(
        self, handle: MotorWindowHandle, obj: ObjRef, target: int, target_offset: int = 0
    ) -> None:
        handle.win.accumulate(self._win_op_buf(handle, obj), target, target_offset)

    def mp_win_post(self, handle: MotorWindowHandle, origins) -> None:
        self._win_epoch_open(handle)
        handle.win.post(origins)

    def mp_win_start(self, handle: MotorWindowHandle, targets) -> None:
        handle.win.start(targets)

    def mp_win_complete(self, handle: MotorWindowHandle) -> None:
        handle.win.complete()
        self._win_access_close(handle)

    def mp_win_wait(self, handle: MotorWindowHandle) -> None:
        handle.win.wait()
        self._win_epoch_close(handle)

    def mp_win_lock(self, handle: MotorWindowHandle, target: int, exclusive: bool = True) -> None:
        handle.win.lock(target, exclusive)

    def mp_win_unlock(self, handle: MotorWindowHandle, target: int) -> None:
        handle.win.unlock(target)
        self._win_access_close(handle)

    def mp_win_free(self, handle: MotorWindowHandle) -> None:
        """Collective; implicitly closes anything still open so the pin
        ledger balances even on abandoned epochs."""
        handle.win.free()
        self._win_access_close(handle)
        self._win_epoch_close(handle)

    # ------------------------------------------------------------- OO operations

    def _send_window(self, buf: BufferDesc, dest: int, comm: Communicator, tag_size: int, tag_data: int) -> None:
        """Size first, then payload — paper §7.5: "Before sending the
        serialized buffer, Motor sends the size of the buffer".

        ``buf`` is a latched window (typically over pooled memory a
        :class:`PooledWriter` filled); the payload streams from it with no
        intermediate ``bytes`` blob."""
        hdr = BufferDesc.from_bytes(buf.nbytes.to_bytes(_SIZE_HDR, "little"))
        self.engine.send(hdr, dest, tag_size, comm, _internal=True)
        self.engine.send(buf, dest, tag_data, comm, _internal=True)

    def _recv_blob(self, source: int, comm: Communicator, tag_size: int, tag_data: int):
        """Returns (pooled NativeMemory, nbytes, Status of size message)."""
        hdr_mem = bytearray(_SIZE_HDR)
        st = self.engine.recv(
            BufferDesc(hdr_mem, 0, _SIZE_HDR), source, tag_size, comm, _internal=True
        )
        size = int.from_bytes(hdr_mem, "little")
        native = self.pool.acquire(size)
        if len(native.mem) < size:
            native.mem.extend(bytes(size - len(native.mem)))
        # The payload must come from whoever sent the size header.
        self.engine.recv(
            BufferDesc(native.mem, 0, size), st.source, tag_data, comm, _internal=True
        )
        return native, size, st

    def mp_osend(
        self,
        obj: ObjRef | None,
        dest: int,
        tag: int,
        comm: Communicator,
        offset: int | None = None,
        numcomponents: int | None = None,
    ) -> None:
        w = PooledWriter(self.pool)
        try:
            if offset is not None or numcomponents is not None:
                # Array-subset overload: the slice's split representation is
                # framed straight into the pooled buffer, one pass.
                self.serializer.write_split_frame(w, obj, offset or 0, numcomponents)
            else:
                self.serializer.serialize(obj, out=w)
            tsize, tdata = _oo_tags(tag)
            self._send_window(w.window(), dest, comm, tsize, tdata)
        finally:
            w.release()

    def mp_orecv(
        self, source: int, tag: int, comm: Communicator
    ) -> tuple[ObjRef | None, Status]:
        tsize, tdata = _oo_tags(tag)
        native, size, st = self._recv_blob(source, comm, tsize, tdata)
        try:
            data = native.view(0, size)
            if size >= 4 and struct.unpack_from("<I", data)[0] == SPLIT_MAGIC:
                name, parts = self.serializer.unframe_parts(data)
                ref = self.serializer.build_array_from_parts(name, parts)
            else:
                ref = self.serializer.deserialize(data)
        finally:
            self.pool.release(native)
        st.count = size
        return ref, st

    def mp_obcast(self, obj: ObjRef | None, root: int, comm: Communicator) -> ObjRef | None:
        if comm.rank == root:
            blob = bytes(self.serializer.serialize(obj))
            collectives.bcast_bytes(self.engine, comm, blob, root)
            return obj
        blob = collectives.bcast_bytes(self.engine, comm, None, root)
        return self.serializer.deserialize(blob)

    def mp_oscatter(
        self, array: ObjRef | None, root: int, comm: Communicator
    ) -> ObjRef:
        """Scatter an array of objects: rank i receives sub-array i.

        The root produces a *single* split representation in one pass and
        deals the parts out — the operation atomic standard serializers
        cannot support without N separate serializations (§2.4).
        """
        n = comm.size
        if comm.rank == root:
            if array is None:
                raise InvalidOperation("OScatter root requires an array")
            # Per-rank part counts follow from the array length alone, so
            # the root lays every destination's complete framed chunk out
            # contiguously in ONE pooled buffer as it serializes — each
            # send is then a window over that buffer, never a reassembled
            # blob.
            _name, _off, length = self.serializer._split_slice(array, 0, None)
            counts = [length // n + (1 if i < length % n else 0) for i in range(n)]
            w = PooledWriter(self.pool)
            try:
                spans: list[tuple[int, int]] = []
                start = 0
                for i in range(n):
                    begin = len(w)
                    self.serializer.write_split_frame(w, array, start, counts[i])
                    spans.append((begin, len(w)))
                    start += counts[i]
                for i in range(n):
                    if i == root:
                        continue
                    begin, end = spans[i]
                    self._send_window(
                        w.window(begin, end), i, comm, _TAG_OO_COLL, _TAG_OO_COLL + 1
                    )
                begin, end = spans[root]
                name, mine = self.serializer.unframe_parts(w.view(begin, end))
                return self.serializer.build_array_from_parts(name, mine)
            finally:
                w.release()
        native, size, _st = self._recv_blob(root, comm, _TAG_OO_COLL, _TAG_OO_COLL + 1)
        try:
            # parts are views into the pooled receive buffer: deserialize
            # before the buffer goes back to the pool
            name, mine = self.serializer.unframe_parts(native.view(0, size))
            return self.serializer.build_array_from_parts(name, mine)
        finally:
            self.pool.release(native)

    def mp_ogather(
        self, array: ObjRef, root: int, comm: Communicator
    ) -> ObjRef | None:
        """Gather per-rank object arrays into one array at the root."""
        n = comm.size
        rt = self.runtime
        if comm.rank != root:
            w = PooledWriter(self.pool)
            try:
                self.serializer.write_split_frame(w, array)
                self._send_window(
                    w.window(), root, comm, _TAG_OO_COLL + 2, _TAG_OO_COLL + 3
                )
            finally:
                w.release()
            return None
        # Root: deserialize each contribution's parts while its backing
        # buffer is still live (parts are views, not copies), in rank order.
        elems: list = []
        elem_name = ""
        for i in range(n):
            if i == root:
                w = PooledWriter(self.pool)
                try:
                    self.serializer.write_split_frame(w, array)
                    pname, pparts = self.serializer.unframe_parts(w.view())
                    elems.extend(self.serializer.deserialize(p) for p in pparts)
                finally:
                    w.release()
            else:
                native, size, _st = self._recv_blob(
                    i, comm, _TAG_OO_COLL + 2, _TAG_OO_COLL + 3
                )
                try:
                    pname, pparts = self.serializer.unframe_parts(native.view(0, size))
                    elems.extend(self.serializer.deserialize(p) for p in pparts)
                finally:
                    self.pool.release(native)
            elem_name = pname
        arr = rt.new_array(elem_name, len(elems))
        for i, e in enumerate(elems):
            rt.set_elem_ref(arr, i, e)
        return arr
