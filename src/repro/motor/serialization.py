"""Motor's custom serialization mechanism (paper §7.5).

The flat object-tree representation has two parts:

* a **type table** detailing every class used (name, kind, field layout),
  resolved by the receiver against its own registry (SPMD ranks define the
  same classes); and
* **object data**: the objects laid out side by side, each prefixed with an
  internal type reference; object references are exchanged for local
  internal ids, and references to objects not included in the
  serialization are swapped to null.

Propagation follows the FieldDesc **Transportable bit** — never the slow
metadata/reflection path.  Object arrays propagate their elements by
default; plain reference fields propagate only when marked.  Here that
reads: the first object of a type compiles a :class:`_Plan` (kind, sizes,
per-field structs and pickers), and every later object of the type is a
few ``struct`` calls on the heap's bytes — its header, its references, its
primitives, its record — with no ``MethodTable`` lookup, no ``FieldDesc``
property, no name.

**What is modelled and what is host cost.**  The virtual clock is charged
per object, per primitive byte and per visited-record comparison at the
2006 rates of :mod:`repro.simtime.costs` — one charge per object, per
primitive field and per primitive array, applied one at a time in walk
order (``0.9`` and ``2.2`` ns are not exact in binary, so a sum of them
depends on its order).  The walk owes them to a list and applies the list
with one :meth:`~repro.simtime.clock.Clock.charge_all`, an exact fold: the
same additions in the same order as one ``charge`` each, and under async
progress the same ticks at the same modelled instants.  The paper's own
performance note — "at the time of writing we employ a linear structure
to record objects visited.  This causes excessive search times with large
numbers of objects and will be improved when we implement an efficient
structure" — is such a charge: the
walk counts the comparisons a front-to-back scan of the visited record
makes (``idx + 1`` on a hit, its length on a miss) and the probes a hashed
one makes (one per lookup), and charges one of the two (Motor's
degradation above ~2048 objects in Figure 10; ``hashed`` is the announced
fix, ablation A4), after the fold.  How the host *finds* an address in
the record is not modelled: it is a dict.

The **split representation** (one independently-deserializable part per
array element) enables the OScatter/OGather operations no standard
serializer supports; see :meth:`MotorSerializer.serialize_array_split`.

Safety: serialization touches raw heap addresses but never allocates
managed memory or polls a safepoint, so no collection can move objects
mid-walk.  Deserialization validates the whole representation — framing,
object ids, that every non-Transportable reference is null and that every
reference field can hold its target — before it allocates anything, then
lands it in two passes.  Pass 1 lands *runs*: the
records that fit the free nursery are bump-allocated with one heap call,
and nothing in a run can move until the allocator is entered again (a
charge never collects: async progress steps skip the safepoint yield).  The
record that does not fit is where object-by-object allocation would
collect, so the objects landed so far are rooted in GC-updated handle
slots, the charges owed so far are folded, it is allocated through the
runtime, and the addresses are read back.  Pass 2 allocates nothing, so it
wires references between addresses read once, and calls the write barrier
only for slots outside the nursery — the only ones it can record; the rest
of the charges fold at the end.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterable

from repro.mp.buffers import BufferDesc
from repro.mp.hooks import NULL_SPINE
from repro.runtime.errors import ObjectModelViolation, TypeLoadError
from repro.runtime.handles import ObjRef
from repro.runtime.objectmodel import HEADER
from repro.runtime.typesys import (
    ARRAY_DATA_OFFSET,
    REF_SIZE,
    FieldDesc,
    MethodTable,
)

MAGIC = 0x4D534552  # "MSER"
SPLIT_MAGIC = 0x4D53504C  # "MSPL"

_K_CLASS = 0
_K_PRIM_ARRAY = 1
_K_REF_ARRAY = 2

_u8 = struct.Struct("<B")
_u16 = struct.Struct("<H")
_u32 = struct.Struct("<I")
_u32x2 = struct.Struct("<II")
_u64 = struct.Struct("<Q")


class SerializationError(ObjectModelViolation):
    """Malformed representation or type-table mismatch at the receiver."""


#: how the visited record is priced: a front-to-back scan, or one probe
VISITED_KINDS = ("linear", "hashed")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _w_str(out, s: str) -> None:
    enc = s.encode("utf-8")
    out += _u16.pack(len(enc))
    out += enc


def _patch_u32(out, at: int, value: int) -> None:
    """Backpatch a u32 length placeholder at offset ``at`` of ``out``."""
    if isinstance(out, PooledWriter):
        out.patch_u32(at, value)
    else:
        _u32.pack_into(out, at, value)


class PooledWriter:
    """Serializer output over one pooled native buffer (paper §7.5).

    A drop-in for the ``out`` bytearray :meth:`MotorSerializer.serialize`
    accepts — it supports ``+=``, ``append`` and ``len()`` — but the bytes
    land in a :class:`~repro.mp.buffers.NativeMemory` acquired from the
    VM's :class:`~repro.motor.buffers.BufferPool`, grown in place when the
    representation outruns it.  :meth:`window` latches the written span as
    a :class:`~repro.mp.buffers.BufferDesc`, so the OO operations send
    scatter-gather segments straight out of pooled memory — no terminal
    ``bytes(out)`` copy, and the buffer returns to the pool afterwards.
    """

    __slots__ = ("pool", "native", "pos")

    def __init__(self, pool, size_hint: int = 256) -> None:
        self.pool = pool
        self.native = pool.acquire(size_hint)
        self.pos = 0

    def _ensure(self, n: int) -> None:
        short = self.pos + n - len(self.native.mem)
        if short > 0:
            # at least double, so repeated small appends stay amortized O(1)
            self.native.mem.extend(bytes(max(short, len(self.native.mem))))

    def __iadd__(self, data) -> "PooledWriter":
        n = len(data)
        self._ensure(n)
        self.native.mem[self.pos : self.pos + n] = data
        self.pos += n
        return self

    def append(self, byte: int) -> None:
        self._ensure(1)
        self.native.mem[self.pos] = byte
        self.pos += 1

    def __len__(self) -> int:
        return self.pos

    def patch_u32(self, at: int, value: int) -> None:
        _u32.pack_into(self.native.mem, at, value)

    def view(self, begin: int = 0, end: int | None = None) -> memoryview:
        return memoryview(self.native.mem)[begin : self.pos if end is None else end]

    def window(self, begin: int = 0, end: int | None = None) -> BufferDesc:
        """Latch [begin, end) of the written span for the transport."""
        end = self.pos if end is None else end
        return BufferDesc(self.native.mem, begin, end - begin)

    def release(self) -> None:
        """Return the buffer to the pool (the transport is done with it)."""
        self.pool.release(self.native)


class _Reader:
    """Cursor over the header, type table and split framing.

    Every read past the end is a :class:`SerializationError`, never a
    ``struct.error`` or an ``IndexError``."""

    __slots__ = ("data", "pos")

    def __init__(self, data) -> None:
        self.data = memoryview(data)
        self.pos = 0

    def _take(self, st: struct.Struct) -> int:
        try:
            (v,) = st.unpack_from(self.data, self.pos)
        except struct.error:
            raise SerializationError("truncated representation") from None
        self.pos += st.size
        return v

    def u8(self) -> int:
        return self._take(_u8)

    def u16(self) -> int:
        return self._take(_u16)

    def u32(self) -> int:
        return self._take(_u32)

    def raw(self, n: int) -> memoryview:
        v = self.data[self.pos : self.pos + n]
        if len(v) != n:
            raise SerializationError("truncated representation")
        self.pos += n
        return v

    def text(self) -> str:
        try:
            return str(self.raw(self.u16()), "utf-8")
        except UnicodeDecodeError:
            raise SerializationError("type table holds a name that is not UTF-8") from None


# ---------------------------------------------------------------------------
# the serializer
# ---------------------------------------------------------------------------


def _picker(indices) -> itemgetter:
    """An ``itemgetter`` of ``indices`` that returns a tuple for any count."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else itemgetter(slice(0))


def _spans(fields: list[FieldDesc], code: str = "") -> struct.Struct:
    """One struct over an object's ``fields`` (ascending offsets): ``code``
    per field (else its ``Ns`` bytes), the gaps as pad bytes."""
    fmt, end = "<", 0
    for fd in fields:
        fmt += f"{fd.offset - end}x{code or f'{fd.size}s'}"
        end = fd.offset + fd.size
    return struct.Struct(fmt)


class _Plan:
    """What transport needs of one MethodTable, decoded once.

    A class's record is one ``struct``: its type-table index, then one
    ``q`` per reference id and ``Ns`` per primitive, in layout order, no
    padding; an index below is a place in it.  The walk reads an object's
    Transportable references (``ref_reader``) and primitives
    (``prim_reader``) with one ``struct`` call each and packs its record
    with one more: ``arrange`` lays ``(*ids, *primitives, -1)`` out in
    layout order, -1 standing for every other reference (always null on the
    wire, §4.2.2).  The landing picks a record's two kinds of id with
    ``ref_ids`` and ``opaque_ids``; ``refs`` is ``(index, heap offset)`` per
    Transportable reference (its FieldDesc in ``ref_fields``), ``prims``
    ``(index, heap offset, size)`` per primitive.  An array's record is a
    length and ``elem_size``-wide elements.
    """

    __slots__ = ("mt", "mt_id", "kind", "elem_size", "instance_size", "record", "ref_reader",
                 "prim_reader", "arrange", "ref_ids", "opaque_ids", "ref_fields",
                 "refs", "prims")

    def __init__(self, mt: MethodTable) -> None:
        self.mt, self.mt_id = mt, mt.mt_id
        if mt.is_array:
            self.kind = _K_REF_ARRAY if mt.element_is_ref else _K_PRIM_ARRAY
            self.elem_size = mt.element_size
        else:
            self.kind = _K_CLASS
            self.elem_size = 0
        self.instance_size = mt.instance_size
        fields = mt.fields  # none on an array
        self.record = struct.Struct(
            "<I" + "".join("q" if fd.is_ref else f"{fd.size}s" for fd in fields))
        refs = [fd for fd in fields if fd.is_ref and fd.is_transportable]
        prims = [fd for fd in fields if not fd.is_ref]
        self.ref_reader = _spans(refs, "Q")
        self.prim_reader = _spans(prims)
        place = {fd: k for k, fd in enumerate(refs + prims)}
        self.arrange = _picker([place.get(fd, len(place)) for fd in fields])
        index = {fd: i for i, fd in enumerate(fields, 1)}
        self.ref_ids = _picker([index[fd] for fd in refs])
        self.opaque_ids = _picker([index[fd] for fd in fields if fd.is_ref and fd not in place])
        self.ref_fields = tuple(refs)
        self.refs = tuple((index[fd], fd.offset) for fd in refs)
        self.prims = tuple((index[fd], fd.offset, fd.size) for fd in prims)


class MotorSerializer:
    """Flatten / reconstruct object trees over one runtime's heap."""

    #: the rank's hook spine (repro.mp.hooks): serialize/deserialize open
    #: regions, the counters below are exported as pull-model pvars
    hooks = NULL_SPINE

    def __init__(self, runtime, visited: str = "linear") -> None:
        if visited not in VISITED_KINDS:
            raise ValueError(f"unknown visited structure {visited!r}")
        self.runtime = runtime
        self.visited_kind = visited
        self.objects_serialized = 0
        self.objects_deserialized = 0
        #: mt_id -> plan; the registry never reuses an id
        self._plans: dict[int, _Plan] = {}
        #: (field, target MethodTable) pairs that passed rt.check_storable
        self._storable: set[tuple[FieldDesc, MethodTable]] = set()

    def _plan(self, mt: MethodTable) -> _Plan:
        plan = self._plans.get(mt.mt_id)
        if plan is None:
            plan = self._plans[mt.mt_id] = _Plan(mt)
        return plan

    # -- serialize ---------------------------------------------------------------

    def serialize(
        self, ref: ObjRef | None, out: bytearray | PooledWriter | None = None
    ) -> bytearray | PooledWriter:
        """Produce a regular (non-split) representation of ``ref``'s tree.

        ``out`` may be a plain bytearray or a :class:`PooledWriter`; the
        representation is appended either way."""
        out = out if out is not None else bytearray()
        h = self.hooks
        if not (h.region_begin or h.region_end or h.mark):
            self._serialize_root(ref, out)
            return out
        before = self.objects_serialized
        for cb in h.region_begin:
            cb("motor.serialize", {})
        try:
            self._serialize_root(ref, out)
        finally:
            for cb in h.region_end:
                cb("motor.serialize")
        for cb in h.mark:
            cb(
                "motor.serialized",
                {"objects": self.objects_serialized - before, "bytes": len(out)},
            )
        return out

    def _serialize_root(self, ref: ObjRef | None, out) -> None:
        rt = self.runtime
        heap, costs = rt.heap, rt.costs
        mem, mts = heap.mem, rt.registry.ids
        per_obj, per_byte = costs.motor_ser_per_obj_ns, costs.motor_ser_per_byte_ns
        header = HEADER.unpack_from

        # The visited record: ``queue`` is the objects in visit order (an
        # object's internal id is its place in it) and doubles as the work
        # queue; ``index`` finds an id without a scan, charged to nobody.
        index: dict[int, int] = {}
        queue: list[int] = []
        setdefault = index.setdefault
        probes = comparisons = 0
        # mt_id -> (plan, index in the type table, an object's charges), in table order
        types: dict[int, tuple[_Plan, int, tuple]] = {}
        owed: list[float] = []  # every object's charges, in walk order
        records = bytearray()
        if ref is not None and not ref.is_null:
            index[ref.addr] = 0
            queue.append(ref.addr)
            probes = 1  # a lookup in the empty record: no comparisons
        found = len(queue)
        try:
            for addr in queue:  # grows as the walk finds objects
                mt_id, _flags, _size, length = header(mem, addr)
                entry = types.get(mt_id)
                if entry is None:
                    plan = self._plan(mts[mt_id])
                    charges = (per_obj, *[per_byte * size for _, _, size in plan.prims])
                    entry = types[mt_id] = (plan, len(types), charges)
                plan, tidx, charges = entry
                kind = plan.kind
                if kind == _K_PRIM_ARRAY:
                    nbytes = length * plan.elem_size
                    owed += (per_obj, per_byte * nbytes)
                    records += _u32x2.pack(tidx, length)
                    records += mem[addr + ARRAY_DATA_OFFSET : addr + ARRAY_DATA_OFFSET + nbytes]
                    continue
                owed += charges
                if kind == _K_CLASS:
                    # Only Transportable references propagate; others are
                    # swapped to null (§4.2.2).
                    children = plan.ref_reader.unpack_from(mem, addr)
                else:
                    # Arrays are transported together with the array-entry
                    # objects they reference (paper §4.2.2).
                    children = struct.unpack_from(f"<{length}Q", mem, addr + ARRAY_DATA_OFFSET)
                ids = []
                for child in children:
                    if child:
                        # One lookup: a front-to-back scan compares idx + 1
                        # entries on a hit and every entry on a miss.
                        probes += 1
                        idx = setdefault(child, found)
                        if idx == found:
                            queue.append(child)
                            found += 1
                            comparisons += idx
                        else:
                            comparisons += idx + 1
                        ids.append(idx)
                    else:
                        ids.append(-1)
                if kind != _K_CLASS:
                    records += struct.pack(f"<II{length}q", tidx, length, *ids)
                    continue
                ids += plan.prim_reader.unpack_from(mem, addr)
                ids.append(-1)
                records += plan.record.pack(tidx, *plan.arrange(ids))
        finally:
            # The charges fold in walk order; a walk that raises still
            # charges the objects before the one it failed on.
            rt.clock.charge_all(owed)
        self.objects_serialized += len(queue)

        # The visited record's charge comes last.
        if self.visited_kind == "linear":
            rt.clock.charge(costs.visited_linear_cmp_ns * comparisons)
        else:
            rt.clock.charge(costs.visited_hash_probe_ns * probes)

        # Header + type table + object data.
        out += struct.pack("<III", MAGIC, 0, len(types))
        for plan, _, _ in types.values():
            self._write_type_entry(out, plan.mt)
        out += _u32.pack(len(queue))
        out += records

    @staticmethod
    def _write_type_entry(out, mt: MethodTable) -> None:
        if mt.is_array:
            out.append(_K_REF_ARRAY if mt.element_is_ref else _K_PRIM_ARRAY)
            _w_str(out, mt.element_type.name)
            return
        out.append(_K_CLASS)
        _w_str(out, mt.name)
        out += _u16.pack(len(mt.fields))
        for fd in mt.fields:
            _w_str(out, fd.name)
            out.append(1 if fd.is_ref else 0)
            _w_str(out, "" if fd.is_ref else fd.ftype.name)

    # -- deserialize ---------------------------------------------------------------

    def deserialize(self, data) -> ObjRef | None:
        """Reconstruct the object tree; returns the root (or None).

        Anything wrong with ``data`` is a :class:`SerializationError`
        raised before the first allocation."""
        h = self.hooks
        if not (h.region_begin or h.region_end):
            return self._deserialize(data)
        for cb in h.region_begin:
            cb("motor.deserialize", {"bytes": len(data)})
        try:
            return self._deserialize(data)
        finally:
            for cb in h.region_end:
                cb("motor.deserialize")

    def _scan(self, data: memoryview) -> list[tuple[_Plan, int, int, tuple]]:
        """Decode and validate every record; allocates and charges nothing.

        One ``(plan, length, instance size, values)`` per record.  A class's
        values are its unpacked record (type-table index, reference ids,
        primitive bytes), a reference array's its element ids, a primitive
        array's the ``(position, nbytes)`` of its payload inside ``data``.
        """
        rd = _Reader(data)
        if rd.u32() != MAGIC:
            raise SerializationError("bad magic")
        rd.u32()  # flags
        try:
            plans = [self._plan(self._read_type_entry(rd)) for _ in range(rd.u32())]
        except TypeLoadError as e:
            raise SerializationError(f"type table: {e}") from None
        nrecords, ntypes = rd.u32(), len(plans)
        pos, end = rd.pos, len(data)
        u32_from = _u32.unpack_from
        scanned = []
        ids: list[int] = []  # every Transportable reference field's object id,
        fields: list[FieldDesc] = []  # ... the field it fills,
        elems: list[int] = []  # ... every reference array element's
        nulls: list[int] = []  # ... and every other reference field's
        try:
            for _ in range(nrecords):
                (tidx,) = u32_from(data, pos)
                if tidx >= ntypes:
                    raise SerializationError(
                        f"record {len(scanned)}: type index {tidx} outside the "
                        f"{ntypes}-entry type table"
                    )
                plan = plans[tidx]
                kind = plan.kind
                if kind == _K_CLASS:
                    values = plan.record.unpack_from(data, pos)
                    pos += plan.record.size
                    ids += plan.ref_ids(values)
                    fields += plan.ref_fields
                    nulls += plan.opaque_ids(values)
                    scanned.append((plan, 0, plan.instance_size, values))
                    continue
                (length,) = u32_from(data, pos + 4)
                pos += 8
                nbytes = length * plan.elem_size
                if kind == _K_REF_ARRAY:
                    values = struct.unpack_from(f"<{length}q", data, pos)
                    elems += values
                elif pos + nbytes > end:
                    raise SerializationError("truncated representation")
                else:
                    values = (pos, nbytes)
                pos += nbytes
                size = (ARRAY_DATA_OFFSET + nbytes + 7) & ~7  # align8, inline
                scanned.append((plan, length, size, values))
        except struct.error:
            raise SerializationError("truncated representation") from None
        if pos != end:
            raise SerializationError(f"{end - pos} bytes after the last record")
        for refs in (ids, elems):
            if refs and not (-1 <= min(refs) and max(refs) < nrecords):
                raise SerializationError(f"an object id outside [-1, {nrecords})")
        if nulls.count(-1) != len(nulls):
            raise SerializationError("an object id in a reference that is not Transportable")
        # Every reference field can hold its target's type: the store rule,
        # checked once per (field, target type) pair, in record order.
        plan_of = [plan for plan, _, _, _ in scanned]
        plan_of.append(None)  # id -1, null
        for fd, target in dict.fromkeys(zip(fields, map(plan_of.__getitem__, ids))):
            if target is not None and (fd, target.mt) not in self._storable:
                try:
                    self.runtime.check_storable(fd.declaring, fd, target.mt)
                except ObjectModelViolation as e:
                    raise SerializationError(str(e)) from None
                self._storable.add((fd, target.mt))
        return scanned

    def _deserialize(self, data) -> ObjRef | None:
        rt = self.runtime
        data = memoryview(data)
        scanned = self._scan(data)
        if not scanned:
            return None
        heap, handles, costs = rt.heap, rt.handles, rt.costs
        mem = heap.mem
        charge_all = rt.clock.charge_all
        self.objects_deserialized += len(scanned)

        # Pass 1: land the objects in nursery runs (see the module
        # docstring).  ``addrs`` holds every landed object's address;
        # ``slots`` roots ``addrs[:len(slots)]`` across the collections.
        # The charges are owed in order and fold before the allocation that
        # may collect, and at the end.
        addrs: list[int] = []
        slots: list[int] = []
        owed: list[float] = []
        try:
            per_obj, alloc_ns = costs.motor_deser_per_obj_ns, costs.alloc_ns
            header, root, n, j = HEADER.pack_into, handles.alloc, len(scanned), 0
            while True:
                # The run: records j..k-1, which fit the free nursery (every
                # size is 8-aligned), one bump.  Each object is still charged
                # as allocating it alone would be.
                room = free = heap.nursery.free
                k = j
                while k < n and scanned[k][2] <= room:
                    room -= scanned[k][2]
                    k += 1
                addr = heap.alloc_gen0_run(free - room, k - j)
                owed += (per_obj, alloc_ns) * (k - j)
                for plan, length, size, _ in scanned[j:k]:
                    header(mem, addr, plan.mt_id, 0, size, length)
                    addrs.append(addr)
                    addr += size
                if k == n:
                    break
                # Record k is where allocating object by object collects.
                plan, length, size, _ = scanned[k]
                owed.append(per_obj)
                batch, owed = owed, []  # the finally folds only what is left
                charge_all(batch)
                slots += [root(a) for a in addrs[len(slots):]]
                slots.append(root(rt.alloc_object(plan.mt, size, length)))
                addrs = [handles.get(slot) for slot in slots]
                j = k + 1

            # Pass 2: fill payloads and wire references.  Nothing from here
            # to the last store allocates or polls a safepoint, so the
            # addresses are read once; id -1 reads the 0 appended to them.
            # The barrier records only a slot outside the nursery, so a
            # young object skips it.
            per_byte = costs.motor_ser_per_byte_ns
            record_write = rt.gc.record_write
            young = range(heap.nursery.base, heap.nursery.end)
            u64_into = _u64.pack_into
            addrs.append(0)
            for (plan, length, _, values), addr in zip(scanned, addrs):
                kind = plan.kind
                if kind == _K_CLASS:
                    for i, offset in plan.refs:
                        target = addrs[values[i]]
                        if target:  # else null: the instance was zeroed
                            u64_into(mem, addr + offset, target)
                            if addr not in young:
                                record_write(addr + offset, target)
                    for i, offset, size in plan.prims:
                        mem[addr + offset : addr + offset + size] = values[i]
                elif kind == _K_REF_ARRAY:
                    base = addr + ARRAY_DATA_OFFSET
                    targets = [addrs[rid] for rid in values]
                    struct.pack_into(f"<{length}Q", mem, base, *targets)
                    if addr not in young:
                        for i, target in enumerate(targets):
                            if target:
                                record_write(base + REF_SIZE * i, target)
                else:
                    pos, nbytes = values
                    base = addr + ARRAY_DATA_OFFSET
                    mem[base : base + nbytes] = data[pos : pos + nbytes]
                    owed.append(per_byte * nbytes)
            return rt.make_ref(addrs[0])
        finally:
            charge_all(owed)
            for slot in reversed(slots):
                handles.free(slot)

    def _read_type_entry(self, rd: _Reader) -> MethodTable:
        rt = self.runtime
        kind = rd.u8()
        if kind in (_K_PRIM_ARRAY, _K_REF_ARRAY):
            return rt.registry.array_of(rd.text())
        name = rd.text()
        mt = rt.registry.resolve(name)
        if not isinstance(mt, MethodTable) or mt.is_array:
            raise SerializationError(f"{name} is not a class at the receiver")
        nfields = rd.u16()
        if nfields != len(mt.fields):
            raise SerializationError(
                f"type-table mismatch for {name}: sender has {nfields} fields, "
                f"receiver has {len(mt.fields)}"
            )
        for fd in mt.fields:
            fname = rd.text()
            is_ref = bool(rd.u8())
            prim = rd.text()
            if fname != fd.name or is_ref != fd.is_ref or (
                not is_ref and prim != fd.ftype.name
            ):
                raise SerializationError(
                    f"field layout mismatch for {name}.{fd.name}"
                )
        return mt

    # -- split representation (paper §7.5) ---------------------------------------

    def serialize_array_split(
        self, array_ref: ObjRef, offset: int = 0, count: int | None = None
    ) -> tuple[str, list[bytes]]:
        """One independently-deserializable part per array element.

        Returns ``(element_type_name, parts)``.  Each part is a regular
        representation of that element's tree (shared substructure between
        elements is duplicated across parts — the price of independent
        deserializability, and why gather can reassemble on any rank).
        """
        name, offset, count = self._split_slice(array_ref, offset, count)
        rt = self.runtime
        parts: list[bytes] = []
        for i in range(offset, offset + count):
            elem = rt.get_elem(array_ref, i)
            parts.append(bytes(self.serialize(elem)))
        return name, parts

    def _split_slice(
        self, array_ref: ObjRef, offset: int, count: int | None
    ) -> tuple[str, int, int]:
        """Validate a split request; returns (element type name, offset, count)."""
        rt = self.runtime
        mt = rt.om.method_table(array_ref.require())
        if not mt.is_array or not mt.element_is_ref:
            raise SerializationError(
                "split representation requires an array of objects"
            )
        length = rt.om.array_length(array_ref.addr)
        if count is None:
            count = length - offset
        if offset < 0 or count < 0 or offset + count > length:
            raise SerializationError(
                f"split slice [{offset}:{offset + count}] exceeds length {length}"
            )
        return mt.element_type.name, offset, count

    def write_split_frame(
        self,
        out: bytearray | PooledWriter,
        array_ref: ObjRef,
        offset: int = 0,
        count: int | None = None,
    ) -> tuple[str, int]:
        """One-pass framed split representation, straight into ``out``.

        Equivalent to ``frame_parts(*serialize_array_split(...))`` but each
        element serializes directly into the output (a pooled writer on the
        OO paths) behind a backpatched length prefix — no per-part
        ``bytes()`` copies and no reassembly.  Returns
        ``(element_type_name, part_count)``.
        """
        name, offset, count = self._split_slice(array_ref, offset, count)
        rt = self.runtime
        out += _u32.pack(SPLIT_MAGIC)
        _w_str(out, name)
        out += _u32.pack(count)
        for i in range(offset, offset + count):
            at = len(out)
            out += _u32.pack(0)  # length prefix, backpatched below
            self.serialize(rt.get_elem(array_ref, i), out)
            _patch_u32(out, at, len(out) - at - 4)
        return name, count

    def build_array_from_parts(self, element_type_name: str, parts: Iterable[bytes]) -> ObjRef:
        """Gather-side reassembly: parts -> one array of objects."""
        rt = self.runtime
        elems = [self.deserialize(p) for p in parts]
        arr = rt.new_array(element_type_name, len(elems))
        for i, e in enumerate(elems):
            rt.set_elem_ref(arr, i, e)
        return arr

    # -- split framing helpers (used by OScatter/OGather wire format) -----------

    @staticmethod
    def frame_parts(element_type_name: str, parts: list[bytes]) -> bytes:
        out = bytearray()
        out += _u32.pack(SPLIT_MAGIC)
        _w_str(out, element_type_name)
        out += _u32.pack(len(parts))
        for p in parts:
            out += _u32.pack(len(p))
            out += p
        return bytes(out)

    @staticmethod
    def unframe_parts(data) -> tuple[str, list[memoryview]]:
        """Split a frame into its parts — as *views* into ``data``.

        No copies: each part windows the caller's buffer, so consume the
        parts (deserialize/compare) before recycling that buffer.
        """
        rd = _Reader(data)
        if rd.u32() != SPLIT_MAGIC:
            raise SerializationError("bad split magic")
        name = rd.text()
        nparts = rd.u32()
        parts = [rd.raw(rd.u32()) for _ in range(nparts)]
        return name, parts
