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
reference field can hold its target — before it allocates anything, and
it works *by type*, as the representation is laid out.  One sequential
pass finds where each record starts (a type index per record, a length per
array); everything else is ``numpy`` array work over views of the
representation and of the heap: per class type, its records' ids and
primitive bytes in one gather each; over every array at once, its elements
as 8-byte words; the checks as reductions, the store rule as one lookup
in a table of (field, entry) verdicts built once per type table.

The landing then places the objects in *runs*: the records that fit the
free nursery are bump-allocated with one heap call, their addresses a
cumulative sum of their sizes and their headers scattered in,
and nothing in a run can move until the allocator is entered again (a
charge never collects: async progress steps skip the safepoint yield).  The
record that does not fit is where object-by-object allocation would
collect, so the objects landed so far are rooted in GC-updated handle
slots, the charges owed so far are folded, it is allocated through the
runtime, and the addresses are read back.  Once every object has its
address, nothing allocates: the references are wired (id -1 reads a 0
appended to the addresses), the primitives and payloads copied, one
scatter per class type and one for all the arrays, and the write barrier
is offered only the stores of a slot outside the nursery that point into
it, record by record as landing one object at a time would.  The charges
— ``(per object, allocation)`` per record in landing order, then one per
primitive array's bytes in record order — fold as ``float64`` arrays, the
same additions in the same order.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from operator import itemgetter
from typing import Any, Iterable, NamedTuple

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
    padding.  The walk reads an object's Transportable references
    (``ref_reader``) and primitives (``prim_reader``) with one ``struct``
    call each and packs its record with one more: ``arrange`` lays
    ``(*ids, *primitives, -1)`` out in layout order, -1 standing for every
    other reference (always null on the wire, §4.2.2).  ``ref_fields`` are
    the Transportable references' FieldDescs, ``prim_sizes`` the primitives'
    sizes.  An array's record is a length and ``elem_size``-wide elements.
    """

    __slots__ = ("mt", "mt_id", "kind", "elem_size", "instance_size", "record", "ref_reader",
                 "prim_reader", "arrange", "ref_fields", "prim_sizes", "_columns")

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
        self.ref_fields = tuple(refs)
        self.prim_sizes = tuple(fd.size for fd in prims)
        self._columns = None

    def columns(self) -> _Columns:
        """Where a record's fields sit in the record and in the object, as
        ``numpy`` index arrays (built by the first landing: the sender never
        needs them)."""
        if self._columns is None:
            import numpy as np

            fields = self.mt.fields
            at = dict(zip(fields, itertools.accumulate((fd.size for fd in fields), initial=4)))
            refs = self.ref_fields
            ids = [*refs, *(fd for fd in fields if fd.is_ref and fd not in refs)]
            prims = [(at[fd] + b, fd.offset + b)
                     for fd in fields if not fd.is_ref for b in range(fd.size)]
            self._columns = _Columns(
                np.array([at[fd] for fd in ids], np.int64),
                np.arange(len(refs)),
                np.array([fd.offset >> 3 for fd in refs], np.int64),
                np.array([r for r, _ in prims], np.int64),
                np.array([h for _, h in prims], np.int64),
            )
        return self._columns


class _Columns(NamedTuple):
    """A class plan's landing columns: the record offsets of its reference
    ids (the Transportable ones first, in layout order, then the others);
    the Transportable ones' places and their word offsets in the object;
    the record and object offsets of every primitive byte."""

    rec_ids: Any
    places: Any
    heap_refs: Any
    rec_prims: Any
    heap_prims: Any


class _Table(NamedTuple):
    """A decoded type table.

    Its plans; per entry the record boundary pass's step (a
    class record's size, 0 for an array) and element width; ``types``,
    whose rows are every entry's kind, mt_id, size base, element width and
    length mask (a record's size is ``(length * width + base) & ~7``, its
    length ``u32 & mask``); and per class entry ``stores``: whether each of
    its Transportable references may name a record of each entry, then
    null — the store rule."""

    plans: list
    steps: list
    widths: list
    types: Any
    stores: list


class _Records:
    """A validated representation, decoded by type.

    Per record, the header words: ``mt_id``, ``size`` and ``lengths`` (0 for
    a class).  Per class type, ``(plan, its table entry, its records, their
    reference ids, their primitive bytes or None)``.  For every array at
    once, ``arrays``: ``(each word's record, its place in its array, the
    words, which words are reference ids, those ids)``, or None.
    ``nbytes`` is every primitive array's payload size, in record order.
    Ids are -1 for null."""

    __slots__ = ("n", "mt_id", "size", "lengths", "nbytes", "classes", "arrays")

    def __init__(self, n, mt_id, size, lengths, nbytes) -> None:
        self.n, self.mt_id, self.size, self.lengths, self.nbytes = n, mt_id, size, lengths, nbytes
        self.classes: list = []
        self.arrays = None


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
        self._views = None  # the heap as numpy words and bytes

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
                    charges = (per_obj, *[per_byte * size for size in plan.prim_sizes])
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

    def _type_table(self, rd: _Reader) -> _Table:
        """Read the type table at ``rd``, and what the records need of it."""
        try:
            plans = [self._plan(self._read_type_entry(rd)) for _ in range(rd.u32())]
        except TypeLoadError as e:
            raise SerializationError(f"type table: {e}") from None
        import numpy as np

        def storable(fd: FieldDesc, mt: MethodTable) -> bool:
            try:
                self.runtime.check_storable(fd.declaring, fd, mt)
            except ObjectModelViolation:
                return False
            return True

        stores = [
            np.array([[*(storable(fd, p.mt) for p in plans), True] for fd in plan.ref_fields],
                     bool).reshape(-1, len(plans) + 1)
            for plan in plans
        ]
        return _Table(
            plans,
            [plan.record.size if plan.kind == _K_CLASS else 0 for plan in plans],
            [plan.elem_size for plan in plans],
            np.array([
                (p.kind, p.mt_id, p.instance_size, 0, 0) if p.kind == _K_CLASS
                else (p.kind, p.mt_id, ARRAY_DATA_OFFSET + 7, p.elem_size, 0xFFFFFFFF)
                for p in plans
            ], np.int64).reshape(-1, 5).T,
            stores,
        )

    def _scan(self, data) -> _Records | None:
        """Decode and validate every record; allocates and charges nothing.

        One sequential pass finds where each record starts (a type index
        per record, a length per array); everything else is array work, per
        class type and over all arrays at once.  None for a null root."""
        import numpy as np

        end = len(data)
        buf = bytearray(end + 8)  # the representation, and zeros to read a
        buf[:end] = data  # payload's last word whole
        mv = memoryview(buf)[:end]
        rd = _Reader(mv)
        if rd.u32() != MAGIC:
            raise SerializationError("bad magic")
        rd.u32()  # flags
        table = self._type_table(rd)
        plans, ntypes = table.plans, len(table.plans)
        n, pos = rd.u32(), rd.pos
        if n > (end - pos) // 4:  # every record is 4 bytes or more
            raise SerializationError(f"{n} records cannot fit in {end - pos} bytes")

        # The one loop over records: where each starts.  ``words[k][i]`` is
        # the u32 at byte 4i + k; a read past the end is an IndexError.
        words = [mv[k : k + ((end - k) & ~3)].cast("I") for k in range(4)]
        steps, widths = table.steps, table.widths
        starts = array("q")
        add = starts.append
        try:
            for _ in range(n):
                add(pos)
                w, i = words[pos & 3], pos >> 2
                t = w[i]
                pos += steps[t] or _u32x2.size + w[i + 1] * widths[t]
        except IndexError:
            pos = starts[-1]
            if pos + 4 <= end and (t := _u32.unpack_from(mv, pos)[0]) >= ntypes:
                raise SerializationError(
                    f"record {len(starts) - 1}: type index {t} outside the "
                    f"{ntypes}-entry type table"
                ) from None
            raise SerializationError("truncated representation") from None
        if pos > end:
            raise SerializationError("truncated representation")
        if pos != end:
            raise SerializationError(f"{end - pos} bytes after the last record")
        if not n:
            return None

        # Per record: type, length (an array's second u32) and size.
        # ``at[p]`` is the 8 bytes at position p.
        at = np.ndarray((end + 1,), "<i8", buf, 0, (1,))
        begin = np.frombuffer(starts, np.int64)
        first = at[begin]
        tids = first & 0xFFFFFFFF
        kind, mt_id, base, width, mask = table.types[:, tids]
        lengths = (first >> 32) & mask
        nbytes = lengths * width
        rec = _Records(n, mt_id, (nbytes + base) & ~7, lengths, nbytes[kind == _K_PRIM_ARRAY])

        # Per class type: its records' reference ids and primitive bytes.
        for t, plan in enumerate(plans):
            of_t = (tids == t).nonzero()[0] if plan.kind == _K_CLASS else ()
            if len(of_t):
                cols = plan.columns()
                row = begin[of_t][:, None]
                prims = None
                if len(cols.rec_prims):
                    prims = np.frombuffer(buf, np.uint8)[row + cols.rec_prims]
                rec.classes.append((plan, t, of_t, at[row + cols.rec_ids], prims))
        # Every array at once: its elements as words, ``rows`` each word's
        # record and ``place`` its place in its array.
        arr = width.nonzero()[0]
        if len(arr):
            nb = nbytes[arr]
            count = (nb + 7) >> 3
            ends = count.cumsum()
            rows = arr.repeat(count)
            place = np.arange(ends[-1]) - (ends - count).repeat(count)
            elems = at[begin[rows] + _u32x2.size + (place << 3)]
            tail = nb & 7
            cut = tail.nonzero()[0]  # the last word keeps only payload bytes
            if len(cut):
                elems[ends[cut] - 1] &= (1 << (tail[cut] << 3)) - 1
            isref = kind[rows] == _K_REF_ARRAY
            rec.arrays = (rows, place, elems, isref, elems[isref])

        # The checks, in the order checking record by record meets a fault:
        # an id out of range, an id in a reference that is not Transportable,
        # then the store rule, pair by pair in record order (``stores`` is
        # the rule, id -1 reading type ``ntypes``: null).
        ref_ids = [ids[:, : len(plan.ref_fields)] for plan, _, _, ids, _ in rec.classes]
        for ids in ref_ids if rec.arrays is None else [*ref_ids, rec.arrays[4]]:
            if ids.size and not (-1 <= ids.min() and ids.max() < n):
                raise SerializationError(f"an object id outside [-1, {n})")
        for plan, _, _, ids, _ in rec.classes:
            if (ids[:, len(plan.ref_fields):] != -1).any():
                raise SerializationError("an object id in a reference that is not Transportable")
        tids = np.concatenate((tids, (ntypes,)))
        refused = []  # (record, field, target type) of each refused store
        for (plan, t, of_t, _, _), ids in zip(rec.classes, ref_ids):
            targets = tids[ids]
            bad, ks = (~table.stores[t][plan.columns().places, targets]).nonzero()
            refused += zip(of_t[bad].tolist(), ks.tolist(), targets[bad, ks].tolist())
        if refused:
            record, k, target = min(refused)
            fd = plans[tids[record]].ref_fields[k]
            try:
                self.runtime.check_storable(fd.declaring, fd, plans[target].mt)
            except ObjectModelViolation as e:
                raise SerializationError(str(e)) from None
        return rec

    def _heap_views(self) -> tuple:
        """The heap as ``numpy`` words and bytes (its mapping never moves)."""
        if self._views is None:
            import numpy as np

            mem = self.runtime.heap.mem
            self._views = np.frombuffer(mem, "<i8", len(mem) >> 3), np.frombuffer(mem, np.uint8)
        return self._views

    def _deserialize(self, data) -> ObjRef | None:
        import numpy as np

        rec = self._scan(data)
        if rec is None:
            return None
        rt = self.runtime
        heap, handles, costs = rt.heap, rt.handles, rt.costs
        charge_all = rt.clock.charge_all
        heap_words, heap_bytes = self._heap_views()
        self.objects_deserialized += rec.n

        # Land the objects in nursery runs (see the module docstring).
        # ``placed`` holds the landed objects' addresses, in pieces;
        # ``slots`` roots the first ``len(slots)`` across the collections.
        # The charges are owed in order and fold before the allocation that
        # may collect, and at the end.
        n, size = rec.n, rec.size
        ends = size.cumsum()
        aux = size | rec.lengths << 32  # a header's second word: size, then aux
        pairs = np.full(2 * n, costs.alloc_ns)  # each object's (per object, allocation)
        pairs[0::2] = costs.motor_deser_per_obj_ns
        placed: list = []
        slots: list[int] = []
        owed: list = []
        try:
            root, j = handles.alloc, 0
            while True:
                # The run: records j..k-1, which fit the free nursery, one
                # bump.  Each object is still charged as allocating it alone.
                done = int(ends[j - 1]) if j else 0
                k = int(ends.searchsorted(done + heap.nursery.free, "right"))
                addr = heap.alloc_gen0_run(int(ends[k - 1]) - done if k > j else 0, k - j)
                run = ends[j:k] - size[j:k] + (addr - done)
                word = run >> 3
                heap_words[word] = rec.mt_id[j:k]
                heap_words[word + 1] = aux[j:k]
                placed.append(run)
                owed.append(pairs[2 * j : 2 * k])
                if k == n:
                    break
                # Record k is where allocating object by object collects.
                batch, owed = np.concatenate((*owed, pairs[2 * k : 2 * k + 1])), []
                charge_all(batch)  # the finally folds only what is owed after it
                slots += map(root, np.concatenate(placed)[len(slots):].tolist())
                mt = self._plans[int(rec.mt_id[k])].mt
                slots.append(root(rt.alloc_object(mt, int(size[k]), int(rec.lengths[k]))))
                placed = [np.array(list(map(handles.get, slots)), np.int64)]
                j = k + 1

            # Fill the payloads and wire the references.  Nothing from here
            # on allocates or polls a safepoint, so the addresses are read
            # once; id -1 reads the 0 appended to them.
            addrs = np.concatenate((*placed, (0,)))
            stores = []  # (slot word, target, record) of every reference written
            for plan, _, of_t, ids, prims in rec.classes:
                cols = plan.columns()
                at = addrs[of_t][:, None]
                slot = (at >> 3) + cols.heap_refs
                heap_words[slot] = target = addrs[ids[:, : len(plan.ref_fields)]]
                stores.append((slot, target, of_t[:, None]))
                if prims is not None:
                    heap_bytes[at + cols.heap_prims] = prims
            if rec.arrays is not None:
                rows, place, elems, isref, ids = rec.arrays
                slot = (addrs[rows] >> 3) + (ARRAY_DATA_OFFSET // REF_SIZE) + place
                elems[isref] = target = addrs[ids]
                heap_words[slot] = elems
                stores.append((slot[isref], target, rows[isref]))
            owed.append(costs.motor_ser_per_byte_ns * rec.nbytes)
            if slots:  # else every landed object is in the nursery
                self._barrier(stores)
            return rt.make_ref(int(addrs[0]))
        finally:
            if owed:
                charge_all(np.concatenate(owed))
            for slot in reversed(slots):
                handles.free(slot)

    def _barrier(self, stores) -> None:
        """The write barrier of the landing's stores: it records only a slot
        outside the nursery that now holds a nursery address, so only those
        are offered to it, record by record and field by field (the order
        the remembered set is filled in is the order the next collection
        forwards in)."""
        import numpy as np

        nursery, record_write = self.runtime.heap.nursery, self.runtime.gc.record_write
        lo, hi = nursery.base, nursery.end
        slots = np.concatenate([s.ravel() for s, _, _ in stores]) << 3
        targets = np.concatenate([t.ravel() for _, t, _ in stores])
        records = np.concatenate([np.broadcast_to(r, s.shape).ravel() for s, _, r in stores])
        keep = (((slots < lo) | (slots >= hi)) & (targets >= lo) & (targets < hi)).nonzero()[0]
        keep = keep[records[keep].argsort(kind="stable")]
        for slot, target in zip(slots[keep].tolist(), targets[keep].tolist()):
            record_write(slot, target)

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
