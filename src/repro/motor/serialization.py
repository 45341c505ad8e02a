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
reads: a *pointer chase* visits only the objects that can hold references
(class objects and reference arrays: one header read, one ``struct`` call
for the references), and a reference declared as a primitive array names a
leaf it never visits — arrays have no subclasses and every store is
checked, so such a reference can name nothing else.  An object's internal
id is its first-appearance rank among the root and the references read,
one dict lookup each.  Then one *by-type encode* lays out every record with
``numpy`` over the ids: headers gathered, type tables in first-appearance
order, record offsets as a cumulative sum, type indices, reference ids,
primitive bytes (through :meth:`_Plan.columns`) and array payloads
scattered into place — for one representation or for every part of a split
frame at once.  A heap in which something that holds references was left
unvisited broke the store rule (only ``ObjectModel.set_ref_raw`` can), and
is refused before anything is charged.

**What is modelled and what is host cost.**  The virtual clock is charged
per object, per primitive byte and per visited-record comparison at the
2006 rates of :mod:`repro.simtime.costs` — one charge per object, per
primitive field and per primitive array, applied one at a time in id
order (``0.9`` and ``2.2`` ns are not exact in binary, so a sum of them
depends on its order).  The encode owes them, each part's visited-record
charge after its objects', and applies them with one
:meth:`~repro.simtime.clock.Clock.charge_all`, an exact fold: the
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
fix, ablation A4), last.  Both counts follow from the ids of the
references read, so the chase keeps none.  How the host *finds* an address
in the record is not modelled.

The **split representation** (one independently-deserializable part per
array element) enables the OScatter/OGather operations no standard
serializer supports; see :meth:`MotorSerializer.serialize_array_split`.

A split frame is one ``motor.serialize`` region and one ``motor.serialized``
mark (its objects summed over its parts), and landing the parts of one
(:meth:`MotorSerializer.build_array_from_parts`) one ``motor.deserialize``
region: the hook spine sees one pass, as the work is done.

Safety: serialization touches raw heap addresses but never allocates
managed memory or polls a safepoint, so no collection can move objects
mid-walk.  Deserialization validates the whole representation — framing,
object ids, that every non-Transportable reference is null and that every
reference field can hold its target — before it allocates anything, and
it works *by type*, as the representation is laid out, over every part of a
batch at once (one for :meth:`MotorSerializer.deserialize`, every part of a
split frame for the gather side).  One sequential pass per part finds where
each record starts (a type index per record, a length per array);
everything else is ``numpy`` array work over views of the parts and of the
heap: per class type, its records' ids and primitive bytes in one gather
each; over every reference array at once, its elements; the checks as
reductions, the store rule as one lookup in a table of (field, mt_id)
verdicts built once per class.

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
it, record by record as landing one object at a time would.  A batch wires
each part before the next collection and holds its root by a reference, so
every collection sees the heap as landing the parts one after the other
would.  The charges — per part, ``(per object, allocation)`` per record in
landing order, then one per primitive array's bytes in record order — fold
as ``float64`` arrays, the same additions in the same order.
"""

from __future__ import annotations

import bisect
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
_u32x3 = struct.Struct("<III")


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


class PooledWriter:
    """Serializer output over one pooled native buffer (paper §7.5).

    A drop-in for the ``out`` bytearray :meth:`MotorSerializer.serialize`
    accepts — it supports ``+=`` and ``len()`` — but the bytes
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

    def __len__(self) -> int:
        return self.pos

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


def _picker(indices: list[int]) -> itemgetter:
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

    A class's record is its type-table index, then one ``q`` per reference
    id and ``Ns`` per primitive, in layout order, no padding (``record``);
    -1 stands for every reference that is not Transportable (always null on
    the wire, §4.2.2).  The chase reads an object's Transportable
    references (``ref_fields``) with one ``struct`` call (``ref_reader``)
    and follows those that are not ``leaves`` (``chased``).  ``row`` is
    what the encode needs per object of the type (kind, record size base
    and element width, charges, references, whether its heap words are
    copied), ``scan`` what the receiver's record pass needs (kind, mt_id,
    size base, element width, length mask: a record's size is ``(length *
    width + base) & ~7``, its length ``u32 & mask``), ``entry`` its
    type-table entry.  An array's record is a length and ``elem_size``-wide
    elements.
    """

    __slots__ = ("mt", "mt_id", "kind", "elem_size", "instance_size", "record", "ref_reader",
                 "leaves", "chased", "ref_fields", "prim_sizes", "row", "scan", "entry",
                 "_columns")

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
        # a reference declared as a primitive array can name nothing else
        self.leaves = [fd.ftype.is_array and not fd.ftype.element_is_ref for fd in refs]
        self.chased = _picker([k for k, leaf in enumerate(self.leaves) if not leaf])
        self.ref_fields = tuple(refs)
        self.prim_sizes = tuple(fd.size for fd in prims)
        self.row = (
            (self.kind, self.record.size, 0, 1 + len(prims), len(refs), 0) if not mt.is_array
            else (self.kind, _u32x2.size, self.elem_size, 2 if self.kind == _K_PRIM_ARRAY else 1,
                  0, 1))
        self.scan = (
            (self.kind, self.mt_id, self.instance_size, 0, 0) if self.kind == _K_CLASS
            else (self.kind, self.mt_id, ARRAY_DATA_OFFSET + 7, self.elem_size, 0xFFFFFFFF))
        self.entry = self._type_entry(mt)
        self._columns = None

    @staticmethod
    def _type_entry(mt: MethodTable) -> bytes:
        """``mt``'s entry in a type table: its kind and name, and a class's
        fields (name, whether a reference, a primitive's type name)."""
        out = bytearray()
        if mt.is_array:
            out.append(_K_REF_ARRAY if mt.element_is_ref else _K_PRIM_ARRAY)
            _w_str(out, mt.element_type.name)
            return bytes(out)
        out.append(_K_CLASS)
        _w_str(out, mt.name)
        out += _u16.pack(len(mt.fields))
        for fd in mt.fields:
            _w_str(out, fd.name)
            out.append(1 if fd.is_ref else 0)
            _w_str(out, "" if fd.is_ref else fd.ftype.name)
        return bytes(out)

    def columns(self) -> _Columns:
        """Where a record's fields sit in the record and in the object, as
        ``numpy`` index arrays (built the first time a record of the plan is
        encoded or landed)."""
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
                np.array(self.leaves, bool),
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
    leaves: Any
    heap_refs: Any
    rec_prims: Any
    heap_prims: Any


class _Table(NamedTuple):
    """A decoded type table: its plans, and per entry the record pass's
    step (a class record's size, 0 for an array) and element width."""

    plans: list
    steps: list
    widths: list


class _Records:
    """Validated representations, decoded by type.

    Per part, its record count and where its records start (``first``, and
    the total last).  Per record, the header words: ``mt_id``, ``size`` and
    ``lengths`` (0 for a class).  ``at`` is the parts as an i64 at every
    byte.  Per class type, ``(plan, its records, the records their
    Transportable references name, their primitive bytes or None)``.  For
    every reference array at once, ``elements``: ``(each element's record,
    its place in its array, the record it names)``, or None.  A reference
    to null names record -1.  The primitive arrays' records
    (``prim``), where they start (``payloads``) and their payload sizes
    (``nbytes``), in record order."""

    __slots__ = ("n", "counts", "first", "mt_id", "size", "lengths", "at",
                 "prim", "payloads", "nbytes", "classes", "elements")

    def __init__(self, n: int, counts: list) -> None:
        self.n, self.counts = n, counts
        self.first = list(itertools.accumulate(counts, initial=0))
        self.classes: list = []
        self.elements = None

    def fill(self, mt_id, size, lengths, at, prim, payloads, nbytes) -> None:
        self.mt_id, self.size, self.lengths = mt_id, size, lengths
        self.at, self.prim, self.payloads, self.nbytes = at, prim, payloads, nbytes


class _Chase(NamedTuple):
    """One part's pointer chase: its objects (addresses, in id order), the
    ids of the references the visits read (-1 for null), its visited
    record's charge, and how many objects that hold references it visited."""

    objects: Any
    ids: list
    visited: float
    holders: int


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
        self._lut = (0, None)  # (plans, their rows), see _rows
        self._rules: dict = {}  # mt_id -> its plan's store rule, see _rule

    def _plan(self, mt_id: int) -> _Plan:
        plan = self._plans.get(mt_id)
        if plan is None:
            plan = self._plans[mt_id] = _Plan(self.runtime.registry.ids[mt_id])
        return plan

    # -- serialize ---------------------------------------------------------------

    def serialize(
        self, ref: ObjRef | None, out: bytearray | PooledWriter | None = None
    ) -> bytearray | PooledWriter:
        """Produce a regular (non-split) representation of ``ref``'s tree.

        ``out`` may be a plain bytearray or a :class:`PooledWriter`; the
        representation is appended either way."""
        out = out if out is not None else bytearray()
        self._emit(out, [0 if ref is None or ref.is_null else ref.addr], framed=False)
        return out

    def _emit(self, out, roots: list[int], framed: bool) -> None:
        """One representation per address of ``roots`` (0: null) into
        ``out``, each behind a u32 length when ``framed``, inside the hook
        spine's serialize region."""
        h = self.hooks
        if not (h.region_begin or h.region_end or h.mark):
            self._encode(out, [self._chase(root) for root in roots], framed)
            return
        before = self.objects_serialized
        for cb in h.region_begin:
            cb("motor.serialize", {})
        try:
            self._encode(out, [self._chase(root) for root in roots], framed)
        finally:
            for cb in h.region_end:
                cb("motor.serialize")
        for cb in h.mark:
            cb(
                "motor.serialized",
                {"objects": self.objects_serialized - before, "bytes": len(out)},
            )

    def _chase(self, root: int) -> _Chase:
        """The pointer chase from the object at ``root`` (0: null).

        Class objects and reference arrays are visited: their header is
        read, then their references, and each reference not met before is
        visited in turn.  A reference declared as a primitive array names a
        leaf, which is never visited: arrays have no subclasses, and every
        store is checked (the encoder refuses a heap that broke the rule).
        So objects are visited in the order they are first named, and an
        object's internal id is its first-appearance rank among the root
        and the references read, each found by one dict lookup."""
        mem, plans = self.runtime.heap.mem, self._plans
        header = HEADER.unpack_from
        todo = [root] if root else []  # grows as the chase finds objects
        seen = dict.fromkeys((0, root))
        refs: list[int] = []
        arrays = 0  # primitive arrays visited (through a reference of another type)
        for addr in todo:
            mt_id, _flags, _size, length = header(mem, addr)
            plan = plans.get(mt_id) or self._plan(mt_id)
            if plan.kind == _K_CLASS:
                # Only Transportable references propagate; others are
                # swapped to null (§4.2.2).
                children = plan.ref_reader.unpack_from(mem, addr)
                chased = plan.chased(children)
            elif plan.kind == _K_REF_ARRAY:
                # Arrays are transported together with the array-entry
                # objects they reference (paper §4.2.2).
                children = chased = struct.unpack_from(
                    f"<{length}Q", mem, addr + ARRAY_DATA_OFFSET)
            else:
                arrays += 1
                continue
            refs += children
            for child in chased:
                if child not in seen:
                    seen[child] = None
                    todo.append(child)
        rank = dict(zip(dict.fromkeys(itertools.chain((0, root), refs)), itertools.count(-1)))
        ids = list(map(rank.__getitem__, refs))
        del rank[0]

        # A front-to-back scan of the visited record compares idx + 1
        # entries on a hit and idx on a miss, and every object but the root
        # is found by a miss: over the non-null ids c, sum(c + 1) - (n - 1)
        # comparisons.  A hashed record probes once a non-null reference,
        # and once for the root.
        nulls = ids.count(-1)
        found = len(ids) - nulls
        if not rank:
            visited = 0.0
        elif self.visited_kind == "linear":
            visited = self.runtime.costs.visited_linear_cmp_ns * (
                sum(ids) + nulls + found - (len(rank) - 1))
        else:
            visited = self.runtime.costs.visited_hash_probe_ns * (found + 1)
        return _Chase(rank, ids, visited, len(todo) - arrays)

    def _rows(self):
        """Every plan's ``row`` as ``numpy`` columns indexed by mt_id."""
        if self._lut[1] is None or self._lut[0] != len(self._plans):
            import numpy as np

            lut = np.zeros((6, max(self._plans, default=0) + 1), np.int64)
            for mt_id, plan in self._plans.items():
                lut[:, mt_id] = plan.row
            self._lut = (len(self._plans), lut)
        return self._lut[1]

    def _encode(self, out, chases: list[_Chase], framed: bool) -> None:
        """Lay out the records of every chased part by type, fold every
        charge they owe with one ``charge_all``, and append the parts to
        ``out``, each behind a u32 length when ``framed``."""
        import numpy as np

        rt = self.runtime
        costs = rt.costs
        per_byte = costs.motor_ser_per_byte_ns
        heap_words, heap_bytes = self._heap_views()

        # Every part's objects in id order, one after the other, and the
        # ids of the references their visits read.
        chain = itertools.chain.from_iterable
        nparts = len(chases)
        counts = [len(c.objects) for c in chases]
        last = [0, *itertools.accumulate(counts)]  # where each part's objects end
        n = last[-1]
        addr = np.fromiter(chain(c.objects for c in chases), np.int64, n)
        ids = np.fromiter(chain(c.ids for c in chases), np.int64)
        part = np.arange(nparts).repeat(counts)
        word = addr >> 3
        mt_id = heap_words[word] & 0xFFFFFFFF
        length = heap_words[word + 1] >> 32
        width = int(mt_id.max(initial=0)) + 1

        # Each part's type table, in first-appearance order: a type is told
        # apart per part by its key, part * width + mt_id.
        key = part * width + mt_id
        table = dict.fromkeys(key.tolist())
        tables: list[list[_Plan]] = [[] for _ in range(nparts)]
        rank = []
        for k in table:
            entries = tables[k // width]
            rank.append(len(entries))
            entries.append(self._plan(k % width))
        local = np.zeros(nparts * width, np.int64)
        local[list(table)] = rank
        kind, base, step, nch, nref, per_len = self._rows().take(mt_id, 1)

        # Every object that holds references was visited, or a
        # primitive-array reference names it: the heap breaks the store rule.
        if int(np.count_nonzero(kind != _K_PRIM_ARRAY)) != sum(c.holders for c in chases):
            raise SerializationError(
                "a primitive-array reference names an object that is not a primitive "
                "array: the heap breaks the store rule")

        # Where each record goes, and each object's charges: per object,
        # then its primitives (an array's bytes); after each part's
        # objects, its visited record's.
        size = base + length * step
        end = size.cumsum()
        off = end - size
        owes = nch.cumsum()
        charge_at = owes - nch + part
        rec_at = np.concatenate(((0,), end)).take(last).tolist()
        owed = np.full(int(owes[-1]) + nparts if n else nparts, costs.motor_ser_per_obj_ns)
        owed[np.concatenate(((0,), owes)).take(last[1:]) + np.arange(nparts)] = \
            [c.visited for c in chases]
        arr = (kind == _K_PRIM_ARRAY).nonzero()[0]
        owed[charge_at[arr] + 1] = per_byte * (size[arr] - _u32x2.size)

        # The records, scattered into ``buf`` through views of it as a u32
        # and an i64 at every byte.  An array's record is its heap bytes
        # from its length on, behind its type index: whole words are copied
        # from its header's second word (size, length), and the last may run
        # up to 7 bytes into the next record, which the later writes cover.
        buf = np.zeros(rec_at[-1] + 8, np.uint8)
        u4 = np.ndarray((len(buf) - 3,), "<u4", buf, 0, (1,))
        i8 = np.ndarray((len(buf) - 7,), "<i8", buf, 0, (1,))
        words = per_len * ((size + 7) >> 3)
        first = words.cumsum() - words
        src = (word + 1 - first).repeat(words) + np.arange(len(words) and int(first[-1] + words[-1]))
        i8[(src << 3) + (off - addr - 8).repeat(words)] = heap_words[src]
        u4[off] = local[key]

        # The references' ids: a class's in layout order, then -1 for each
        # reference that is not Transportable; an array's elements.
        kids = nref + length * (kind == _K_REF_ARRAY)
        first = kids.cumsum() - kids  # where each object's references are in ``ids``
        for plan in dict.fromkeys(chain(tables)):
            if plan.kind == _K_PRIM_ARRAY:
                continue
            of = (mt_id == plan.mt_id).nonzero()[0]
            if plan.kind == _K_REF_ARRAY:
                count = length[of]
                place = np.arange(int(count.sum())) - (count.cumsum() - count).repeat(count)
                of = of.repeat(count)
                i8[off[of] + _u32x2.size + (place << 3)] = ids.take(first[of] + place)
                continue
            c, nr = plan.columns(), len(plan.ref_fields)
            at = off[of][:, None]
            i8[at + c.rec_ids[:nr]] = ids.take(first[of][:, None] + c.places)
            i8[at + c.rec_ids[nr:]] = -1
            if len(c.rec_prims):
                buf[at + c.rec_prims] = heap_bytes[addr[of][:, None] + c.heap_prims]
                owed[charge_at[of][:, None] + np.arange(1, len(plan.prim_sizes) + 1)] = \
                    per_byte * np.array(plan.prim_sizes, float)
        self.objects_serialized += n
        rt.clock.charge_all(memoryview(owed))

        records = memoryview(buf)
        pieces = []
        for p, entries in enumerate(tables):
            lead = b"".join((_u32x3.pack(MAGIC, 0, len(entries)),
                             *[plan.entry for plan in entries], _u32.pack(counts[p])))
            body = records[rec_at[p] : rec_at[p + 1]]
            if framed:
                pieces.append(_u32.pack(len(lead) + len(body)))
            pieces += (lead, body)
        out += b"".join(pieces)

    # -- deserialize ---------------------------------------------------------------

    def deserialize(self, data) -> ObjRef | None:
        """Reconstruct the object tree; returns the root (or None).

        Anything wrong with ``data`` is a :class:`SerializationError`
        raised before the first allocation."""
        return self._deserialize([data])[0]

    def _deserialize(self, parts: list) -> list:
        """Land every representation of ``parts`` in one pass, inside the
        hook spine's deserialize region; each one's root (or None)."""
        h = self.hooks
        if not (h.region_begin or h.region_end):
            return self._land(self._scan(parts))
        for cb in h.region_begin:
            cb("motor.deserialize", {"bytes": sum(len(p) for p in parts)})
        try:
            return self._land(self._scan(parts))
        finally:
            for cb in h.region_end:
                cb("motor.deserialize")

    def _type_table(self, rd: _Reader) -> _Table:
        """Read the type table at ``rd``, and what the record pass needs of it."""
        try:
            plans = [self._read_type_entry(rd) for _ in range(rd.u32())]
        except TypeLoadError as e:
            raise SerializationError(f"type table: {e}") from None
        return _Table(plans, [plan.record.size if plan.kind == _K_CLASS else 0 for plan in plans],
                      [plan.elem_size for plan in plans])

    def _records(self, mv: memoryview, words: list, lo: int, end: int, add) -> tuple:
        """Read the header and type table of the representation at
        ``mv[lo:end]``, and ``add`` where each of its records starts: the one
        loop over records (``words[k][i]`` is the u32 at byte 4i + k of
        ``mv``; a record read past ``end`` leaves it past ``end``).  Returns
        (its type table, its record count)."""
        rd = _Reader(mv[lo:end])
        if rd.u32() != MAGIC:
            raise SerializationError("bad magic")
        rd.u32()  # flags
        table = self._type_table(rd)
        ntypes = len(table.plans)
        n, pos = rd.u32(), lo + rd.pos
        if n > (end - pos) // 4:  # every record is 4 bytes or more
            raise SerializationError(f"{n} records cannot fit in {end - pos} bytes")
        steps, widths = table.steps, table.widths
        r = 0
        try:
            for r in range(n):
                add(pos)
                w, i = words[pos & 3], pos >> 2
                t = w[i]
                pos += steps[t] or _u32x2.size + w[i + 1] * widths[t]
        except IndexError:
            if pos + 4 <= end and (t := _u32.unpack_from(mv, pos)[0]) >= ntypes:
                raise SerializationError(
                    f"record {r}: type index {t} outside the {ntypes}-entry type table"
                ) from None
            raise SerializationError("truncated representation") from None
        if pos > end:
            raise SerializationError("truncated representation")
        if pos != end:
            raise SerializationError(f"{end - pos} bytes after the last record")
        return table, n

    def _scan(self, parts: list) -> _Records:
        """Decode and validate every record of every part; allocates and
        charges nothing.

        One sequential pass per part finds where each record starts (a type
        index per record, a length per array); everything else is array
        work over every part at once, per class type and over all arrays."""
        import numpy as np

        bases = list(itertools.accumulate((len(p) for p in parts), initial=0))
        total = bases[-1]
        buf = bytearray(total + 8)  # the parts, and zeros to read a
        buf[:total] = b"".join(parts)  # payload's last word whole
        mv = memoryview(buf)
        words = [mv[k : k + ((total - k) & ~3)].cast("I") for k in range(4)]
        starts = array("q")
        tables, counts = [], []
        for lo, hi in zip(bases, bases[1:]):
            table, n = self._records(mv, words, lo, hi, starts.append)
            tables.append(table)
            counts.append(n)
        n = len(starts)
        rec = _Records(n, counts)
        if not n:
            return rec

        # Per record: its type (its entry in the type tables one after the
        # other), length (an array's second u32) and size, and its part's
        # first record and record count.  An id names the record at its
        # part's first plus the id; -1 (null) reads index -1, past the last.
        at = np.ndarray((total + 1,), "<i8", buf, 0, (1,))
        begin = np.frombuffer(starts, np.int64)
        head = at[begin]
        entries = [plan for table in tables for plan in table.plans]
        starts_at = list(itertools.accumulate((len(t.plans) for t in tables), initial=0))
        offset, bound, lift = np.array(
            [starts_at[:-1], counts, rec.first[:-1]], np.int64).repeat(counts, axis=1)
        tids = (head & 0xFFFFFFFF) + offset
        kind, mt_id, base, width, mask = np.array(
            [plan.scan for plan in entries], np.int64).T.copy()[:, tids]
        lengths = (head >> 32) & mask
        nbytes = lengths * width
        prim = (kind == _K_PRIM_ARRAY).nonzero()[0]
        rec.fill(mt_id, (nbytes + base) & ~7, lengths, at, prim, begin[prim], nbytes[prim])

        # Per class type: its records' reference ids and primitive bytes.
        groups = []
        for plan in dict.fromkeys(entries):
            if plan.kind != _K_CLASS:
                continue
            of = (mt_id == plan.mt_id).nonzero()[0]
            if len(of):
                cols = plan.columns()
                row = begin[of][:, None]
                prims = None
                if len(cols.rec_prims):
                    prims = np.frombuffer(buf, np.uint8)[row + cols.rec_prims]
                groups.append((plan, of, at[row + cols.rec_ids], prims))
        # Every reference array's elements, ``rows`` each element's record
        # and ``place`` its place in its array.
        elements = None
        if any(plan.kind == _K_REF_ARRAY for plan in entries):
            rows = (kind == _K_REF_ARRAY).nonzero()[0]
            count = lengths[rows]
            ends = count.cumsum()
            place = np.arange(int(ends[-1]) if len(ends) else 0) - (ends - count).repeat(count)
            rows = rows.repeat(count)
            elements = (rows, place, at[begin[rows] + _u32x2.size + (place << 3)])

        # The checks, in the order checking record by record meets a fault:
        # an id out of range, an id in a reference that is not Transportable,
        # then the store rule, pair by pair in record order.
        ids = [(ids[:, : len(plan.ref_fields)], bound[of][:, None]) for plan, of, ids, _ in groups]
        if elements is not None:
            ids.append((elements[2], bound[elements[0]]))
        for i, top in ids:
            if i.size and (i.min() < -1 or (i >= top).any()):
                raise SerializationError(f"an object id outside [-1, {int(top.max())})")
        for plan, _, i, _ in groups:
            if i.shape[1] > len(plan.ref_fields) and (i[:, len(plan.ref_fields):] != -1).any():
                raise SerializationError("an object id in a reference that is not Transportable")
        hold = np.concatenate((mt_id, (-1,)))  # each record's mt_id, null reading as -1
        refused = []  # (record, field, target mt_id) of each refused store
        for plan, of, ids, prims in groups:
            ids = ids[:, : len(plan.ref_fields)]
            names = ids + lift[of][:, None] * (ids >= 0)
            rec.classes.append((plan, of, names, prims))
            targets = hold[names]
            allowed = self._rule(plan)[plan.columns().places, targets]
            if not allowed.all():
                bad, ks = (~allowed).nonzero()
                refused += zip(of[bad].tolist(), ks.tolist(), targets[bad, ks].tolist())
        if refused:
            record, k, target = min(refused)
            fd = self._plans[int(mt_id[record])].ref_fields[k]
            try:
                self.runtime.check_storable(fd.declaring, fd, self._plans[target].mt)
            except ObjectModelViolation as e:
                raise SerializationError(str(e)) from None
        if elements is not None:
            rows, place, ids = elements
            rec.elements = (rows, place, ids + lift[rows] * (ids >= 0))
        return rec

    def _rule(self, plan: _Plan):
        """The store rule of ``plan``'s Transportable references: whether
        each may name an object of each mt_id, then null (index -1); built
        again when the registry has grown."""
        ids = self.runtime.registry.ids
        known, rule = self._rules.get(plan.mt_id, (0, None))
        if known != len(ids):
            import numpy as np

            storable = self.runtime.check_storable

            def ok(fd: FieldDesc, mt: MethodTable | None) -> bool:
                if mt is None:  # an id no type holds
                    return False
                try:
                    storable(fd.declaring, fd, mt)
                except ObjectModelViolation:
                    return False
                return True

            mts = [ids.get(k) for k in range(max(ids) + 1)]
            rule = np.array([[*(ok(fd, mt) for mt in mts), True] for fd in plan.ref_fields],
                            bool).reshape(-1, len(mts) + 1)
            self._rules[plan.mt_id] = (len(ids), rule)
        return rule

    def _heap_views(self) -> tuple:
        """The heap as ``numpy`` words and bytes (its mapping never moves)."""
        if self._views is None:
            import numpy as np

            mem = self.runtime.heap.mem
            self._views = np.frombuffer(mem, "<i8", len(mem) >> 3), np.frombuffer(mem, np.uint8)
        return self._views

    def _land(self, rec: _Records) -> list:
        """Land every part of ``rec``: each part's root, or None."""
        import numpy as np

        nparts = len(rec.counts)
        if not rec.n:
            return [None] * nparts
        rt = self.runtime
        heap, handles, costs = rt.heap, rt.handles, rt.costs
        charge_all = rt.clock.charge_all
        heap_words, _ = self._heap_views()
        self.objects_deserialized += rec.n

        # Land the objects in nursery runs (see the module docstring).
        # ``addrs`` holds every landed object's address by record, and a 0
        # after the last that null (index -1) reads.  ``owed`` is every charge in order — per
        # part, its records' (per object, allocation), then its primitive
        # arrays' bytes — and ``owed[folded:owes]`` is charged before the
        # allocation that may collect, and at the end.
        n, size, first = rec.n, rec.size, rec.first
        ends = size.cumsum()
        aux = size | rec.lengths << 32  # a header's second word: size, then aux
        split = rec.prim.searchsorted(first).tolist()  # each part's first primitive array
        at = [2 * f + m for f, m in zip(first, split)]  # where each part's charges start
        owed = np.empty(at[-1])
        byte_charges = costs.motor_ser_per_byte_ns * rec.nbytes
        for p in range(nparts):
            mid = 2 * first[p + 1] + split[p]
            owed[at[p] : mid : 2] = costs.motor_deser_per_obj_ns
            owed[at[p] + 1 : mid : 2] = costs.alloc_ns
            owed[mid : at[p + 1]] = byte_charges[split[p] : split[p + 1]]
        addrs = np.zeros(n + 1, np.int64)

        # A part is *wired* (references, payloads) once each of its objects
        # has its address, before the next collection; its root is then
        # held by a reference.  ``slots`` root the objects of the part a
        # collection landed in last (GC-updated handle slots).  So every
        # collection sees the heap as landing the parts one after the other
        # would.
        roots: list = []
        slots: list[int] = []
        owner = -1  # the part ``slots`` belong to
        collected: set[int] = set()  # the parts a collection landed in

        def wire_to(q: int) -> None:
            nonlocal slots, owner
            self._wire(rec, addrs, split, len(roots), q, collected)
            for p in range(len(roots), q):
                roots.append(rt.make_ref(int(addrs[first[p]])) if rec.counts[p] else None)
                if p == owner:
                    for slot in reversed(slots):
                        handles.free(slot)
                    slots, owner = [], -1

        folded = owes = 0
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
                addrs[j:k] = run
                if k == n:
                    owes = 2 * n + split[-2]
                    break
                # Record k is where allocating object by object collects:
                # the parts before its own are wired, everything owed so far
                # and its per-object charge are charged (the runtime charges
                # its allocation), and its part's objects are rooted.
                q = bisect.bisect_right(first, k) - 1
                owes = 2 * k + split[q]
                wire_to(q)
                charge_all(owed[folded : owes + 1])
                folded = owes = owes + 2
                if owner != q:
                    slots, owner = [], q
                lo = first[q] + len(slots)
                slots += map(root, addrs[lo:k].tolist())
                mt = self._plans[int(rec.mt_id[k])].mt
                slots.append(root(rt.alloc_object(mt, int(size[k]), int(rec.lengths[k]))))
                addrs[first[q] : k + 1] = list(map(handles.get, slots))
                collected.add(q)
                j = k + 1
            # Nothing from here on allocates or polls a safepoint.
            owes = len(owed)
            wire_to(nparts)
            return roots
        finally:
            if owes > folded:
                charge_all(owed[folded:owes])
            for slot in reversed(slots):
                handles.free(slot)

    def _wire(self, rec: _Records, addrs, split: list, pa: int, pb: int, collected) -> None:
        """Wire the references and copy the primitives and payloads of
        parts ``pa`` to ``pb`` (their records' addresses in ``addrs``), one
        scatter per class type, one for the reference arrays and one for
        the payloads, and offer the write barrier the stores of each part a
        collection landed in."""
        if pa >= pb:
            return
        import numpy as np

        heap_words, heap_bytes = self._heap_views()
        lo, hi = rec.first[pa], rec.first[pb]
        whole = lo == 0 and hi == rec.n
        stores = []  # (slot word, target, record) of every reference written
        for plan, of, names, prims in rec.classes:
            if not whole:
                a, b = of.searchsorted((lo, hi)).tolist()
                of, names = of[a:b], names[a:b]
                prims = None if prims is None else prims[a:b]
            cols = plan.columns()
            at = addrs[of][:, None]
            slot = (at >> 3) + cols.heap_refs
            heap_words[slot] = target = addrs[names]
            stores.append((slot, target, of[:, None]))
            if prims is not None:
                heap_bytes[at + cols.heap_prims] = prims
        if rec.elements is not None:
            rows, place, ids = rec.elements
            if not whole:
                a, b = rows.searchsorted((lo, hi)).tolist()
                rows, place, ids = rows[a:b], place[a:b], ids[a:b]
            slot = (addrs[rows] >> 3) + (ARRAY_DATA_OFFSET // REF_SIZE) + place
            heap_words[slot] = target = addrs[ids]
            stores.append((slot, target, rows))
        a, b = split[pa], split[pb]
        if a < b:
            # Every primitive array's payload as whole words: the last keeps
            # only payload bytes.
            nbytes = rec.nbytes[a:b]
            count = (nbytes + 7) >> 3
            last = count.cumsum()
            place = np.arange(int(last[-1])) - (last - count).repeat(count)
            words = rec.at[(rec.payloads[a:b] + _u32x2.size).repeat(count) + (place << 3)]
            tail = nbytes & 7
            cut = tail.nonzero()[0]
            if len(cut):
                words[last[cut] - 1] &= (1 << (tail[cut] << 3)) - 1
            dest = (addrs[rec.prim[a:b]] >> 3) + ARRAY_DATA_OFFSET // REF_SIZE
            heap_words[dest.repeat(count) + place] = words
        for p in sorted(collected.intersection(range(pa, pb))):
            self._barrier([(s, t, np.broadcast_to(r, s.shape)) for s, t, r in stores], p, rec.first)

    def _barrier(self, stores, part: int, first: list) -> None:
        """The write barrier of part ``part``'s stores: it records only a
        slot outside the nursery that now holds a nursery address, so only
        those are offered to it, record by record and field by field (the
        order the remembered set is filled in is the order the next
        collection forwards in)."""
        import numpy as np

        nursery, record_write = self.runtime.heap.nursery, self.runtime.gc.record_write
        lo, hi = nursery.base, nursery.end
        slots = np.concatenate([s.ravel() for s, _, _ in stores]) << 3
        targets = np.concatenate([t.ravel() for _, t, _ in stores])
        records = np.concatenate([r.ravel() for _, _, r in stores])
        keep = (((slots < lo) | (slots >= hi)) & (targets >= lo) & (targets < hi)
                & (records >= first[part]) & (records < first[part + 1])).nonzero()[0]
        keep = keep[records[keep].argsort(kind="stable")]
        for slot, target in zip(slots[keep].tolist(), targets[keep].tolist()):
            record_write(slot, target)

    def _read_type_entry(self, rd: _Reader) -> _Plan:
        """One type-table entry, resolved against this rank's registry: a
        class entry must equal the one this rank would write."""
        rt = self.runtime
        start = rd.pos
        kind = rd.u8()
        if kind in (_K_PRIM_ARRAY, _K_REF_ARRAY):
            return self._plan(rt.registry.array_of(rd.text()).mt_id)
        name = rd.text()
        mt = rt.registry.resolve(name)
        if not isinstance(mt, MethodTable) or mt.is_array:
            raise SerializationError(f"{name} is not a class at the receiver")
        plan = self._plan(mt.mt_id)
        fields = plan.entry[rd.pos - start :]
        if rd.data[rd.pos : rd.pos + len(fields)] == fields:
            rd.pos += len(fields)
            return plan
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
        return plan

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
        out = bytearray()
        name, _ = self.write_split_frame(out, array_ref, offset, count)
        return name, [bytes(part) for part in self.unframe_parts(out)[1]]

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

        Equivalent to ``frame_parts(*serialize_array_split(...))``: each
        element is chased on its own (its own ids and type table), then
        every part is encoded and framed in one pass and their charges fold
        in one ``charge_all``, part after part, straight into the output (a
        pooled writer on the OO paths).  Returns ``(element_type_name,
        part_count)``.
        """
        name, offset, count = self._split_slice(array_ref, offset, count)
        out += _u32.pack(SPLIT_MAGIC)
        _w_str(out, name)
        out += _u32.pack(count)
        at = array_ref.addr + ARRAY_DATA_OFFSET + REF_SIZE * offset
        self._emit(out, list(struct.unpack_from(f"<{count}Q", self.runtime.heap.mem, at)),
                   framed=True)
        return name, count

    def build_array_from_parts(self, element_type_name: str, parts: Iterable[bytes]) -> ObjRef:
        """Gather-side reassembly: parts -> one array of objects.

        Every part is validated, then landed, in one pass (anything wrong
        with any part is refused before the first allocation); the array
        is allocated after them and filled in part order."""
        rt = self.runtime
        elems = self._deserialize(list(parts))
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
