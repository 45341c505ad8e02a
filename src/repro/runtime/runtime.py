"""The ManagedRuntime facade: one rank's complete virtual runtime.

Ties together the heap, type registry, object model, handle table,
collector, safepoint protocol, metadata and the PAL — the "Runtime Core"
box of the paper's Figure 1/2, minus message passing (which Motor adds in
:mod:`repro.motor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.pal import PAL
from repro.runtime.errors import (
    InvalidOperation,
    ObjectModelViolation,
    OutOfManagedMemory,
)
from repro.runtime.gcollector import GenGC
from repro.runtime.handles import HandleTable, ObjRef
from repro.runtime.heap import ManagedHeap
from repro.runtime.interop import FCallGate, JNIGate, PInvokeGate
from repro.runtime.objectmodel import ObjectModel
from repro.runtime.reflection import Metadata
from repro.runtime.safepoint import SafepointState
from repro.runtime.typesys import (
    ARRAY_DATA_OFFSET,
    FieldDesc,
    FieldSpec,
    MethodTable,
    TypeRegistry,
)
from repro.simtime import Clock, CostModel, HostProfile, VirtualClock


@dataclass
class RuntimeConfig:
    heap_capacity: int = 32 << 20
    nursery_size: int = 512 << 10
    pal_backend: str = "windows"
    #: gen1 collection is piggy-backed on every Nth gen0 collection
    full_gc_every: int = 8


class ManagedRuntime:
    """A complete simulated CLI runtime instance (one per rank)."""

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        clock: Clock | None = None,
        costs: CostModel | None = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.costs = costs if costs is not None else CostModel()
        self.heap = ManagedHeap(self.config.heap_capacity, self.config.nursery_size)
        self.registry = TypeRegistry()
        self.om = ObjectModel(self.heap, self.registry)
        self.handles = HandleTable()
        self.gc = GenGC(self.heap, self.om, self.handles, self.clock, self.costs)
        self.safepoint = SafepointState(self.gc.collect)
        self.metadata = Metadata(self.registry)
        self.pal = PAL(self.config.pal_backend, self.clock, self.costs)
        self._gen0_count = 0

    # ------------------------------------------------------------- type defs

    def define_class(
        self,
        name: str,
        fields: Sequence[FieldSpec | tuple],
        base: MethodTable | str | None = None,
        transportable_class: bool = False,
    ) -> MethodTable:
        """Define a managed class.  Fields may be FieldSpecs or
        ``(name, type_name[, transportable])`` tuples."""
        specs = []
        for f in fields:
            if isinstance(f, FieldSpec):
                specs.append(f)
            else:
                name_, tname, *rest = f
                specs.append(FieldSpec(name_, tname, bool(rest and rest[0])))
        return self.registry.define_class(
            name, specs, base=base, transportable_class=transportable_class
        )

    # ------------------------------------------------------------- allocation

    def _alloc(self, size: int) -> int:
        self.clock.charge(self.costs.alloc_ns)
        addr = self.heap.alloc_gen0(size)
        if addr is None:
            # "Garbage collection ... is triggered by a request for a new
            # object" (§5.2).
            self._collect_on_pressure()
            addr = self.heap.alloc_gen0(size)
        if addr is None:
            # Larger than the nursery can ever hold: allocate directly in
            # the elder generation (large-object behaviour).
            if size > self.heap.nursery.size:
                addr = self.heap.alloc_gen1(size)
                self.heap.zero(addr, size)
                return addr
            raise OutOfManagedMemory(f"cannot allocate {size} bytes")
        return addr

    def alloc_object(self, mt: MethodTable, size: int, aux: int = 0) -> int:
        """Allocate, zero and stamp one object; returns its *unrooted* address.

        The caller roots it (an ObjRef, a handle slot) before the next
        allocation, which may collect."""
        addr = self._alloc(size)
        self.om.write_header(addr, mt, size, aux)
        return addr

    def _collect_on_pressure(self) -> None:
        self._gen0_count += 1
        gen = 1 if self._gen0_count % self.config.full_gc_every == 0 else 0
        self.gc.collect(gen)

    def new(self, type_name_or_mt, **init) -> ObjRef:
        """Allocate a zeroed instance; keyword args initialise fields."""
        mt = (
            type_name_or_mt
            if isinstance(type_name_or_mt, MethodTable)
            else self.registry.resolve(type_name_or_mt)
        )
        if not isinstance(mt, MethodTable) or mt.is_array:
            raise InvalidOperation(f"new() needs a class type, got {mt!r}")
        ref = ObjRef(self.handles, self.alloc_object(mt, mt.instance_size))
        for k, v in init.items():
            if isinstance(v, (ObjRef, type(None))):
                self.set_ref(ref, k, v)
            else:
                self.set_field(ref, k, v)
        return ref

    def new_array(self, element_type_name: str, length: int, values: Iterable | None = None) -> ObjRef:
        """Allocate a managed array (primitive or reference elements)."""
        if length < 0:
            raise InvalidOperation("negative array length")
        mt = self.registry.array_of(element_type_name)
        size = self.om.sizeof_instance(mt, length)
        ref = ObjRef(self.handles, self.alloc_object(mt, size, aux=length))
        if values is not None:
            for i, v in enumerate(values):
                if mt.element_is_ref:
                    self.set_elem_ref(ref, i, v)
                else:
                    self.om.set_elem(ref.addr, i, v)
        return ref

    def new_byte_array(self, data: bytes | bytearray) -> ObjRef:
        ref = self.new_array("byte", len(data))
        self.heap.write_bytes(ref.addr + ARRAY_DATA_OFFSET, data)
        return ref

    def new_string(self, s: str) -> ObjRef:
        ref = self.new_array("char", len(s))
        for i, ch in enumerate(s):
            self.om.set_elem(ref.addr, i, ord(ch))
        return ref

    def null_ref(self) -> ObjRef:
        return ObjRef(self.handles, 0)

    def make_ref(self, addr: int) -> ObjRef:
        """Root an address discovered inside the runtime (FCall internals)."""
        return ObjRef(self.handles, addr)

    # ------------------------------------------------------------- field access

    def type_of(self, ref: ObjRef) -> MethodTable:
        return self.om.method_table(ref.require())

    def get_field(self, ref: ObjRef, name: str):
        """Read a field; reference fields come back as ObjRef or None."""
        mt = self.om.method_table(ref.require())
        fd = mt.fields_by_name.get(name)
        if fd is None:
            raise ObjectModelViolation(f"{mt.name} has no field {name!r}")
        raw = self.om.get_field(ref.addr, fd)
        if fd.is_ref:
            return None if raw == 0 else ObjRef(self.handles, raw)
        return raw

    def set_field(self, ref: ObjRef, name: str, value) -> None:
        self.om.set_field(ref.require(), name, value)

    def set_ref(self, ref: ObjRef, name: str, target: "ObjRef | None") -> None:
        """Store a reference through the generational write barrier."""
        addr = ref.require()
        mt = self.om.method_table(addr)
        fd = mt.fields_by_name.get(name)
        if fd is None or not fd.is_ref:
            raise ObjectModelViolation(f"{mt.name}.{name} is not a reference field")
        taddr = 0 if target is None or target.is_null else target.addr
        if isinstance(fd.ftype, MethodTable) and taddr:
            self.check_storable(mt, fd, self.om.method_table(taddr))
        self.om.set_ref_raw(addr, fd, taddr)
        self.gc.record_write(addr + fd.offset, taddr)

    def check_storable(self, mt: MethodTable, fd: FieldDesc, actual: MethodTable) -> None:
        """The type rule of a reference store into ``mt``'s field ``fd``."""
        if not actual.is_subclass_of(fd.ftype) and fd.ftype is not self.registry.OBJECT:
            raise ObjectModelViolation(
                f"cannot store {actual.name} into {mt.name}.{fd.name} "
                f"({fd.ftype.name}) — object references are guaranteed to "
                "be either null or reference an object of the correct type"
            )

    # ------------------------------------------------------------- arrays

    def array_length(self, ref: ObjRef) -> int:
        return self.om.array_length(ref.require())

    def get_elem(self, ref: ObjRef, index: int):
        mt = self.om.method_table(ref.require())
        raw = self.om.get_elem(ref.addr, index)
        if mt.element_is_ref:
            return None if raw == 0 else ObjRef(self.handles, raw)
        return raw

    def set_elem(self, ref: ObjRef, index: int, value) -> None:
        self.om.set_elem(ref.require(), index, value)

    def set_elem_ref(self, ref: ObjRef, index: int, target: "ObjRef | None") -> None:
        addr = ref.require()
        mt = self.om.method_table(addr)
        if not mt.element_is_ref:
            raise ObjectModelViolation(f"{mt.name} is not a reference array")
        taddr = 0 if target is None or target.is_null else target.addr
        ea = self.om.array_elem_addr(addr, index)
        self.om.set_elem_ref_raw(addr, index, taddr)
        self.gc.record_write(ea, taddr)

    def array_bytes(self, ref: ObjRef, offset: int = 0, count: int | None = None) -> bytes:
        _mt, data_addr, nbytes = self.om.data_window(ref.require(), offset, count)
        return self.heap.read_bytes(data_addr, nbytes)

    def fill_array_bytes(self, ref: ObjRef, data: bytes | bytearray, offset: int = 0) -> None:
        mt = self.om.method_table(ref.require())
        if mt.element_is_ref:
            raise ObjectModelViolation("cannot blit into a reference array")
        es = mt.element_size
        if len(data) % es:
            raise InvalidOperation("byte count not a multiple of element size")
        _mt, data_addr, _nbytes = self.om.data_window(ref.addr, offset, len(data) // es)
        self.heap.write_bytes(data_addr, data)

    # ------------------------------------------------------------- GC control

    def collect(self, gen: int = 0) -> None:
        self.gc.collect(gen)

    def gate(self, kind: str, profile: HostProfile | None = None):
        """Construct a managed-to-native call gate of the given kind."""
        if kind == "fcall":
            return FCallGate(self)
        if profile is None:
            raise InvalidOperation(f"{kind} gate requires a host profile")
        if kind == "pinvoke":
            return PInvokeGate(self, profile)
        if kind == "jni":
            return JNIGate(self, profile)
        raise InvalidOperation(f"unknown gate kind {kind!r}")
