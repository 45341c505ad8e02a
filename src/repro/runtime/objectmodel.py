"""Object layout and raw accessors over the managed heap.

Every object starts with a 16-byte header::

    +0  mt_id   u32   MethodTable id (the paper's MethodTable reference)
    +4  flags   u32   GC bookkeeping (forwarding bit)
    +8  size    u32   total object size including header
    +12 aux     u32   array length (arrays) / spare

Instance data (or array elements) begins at offset 16.  References are
8-byte absolute addresses; 0 is null.
"""

from __future__ import annotations

import struct

from repro.runtime.errors import (
    InvalidCastError,
    NullReferenceError_,
    ObjectModelViolation,
)
from repro.runtime.heap import ManagedHeap
from repro.runtime.typesys import (
    ARRAY_DATA_OFFSET,
    OBJECT_HEADER_SIZE,
    REF_SIZE,
    FieldDesc,
    MethodTable,
    TypeRegistry,
    align8,
)

FLAG_FORWARDED = 1 << 0

HDR_MT = 0
HDR_FLAGS = 4
HDR_AUX = 12

HEADER = struct.Struct("<IIII")  # mt_id, flags, size, aux: the four words in order


class ObjectModel:
    """Typed object access over raw heap bytes."""

    def __init__(self, heap: ManagedHeap, registry: TypeRegistry) -> None:
        self.heap = heap
        self.registry = registry

    # -- headers ---------------------------------------------------------------

    def write_header(self, addr: int, mt: MethodTable, size: int, aux: int = 0) -> None:
        HEADER.pack_into(self.heap.mem, addr, mt.mt_id, 0, size, aux)

    def method_table(self, addr: int) -> MethodTable:
        if addr == 0:
            raise NullReferenceError_("method table of null reference")
        return self.registry.ids[self.heap.read_u32(addr + HDR_MT)]

    def object_size(self, addr: int) -> int:
        return HEADER.unpack_from(self.heap.mem, addr)[2]

    # -- sizing ---------------------------------------------------------------

    def sizeof_instance(self, mt: MethodTable, length: int = 0) -> int:
        if mt.is_array:
            return align8(ARRAY_DATA_OFFSET + length * mt.element_size)
        return mt.instance_size

    # -- fields ---------------------------------------------------------------

    def _field(self, mt: MethodTable, name_or_fd) -> FieldDesc:
        if isinstance(name_or_fd, FieldDesc):
            return name_or_fd
        fd = mt.fields_by_name.get(name_or_fd)
        if fd is None:
            raise ObjectModelViolation(f"{mt.name} has no field {name_or_fd!r}")
        return fd

    def get_field(self, addr: int, name_or_fd):
        if addr == 0:
            raise NullReferenceError_("field read on null reference")
        fd = self._field(self.method_table(addr), name_or_fd)
        if fd.is_ref:
            return self.heap.read_u64(addr + fd.offset)
        return fd.ftype.unpack_from(self.heap.mem, addr + fd.offset)

    def set_field(self, addr: int, name_or_fd, value) -> None:
        if addr == 0:
            raise NullReferenceError_("field write on null reference")
        fd = self._field(self.method_table(addr), name_or_fd)
        if fd.is_ref:
            raise ObjectModelViolation(
                f"reference field {fd.name} must be written through the "
                "runtime's write barrier (ManagedRuntime.set_ref)"
            )
        fd.ftype.pack_into(self.heap.mem, addr + fd.offset, value)

    def set_ref_raw(self, addr: int, name_or_fd, target: int) -> None:
        """Store a reference *without* the write barrier (GC internal)."""
        fd = self._field(self.method_table(addr), name_or_fd)
        if not fd.is_ref:
            raise ObjectModelViolation(f"{fd.name} is not a reference field")
        self.heap.write_u64(addr + fd.offset, target)

    # -- arrays ---------------------------------------------------------------

    def array_length(self, addr: int) -> int:
        mt = self.method_table(addr)
        if not mt.is_array:
            raise InvalidCastError(f"{mt.name} is not an array")
        return self.heap.read_u32(addr + HDR_AUX)

    def array_elem_addr(self, addr: int, index: int) -> int:
        mt = self.method_table(addr)
        length = self.heap.read_u32(addr + HDR_AUX)
        if not 0 <= index < length:
            raise ObjectModelViolation(
                f"index {index} out of range for {mt.name}[{length}]"
            )
        return addr + ARRAY_DATA_OFFSET + index * mt.element_size

    def get_elem(self, addr: int, index: int):
        mt = self.method_table(addr)
        ea = self.array_elem_addr(addr, index)
        if mt.element_is_ref:
            return self.heap.read_u64(ea)
        return mt.element_type.unpack_from(self.heap.mem, ea)

    def set_elem(self, addr: int, index: int, value) -> None:
        mt = self.method_table(addr)
        ea = self.array_elem_addr(addr, index)
        if mt.element_is_ref:
            raise ObjectModelViolation(
                "reference array elements must go through the write barrier"
            )
        mt.element_type.pack_into(self.heap.mem, ea, value)

    def set_elem_ref_raw(self, addr: int, index: int, target: int) -> None:
        ea = self.array_elem_addr(addr, index)
        self.heap.write_u64(ea, target)

    def data_window(
        self, addr: int, offset_elems: int = 0, count: int | None = None
    ) -> tuple[MethodTable, int, int]:
        """(method table, data_addr, nbytes) for a primitive-array slice or
        an object's instance data — the zero-copy window the transport reads
        from / writes into — from one read of the header."""
        if addr == 0:
            raise NullReferenceError_("data window of null reference")
        mt_id, _flags, _size, length = HEADER.unpack_from(self.heap.mem, addr)
        mt = self.registry.ids[mt_id]
        if not mt.is_array:
            # A plain object's 'data range' is its instance data.
            if offset_elems or count is not None:
                raise ObjectModelViolation(
                    "offset/count transport is only supported for arrays "
                    "(there is no safe way to refer to a subset of an object)"
                )
            return mt, addr + OBJECT_HEADER_SIZE, mt.instance_size - OBJECT_HEADER_SIZE
        if count is None:
            count = length - offset_elems
        if offset_elems < 0 or count < 0 or offset_elems + count > length:
            raise ObjectModelViolation(
                f"array slice [{offset_elems}:{offset_elems + count}] exceeds "
                f"length {length} — refused to protect the object model"
            )
        es = mt.element_size
        return mt, addr + ARRAY_DATA_OFFSET + offset_elems * es, count * es

    # -- graph walking (used by the GC and the serializer) ----------------------

    def ref_slots(self, addr: int) -> list[int]:
        """Absolute addresses of every reference slot inside the object."""
        mt_id, _flags, _size, length = HEADER.unpack_from(self.heap.mem, addr)
        mt = self.registry.ids[mt_id]
        if not mt.is_array:
            return [addr + offset for offset in mt.ref_offsets]
        if not mt.element_is_ref:
            return []
        base = addr + ARRAY_DATA_OFFSET
        return list(range(base, base + length * REF_SIZE, REF_SIZE))
