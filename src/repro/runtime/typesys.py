"""The common type system: MethodTables, FieldDescs and the type registry.

Mirrors the SSCLI structures the paper describes in §5.3:

* every object is an instance of ``System.Object`` and starts with a
  reference to its :class:`MethodTable`;
* each field of each class is described by a :class:`FieldDesc`, "a highly
  optimized structure, using a bit field to describe field information";
* Motor adds a **Transportable bit** to the FieldDesc bit field so the
  serializer can test transportability without touching type metadata
  (paper §7.5).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.runtime.errors import TypeLoadError

# FieldDesc flag bits (a bit field, as in the SSCLI).
FD_STATIC = 1 << 0
FD_REFERENCE = 1 << 1
#: Motor's addition: set when the field carries the [Transportable] custom
#: attribute, so serialization never needs the (slow) metadata path.
FD_TRANSPORTABLE = 1 << 2

#: Object header: mt_id(u32) flags(u32) size(u32) aux(u32).
OBJECT_HEADER_SIZE = 16
#: Array instance data (elements) starts right after the header; the
#: element count lives in the header's aux word.
ARRAY_DATA_OFFSET = OBJECT_HEADER_SIZE
#: Managed references are stored as 8-byte absolute heap addresses.
REF_SIZE = 8


def align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class PrimitiveType:
    """A CLI primitive (simple) type: fixed size, struct codec, no refs."""

    name: str
    size: int
    fmt: str  # struct format, little-endian

    def pack_into(self, buf, offset: int, value) -> None:
        struct.pack_into(self.fmt, buf, offset, value)

    def unpack_from(self, buf, offset: int):
        return struct.unpack_from(self.fmt, buf, offset)[0]

    def __repr__(self) -> str:  # keep error messages short
        return f"<prim {self.name}>"


@dataclass(frozen=True)
class FieldSpec:
    """A field as written in a class definition (before layout)."""

    name: str
    type_name: str
    transportable: bool = False
    static: bool = False


class FieldDesc:
    """A laid-out field: name, resolved type, offset and flag bits."""

    __slots__ = ("name", "ftype", "offset", "flags", "declaring")

    def __init__(self, name: str, ftype, offset: int, flags: int, declaring: "MethodTable"):
        self.name = name
        self.ftype = ftype  # PrimitiveType | MethodTable (for reference fields)
        self.offset = offset  # byte offset from object start
        self.flags = flags
        self.declaring = declaring

    @property
    def is_ref(self) -> bool:
        return bool(self.flags & FD_REFERENCE)

    @property
    def is_transportable(self) -> bool:
        return bool(self.flags & FD_TRANSPORTABLE)

    @property
    def size(self) -> int:
        return REF_SIZE if self.is_ref else self.ftype.size

    def __repr__(self) -> str:
        t = "ref" if self.is_ref else self.ftype.name
        return f"<FieldDesc {self.declaring.name}.{self.name}:{t}@{self.offset}>"


class MethodTable:
    """Per-type runtime descriptor: layout, flags and (for IL) methods."""

    __slots__ = (
        "mt_id",
        "name",
        "base",
        "fields",
        "fields_by_name",
        "instance_size",
        "is_array",
        "element_type",
        "has_references",
        "ref_offsets",
        "transportable_class",
        "methods",
    )

    def __init__(
        self,
        mt_id: int,
        name: str,
        base: "MethodTable | None" = None,
        is_array: bool = False,
        element_type=None,
        transportable_class: bool = False,
    ):
        self.mt_id = mt_id
        self.name = name
        self.base = base
        self.fields: list[FieldDesc] = []
        self.fields_by_name: dict[str, FieldDesc] = {}
        self.instance_size = OBJECT_HEADER_SIZE
        self.is_array = is_array
        self.element_type = element_type
        self.has_references = False
        #: every reference field's offset, in layout order (none on an array)
        self.ref_offsets: tuple[int, ...] = ()
        self.transportable_class = transportable_class
        self.methods: dict[str, object] = {}

    # -- layout ---------------------------------------------------------------

    def _layout(self, specs: list[FieldSpec], registry: "TypeRegistry") -> None:
        offset = self.base.instance_size if self.base else OBJECT_HEADER_SIZE
        if self.base:
            # Inherit the base's resolved fields (same offsets).
            for fd in self.base.fields:
                self.fields.append(fd)
                self.fields_by_name[fd.name] = fd
        for spec in specs:
            ftype = registry.resolve(spec.type_name)
            flags = 0
            if isinstance(ftype, MethodTable):
                flags |= FD_REFERENCE
                size = REF_SIZE
                # references are 8-aligned
                offset = align8(offset)
            else:
                size = ftype.size
                offset = (offset + size - 1) & ~(size - 1)  # natural alignment
            if spec.transportable:
                flags |= FD_TRANSPORTABLE
            if spec.static:
                flags |= FD_STATIC
            fd = FieldDesc(spec.name, ftype, offset, flags, self)
            if spec.name in self.fields_by_name:
                raise TypeLoadError(f"duplicate field {self.name}.{spec.name}")
            self.fields.append(fd)
            self.fields_by_name[spec.name] = fd
            offset += size
        self.ref_offsets = tuple(fd.offset for fd in self.fields if fd.is_ref)
        self.has_references = bool(self.ref_offsets)
        self.instance_size = align8(offset)

    # -- queries ---------------------------------------------------------------

    @property
    def element_size(self) -> int:
        if not self.is_array:
            raise TypeLoadError(f"{self.name} is not an array type")
        if isinstance(self.element_type, MethodTable):
            return REF_SIZE
        return self.element_type.size

    @property
    def element_is_ref(self) -> bool:
        return self.is_array and isinstance(self.element_type, MethodTable)

    def is_subclass_of(self, other: "MethodTable") -> bool:
        mt: MethodTable | None = self
        while mt is not None:
            if mt is other:
                return True
            mt = mt.base
        return False

    def __repr__(self) -> str:
        return f"<MethodTable {self.name} (#{self.mt_id})>"


#: Primitive ("simple") types, CLI names.
PRIMITIVES: dict[str, PrimitiveType] = {
    "bool": PrimitiveType("bool", 1, "<?"),
    "byte": PrimitiveType("byte", 1, "<B"),
    "sbyte": PrimitiveType("sbyte", 1, "<b"),
    "char": PrimitiveType("char", 2, "<H"),
    "int16": PrimitiveType("int16", 2, "<h"),
    "uint16": PrimitiveType("uint16", 2, "<H"),
    "int32": PrimitiveType("int32", 4, "<i"),
    "uint32": PrimitiveType("uint32", 4, "<I"),
    "int64": PrimitiveType("int64", 8, "<q"),
    "uint64": PrimitiveType("uint64", 8, "<Q"),
    "float32": PrimitiveType("float32", 4, "<f"),
    "float64": PrimitiveType("float64", 8, "<d"),
}


class _IdTable(dict):
    """``mt_id -> MethodTable``, read by subscript (no call per header
    decode); an unknown id is a :class:`TypeLoadError`, not a KeyError."""

    __slots__ = ()

    def __missing__(self, mt_id: int) -> MethodTable:
        raise TypeLoadError(f"unknown MethodTable id {mt_id}")


class TypeRegistry:
    """All MethodTables known to one runtime instance.

    Ranks in an SPMD program each build an identical registry by running
    the same class definitions; serialized type tables refer to types by
    *name* and are resolved against the receiver's registry, as a real
    serializer resolves against the receiver's loaded assemblies.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, MethodTable] = {}
        #: every MethodTable by id — what an object header's first word names
        self.ids: dict[int, MethodTable] = _IdTable()
        self._next_id = 1
        # System.Object: the root of the class hierarchy.
        self.OBJECT = self._new_mt("System.Object")
        self.OBJECT._layout([], self)
        # System.String: immutable char payload modelled as a char array.
        self.STRING = self.array_of("char", name="System.String")

    # -- creation ---------------------------------------------------------------

    def _new_mt(self, name: str, **kw) -> MethodTable:
        if name in self._by_name:
            raise TypeLoadError(f"type {name!r} already defined")
        mt = MethodTable(self._next_id, name, **kw)
        self._next_id += 1
        self._by_name[name] = mt
        self.ids[mt.mt_id] = mt
        return mt

    def define_class(
        self,
        name: str,
        fields: list[FieldSpec],
        base: "MethodTable | str | None" = None,
        transportable_class: bool = False,
    ) -> MethodTable:
        """Define a reference type with the given fields."""
        if isinstance(base, str):
            base = self.resolve(base)
        if base is None:
            base = self.OBJECT
        if not isinstance(base, MethodTable) or base.is_array:
            raise TypeLoadError(f"invalid base type for {name}")
        mt = self._new_mt(name, base=base, transportable_class=transportable_class)
        try:
            mt._layout(fields, self)
        except Exception:
            # roll back a half-defined type
            del self._by_name[name]
            del self.ids[mt.mt_id]
            raise
        return mt

    def array_of(self, element, name: str | None = None) -> MethodTable:
        """The (cached) array MethodTable for the given element type."""
        elem = self.resolve(element) if isinstance(element, str) else element
        auto_name = (
            f"{elem.name}[]" if isinstance(elem, (PrimitiveType, MethodTable)) else None
        )
        key = name or auto_name
        if key is None:
            raise TypeLoadError(f"cannot make array of {element!r}")
        existing = self._by_name.get(key)
        if existing is not None:
            return existing
        mt = self._new_mt(key, base=self.OBJECT, is_array=True, element_type=elem)
        mt.has_references = isinstance(elem, MethodTable)
        return mt

    # -- lookup ---------------------------------------------------------------

    def resolve(self, name: str):
        """Resolve a type name to a PrimitiveType or MethodTable."""
        if name.endswith("[]"):
            return self.array_of(name[:-2])
        prim = PRIMITIVES.get(name)
        if prim is not None:
            return prim
        if name == "object":
            return self.OBJECT
        mt = self._by_name.get(name)
        if mt is None:
            raise TypeLoadError(f"unknown type {name!r}")
        return mt

    def __contains__(self, name: str) -> bool:
        return name in self._by_name or name in PRIMITIVES
