"""Ergonomic typed access to managed objects for application code.

Examples and tests read better through a proxy (``node.next = other``)
than through explicit runtime calls (``rt.set_ref(node, "next", other)``).
The proxy is sugar only — every access goes through the same object model,
write barrier and handle table as the explicit API.
"""

from __future__ import annotations

from repro.runtime.handles import ObjRef
from repro.runtime.runtime import ManagedRuntime

_SLOTS = ("_rt", "_ref")


class ManagedProxy:
    """Attribute/index access over a rooted managed object."""

    __slots__ = _SLOTS

    def __init__(self, rt: ManagedRuntime, ref: ObjRef) -> None:
        object.__setattr__(self, "_rt", rt)
        object.__setattr__(self, "_ref", ref)

    # -- plumbing ----------------------------------------------------------------

    @property
    def ref(self) -> ObjRef:
        return object.__getattribute__(self, "_ref")

    @property
    def runtime(self) -> ManagedRuntime:
        return object.__getattribute__(self, "_rt")

    @property
    def type_name(self) -> str:
        return self.runtime.type_of(self.ref).name

    # -- fields ----------------------------------------------------------------

    def __getattr__(self, name: str):
        if name in _SLOTS or name in ("ref", "runtime", "type_name"):
            return object.__getattribute__(self, name)
        rt: ManagedRuntime = object.__getattribute__(self, "_rt")
        ref: ObjRef = object.__getattribute__(self, "_ref")
        value = rt.get_field(ref, name)
        if isinstance(value, ObjRef):
            return ManagedProxy(rt, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        rt: ManagedRuntime = object.__getattribute__(self, "_rt")
        ref: ObjRef = object.__getattribute__(self, "_ref")
        if value is None or isinstance(value, (ObjRef, ManagedProxy)):
            target = value.ref if isinstance(value, ManagedProxy) else value
            rt.set_ref(ref, name, target)
        else:
            rt.set_field(ref, name, value)

    # -- arrays ----------------------------------------------------------------

    def __len__(self) -> int:
        return self.runtime.array_length(self.ref)

    def __getitem__(self, index: int):
        value = self.runtime.get_elem(self.ref, index)
        if isinstance(value, ObjRef):
            return ManagedProxy(self.runtime, value)
        return value

    def __setitem__(self, index: int, value) -> None:
        rt = self.runtime
        if value is None or isinstance(value, (ObjRef, ManagedProxy)):
            target = value.ref if isinstance(value, ManagedProxy) else value
            rt.set_elem_ref(self.ref, index, target)
        else:
            rt.set_elem(self.ref, index, value)

    def __repr__(self) -> str:
        return f"<managed {self.type_name} @{self.ref.addr:#x}>"
