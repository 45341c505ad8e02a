"""GC-updated handle table and user-facing object references.

User (and FCall) code never holds a raw heap address across a potential
collection — addresses change when objects are promoted.  Instead it holds
an :class:`ObjRef`, a slot in the handle table; the collector rewrites slot
contents when objects move.  This mirrors the SSCLI rule the paper
describes for FCalls: "it is the programmer's responsibility to protect
object pointers by declaring them using a set of provided macros.
Programmer-declared object pointers within FCalls are updated during
garbage collection" (§5.1).

Dropping the last Python reference to an ``ObjRef`` frees its slot, so an
abandoned managed object genuinely becomes unreachable and collectable.
"""

from __future__ import annotations

import weakref

from repro.runtime.errors import GcInvariantError, NullReferenceError_

_FREE = -1


class HandleTable:
    """Slots holding heap addresses; the GC's primary root set."""

    def __init__(self) -> None:
        self._slots: list[int] = []
        self._free: list[int] = []

    def alloc(self, addr: int) -> int:
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = addr
        else:
            slot = len(self._slots)
            self._slots.append(addr)
        return slot

    def free(self, slot: int) -> None:
        if self._slots[slot] == _FREE:
            raise GcInvariantError(f"double free of handle slot {slot}")
        self._slots[slot] = _FREE
        self._free.append(slot)

    def get(self, slot: int) -> int:
        addr = self._slots[slot]
        if addr == _FREE:
            raise GcInvariantError(f"read of freed handle slot {slot}")
        return addr

    def set(self, slot: int, addr: int) -> None:
        if self._slots[slot] == _FREE:
            raise GcInvariantError(f"write to freed handle slot {slot}")
        self._slots[slot] = addr

    def live_slots(self) -> list[int]:
        """Slot indices currently holding a (possibly null) address."""
        return [i for i, a in enumerate(self._slots) if a != _FREE]

    def __len__(self) -> int:
        return len(self._slots) - len(self._free)


class ObjRef:
    """A rooted reference to a managed object (or null).

    ``ObjRef`` instances compare equal when they designate the same heap
    object *right now*; identity is by target, not by slot.
    """

    __slots__ = ("_table", "_slot", "__weakref__")

    def __init__(self, table: HandleTable, addr: int) -> None:
        self._table = table
        self._slot = table.alloc(addr)
        # Free the slot when the Python-side reference dies, making the
        # managed object collectable ("abandoned memory").
        weakref.finalize(self, table.free, self._slot)

    # -- address access (the slot read in place: every System.MP call reads one)

    @property
    def addr(self) -> int:
        addr = self._table._slots[self._slot]
        if addr == _FREE:
            raise GcInvariantError(f"read of freed handle slot {self._slot}")
        return addr

    @property
    def slot(self) -> int:
        return self._slot

    @property
    def is_null(self) -> bool:
        return self._table.get(self._slot) == 0

    def require(self) -> int:
        addr = self._table._slots[self._slot]
        if addr == _FREE:
            raise GcInvariantError(f"read of freed handle slot {self._slot}")
        if addr == 0:
            raise NullReferenceError_("null ObjRef dereferenced")
        return addr

    # -- comparisons ----------------------------------------------------------

    def same_object(self, other: "ObjRef | None") -> bool:
        if other is None:
            return self.is_null
        return self.addr == other.addr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjRef) and self.addr == other.addr

    def __repr__(self) -> str:
        return f"<ObjRef slot={self._slot} addr={self.addr:#x}>"
