"""MPI datatypes for the buffer-oriented (native) layer.

The native C-like API keeps MPI's classic ``(buffer, count, datatype)``
triple; Motor's managed bindings drop both count and datatype because the
object itself carries its type and size (paper §4.2.1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


@dataclass(frozen=True)
class Datatype:
    """A (possibly derived) MPI datatype: name, extent, optional codec."""

    name: str
    size: int  # bytes per element
    fmt: str | None = None  # struct format for scalar convenience helpers

    def pack_values(self, values) -> bytes:
        if self.fmt is None:
            raise TypeError(f"{self.name} has no scalar codec")
        return struct.pack(f"<{len(values)}{self.fmt}", *values)

    def unpack_values(self, data: bytes) -> tuple:
        if self.fmt is None:
            raise TypeError(f"{self.name} has no scalar codec")
        n = len(data) // self.size
        return struct.unpack(f"<{n}{self.fmt}", data[: n * self.size])

    def contiguous(self, count: int) -> "Datatype":
        """MPI_Type_contiguous."""
        return Datatype(f"{self.name}x{count}", self.size * count)


BYTE = Datatype("MPI_BYTE", 1, "B")
CHAR = Datatype("MPI_CHAR", 1, "b")
SHORT = Datatype("MPI_SHORT", 2, "h")
INT = Datatype("MPI_INT", 4, "i")
LONG = Datatype("MPI_LONG", 8, "q")
FLOAT = Datatype("MPI_FLOAT", 4, "f")
DOUBLE = Datatype("MPI_DOUBLE", 8, "d")

ALL_BASIC = (BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE)
