"""Buffer descriptors: where a transfer reads from or writes into.

A :class:`BufferDesc` latches a *base object + address + length* at
operation start, exactly as a native MPI latches the ``void*`` it was
given.  For heap-backed descriptors the address is a managed-heap address:
if the collector moves the object mid-transfer the descriptor goes stale
and the transfer corrupts memory — the precise hazard the paper's pinning
machinery exists to prevent (§2.3).  Nothing in this class re-resolves the
address; that honesty is the point.

A payload crosses a channel by value: a packet carries either an owned
``bytes`` snapshot or a ``memoryview`` of the latched source buffer, and
``send_packet`` consumes that view (frames it, or copies it into the
queue — the one write that models the wire crossing) before it returns.
Nothing counts the view; the request's ``in_flight`` predicate and the
pinning policy are what keep the source buffer still meanwhile.
"""

from __future__ import annotations


class NativeMemory:
    """Unmanaged memory (malloc-style), used by the native baseline and for
    staging unexpected eager messages."""

    __slots__ = ("mem",)

    def __init__(self, size_or_data) -> None:
        if isinstance(size_or_data, int):
            self.mem = bytearray(size_or_data)
        else:
            self.mem = bytearray(size_or_data)

    def __len__(self) -> int:
        return len(self.mem)

    def view(self, offset: int = 0, nbytes: int | None = None) -> memoryview:
        end = len(self.mem) if nbytes is None else offset + nbytes
        return memoryview(self.mem)[offset:end]

    def tobytes(self) -> bytes:
        return bytes(self.mem)


class BufferDesc:
    """A latched (base, addr, nbytes) window for the transport."""

    __slots__ = ("base", "addr", "nbytes")

    def __init__(self, base, addr: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative buffer length")
        self.base = base  # bytearray-like (heap.mem or NativeMemory.mem)
        self.addr = addr
        self.nbytes = nbytes

    @classmethod
    def from_native(cls, native: NativeMemory, offset: int = 0, nbytes: int | None = None) -> "BufferDesc":
        n = len(native.mem) - offset if nbytes is None else nbytes
        if offset + n > len(native.mem):
            raise ValueError("native buffer window out of range")
        return cls(native.mem, offset, n)

    @classmethod
    def from_bytes(cls, data: bytes | bytearray) -> "BufferDesc":
        buf = bytearray(data)
        return cls(buf, 0, len(buf))

    def view(self) -> memoryview:
        """The transfer window — recomputed from the *latched* address."""
        return memoryview(self.base)[self.addr : self.addr + self.nbytes]

    def read(self, offset: int, n: int) -> memoryview:
        return memoryview(self.base)[self.addr + offset : self.addr + offset + n]

    def write(self, offset: int, data) -> None:
        if offset + len(data) > self.nbytes:
            raise ValueError("write past end of buffer descriptor")
        self.base[self.addr + offset : self.addr + offset + len(data)] = data

    def tobytes(self) -> bytes:
        return bytes(self.view())

    def __len__(self) -> int:
        return self.nbytes


#: element types RMA accumulate understands, as ``numpy`` typecodes (names
#: follow the System.MP datatype surface)
ACC_TYPECODES = {"byte": "b", "int32": "i", "int64": "q", "double": "d"}


def accumulate_into(dst_mv, src_mv, dtype: str) -> None:
    """Element-wise sum ``src`` into ``dst`` in place — the RMA accumulate
    reduction, shared by the native channel fast paths and the CH3
    emulation landing.  An integer sum wraps modulo the element width, as
    a compiled C reduction does on two's-complement hardware."""
    import numpy

    code = ACC_TYPECODES.get(dtype)
    if code is None:
        raise ValueError(f"accumulate: unsupported dtype {dtype!r}")
    dst = numpy.frombuffer(dst_mv, code)
    src = numpy.frombuffer(src_mv, code)
    if len(dst) != len(src):
        raise ValueError("accumulate: element count mismatch")
    numpy.add(dst, src, out=dst)
