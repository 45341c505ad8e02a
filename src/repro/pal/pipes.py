"""Bounded byte pipes — the simulated OS transport under the sock channel.

A :class:`BytePipe` is a one-directional, thread-safe, bounded byte FIFO
with non-blocking reads and partial writes, mimicking a non-blocking TCP
socket buffer over loopback.  The sock channel frames packets on top of
it and polls it, like MPICH2's sock channel drives overlapped socket I/O.
"""

from __future__ import annotations

import threading


class PipeClosed(Exception):
    """Raised when reading from / writing to a closed pipe."""


class BytePipe:
    """A bounded, thread-safe byte FIFO (simulated loopback socket)."""

    def __init__(self, capacity: int = 1 << 20, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("pipe capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._buf = bytearray()
        self._lock = threading.Lock()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    peek_available = __len__

    def write(self, data: bytes | bytearray | memoryview, block: bool = False) -> int:
        """Write what fits of ``data`` right now (possibly 0 bytes), like a
        non-blocking socket send; returns the bytes accepted.  ``block``
        spells the mode as a socket call would; only ``False`` exists."""
        if block:
            raise ValueError("BytePipe writes are non-blocking")
        with self._lock:
            if self._closed:
                raise PipeClosed(self.name)
            chunk = memoryview(data)[: self.capacity - len(self._buf)]
            self._buf.extend(chunk)
            return len(chunk)

    def read(self, nbytes: int) -> bytes:
        """Read up to ``nbytes``; empty result means no data right now."""
        with self._lock:
            if not self._buf:
                if self._closed:
                    raise PipeClosed(self.name)
                return b""
            out = bytes(self._buf[:nbytes])
            del self._buf[:nbytes]
            return out

    def close(self) -> None:
        with self._lock:
            self._closed = True
