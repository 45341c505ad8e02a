"""The OO-operation buffer pool (paper §7.5).

"Motor provides buffers for object oriented message passing operations,
which are allocated from static runtime memory.  They are created on
demand and stored in a stack for later use.  At garbage collection the
stack is checked for buffers which are unused since the last garbage
collection and these are unallocated."

Because these buffers are *native* (outside the managed heap), the OO
operations never pin anything — the serialized representation cannot move
(§7.4 last paragraph).

Pooled buffers live in power-of-two size-class bins (min class 64 B), so
``acquire`` is an O(1) pop from the smallest class that fits rather than
a linear first-fit scan over every idle buffer.  The ``created`` /
``reused`` / ``swept`` counters are exported as pull-model pvars
(``motor.pool.*``) when a VM is instrumented.
"""

from __future__ import annotations

from repro.mp.buffers import NativeMemory
from repro.mp.hooks import NULL_SPINE

#: smallest size class: 2**_MIN_CLASS bytes
_MIN_CLASS = 6


def _size_class(size: int) -> int:
    """The bin index whose buffers hold at least ``size`` bytes."""
    return max(_MIN_CLASS, (size - 1).bit_length()) if size > 1 else _MIN_CLASS


class _PooledBuffer:
    __slots__ = ("native", "last_used_gc")

    def __init__(self, native: NativeMemory, gc_epoch: int) -> None:
        self.native = native
        self.last_used_gc = gc_epoch


class BufferPool:
    """Size-class bins of reusable native buffers, swept by the collector."""

    #: the rank's hook spine (wire_vm shares the VM's spine here)
    hooks = NULL_SPINE

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        #: size class -> stack of idle buffers of exactly that class
        self._bins: dict[int, list[_PooledBuffer]] = {}
        self._gc_epoch = 0
        self.created = 0
        self.reused = 0
        self.swept = 0
        # The collector calls back after every collection.
        runtime.gc.post_collect_hooks.append(self._on_gc)

    # -- acquire / release -------------------------------------------------------

    def acquire(self, size: int) -> NativeMemory:
        """Pop an idle buffer from the smallest class that fits, else create.

        Buffers are binned by *floor* class on release (every buffer in
        bin ``c`` holds at least ``2**c`` bytes), so the first non-empty
        bin at or above ``_size_class(size)`` always satisfies the
        request — no per-buffer size checks.
        """
        cls = _size_class(size)
        bins = self._bins
        if bins:
            for c in range(cls, max(bins) + 1):
                stack = bins.get(c)
                if stack:
                    pb = stack.pop()
                    self.reused += 1
                    return pb.native
        self.created += 1
        self.runtime.clock.charge(self.runtime.costs.alloc_ns)
        # Round up so slightly-growing messages keep reusing one buffer.
        return NativeMemory(1 << cls)

    def release(self, native: NativeMemory) -> None:
        n = len(native)
        if n < (1 << _MIN_CLASS):
            return  # below the smallest class; let the GC reclaim it
        cls = n.bit_length() - 1  # floor: bin c guarantees >= 2**c bytes
        self._bins.setdefault(cls, []).append(_PooledBuffer(native, self._gc_epoch))

    # -- GC integration -------------------------------------------------------------

    def _on_gc(self, gen: int) -> None:  # noqa: ARG002 - hook signature
        """Unallocate buffers untouched since the previous collection."""
        for cls in list(self._bins):
            keep = [pb for pb in self._bins[cls] if pb.last_used_gc >= self._gc_epoch]
            self.swept += len(self._bins[cls]) - len(keep)
            if keep:
                self._bins[cls] = keep
            else:
                del self._bins[cls]
        self._gc_epoch += 1

    @property
    def pooled(self) -> int:
        return sum(len(stack) for stack in self._bins.values())
