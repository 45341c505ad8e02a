"""The managed heap: a byte-addressed space with a nursery and an elder gen.

Layout follows the SSCLI's generational story (paper §5.2): new objects are
bump-allocated in the young generation (gen0, the *nursery*); survivors are
promoted — copied and compacted — into the elder generation (gen1); when a
collection finds pinned nursery objects, the entire nursery block is
reassigned to the elder generation and a fresh nursery is carved.

Addresses are plain integers indexing one private anonymous mapping of the
heap's capacity: it is reserved, not filled, so a page becomes resident only
when the allocator first writes it (the SSCLI commits segments the same
way).  Address 0 is the null reference and the first 64 bytes are never
allocated.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass

from repro.runtime.errors import GcInvariantError, OutOfManagedMemory
from repro.runtime.typesys import align8

GEN0 = 0
GEN1 = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass
class Segment:
    """A contiguous carved region of the heap space."""

    base: int
    size: int
    kind: int  # GEN0 or GEN1
    alloc_ptr: int = 0  # next free offset *from base* for bump allocation

    def __post_init__(self) -> None:
        self.alloc_ptr = self.base

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    @property
    def free(self) -> int:
        return self.end - self.alloc_ptr


@dataclass
class HeapStats:
    gen0_collections: int = 0
    gen1_collections: int = 0
    bytes_allocated: int = 0
    objects_allocated: int = 0
    bytes_promoted: int = 0
    nursery_blocks_promoted: int = 0
    fragmentation_bytes: int = 0


class ManagedHeap:
    """Heap space manager: segments, bump allocation, free lists, raw I/O."""

    RESERVED = 64  # never allocated; keeps address 0 == null honest

    def __init__(self, capacity: int = 32 << 20, nursery_size: int = 512 << 10) -> None:
        nursery = align8(nursery_size)
        self._gen1_segment_size = max(nursery, min(4 << 20, capacity // 4))
        if self.RESERVED + self._gen1_segment_size + nursery > capacity:
            raise ValueError(
                f"heap capacity {capacity} cannot hold {self.RESERVED} reserved bytes, "
                f"a {self._gen1_segment_size}-byte elder segment and a {nursery}-byte nursery"
            )
        self.capacity = capacity
        self.nursery_size = nursery_size
        # MAP_PRIVATE: the default MAP_SHARED would alias the heap between
        # the two sides of a fork.
        self.mem = mmap.mmap(-1, capacity, flags=mmap.MAP_PRIVATE)
        self._view = memoryview(self.mem)
        self._carve_ptr = self.RESERVED
        self.stats = HeapStats()

        # Elder generation: list of segments, bump within the last, plus a
        # free list of (addr, size) holes produced by sweeps.
        self.gen1_segments: list[Segment] = [
            self._carve(self._gen1_segment_size, GEN1)
        ]
        self.free_list: list[tuple[int, int]] = []
        # Young generation: the current nursery segment.
        self.nursery: Segment = self._carve(nursery_size, GEN0)
        # Address-indexed registry of elder-generation allocations
        # (addr -> size).  The nursery is walkable by its bump pointer; the
        # elder gen is not (free-list reuse breaks contiguity), so the heap
        # keeps this map for the sweep phase.
        self.gen1_allocs: dict[int, int] = {}

    # -- carving ---------------------------------------------------------------

    def _carve(self, size: int, kind: int) -> Segment:
        size = align8(size)
        if self._carve_ptr + size > self.capacity:
            raise OutOfManagedMemory(
                f"cannot carve {size}-byte segment: heap exhausted "
                f"({self._carve_ptr}/{self.capacity} used)"
            )
        seg = Segment(self._carve_ptr, size, kind)
        self._carve_ptr += size
        return seg

    # -- membership ---------------------------------------------------------------

    def in_gen0(self, addr: int) -> bool:
        return self.nursery.contains(addr)

    def in_gen1(self, addr: int) -> bool:
        if self.in_gen0(addr):
            return False
        return any(seg.contains(addr) for seg in self.gen1_segments)

    def generation_of(self, addr: int) -> int:
        """0 for nursery residents, 1 for elder objects (paper §7.4 check)."""
        return GEN0 if self.in_gen0(addr) else GEN1

    # -- allocation ---------------------------------------------------------------

    def alloc_gen0(self, size: int) -> int | None:
        """Bump-allocate one zeroed object in the nursery; None signals
        'collect and retry'."""
        return self.alloc_gen0_run(align8(size), 1)

    def alloc_gen0_run(self, nbytes: int, count: int) -> int | None:
        """Bump ``count`` adjacent objects, ``nbytes`` in all (each 8-aligned),
        into the nursery as one zeroed span; None signals 'collect and retry'."""
        nursery = self.nursery
        addr = nursery.alloc_ptr
        if nursery.end - addr < nbytes:
            return None
        nursery.alloc_ptr = addr + nbytes
        self.mem[addr : addr + nbytes] = bytes(nbytes)
        self.stats.bytes_allocated += nbytes
        self.stats.objects_allocated += count
        return addr

    def alloc_gen1(self, size: int) -> int:
        """Allocate in the elder generation (promotion or large objects)."""
        size = align8(size)
        # First-fit over the free list.
        for i, (addr, hole) in enumerate(self.free_list):
            if hole >= size:
                if hole == size:
                    self.free_list.pop(i)
                else:
                    self.free_list[i] = (addr + size, hole - size)
                self.gen1_allocs[addr] = size
                return addr
        seg = self.gen1_segments[-1]
        if seg.free < size:
            seg = self._carve(max(self._gen1_segment_size, size), GEN1)
            self.gen1_segments.append(seg)
        addr = seg.alloc_ptr
        seg.alloc_ptr += size
        self.gen1_allocs[addr] = size
        return addr

    def free_gen1(self, addr: int) -> None:
        size = self.gen1_allocs.pop(addr, None)
        if size is None:
            raise GcInvariantError(f"freeing unknown elder object at {addr}")
        self.free_list.append((addr, size))

    def promote_nursery_block(self, live_objects: list[tuple[int, int]]) -> None:
        """SSCLI pinned-collection path: the whole nursery block becomes
        elder memory (pinned objects keep their addresses); a new nursery
        is carved.  ``live_objects`` are (addr, size) pairs that remain
        live in the promoted block; the rest is fragmentation.
        """
        block = self.nursery
        block.kind = GEN1
        self.gen1_segments.append(block)
        live_bytes = 0
        for addr, size in live_objects:
            self.gen1_allocs[addr] = size
            live_bytes += size
        used = block.alloc_ptr - block.base
        self.stats.fragmentation_bytes += used - live_bytes
        self.stats.nursery_blocks_promoted += 1
        self.nursery = self._carve(self.nursery_size, GEN0)

    def reset_nursery(self) -> None:
        """After an unpinned collection every survivor was copied out."""
        self.nursery.alloc_ptr = self.nursery.base

    # -- raw access ---------------------------------------------------------------

    def read_u32(self, addr: int) -> int:
        return _U32.unpack_from(self.mem, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        _U32.pack_into(self.mem, addr, value)

    def read_u64(self, addr: int) -> int:
        return _U64.unpack_from(self.mem, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        _U64.pack_into(self.mem, addr, value)

    def read_bytes(self, addr: int, n: int) -> bytes:
        return bytes(self.mem[addr : addr + n])

    def write_bytes(self, addr: int, data) -> None:
        self.mem[addr : addr + len(data)] = data

    def view(self, addr: int, n: int) -> memoryview:
        """A zero-copy window into heap memory (the transport writes here)."""
        return self._view[addr : addr + n]

    def zero(self, addr: int, n: int) -> None:
        self.mem[addr : addr + n] = b"\x00" * n
