"""Heap segments, allocation and generation membership."""

import os
import sys

import pytest

from repro.runtime import ManagedRuntime
from repro.runtime.errors import GcInvariantError, OutOfManagedMemory
from repro.runtime.heap import GEN1, ManagedHeap
from repro.runtime.typesys import ARRAY_DATA_OFFSET


class TestAllocation:
    def test_gen0_bump(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen0(64)
        b = h.alloc_gen0(64)
        assert b == a + 64
        assert h.in_gen0(a) and h.in_gen0(b)

    def test_gen0_run_is_one_zeroed_bump(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        h.write_bytes(h.nursery.base, b"\xff" * 96)  # a dead nursery's leftovers
        a = h.alloc_gen0_run(96, 3)
        assert a == h.nursery.base and h.nursery.alloc_ptr == a + 96
        assert h.read_bytes(a, 96) == bytes(96)
        assert (h.stats.objects_allocated, h.stats.bytes_allocated) == (3, 96)
        assert h.alloc_gen0_run(h.nursery.free + 8, 2) is None
        assert h.stats.objects_allocated == 3

    def test_gen0_exhaustion_returns_none(self):
        h = ManagedHeap(1 << 20, 1 << 10)
        assert h.alloc_gen0(2 << 10) is None

    def test_alignment(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen0(5)
        b = h.alloc_gen0(5)
        assert a % 8 == 0 and b % 8 == 0 and b - a == 8

    def test_null_address_never_allocated(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        assert h.alloc_gen1(16) >= ManagedHeap.RESERVED

    def test_gen1_alloc_and_membership(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen1(128)
        assert h.in_gen1(a) and not h.in_gen0(a)
        assert h.generation_of(a) == GEN1

    def test_gen1_grows_new_segment(self):
        h = ManagedHeap(32 << 20, 4 << 10)
        first_seg_count = len(h.gen1_segments)
        h.alloc_gen1(8 << 20)  # larger than the initial 4 MiB segment
        assert len(h.gen1_segments) > first_seg_count

    def test_heap_exhaustion_raises(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        with pytest.raises(OutOfManagedMemory):
            for _ in range(1000):
                h.alloc_gen1(64 << 10)

    def test_nursery_too_large_rejected(self):
        with pytest.raises(ValueError):
            ManagedHeap(1 << 20, 1 << 20)

    def test_carving_check_counts_reserved_bytes_and_elder_segment(self):
        # 2 x 512 KiB passes a "nursery * 2 <= capacity" test, but the 64
        # reserved bytes leave no room for the nursery after the elder segment
        with pytest.raises(ValueError, match="64 reserved bytes, a 524288-byte elder segment"):
            ManagedHeap(1 << 20, 512 << 10)
        largest = ((1 << 20) - ManagedHeap.RESERVED) // 2
        h = ManagedHeap(1 << 20, largest)
        assert h.nursery.end == 1 << 20
        assert h.alloc_gen0(largest) == h.nursery.base
        with pytest.raises(ValueError):
            ManagedHeap(1 << 20, largest + 8)


class TestFreeList:
    def test_free_and_reuse(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen1(256)
        h.free_gen1(a)
        b = h.alloc_gen1(256)
        assert b == a  # first fit reuses the hole

    def test_free_splits_hole(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen1(256)
        h.free_gen1(a)
        b = h.alloc_gen1(64)
        c = h.alloc_gen1(64)
        assert b == a and c == a + 64

    def test_double_free_rejected(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen1(64)
        h.free_gen1(a)
        with pytest.raises(GcInvariantError):
            h.free_gen1(a)


class TestNurseryPromotion:
    def test_block_promotion(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen0(64)
        old_base = h.nursery.base
        h.promote_nursery_block([(a, 64)])
        # the promoted block is now elder memory; a's address is unchanged
        assert h.in_gen1(a)
        assert not h.in_gen0(a)
        assert h.nursery.base != old_base
        assert a in h.gen1_allocs
        assert h.stats.nursery_blocks_promoted == 1

    def test_fragmentation_accounting(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        a = h.alloc_gen0(64)
        h.alloc_gen0(128)  # dead
        h.promote_nursery_block([(a, 64)])
        assert h.stats.fragmentation_bytes == 128

    def test_reset_nursery(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        h.alloc_gen0(512)
        h.reset_nursery()
        assert h.nursery.alloc_ptr == h.nursery.base


class TestRawAccess:
    def test_u32_u64(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        h.write_u32(100, 0xDEADBEEF)
        assert h.read_u32(100) == 0xDEADBEEF
        h.write_u64(200, 1 << 50)
        assert h.read_u64(200) == 1 << 50

    def test_bytes_and_view(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        h.write_bytes(300, b"managed")
        assert h.read_bytes(300, 7) == b"managed"
        view = h.view(300, 7)
        view[0] = ord("M")
        assert h.read_bytes(300, 7) == b"Managed"

    def test_zero(self):
        h = ManagedHeap(1 << 20, 4 << 10)
        h.write_bytes(64, b"\xff" * 16)
        h.zero(64, 16)
        assert h.read_bytes(64, 16) == b"\x00" * 16


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
class TestReservedMemory:
    def test_pages_are_committed_on_first_touch(self):
        ManagedRuntime()  # warm: imports, type registry, first-use caches
        before = _resident_bytes()
        rt = ManagedRuntime()  # 32 MiB of capacity
        built = _resident_bytes()
        assert built - before < 4 << 20
        kept = [rt.new_array("int32", 4096) for _ in range(256)]  # ~4 MiB, rooted
        assert _resident_bytes() - built >= 3 << 20
        assert len(kept) == 256

    def test_the_heap_is_private_across_fork(self):
        rt = ManagedRuntime()
        sentinel = b"sentinel-before-fork"
        ref = rt.new_byte_array(sentinel)
        span = (ref.addr, ARRAY_DATA_OFFSET + len(sentinel))  # header and bytes
        original = rt.heap.read_bytes(*span)
        pid = os.fork()
        if pid == 0:  # child: report through the exit status only
            code = 1
            try:
                if rt.heap.read_bytes(*span) == original:
                    code = 2
                    rt.heap.write_bytes(span[0], b"\xee" * span[1])
                    rt.new_array("int32", 1024)
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert rt.heap.read_bytes(*span) == original
