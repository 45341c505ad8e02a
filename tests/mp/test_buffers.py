"""Buffer descriptors: latched windows, staleness semantics."""

import pytest

from repro.mp.buffers import BufferDesc, NativeMemory


class TestNativeMemory:
    def test_from_size(self):
        m = NativeMemory(16)
        assert len(m) == 16 and m.tobytes() == b"\x00" * 16

    def test_from_data(self):
        m = NativeMemory(b"abc")
        assert m.tobytes() == b"abc"

    def test_view_window(self):
        m = NativeMemory(b"abcdef")
        assert bytes(m.view(2, 3)) == b"cde"
        m.view(0, 2)[0] = ord("X")
        assert m.tobytes() == b"Xbcdef"


class TestBufferDesc:
    def test_from_native(self):
        m = NativeMemory(b"hello world")
        d = BufferDesc.from_native(m, 6, 5)
        assert d.tobytes() == b"world"
        assert len(d) == 5

    def test_from_native_out_of_range(self):
        with pytest.raises(ValueError):
            BufferDesc.from_native(NativeMemory(4), 2, 4)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            BufferDesc(bytearray(4), 0, -1)

    def test_read_write(self):
        d = BufferDesc.from_bytes(b"\x00" * 8)
        d.write(2, b"ab")
        assert d.tobytes() == b"\x00\x00ab\x00\x00\x00\x00"
        assert bytes(d.read(2, 2)) == b"ab"

    def test_write_overrun_refused(self):
        d = BufferDesc.from_bytes(b"\x00" * 4)
        with pytest.raises(ValueError):
            d.write(2, b"abc")

    def test_latched_address_goes_stale(self, runtime):
        """The defining property: the descriptor does NOT track a moving
        object — exactly like a native MPI holding a raw pointer."""
        arr = runtime.new_array("byte", 8)
        _mt, data_addr, nbytes = runtime.om.data_window(arr.addr)
        desc = BufferDesc(runtime.heap.mem, data_addr, nbytes)
        runtime.fill_array_bytes(arr, b"AAAAAAAA")
        assert desc.tobytes() == b"AAAAAAAA"
        runtime.collect(0)  # the array moves
        # the descriptor still points at the OLD address: stale
        assert runtime.array_bytes(arr) == b"AAAAAAAA"
        _mt, new_addr, _ = runtime.om.data_window(arr.addr)
        assert new_addr != data_addr
        assert desc.addr == data_addr

    def test_pinned_address_stays_valid(self, runtime):
        arr = runtime.new_array("byte", 8)
        runtime.fill_array_bytes(arr, b"BBBBBBBB")
        cookie = runtime.gc.pin(arr)
        _mt, data_addr, nbytes = runtime.om.data_window(arr.addr)
        desc = BufferDesc(runtime.heap.mem, data_addr, nbytes)
        runtime.collect(0)
        assert desc.tobytes() == b"BBBBBBBB"  # still the live object
        runtime.gc.unpin(cookie)
