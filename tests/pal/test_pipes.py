"""Byte pipes (the simulated loopback sockets)."""

import pytest

from repro.pal import BytePipe, PipeClosed


class TestBasics:
    def test_write_then_read(self):
        p = BytePipe(64)
        assert p.write(b"hello") == 5
        assert p.read(5) == b"hello"

    def test_read_empty_nonblocking(self):
        assert BytePipe().read(10) == b""

    def test_partial_read(self):
        p = BytePipe()
        p.write(b"abcdef")
        assert p.read(2) == b"ab"
        assert p.read(100) == b"cdef"

    def test_peek_available(self):
        p = BytePipe()
        p.write(b"xyz")
        assert p.peek_available() == 3
        assert len(p) == 3

    def test_capacity_nonblocking_partial_write(self):
        p = BytePipe(4)
        assert p.write(b"abcdef", block=False) == 4
        assert p.read(10) == b"abcd"

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BytePipe(0)

    def test_fifo_order(self):
        p = BytePipe()
        p.write(b"123")
        p.write(b"456")
        assert p.read(6) == b"123456"


class TestClose:
    def test_read_after_close_raises(self):
        p = BytePipe()
        p.close()
        with pytest.raises(PipeClosed):
            p.read(1)

    def test_write_after_close_raises(self):
        p = BytePipe()
        p.close()
        with pytest.raises(PipeClosed):
            p.write(b"x")
