"""MPI datatypes: basic and contiguous."""

import pytest

from repro.mp.datatypes import ALL_BASIC, BYTE, DOUBLE, INT, Datatype


class TestBasic:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT.size == 4
        assert DOUBLE.size == 8

    def test_pack_unpack_roundtrip(self):
        for dt in ALL_BASIC:
            if dt.fmt in ("f", "d"):
                vals = (0.5, -1.25, 3.0)
            else:
                vals = (0, 1, 100)
            data = dt.pack_values(vals)
            assert len(data) == dt.size * 3
            assert dt.unpack_values(data) == vals

    def test_unpack_partial_trailing_ignored(self):
        data = INT.pack_values((1, 2)) + b"\x01"
        assert INT.unpack_values(data) == (1, 2)

    def test_no_codec(self):
        derived = Datatype("blob", 12)
        with pytest.raises(TypeError):
            derived.pack_values((1,))


class TestContiguous:
    def test_size(self):
        assert INT.contiguous(5).size == 20
