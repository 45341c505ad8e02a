"""SeriesSet rendering and helpers."""

import math

from repro.bench.harness import SeriesSet, mean


def sample() -> SeriesSet:
    s = SeriesSet("figX", "Test figure", "bytes", "us")
    s.add("A", {4: 1.0, 8: 2.0})
    s.add("B", {4: 1.5, 8: None})
    return s


class TestSeriesSet:
    def test_xs_union(self):
        s = sample()
        s.add("C", {16: 9.0})
        assert s.xs() == [4, 8, 16]

    def test_value_lookup(self):
        s = sample()
        assert s.value("A", 8) == 2.0
        assert s.value("B", 8) is None
        assert s.value("Z", 4) is None

    def test_render_table_contains_everything(self):
        out = sample().render_table()
        assert "figX" in out and "Test figure" in out
        assert "A" in out and "B" in out
        assert "1.0" in out and "2.0" in out
        assert "-" in out  # the None cell

    def test_render_notes(self):
        s = sample()
        s.notes.append("watch the knee")
        assert "note: watch the knee" in s.render_table()

    def test_csv(self):
        csv = sample().to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "bytes,A,B"
        assert lines[1] == "4,1.000,1.500"
        assert lines[2] == "8,2.000,"  # None -> empty cell


class TestStats:
    def test_mean_skips_none(self):
        assert mean([1.0, None, 3.0]) == 2.0
        assert math.isnan(mean([]))
