"""The pvar registry: counters, histograms, pull providers."""

import pytest

from repro.obs import MetricsRegistry

pytestmark = pytest.mark.obs


class TestCounters:
    def test_create_on_demand_and_inc(self):
        reg = MetricsRegistry()
        reg.counter("mp.ch3.eager_sends").inc()
        reg.counter("mp.ch3.eager_sends").inc(4)
        assert reg.counter("mp.ch3.eager_sends").value == 5

    def test_distinct_names_distinct_counters(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("b").inc(3)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2, "b": 3}


class TestHistograms:
    def test_power_of_two_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("mp.ch3.msg_bytes")
        for v in (1, 2, 3, 1024, 1500):
            h.observe(v)
        snap = reg.snapshot()["hists"]["mp.ch3.msg_bytes"]
        assert snap["count"] == 5
        assert snap["min"] == 1
        assert snap["max"] == 1500
        assert snap["total"] == 1 + 2 + 3 + 1024 + 1500
        # 1 -> bucket 1; 2,3 -> bucket 2; 1024,1500 -> bucket 11
        assert snap["buckets"] == {"1": 1, "2": 2, "11": 2}

    def test_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("x")
        h.observe(10)
        h.observe(30)
        assert h.mean == 20


class TestProviders:
    def test_pull_provider_read_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"polls": 0}
        reg.register_provider(lambda: {"mp.progress.polls": state["polls"]})
        state["polls"] = 41
        assert reg.snapshot()["counters"]["mp.progress.polls"] == 41
        state["polls"] = 99
        assert reg.snapshot()["counters"]["mp.progress.polls"] == 99

    def test_provider_adds_to_pushed_counter(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(5)
        reg.register_provider(lambda: {"n": 2})
        assert reg.snapshot()["counters"]["n"] == 7
