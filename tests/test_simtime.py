"""Clocks and the cost model."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simtime import HOST_PROFILES, CostModel, VirtualClock, WallClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_charge_advances(self):
        c = VirtualClock()
        c.charge(100)
        c.charge(50.5)
        assert c.now() == 150.5
        assert c.charges == 2

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-1)

    def test_merge_takes_max(self):
        c = VirtualClock()
        c.charge(100)
        c.merge(50)  # in the past: no effect
        assert c.now() == 100
        c.merge(500)
        assert c.now() == 500

    def test_elapsed_since(self):
        c = VirtualClock()
        t0 = c.now()
        c.charge(42)
        assert c.elapsed_since(t0) == 42

    def test_reset(self):
        c = VirtualClock()
        c.charge(10)
        c.reset()
        assert c.now() == 0 and c.charges == 0

    def test_is_virtual(self):
        assert VirtualClock().virtual
        assert not WallClock().virtual


#: what a charge may be: finite and not negative
CHARGES = st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), max_size=60)
STARTS = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)


def _bits(clock: VirtualClock) -> tuple[str, int]:
    return clock.now().hex(), clock.charges


# a sum past the largest float is inf, as one charge at a time makes it;
# the fold's ``numpy`` also warns
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestChargeAll:
    """``charge_all(seq)`` is ``for ns in seq: charge(ns)``, to the bit."""

    @given(start=STARTS, seq=CHARGES)
    def test_equals_one_charge_per_element(self, start, seq):
        one, folded = VirtualClock(start), VirtualClock(start)
        for ns in seq:
            one.charge(ns)
        folded.charge_all(seq)
        assert _bits(folded) == _bits(one)

    @given(start=STARTS, seq=CHARGES)
    def test_a_tick_fires_per_element_at_the_same_instants(self, start, seq):
        seen = {}
        for name in ("one", "folded"):
            clock = VirtualClock(start)
            seen[name] = []
            clock.tick = lambda c=clock, log=seen[name]: log.append(c.now().hex())
            if name == "one":
                for ns in seq:
                    clock.charge(ns)
            else:
                clock.charge_all(seq)
            seen[name].append(_bits(clock))
        assert seen["folded"] == seen["one"]
        assert len(seen["one"]) == len(seq) + 1

    @given(start=STARTS, before=CHARGES, after=CHARGES,
           bad=st.floats(max_value=-math.ulp(0.0), allow_nan=False, allow_infinity=False))
    def test_a_negative_element_is_refused_before_anything_changes(
            self, start, before, after, bad):
        for tick in (None, lambda: None):
            clock = VirtualClock(start)
            clock.tick = tick
            with pytest.raises(ValueError):
                clock.charge_all([*before, bad, *after])
            assert _bits(clock) == (float(start).hex(), 0)

    def test_empty_is_nothing(self):
        clock = VirtualClock(5.0)
        clock.charge_all([])
        assert _bits(clock) == ((5.0).hex(), 0)

    @given(start=STARTS, seq=CHARGES, tick=st.booleans())
    def test_a_float64_array_folds_as_its_list_does(self, start, seq, tick):
        """The array form (``cumsum``, which adds in order) leaves the same
        bits, count and tick instants as the list, and the array as it was."""
        import numpy as np

        seen = {}
        for name, given_seq in (("list", seq), ("array", np.array(seq, float))):
            clock = VirtualClock(start)
            seen[name] = []
            if tick:
                clock.tick = lambda c=clock, log=seen[name]: log.append(c.now().hex())
            clock.charge_all(given_seq)
            seen[name].append(_bits(clock))
            assert type(clock.now()) is float
        assert seen["array"] == seen["list"]
        arr = np.array(seq, float)
        VirtualClock(start).charge_all(arr)
        assert arr.tolist() == seq

    def test_a_negative_array_element_is_refused(self):
        import numpy as np

        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            clock.charge_all(np.array([1.0, -0.5, 2.0]))
        assert _bits(clock) == ((5.0).hex(), 0)


class TestWallClock:
    def test_monotonic(self):
        c = WallClock()
        a = c.now()
        b = c.now()
        assert b >= a

    def test_charge_is_noop(self):
        c = WallClock()
        before = c.now()
        c.charge(1e12)
        assert c.now() - before < 1e9  # far less than the charged second

    def test_charge_all_is_noop(self):
        c = WallClock()
        before = c.now()
        c.charge_all([1e12, -1.0])
        assert c.now() - before < 1e9

    def test_merge_is_noop(self):
        c = WallClock()
        c.merge(c.now() + 1e15)  # must not throw or warp time
        assert c.now() < 1e18 or True


class TestCostModel:
    def test_gate_costs_ordering(self):
        cm = CostModel()
        f = cm.gate_cost("fcall", 4)
        p = cm.gate_cost("pinvoke", 4)
        j = cm.gate_cost("jni", 4)
        assert f < p < j

    def test_gate_cost_scales_with_args(self):
        cm = CostModel()
        assert cm.gate_cost("pinvoke", 8) > cm.gate_cost("pinvoke", 0)

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            CostModel().gate_cost("syscall", 1)

    def test_profile_multiplier(self):
        cm = CostModel()
        fast = HOST_PROFILES["sscli-fastchecked"]
        assert cm.gate_cost("pinvoke", 2, fast) > cm.gate_cost("pinvoke", 2)

    def test_wire_cost_monotone(self):
        cm = CostModel()
        costs = [cm.wire_cost(n) for n in (0, 100, 10_000, 1_000_000)]
        assert costs == sorted(costs)
        assert costs[0] >= cm.message_latency_ns

    def test_wire_cost_packetization(self):
        cm = CostModel()
        one = cm.wire_cost(cm.packet_size)
        two = cm.wire_cost(cm.packet_size + 1)
        assert two - one >= cm.packet_overhead_ns

    def test_scaled_override(self):
        cm = CostModel().scaled(fcall_ns=1.0)
        assert cm.fcall_ns == 1.0
        assert CostModel().fcall_ns != 1.0

    def test_profiles_present(self):
        assert {"sscli-free", "sscli-fastchecked", "dotnet", "jvm"} <= set(HOST_PROFILES)

    def test_fastchecked_pins_cost_more(self):
        assert (
            HOST_PROFILES["sscli-fastchecked"].pin_mult
            > HOST_PROFILES["sscli-free"].pin_mult
        )

    def test_dotnet_serializer_faster_than_sscli(self):
        assert (
            HOST_PROFILES["dotnet"].serializer_per_obj_ns
            < HOST_PROFILES["sscli-free"].serializer_per_obj_ns
        )

    def test_profiles_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            HOST_PROFILES["dotnet"].pin_mult = 0  # type: ignore[misc]
