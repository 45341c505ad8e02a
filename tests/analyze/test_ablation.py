"""A12 acceptance: a detached/disabled sanitizer prices within 1%.

Runs the ping-pong on the virtual clock in the three A12 configurations
(reduced axes — the full sweep is ``python -m repro.bench ablate-sanitize``).
Virtual time makes this exact: disabled hooks charge nothing, so the
middle column must be within the 1.01x bound; enabled checking charges
``san_check_ns`` per registry update and must cost *something*.
"""

import pytest

from repro.workloads.pingpong import sweep_buffer_pingpong

pytestmark = pytest.mark.analyze

QUICK = {"iterations": 6, "timed": 3, "runs": 1}
SIZES = [1024, 65536]


def _sweep(sanitize):
    return sweep_buffer_pingpong("cpp", SIZES, sanitize=sanitize, **QUICK)


class TestSanitizerOverhead:
    def test_disabled_hooks_within_one_percent(self):
        base = _sweep(None)
        off = _sweep("disabled")
        for size in SIZES:
            assert off[size] <= base[size] * 1.01, (
                f"disabled sanitizer overhead at {size}B: "
                f"{off[size] / base[size]:.4f}x"
            )

    def test_enabled_checking_costs_but_bounded(self):
        base = _sweep(None)
        on = _sweep("enabled")
        for size in SIZES:
            assert on[size] >= base[size]  # it must charge something
            assert on[size] <= base[size] * 1.5, (
                f"enabled sanitizer overhead at {size}B: "
                f"{on[size] / base[size]:.4f}x"
            )
