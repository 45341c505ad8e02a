"""Timing substrate for the Motor reproduction.

The paper reports wall-clock microseconds per ping-pong iteration on a 2006
Pentium M.  We cannot (and are not asked to) match those absolute numbers;
we must match the *shape* of the evaluation: who wins, by what factor, and
where the crossovers fall.  Two clock modes support that:

``WallClock``
    ``now()`` is ``time.perf_counter_ns()`` and ``charge()`` is a no-op.
    The default of a directly built engine or runtime, and of a world
    launched with ``clock_mode="wall"``: what such a run costs is *real*
    Python work (marshalling, pinning bookkeeping, serialization), not a
    model.

``VirtualClock``
    A deterministic per-rank Lamport-style clock.  Every simulated
    primitive charges nanoseconds from a :class:`CostModel` calibrated to
    the paper's era; messages carry their send timestamp, and a receiver
    merges ``max(local, send_ts + transport_cost)`` on delivery.  Used by
    ``python -m repro.bench`` to regenerate the figures deterministically.
"""

from repro.simtime.clock import Clock, VirtualClock, WallClock
from repro.simtime.costs import HOST_PROFILES, LINK_PROFILES, CostModel, HostProfile, LinkProfile
from repro.simtime.sched import Baton

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "CostModel",
    "HostProfile",
    "HOST_PROFILES",
    "LinkProfile",
    "LINK_PROFILES",
    "Baton",
]
