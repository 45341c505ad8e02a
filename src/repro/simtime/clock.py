"""Per-rank clocks: virtual time for every simulated world, wall time for
real processes.

The virtual clock is a Lamport clock specialised for message passing: each
rank advances its own clock by charging primitive costs, and synchronises
with a peer when a message arrives (``merge``).  For a ping-pong this gives
the textbook round-trip decomposition

    t_iter = 2 * (software overhead + latency + bytes / bandwidth)

without needing a discrete-event scheduler: the two ranks strictly
alternate, so the merge at each receive carries the full causal time.
Who enforces the alternation: the ranks of an in-process world run one at
a time under a :class:`~repro.simtime.sched.Baton`, and a rank that finds
nothing to handle hands over to the runnable rank with the lowest clock —
so which rank polls when, and therefore every merge, is a function of the
simulation and not of the operating system's run queue.
"""

from __future__ import annotations

import time


class Clock:
    """Abstract clock interface shared by wall and virtual clocks."""

    #: True when charges actually advance the clock (virtual mode).
    virtual: bool = False

    #: the one callback a modelled ``charge`` calls, None when empty: async
    #: progress mode puts its progress engine's tick here (see
    #: :meth:`repro.mp.progress.ProgressEngine.start_ticking`)
    tick = None

    #: when True, ``merge`` records arrivals as a pending causal floor
    #: instead of jumping the clock (async progress: a packet handled
    #: mid-compute must not serialise its wire latency into compute time;
    #: the floor is applied when the data is *consumed*)
    defer_merges: bool = False

    #: the deferred causal floor; 0.0 (none) leaves nothing to apply.  Only a
    #: modelled clock defers merges, so only it has ``apply_pending`` and
    #: ``drop_pending_to``: callers ask them only while this is non-zero
    pending_ns: float = 0.0

    def causal_now(self) -> float:
        """``now`` including any pending (deferred) causal floor.

        Outbound packets are stamped with this, so messages that depend on
        asynchronously-received data still carry causally-correct times
        even while the receive's merge is deferred.
        """
        return self.now()

    def now(self) -> float:
        """Current time in nanoseconds."""
        raise NotImplementedError

    def charge(self, ns: float) -> None:
        """Account ``ns`` nanoseconds of simulated work."""
        raise NotImplementedError

    def charge_all(self, seq) -> None:
        """Account every charge of ``seq`` (a list of floats or a float64
        ``numpy`` array), in order, as that many :meth:`charge` calls would."""
        raise NotImplementedError

    def merge(self, ts_ns: float) -> None:
        """Synchronise with a causally-preceding event (message receive)."""
        raise NotImplementedError

    def elapsed_since(self, start_ns: float) -> float:
        """Nanoseconds elapsed since ``start_ns`` (a prior ``now()``)."""
        return self.now() - start_ns


class WallClock(Clock):
    """Real time, for ranks hosted as real processes (``substrate="proc",
    clock_mode="wall"``).  ``charge`` is a no-op: the work itself is the cost."""

    def now(self) -> float:
        return float(time.perf_counter_ns())

    def charge(self, ns: float) -> None:  # noqa: ARG002 - interface parity
        return None

    def charge_all(self, seq) -> None:  # noqa: ARG002
        return None

    def merge(self, ts_ns: float) -> None:  # noqa: ARG002
        return None


class VirtualClock(Clock):
    """Deterministic per-rank logical clock measured in nanoseconds.

    Thread-safety: each rank thread owns exactly one ``VirtualClock`` and is
    the only writer; ``merge`` is called from the owning thread when it
    *consumes* a message, so no locking is required.
    """

    virtual = True

    __slots__ = ("_now_ns", "charges", "tick", "defer_merges", "pending_ns")

    def __init__(self, start_ns: float = 0.0) -> None:
        self._now_ns = float(start_ns)
        #: number of charge() calls, useful for cost-model audits in tests
        self.charges = 0
        #: callback every charge calls (async progress mode's tick)
        self.tick = None
        #: True while an async progress step runs: merges become a pending
        #: causal floor rather than immediate jumps (see Clock.defer_merges)
        self.defer_merges = False
        self.pending_ns = 0.0

    def now(self) -> float:
        return self._now_ns

    def charge(self, ns: float) -> None:
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self._now_ns += ns
        self.charges += 1
        t = self.tick
        if t is not None:
            t()

    def charge_all(self, seq) -> None:
        """The exact fold of ``seq``: the same IEEE additions in the same
        order, ``charges`` up by ``len(seq)``, and a negative element refused
        before anything changes.  It folds a ``float64`` copy whose first
        element carries ``now`` with ``cumsum``, which adds one element at a
        time, in order (``sum`` pairs them up).  With a tick installed each
        element is charged alone, so the tick fires at the same modelled
        instants."""
        import numpy as np

        seq = np.array(seq, float)
        if not seq.size:
            return
        if (lo := float(seq.min())) < 0:
            raise ValueError(f"negative charge: {lo}")
        if self.tick is not None:
            for ns in seq.tolist():
                self.charge(ns)
            return
        seq[0] += self._now_ns
        self._now_ns = float(seq.cumsum()[-1])
        self.charges += len(seq)

    def merge(self, ts_ns: float) -> None:
        if self.defer_merges:
            # A packet handled while the application computes: remember its
            # causal time, but do not serialise the wire latency into the
            # compute timeline — the jump (if still ahead of local time)
            # happens when the data is consumed (apply_pending).
            if ts_ns > self.pending_ns:
                self.pending_ns = ts_ns
            return
        if ts_ns > self._now_ns:
            self._now_ns = ts_ns

    def causal_now(self) -> float:
        p = self.pending_ns
        return p if p > self._now_ns else self._now_ns

    def apply_pending(self) -> None:
        """Fold the deferred causal floor into the clock (consumption)."""
        if self.pending_ns > self._now_ns:
            self._now_ns = self.pending_ns
        self.pending_ns = 0.0

    def drop_pending_to(self, ns: float) -> None:
        """Lower the deferred floor back to ``ns`` (an earlier ``pending_ns``):
        the one-sided device parks an arrival's floor on its window so an
        unrelated wait does not fold it early (``CH3Device._handle_rma``)."""
        if self.pending_ns > ns:
            self.pending_ns = ns

    def reset(self, start_ns: float = 0.0) -> None:
        self._now_ns = float(start_ns)
        self.charges = 0
        self.defer_merges = False
        self.pending_ns = 0.0
