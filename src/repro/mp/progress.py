"""The progress engine: one rank's progress step, its polling-wait, its async tick.

Motor replaced MPICH2's blocking system calls with "a polling-wait, which
periodically releases and polls the garbage collector ... to ensure that
the thread performing the FCall does not block the entire runtime when a
garbage collection is required" (paper §7.1).  The ``yield_fn`` hook is
where each integration plugs its own discipline:

* Motor passes the runtime's safepoint poll *plus* its deferred-pinning
  policy callback (§7.4);
* the wrapper baselines pass nothing — their native MPI library knows
  nothing about the collector, which is exactly the architectural problem
  the paper identifies.

Besides point-to-point requests, the progress step executes collective
*schedules* (:mod:`repro.mp.schedule`): each registered schedule is
advanced once per poll, which is what makes ``ibarrier``/``ibcast``/…
progress while the caller computes.

:class:`ProgressEngine` is the one progress class:

* :meth:`~ProgressEngine.step` — device poll plus schedule advancement,
  with counters telling caller-initiated from async-initiated steps.
  Everything that completes a request goes through it.
* :meth:`~ProgressEngine.drive` — the one polling-wait loop, built on the
  one ``idle`` step, and the family spelled with it (``wait``,
  ``wait_all``, ``poll_until``, ``test``); and ``cede``, the one seam
  through which a rank with nothing to do lets another rank run.
* the async tick — progress mode ``"async"`` (:meth:`start_ticking`):
  the engine's tick sits in the rank clock's one callback slot, so
  ``Clock.charge`` steps the engine whenever simulated time passes the
  tick's due time — during application *compute*, not just library
  calls.  There is no progress thread: async is a simulated-clock mode,
  and the proc substrate rejects it (docs/ARCHITECTURE.md "Progress
  modes").

The wait is bounded two ways ("MPI Progress For All"): an optional wall
``timeout`` raises :class:`MpiErrTimeout`, and a request completed with
``MPI_ERR_PROC_FAILED`` (the reliability sublayer's dead-peer verdict)
raises :class:`MpiErrProcFailed` instead of returning garbage — so a dead
peer can never wedge the polling loop.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.mp.ch3 import CH3Device
from repro.mp.errors import MpiErrProcFailed, MpiErrTimeout
from repro.mp.hooks import NULL_SPINE
from repro.mp.reliability import PROC_FAILED
from repro.mp.request import Request

#: every 64th consecutive idle poll of a wait is its backoff point, where
#: a process-hosted rank yields its CPU
IDLE_MASK = 0x3F

#: most async steps one charge may fire; past it the tick snaps back onto
#: cadence, so a multi-millisecond charge (a large serialization, a
#: rendezvous wire cost) does not fire a 5 us tick hundreds of times
MAX_CATCHUP = 8


class _Until:
    """A condition wait as the baton sees it: over while ``done()`` holds."""

    __slots__ = ("done", "what")

    def __init__(self, done: Callable[[], bool], what: str) -> None:
        self.done, self.what = done, what

    @property
    def completed(self) -> bool:
        return self.done()

    def describe(self) -> str:
        return self.what


class ProgressEngine:
    """Drives one rank's device until requests complete."""

    def __init__(self, device: CH3Device, yield_fn: Callable[[], None] | None = None) -> None:
        self.device = device
        self.yield_fn = yield_fn
        #: the rank's hook spine (polls are exported as pull-model pvars)
        self.hooks = NULL_SPINE
        self.polls = 0
        self.idle_polls = 0
        #: steps the async tick initiated rather than a caller
        self.async_polls = 0
        #: packets handled, total and by async-initiated steps
        self.handled = 0
        self.async_handled = 0
        #: collective schedules this engine is executing
        self._schedules: list = []
        #: a charge made *inside* device.poll (copy costs, merges) may fire
        #: the tick; the nested step must not re-enter the device mid-poll
        self._in_step = False
        #: the async tick: its period (ns), its next due time, and the
        #: guard that makes a charge inside a tick burst do nothing
        self.period_ns = 0.0
        self._due_ns = 0.0
        self._ticking = False
        #: *when* an idle wait cedes (see :meth:`idle`): at once for a rank
        #: that shares an interpreter; the engine clears it for a rank that
        #: owns an OS process
        self.thread_hosted = True
        #: *how* it cedes (see :meth:`cede`): a substrate that hosts this
        #: rank as one of its threads installs its scheduler's hand-off
        #: here; None — nobody schedules this rank — is the OS yield
        self.hand_off: Callable[[], None] | None = None
        #: what :meth:`drive` is blocked on — its request or its condition,
        #: each with ``completed`` and ``describe()``; None outside a wait.
        #: The baton reads it to tell a blocked rank from a spinning one,
        #: and a wait that has ended from one that has not
        self.waiting: Request | _Until | None = None
        #: consecutive idle polls of the current wait
        self._idle_run = 0

    def add_schedule(self, sched) -> None:
        """Register a collective schedule for per-poll advancement."""
        self._schedules.append(sched)

    def step(self, from_async: bool = False) -> int:
        """One progress step; returns the number of packets handled.

        Async-initiated steps defer clock merges: a packet handled while
        the application computes records its arrival as a pending causal
        floor instead of jumping the rank clock (which would serialise the
        wire latency into compute time).  Caller-initiated steps fold the
        floor back in — entering the library is a consumption point, which
        is exactly when polled mode would have merged.
        """
        if self._in_step:
            return 0
        clock = self.device.clock
        defer_prev = False
        if from_async:
            defer_prev = clock.defer_merges
            clock.defer_merges = True
        self._in_step = True
        try:
            self.polls += 1
            if from_async:
                self.async_polls += 1
            handled = self.device.poll()
            if self._schedules:
                for sched in list(self._schedules):
                    if sched.step():
                        self._schedules.remove(sched)
            if handled == 0:
                self.idle_polls += 1
            else:
                self.handled += handled
                if from_async:
                    self.async_handled += handled
            if not from_async and self.yield_fn is not None:
                # async-initiated steps skip the safepoint/pinning yield:
                # they run *inside* a charge, possibly mid-allocation —
                # not a safe point by definition
                self.yield_fn()
            return handled
        finally:
            self._in_step = False
            if from_async:
                clock.defer_merges = defer_prev
            elif clock.pending_ns:
                clock.apply_pending()

    @property
    def overlap_ratio(self) -> float:
        """Fraction of handled packets progressed by the async tick."""
        return self.async_handled / self.handled if self.handled else 0.0

    # -- the async tick ----------------------------------------------------

    def start_ticking(self, period_ns: float) -> None:
        """Progress mode ``"async"``: step every ``period_ns`` of clock time.

        The tick takes the clock's one slot, so an engine rebuilt on the
        same clock (communicator shrink, rank replacement) takes over
        progression instead of leaving an orphan polling a retired device.
        """
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        clock = self.device.clock
        self.period_ns = float(period_ns)
        self._due_ns = clock.now() + self.period_ns
        clock.tick = self._tick

    def stop_ticking(self) -> None:
        """Clear the clock's slot if it still holds this engine's tick."""
        clock = self.device.clock
        if clock.tick == self._tick:
            clock.tick = None

    def _tick(self) -> None:
        """Called by every ``VirtualClock.charge``: fire the steps now due.

        Fires are bounded by the clock as read at entry (a step's own
        charges cannot extend the horizon), at most :data:`MAX_CATCHUP` a
        charge, and a charge made inside the burst does nothing.  A tick
        that falls due inside a caller's step is still consumed — its due
        time advances — but :meth:`step` runs it as a no-op.
        """
        if self._ticking:
            return
        horizon = self.device.clock.now()
        if self._due_ns > horizon:
            return
        self._ticking = True
        try:
            burst = 0
            while self._due_ns <= horizon and burst < MAX_CATCHUP:
                self._due_ns += self.period_ns
                burst += 1
                self.step(from_async=True)
            if self._due_ns <= horizon:
                # catch-up cap hit: skip the backlog, stay on cadence
                self._due_ns = horizon + self.period_ns
        finally:
            self._ticking = False

    # -- ceding ------------------------------------------------------------

    def poll(self) -> int:
        """One caller-initiated progress step; handling nothing is a miss."""
        handled = self.step()
        if not handled:
            self.miss()
        return handled

    def cede(self) -> None:
        """Let another rank run: the one ceding seam.

        Public for compute loops that want to yield between chunks.  A rank
        hosted as a thread of an inproc world hands the baton to the rank
        its substrate's scheduler picks and parks until it is picked
        itself; anyone else — a process-hosted rank, an engine built
        directly — yields to the operating system.
        """
        if self.hand_off is None:
            time.sleep(0)
        else:
            self.hand_off()

    def miss(self) -> None:
        """An unsuccessful ``test``/``iprobe``/``poll`` is an idle poll.

        Under the baton the caller's ``while not test(...)`` spin would
        otherwise hold the interpreter forever — what it waits for can
        only arrive once another rank runs.  Ranks nobody schedules are
        preempted by the OS anyway and cede nothing here.
        """
        if self.hand_off is not None:
            self.hand_off()

    # -- the polling-wait family ------------------------------------------

    def check_failed(self, req: Request) -> None:
        """Raise :class:`MpiErrProcFailed` for a request a dead peer ended."""
        if req.status.error == PROC_FAILED:
            raise MpiErrProcFailed(
                f"peer {req.peer} failed during {req.kind}",
                failed=frozenset(self.device.failed_ranks),
            )

    def idle(self) -> None:
        """One progress step; if it handled nothing, cede per the hosting.

        :meth:`drive`'s step, public for callers that interleave their own
        work between polls.  Thread-hosted ranks share one interpreter —
        the peer *cannot run* while this rank spins — so they cede on the
        first idle poll.  Process-hosted ranks run in parallel and a yield
        only adds latency: they spin 63 consecutive idle polls first.
        """
        if self.step():
            self._idle_run = 0
            return
        self._idle_run = run = self._idle_run + 1
        if self.thread_hosted or run & IDLE_MASK == 0:
            self.cede()

    def drive(self, done: Callable[[], bool] | None, timeout: float | None = None,
              what: str = "condition", req: Request | None = None) -> None:
        """Poll until ``done()`` holds — ``done`` None: until ``req``
        completes, read off the request — the one polling-wait loop.

        The wall ``timeout`` (seconds) bounds it ("MPI Progress For All":
        no wait may hang forever), raising :class:`MpiErrTimeout` naming
        ``what``.  It is checked every iteration: a chatty-but-stuck peer
        (heartbeats, retransmits) must not defeat the bound.  Under the
        inproc baton a wait that can never end raises
        :class:`~repro.mp.errors.MpiErrDeadlock` naming ``req`` (else
        ``what``) at once.  The baton asks ``done()`` too, of a rank that
        looks quiet, and the loop asks it again after the cede: a condition
        that holds must keep holding when asked again.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        self._idle_run = 0
        wait = req if done is None else _Until(done, what)
        outer, self.waiting = self.waiting, wait
        try:
            while not wait.completed:
                self.idle()
                if deadline is not None and time.monotonic() > deadline:
                    raise MpiErrTimeout(f"{what} after {timeout}s")
        finally:
            self.waiting = outer
        # ``done`` may have come true during application compute (async
        # progress) — consuming the result is where the arrival time lands
        clock = self.device.clock
        if clock.pending_ns:
            clock.apply_pending()

    def wait(self, req: Request, timeout: float | None = None) -> None:
        """Polling-wait until the request completes.

        ``timeout`` (seconds, wall time) bounds the spin and raises
        :class:`MpiErrTimeout`; a request that completes with a dead peer
        raises :class:`MpiErrProcFailed`.
        """
        self.drive(None, timeout, f"request {req.op_id} incomplete", req)
        if req.status.error is not None:
            self.check_failed(req)

    def poll_until(self, cond: Callable[[], bool], timeout: float | None = None,
                   what: str = "condition") -> None:
        """Poll until ``cond()`` holds; the recovery protocols' wait.

        Unlike :meth:`wait` this is not tied to a single request — the
        agreement and snapshot-redistribution rounds juggle a shifting
        set of requests whose failures are part of the protocol, not an
        error.
        """
        self.drive(cond, timeout, f"{what} unmet")

    def wait_all(self, reqs: Iterable[Request], timeout: float | None = None) -> None:
        """Wait for every request; ``timeout`` bounds the whole batch.

        Once the batch deadline has passed, any request still incomplete
        raises :class:`MpiErrTimeout` immediately — no zero-timeout wait
        cycles for the stragglers.  Requests that already completed are
        still checked for dead-peer failure.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for req in reqs:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    if req.completed:
                        self.check_failed(req)
                        continue
                    raise MpiErrTimeout(
                        f"request {req.op_id} incomplete after {timeout}s (batch deadline)"
                    )
            self.wait(req, timeout=remaining)

    def test(self, req: Request) -> bool:
        self.step()
        if req.completed:
            self.check_failed(req)
            return True
        self.miss()
        return False
