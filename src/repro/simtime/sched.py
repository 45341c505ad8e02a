"""Recurring tasks on a rank's clock: the simulated-time task scheduler.

"MPI Progress For All" (Zhou et al.) diagnoses the polling-wait pathology:
progress happens only when the application calls into the library.  The fix
in a real MPI is a progress thread; in this simulated world every rank is a
cooperative thread that *charges* its own clock for the work it simulates,
so the charge stream itself is the natural place to interleave third-party
work.  A :class:`TaskScheduler` hangs off a clock and is driven from
``Clock.charge``: whenever simulated time advances past a recurring task's
due time, the task fires — on the owning rank's thread, at a deterministic
point in its virtual timeline.

A :class:`TaskScheduler` is deliberately *not* a discrete-event scheduler
across ranks; each rank owns one clock and one scheduler, preserving the
Lamport-clock design (single writer, no locks).

Across ranks the schedulable entity is the rank itself: a :class:`Baton`
lets exactly one rank thread of an in-process world run at a time,
decides, from simulation state alone, who runs when that rank cedes, and
sees when no rank can ever run again.

Determinism and safety rules:

* ``drive`` fires tasks due as of the time observed *at entry* (the
  horizon).  Charges made by a task while it runs do not extend the
  horizon, so a task that charges more than its own period cannot trap the
  scheduler in an unbounded catch-up loop.
* Catch-up after a large single charge is capped at
  :attr:`RecurringTask.max_catchup` fires, after which the task's due time
  snaps past the horizon.  The cap keeps a multi-millisecond charge (a
  large serialization, a rendezvous wire cost) from firing a 5 us progress
  task hundreds of times back to back.
* ``drive`` is re-entrancy guarded: charges made by a running task never
  recursively drive the scheduler.
* Scheduling under an existing key replaces (cancels) the previous task —
  an engine rebuilt for the same rank (communicator shrink, rank
  replacement) takes over progression instead of leaving an orphan driver
  polling a retired device.
"""

from __future__ import annotations

import threading
from typing import Callable


class RecurringTask:
    """A periodic callback on a clock's timeline."""

    __slots__ = ("key", "fn", "period_ns", "next_due_ns", "fired", "cancelled",
                 "max_catchup")

    def __init__(self, key, fn: Callable[[], None], period_ns: float,
                 next_due_ns: float, max_catchup: int = 8) -> None:
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        self.key = key
        self.fn = fn
        self.period_ns = float(period_ns)
        self.next_due_ns = float(next_due_ns)
        #: total number of times the task has fired
        self.fired = 0
        self.cancelled = False
        self.max_catchup = max_catchup


class TaskScheduler:
    """Recurring tasks driven by one clock's advancement.

    Owned by a single rank thread (like the clock itself) — no locking.
    """

    __slots__ = ("clock", "_tasks", "_running")

    def __init__(self, clock) -> None:
        self.clock = clock
        self._tasks: list[RecurringTask] = []
        self._running = False

    def schedule(self, key, fn: Callable[[], None], period_ns: float,
                 max_catchup: int = 8) -> RecurringTask:
        """Register ``fn`` to fire every ``period_ns``; replaces any task
        already registered under ``key``."""
        self.cancel(key)
        task = RecurringTask(key, fn, period_ns,
                             next_due_ns=self.clock.now() + period_ns,
                             max_catchup=max_catchup)
        self._tasks.append(task)
        return task

    def cancel(self, key) -> bool:
        """Cancel the task registered under ``key``; True if one existed."""
        for task in self._tasks:
            if task.key == key:
                task.cancelled = True
                self._tasks.remove(task)
                return True
        return False

    def drive(self) -> int:
        """Fire every task due as of now; returns the number of fires.

        Called from ``Clock.charge`` after time advances.  Fires are
        bounded by the entry-time horizon and per-task catch-up cap, and
        nested drives (a task charging its own clock) are no-ops.
        """
        if self._running or not self._tasks:
            return 0
        self._running = True
        fires = 0
        try:
            horizon = self.clock.now()
            for task in list(self._tasks):
                burst = 0
                while (not task.cancelled and task.next_due_ns <= horizon
                       and burst < task.max_catchup):
                    task.next_due_ns += task.period_ns
                    task.fired += 1
                    burst += 1
                    task.fn()
                if not task.cancelled and task.next_due_ns <= horizon:
                    # catch-up cap hit: skip the backlog, stay on cadence
                    task.next_due_ns = horizon + task.period_ns
                fires += burst
        finally:
            self._running = False
        return fires


def ensure_scheduler(clock) -> TaskScheduler:
    """The clock's scheduler, creating and attaching one if absent."""
    sched = clock.scheduler
    if sched is None:
        sched = TaskScheduler(clock)
        clock.scheduler = sched
    return sched


class _Seat:
    """One rank's place under a :class:`Baton`."""

    __slots__ = ("rank", "clock", "work", "waiting", "in_flight", "gate",
                 "ceded_at", "mark", "quiet")

    def __init__(self, rank: int, clock, work: Callable[[], int],
                 waiting: Callable[[], object], in_flight: Callable[[], bool]) -> None:
        self.rank = rank
        self.clock = clock
        #: count of what the rank has handled so far (its progress core's)
        self.work = work
        #: the wait the rank is blocked in (a request, or a description of
        #: the condition), None outside one
        self.waiting = waiting
        #: True while the rank holds something another rank will receive
        self.in_flight = in_flight
        #: held while the rank is parked; releasing it *is* the wake-up
        self.gate = threading.Lock()
        self.gate.acquire()
        #: the baton's cede count when this rank last ceded (0: never)
        self.ceded_at = 0
        #: (work, clock) when this rank last ceded
        self.mark = None
        #: (work, charges) when this rank last ceded
        self.quiet = None


class Baton:
    """Exactly one rank thread of an in-process world is runnable.

    The ranks of an inproc world are threads of one interpreter: while one
    spins, none of the others can run, and an OS yield leaves the choice of
    who runs next to the run queue.  Under the baton every hosted rank
    thread parks on a lock of its own (its *gate*) and the running rank —
    the *holder* — hands over by releasing the gate of the rank it picked
    and blocking on its own: a direct wake-up, and a choice that depends
    on nothing but simulation state, so the same run polls the same number
    of times in the same order every time.

    The pick, with a modelled clock (``by_clock``): the lowest ``(clock,
    rank)`` among the other ranks that are not *stale*.  A rank goes stale
    when it cedes having handled nothing and charged nothing since it last
    ceded — it was woken and found no work; any cede that follows work
    clears the stale set, because that work may be what the others were
    waiting for.  When every other rank is stale the one that ceded longest
    ago runs, so two ranks waiting on a third whose clock is ahead cannot
    starve it, and poll-counted timers keep ticking.  Without a modelled
    clock there is nothing to order by: cede order alone.

    The baton also sees when no rank can ever run again.  A rank is
    *quiet* when it cedes from inside a wait having handled nothing and
    charged nothing since it last ceded; any other cede (a compute loop's,
    a ``test`` miss's, or one that follows work) clears the quiet set.
    Once every seated rank is quiet and none holds anything in flight, no
    wait can end: given a ``deadlock`` error class, the baton raises it
    with a message naming each rank's wait — in the rank that found it,
    and in every other rank at its next cede.  Worlds whose idle polls
    still change state (retransmit timers) pass no class.

    No locking: only the holder mutates the baton (a rank joins others
    from the launcher before anything runs, or from the holder's thread),
    and every mutation precedes the gate release that publishes it.  The
    one rule for a rank: never block on another rank except by ceding.
    """

    def __init__(self, by_clock: bool, deadlock: type | None = None) -> None:
        self.by_clock = by_clock
        #: the error class a deadlock raises; None: no verdict in this world
        self.deadlock = deadlock
        self._seats: dict[int, _Seat] = {}
        self._stale: set[int] = set()
        self._quiet: set[int] = set()
        #: the deadlock message, once the verdict is in
        self._verdict: str | None = None
        self._cedes = 0
        #: the rank allowed to run; None when no rank is hosted
        self.holder: int | None = None
        #: gate releases made so far (one per cede or exit that found a peer)
        self.handoffs = 0

    @property
    def ranks(self) -> frozenset:
        """The ranks currently hosted (joined and not yet left)."""
        return frozenset(self._seats)

    def join(self, rank: int, clock, work: Callable[[], int],
             waiting: Callable[[], object], in_flight: Callable[[], bool]) -> None:
        """Seat ``rank`` before its thread starts; the first holds the baton."""
        seat = self._seats[rank] = _Seat(rank, clock, work, waiting, in_flight)
        if self.holder is None:
            self.holder = rank
            seat.gate.release()

    def enter(self, rank: int) -> None:
        """First thing a hosted rank thread does: park until picked."""
        self._seats[rank].gate.acquire()

    def cede(self, rank: int) -> None:
        """Hand the baton to the next rank and park until it comes back."""
        if self._verdict is not None:
            raise self.deadlock(self._verdict)
        seat = self._seats[rank]
        self._cedes += 1
        seat.ceded_at = self._cedes
        work = seat.work()
        if self.by_clock:
            mark = (work, seat.clock.now())
            if mark == seat.mark:
                self._stale.add(rank)
            else:
                seat.mark = mark
                self._stale.clear()
        if self.deadlock is not None:
            self._watch(seat, work)
        nxt = self._pick(seat)
        if nxt is not None:
            self._pass(nxt)
            seat.gate.acquire()

    def leave(self, rank: int) -> None:
        """Last thing a hosted rank thread does: pass the baton on for good."""
        seat = self._seats.pop(rank)
        self._stale.clear()
        self._quiet.clear()
        self.holder = None
        nxt = self._pick(seat)
        if nxt is not None:
            self._pass(nxt)

    def _watch(self, seat: _Seat, work: int) -> None:
        """Track the quiet set; raise the verdict when it covers the world."""
        quiet = (work, seat.clock.charges)
        if quiet != seat.quiet or seat.waiting() is None:
            seat.quiet = quiet
            self._quiet.clear()
            return
        self._quiet.add(seat.rank)
        if len(self._quiet) < len(self._seats) or any(
                s.in_flight() for s in self._seats.values()):
            return
        waits = []
        for rank in sorted(self._seats):
            w = self._seats[rank].waiting()
            waits.append(f"rank {rank} [{w if isinstance(w, str) else w.describe()}]")
        self._verdict = f"deadlock across {len(waits)} rank(s): {', '.join(waits)}"
        raise self.deadlock(self._verdict)

    def _pass(self, nxt: _Seat) -> None:
        self.holder = nxt.rank
        self.handoffs += 1
        nxt.gate.release()

    def _pick(self, me: _Seat) -> "_Seat | None":
        # every cede picks: the usual pick is one pass, with no list or key function
        if self.by_clock:
            best = best_key = None
            for s in self._seats.values():
                if s is not me and s.rank not in self._stale:
                    key = (s.clock.now(), s.rank)
                    if best is None or key < best_key:
                        best, best_key = s, key
            if best is not None:
                return best
        return min((s for s in self._seats.values() if s is not me),
                   key=lambda s: (s.ceded_at, s.rank), default=None)
