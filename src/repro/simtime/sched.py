"""The baton: which rank thread of an in-process world runs.

Each rank owns one clock and charges it for the work it simulates (the
Lamport-clock design: single writer, no locks); there is no discrete-event
scheduler across ranks.  Across ranks the schedulable entity is the rank
itself: a :class:`Baton` lets exactly one rank thread of an in-process
world run at a time, decides, from simulation state alone, who runs when
that rank cedes, and sees when no rank can ever run again.
"""

from __future__ import annotations

import threading
from typing import Callable


class _Seat:
    """One rank's place under a :class:`Baton`."""

    __slots__ = ("rank", "clock", "work", "waiting", "in_flight", "gate",
                 "ceded_at", "mark", "quiet")

    def __init__(self, rank: int, clock, work: Callable[[], int],
                 waiting: Callable[[], object], in_flight: Callable[[], bool]) -> None:
        self.rank = rank
        self.clock = clock
        #: count of what the rank has handled so far (its progress engine's)
        self.work = work
        #: the wait the rank is blocked in (anything with ``completed`` and
        #: ``describe()``: a request, or a condition), None outside one
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

    The pick: the lowest ``(clock, rank)`` among the other ranks that are
    not *stale*.  A rank goes stale when it cedes having handled nothing
    and charged nothing since it last ceded — it was woken and found no
    work; any cede that follows work clears the stale set, because that
    work may be what the others were waiting for.  When every other rank
    is stale the one that ceded longest ago runs, so two ranks waiting on
    a third whose clock is ahead cannot starve it, and poll-counted timers
    keep ticking.

    The baton also sees when no rank can ever run again.  A rank is
    *quiet* when it cedes from inside a wait having handled nothing and
    charged nothing since it last ceded, its awaited request still open;
    any other cede (a compute loop's, a ``test`` miss's, one that follows
    work, or one whose wait just ended) clears the quiet set.
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

    def __init__(self, deadlock: type | None = None) -> None:
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
        waiting = seat.waiting()
        # a wait its last step ended (a peer's death completes the awaited
        # request, or makes the awaited condition hold, without handling a
        # packet) is not quiet
        if quiet != seat.quiet or waiting is None or waiting.completed:
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
            waits.append(f"rank {rank} [{w.describe()}]")
        self._verdict = f"deadlock across {len(waits)} rank(s): {', '.join(waits)}"
        raise self.deadlock(self._verdict)

    def _pass(self, nxt: _Seat) -> None:
        self.holder = nxt.rank
        self.handoffs += 1
        nxt.gate.release()

    def _pick(self, me: _Seat) -> "_Seat | None":
        # every cede picks: the usual pick is one pass, with no list or key function
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
