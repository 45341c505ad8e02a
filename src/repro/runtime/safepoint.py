"""GC safepoint / polling protocol.

Jitted code and FCalls must periodically yield to the collector; an FCall
that never polls would stall every other thread needing a collection
(paper §5.1).  Motor's ported MPICH2 replaces blocking system calls with a
polling-wait that "periodically releases and polls the garbage collector"
(§7.1), and a blocking MPI operation polls in three places: on FCall entry,
on exit, and inside the polling-wait (§7.4).

In this simulator each rank is single-threaded, so a collection can only
*run* at a poll point or an allocation — which is exactly the invariant the
protocol establishes in the real runtime.  Tests and stress harnesses
induce collections by calling :meth:`SafepointState.request` (standing in
for another thread's allocation failure) or by installing a stressor that
requests one every N polls.
"""

from __future__ import annotations

from typing import Callable


class SafepointState:
    """Pending-collection flag plus polling bookkeeping for one rank."""

    def __init__(self, collect: Callable[[int], None]) -> None:
        self._collect = collect
        self._pending_gen: int | None = None
        #: total poll() calls — lets tests assert the protocol is followed
        self.polls = 0
        self.collections_at_poll = 0
        #: optional stress hook, called on every poll *before* the pending
        #: check; may call :meth:`request` to induce a collection
        self.stressor: Callable[["SafepointState"], None] | None = None
        self._in_poll = False

    def request(self, gen: int = 0) -> None:
        """Ask for a collection at the next safepoint."""
        if self._pending_gen is None or gen > self._pending_gen:
            self._pending_gen = gen

    @property
    def pending(self) -> bool:
        return self._pending_gen is not None

    def poll(self) -> bool:
        """A safepoint: runs a pending collection.  Returns True if one ran."""
        self.polls += 1
        if self._pending_gen is None and self.stressor is None:
            return False  # nothing to run: the common case, no try/finally
        if self._in_poll:
            return False
        self._in_poll = True
        try:
            if self.stressor is not None:
                self.stressor(self)
            if self._pending_gen is None:
                return False
            gen = self._pending_gen
            self._pending_gen = None
            self._collect(gen)
            self.collections_at_poll += 1
            return True
        finally:
            self._in_poll = False


class EveryNStressor:
    """Induce a gen-``gen`` collection every ``n`` polls (test harness)."""

    def __init__(self, n: int, gen: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.gen = gen
        self._count = 0

    def __call__(self, state: SafepointState) -> None:
        self._count += 1
        if self._count % self.n == 0:
            state.request(self.gen)
