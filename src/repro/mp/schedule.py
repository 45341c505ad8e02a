"""Collective schedules: one algorithm, two executors.

A collective algorithm is expressed exactly once, as a *schedule* — a
generator that yields rounds (lists) of nonblocking point-to-point
requests and performs its local combining between yields.  Two executors
consume a schedule:

* the inline executor (``collectives._run_inline``) waits out each round
  as it is yielded — the blocking MPI_Bcast/MPI_Reduce/… calls;
* :class:`Schedule` + the progress engine advance one round per poll —
  the nonblocking ``ibcast``/``ireduce``/… calls, whose traffic overlaps
  whatever the caller computes between polls.

The user-visible handle for a scheduled collective is a
:class:`CollRequest` — an ordinary :class:`~repro.mp.request.Request`
driven through the same state machine, so ``wait``/``test``/``wait_all``
and the failure path (``MPI_ERR_PROC_FAILED``) need no special cases.
"""

from __future__ import annotations

from repro.mp.reliability import PROC_FAILED
from repro.mp.request import COLL, Request


class CollRequest(Request):
    """Completion handle for a scheduled (nonblocking) collective."""

    __slots__ = ("coll_name",)

    def __init__(self, name: str, comm_id: int, hooks=None) -> None:
        super().__init__(COLL, None, -1, -1, comm_id, 0, hooks=hooks)
        self.coll_name = name


class Schedule:
    """One in-flight collective, advanced by the progress engine."""

    __slots__ = ("gen", "req", "round", "members", "failed")

    def __init__(self, engine, name: str, comm, gen) -> None:
        self.gen = gen
        self.req = CollRequest(name, comm.context_id, hooks=engine.hooks)
        self.round: tuple = ()
        self.members = frozenset(comm.group.ranks)
        #: the device's live set of ranks declared dead
        self.failed = engine.device.failed_ranks

    def step(self) -> bool:
        """Advance as far as completed rounds allow; True when finished.

        A round member completed with a dead peer aborts the whole
        schedule: the collective's request fails with the same error, so
        waiters get the standard :class:`MpiErrProcFailed` treatment.  So
        does a dead rank anywhere in the communicator: a live neighbour
        whose own leg toward the dead rank failed has aborted and will
        never send what this rank's round waits for.
        """
        if not self.failed.isdisjoint(self.members):
            self._abort()
            return True
        while True:
            for r in self.round:
                if r.completed and r.status.error == PROC_FAILED:
                    self._abort()
                    return True
            for r in self.round:
                if not r.completed:
                    return False
            try:
                nxt = next(self.gen)
            except StopIteration:
                self.req.complete()
                return True
            self.round = tuple(nxt)

    def _abort(self) -> None:
        # Close the generator so its open regions unwind (region_end fires
        # from the context managers' finally blocks).
        self.gen.close()
        self.req.status.error = PROC_FAILED
        self.req.fail(self.req.status)
