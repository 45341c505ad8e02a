"""Execution substrates: where ranks live and how the world boots them.

Everything above the :class:`~repro.mp.channels.base.Channel` seam —
matching, protocol, collectives, recovery — is address-space agnostic;
what actually *hosts* a rank is not.  A :class:`Substrate` owns exactly
the decisions that differ between a simulated and a real deployment:

* **rank hosting** — threads in one process (``inproc``) or one OS
  process per rank (``proc``); the ``hosting`` fact every engine is
  told, which decides the idle-wait policy and nothing else;
* **fabric construction** — one transport per substrate: the in-memory
  fabric, whose link rows ``FABRICS[channel]`` picks, versus the ring
  fabric's rings in a mapping the forked workers inherit, one endpoint
  each (``channel=`` does not apply; every ring is priced as sock);
* **clock selection** — which :class:`~repro.simtime.Clock` each rank
  gets: a simulated world runs on the modelled clock alone, real
  processes on either (``clock_mode``; packets carry their virtual
  timestamps across the real wire too);
* **the boot barrier** — inproc ranks are born connected, proc ranks
  each set a ready word in the mapping and wait for every rank's before
  their mains run;
* **what follows from hosting** — an idle wait cedes the shared
  interpreter at once versus spinning before it yields a CPU of its own
  (``progress="async"`` is a tick on the rank's simulated clock and so
  an inproc mode: the proc substrate rejects it);
* **who runs** — the inproc substrate owns the world's one scheduler, a
  :class:`~repro.simtime.sched.Baton`: exactly one of the rank threads
  it hosts is runnable, and ceding wakes the next one directly.  So it
  also sees a world where every rank waits and nothing is in flight, and
  raises :class:`~repro.mp.errors.MpiErrDeadlock` there.  Process
  hosting leaves that to the operating system.

:class:`InprocSubstrate` is the thread-per-rank world;
:class:`repro.cluster.procsub.ProcSubstrate` boots real worker
processes over the same seam.  ``make_substrate`` resolves the
``substrate=`` mode flag threaded through :class:`~repro.cluster.world.
World` and ``mpiexec``.
"""

from __future__ import annotations

import abc
import threading
import time
from functools import partial
from itertools import chain
from typing import Any, Callable

from repro.mp.channels import FABRICS, FaultyFabric
from repro.mp.errors import MpiErrDeadlock
from repro.simtime.sched import Baton


class _RankThread(threading.Thread):
    def __init__(self, name: str, fn: Callable, ctx) -> None:
        super().__init__(name=name, daemon=True)
        self.fn = fn
        self.ctx = ctx
        self.result: Any = None
        self.error: BaseException | None = None

    def run(self) -> None:  # noqa: D102
        try:
            self.result = self.fn(self.ctx)
        except BaseException as exc:  # propagate to the launcher
            self.error = exc


def open_session(ctx, session_factory: Callable | None) -> None:
    """Build a rank's session layer and, when it is a Motor VM, extend the
    rank's instrumentation and sanitizer over it."""
    if session_factory is None:
        return
    ctx.session = session_factory(ctx)
    if not (hasattr(ctx.session, "runtime") and hasattr(ctx.session, "policy")):
        return
    if ctx.obs is not None:
        from repro.obs import attach_vm

        attach_vm(ctx.obs, ctx.session)
    if ctx.san is not None:
        from repro.analyze import attach_vm as san_attach_vm

        san_attach_vm(ctx.san, ctx.session)


def draining(world, main: Callable) -> Callable:
    """Wrap a rank main so it drains the reliability window before exiting."""

    def run(ctx) -> Any:
        try:
            return main(ctx)
        finally:
            world.quiesce(ctx.rank, ctx.engine)
            if ctx.san is not None:
                # post-drain leak scan (MA-R05): anything still pinned or
                # in flight now was abandoned by the application
                ctx.san.finalize()

    return run


class Substrate(abc.ABC):
    """One way of hosting a world's ranks.  Bound to a single World."""

    name = "abstract"

    #: what hosts a rank: ``"thread"`` (ranks share one interpreter) or
    #: ``"process"`` (one OS process each).  Each engine derives from it
    #: what an idle wait does (cede the interpreter at once / spin, then
    #: yield the CPU)
    hosting = "thread"

    #: True when the substrate can host extra ranks after boot (MPI-2
    #: spawn and recovery replacement; real processes' rings are fixed at boot)
    supports_dynamic_ranks = False

    def __init__(self, world) -> None:
        self.world = world

    @abc.abstractmethod
    def validate(self) -> None:
        """Reject world options this substrate cannot honour (early, loudly)."""
        raise NotImplementedError

    @abc.abstractmethod
    def build_fabric(self):
        """Construct the world's channel fabric (launcher side)."""
        raise NotImplementedError

    def make_clock(self, rank: int):
        """The clock a rank runs on, by ``clock_mode`` (``"wall"`` only
        reaches here for real processes: the inproc substrate rejects it)."""
        from repro.simtime import VirtualClock, WallClock

        del rank
        return VirtualClock() if self.world.clock_mode == "virtual" else WallClock()

    @abc.abstractmethod
    def launch(
        self,
        n: int,
        main: Callable,
        session_factory: Callable | None,
        timeout: float,
    ) -> list[Any]:
        """Host ``n`` ranks running ``main``; results by rank, first error re-raised."""
        raise NotImplementedError

    def shutdown(self) -> None:
        self.world.fabric.shutdown()


class InprocSubstrate(Substrate):
    """Thread-per-rank in one Python process — the simulated machine.

    Every rank is a cooperative daemon thread, the fabric moves packets
    between them in-memory, clocks are per-rank objects, and ranks are
    born connected (no boot barrier is needed because the fabric wires
    every endpoint before any main starts).  The substrate owns the
    world's scheduler: every thread it hosts — boot ranks, spawned
    children, replacements — runs under one :class:`Baton`.  The baton
    names a deadlock in any world whose idle polls change nothing: one
    without the reliability sublayer's poll-counted retransmits and
    without a fault plan's held packets.
    """

    name = "inproc"
    hosting = "thread"
    supports_dynamic_ranks = True

    def __init__(self, world) -> None:
        super().__init__(world)
        exact = not world.reliable and world.fault_plan is None
        self.baton = Baton(deadlock=MpiErrDeadlock if exact else None)

    def validate(self) -> None:
        if self.world.clock_mode == "wall":
            raise ValueError("clock_mode='wall' is not available on the inproc "
                             "substrate: real elapsed time needs substrate='proc'")

    def host(self, name: str, main: Callable, ctx) -> _RankThread:
        """An unstarted thread running ``main(ctx)`` under the baton.

        The rank is seated here, on the caller's thread, so that whoever
        holds the baton when the thread starts can already pick it; its
        engine's ``cede`` becomes the baton's hand-off.  The thread gives
        the baton up for good after the exit drain, whatever ``main`` did.
        """
        baton, rank = self.baton, ctx.rank
        progress = ctx.engine.progress
        channel = ctx.engine.device.channel

        def in_flight() -> bool:
            return channel.has_incoming() or channel.owes()

        # C-level attribute reads: a cede runs no Python frame to ask them
        baton.join(rank, ctx.clock, partial(getattr, progress, "handled"),
                   partial(getattr, progress, "waiting"), in_flight)
        progress.hand_off = partial(baton.cede, rank)
        run = draining(self.world, main)

        def hosted(ctx) -> Any:
            baton.enter(rank)
            try:
                return run(ctx)
            finally:
                baton.leave(rank)

        return _RankThread(name, hosted, ctx)

    def build_fabric(self):
        w = self.world
        fabric = FABRICS[w.channel_name](w.size)
        if w.fault_plan is not None:
            fabric = FaultyFabric(fabric, w.fault_plan)
        return fabric

    def launch(
        self,
        n: int,
        main: Callable,
        session_factory: Callable | None,
        timeout: float,
    ) -> list[Any]:
        world = self.world
        threads: list[_RankThread] = []
        try:
            for rank in range(n):
                ctx = world.context_for(rank)
                open_session(ctx, session_factory)
                threads.append(self.host(f"rank-{rank}", main, ctx))
            deadline = time.monotonic() + timeout
            for t in threads:
                t.start()
            # one deadline: boot ranks, then every rank born after boot (the
            # chain walks the spawned list live, so it reaches a child's child)
            for t in chain(threads, world.spawned_threads):
                t.join(max(0.0, deadline - time.monotonic()))
                if t.is_alive():
                    raise TimeoutError(f"{t.name} did not finish within {timeout}s")
        finally:
            # idempotent, best-effort: a crash mid-wiring must not leak endpoints
            world.shutdown()
        errors = [t.error for t in (*world.spawned_threads, *threads) if t.error is not None]
        if errors:
            # a rank that raised leaves its peers waiting on it: the
            # deadlock they report is the consequence, the error the cause
            raise next((e for e in errors if not isinstance(e, MpiErrDeadlock)), errors[0])
        return [t.result for t in threads]


def make_substrate(spec, world, opts: dict | None = None) -> Substrate:
    """Resolve a ``substrate=`` flag into a bound Substrate.

    ``spec`` is ``"inproc"``, ``"proc"``, a Substrate subclass, or a
    callable ``(world) -> Substrate`` (how worker processes bind their
    single-rank substrate).  ``opts`` are keyword arguments for the
    substrate's constructor (e.g. ``boot_timeout`` for ``proc``).
    """
    opts = opts or {}
    if isinstance(spec, str):
        if spec == "inproc":
            return InprocSubstrate(world, **opts)
        if spec == "proc":
            from repro.cluster.procsub import ProcSubstrate

            return ProcSubstrate(world, **opts)
        raise ValueError(f"unknown substrate {spec!r} (have 'inproc', 'proc')")
    if isinstance(spec, type) and issubclass(spec, Substrate):
        return spec(world, **opts)
    if callable(spec):
        sub = spec(world)
        if not isinstance(sub, Substrate):
            raise TypeError(f"substrate factory returned {type(sub).__name__}")
        return sub
    raise TypeError(f"substrate must be a name, class or factory, got {spec!r}")
