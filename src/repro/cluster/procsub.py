"""The proc substrate: one real OS process per rank.

The launcher side (:class:`ProcSubstrate`) builds the world's
:class:`~repro.mp.channels.sock.SockFabric` — its shared ring mapping —
forks ``n`` worker processes running :func:`_worker_entry`, and waits on
two things per worker with :func:`multiprocessing.connection.wait`: the
read end of a one-way pipe carrying its pickled result (or failure), and
its process sentinel.  Each worker builds its *own* single-rank
:class:`~repro.cluster.world.World` bound to a :class:`_WorkerSubstrate`,
whose fabric is a plain ``SockFabric`` over the inherited mapping — so the
entire MPI stack above the channel seam runs unmodified in a genuinely
separate address space, packets never pass through the launcher, and the
launcher runs no thread and keeps no socket.

Control lives in the mapping's control block
(:func:`~repro.mp.channels.sock.control_block`): each worker sets its
``ready`` word and waits until every rank's is set (the boot barrier), and
when the kernel reports a worker's process gone without a result the
launcher sets its ``dead`` word and bumps ``deaths``, which every peer's
channel reads on each poll.  A worker whose launcher dies is ended by the
kernel (``PR_SET_PDEATHSIG``).

What changes relative to ``inproc``, and only this:

* ``main``, ``session_factory`` and every rank's result must be
  picklable (module-level functions/classes — the spawn-safety rule);
* ranks are process-hosted (``hosting="process"``): an idle wait spins
  before it yields the CPU instead of ceding the interpreter at once;
* ``sanitize=``, ``fault_plan=`` and ``progress="async"`` are rejected:
  the sanitizer's cross-rank graphs and the fault injector's shared plan
  are single-address-space constructs, and async progress is a tick on
  the rank's *modelled* clock (transport failures are *detected*
  instead: a worker that dies surfaces as
  :class:`~repro.mp.errors.MpiErrProcFailed` on every peer and at the
  launcher);
* the transport is the ring, not the in-memory queue: ``channel=`` picks
  link rows of the queue and is ignored here, every ring being priced
  with the sock row — which makes proc the referee of inproc ``sock``;
* dynamic ranks (``spawn``/``replace_failed``) are unavailable
  (``supports_dynamic_ranks`` is False) — the rings are fixed at boot.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.cluster.substrate import Substrate, draining, open_session
from repro.mp.channels.sock import SockFabric, control_block
from repro.mp.errors import MpiErrProcFailed, MpiFatalError
from repro.simtime import CostModel

#: prctl(2) option: the signal a process gets when its parent dies
PR_SET_PDEATHSIG = 1


class WorkerFailure(RuntimeError):
    """A worker rank raised an exception that could not itself be pickled."""


@dataclass
class WorldSpec:
    """Everything a worker needs to rebuild its slice of the world.

    Crosses the process boundary (picklable by construction); the
    launcher's ``World`` options minus the ones the proc substrate
    rejects.
    """

    size: int
    clock_mode: str
    costs: CostModel
    eager_threshold: int | None
    reliable: bool
    reliability_opts: dict | None
    observe: str | None
    boot_timeout: float


class ProcSubstrate(Substrate):
    """Real multi-process execution behind the same World seam."""

    name = "proc"
    hosting = "process"

    def __init__(self, world, boot_timeout: float = 30.0) -> None:
        super().__init__(world)
        self.boot_timeout = boot_timeout

    def validate(self) -> None:
        w = self.world
        if w.sanitize is not None:
            raise ValueError(
                "sanitize= is not available on the proc substrate: the "
                "sanitizer's cross-rank wait-for and leak graphs need one "
                "address space (use substrate='inproc')"
            )
        if w.fault_plan is not None:
            raise ValueError(
                "fault_plan= is not available on the proc substrate: the "
                "fault injector shares one seeded plan across ranks (use "
                "substrate='inproc'; real process death is detected "
                "instead — kill a worker and peers raise MpiErrProcFailed)"
            )
        if w.progress == "async":
            raise ValueError(
                "progress='async' is not available on the proc substrate: "
                "it is a tick on the rank's simulated clock, and "
                "process-hosted ranks have no progress thread (use "
                "substrate='inproc')"
            )

    def build_fabric(self):
        # the rings exist before any worker does: an early packet just waits;
        # the endpoints are the workers', one each
        return SockFabric(self.world.size)

    def launch(
        self,
        n: int,
        main: Callable,
        session_factory: Callable | None,
        timeout: float,
    ) -> list[Any]:
        w = self.world
        spec = WorldSpec(
            size=w.size,
            clock_mode=w.clock_mode,
            costs=w.costs,
            eager_threshold=w.eager_threshold,
            reliable=w.reliable,
            reliability_opts=w.reliability_opts,
            observe=w.observe,
            boot_timeout=self.boot_timeout,
        )
        mapping = w.fabric.mapping
        _, dead, deaths = control_block(mapping, w.size)
        # fork, the one start method: the mapping has no name to reopen
        ctx = multiprocessing.get_context("fork")
        procs, pipes = [], []
        #: by rank, what the launch has not heard yet: a report pipe not yet
        #: read, a worker not yet exited
        unread: dict = {}
        live: dict = {}
        #: rank -> ("result" | "error", pickled body)
        reports: dict[int, tuple[str, bytes]] = {}
        try:
            for rank in range(n):
                rd, wr = ctx.Pipe(duplex=False)
                p = ctx.Process(
                    target=_worker_entry,
                    args=(spec, mapping, rank, main, session_factory, wr, os.getpid()),
                    name=f"rank-{rank}",
                    daemon=True,
                )
                p.start()
                wr.close()
                procs.append(p)
                pipes.append(rd)
                unread[rd] = live[p.sentinel] = rank
            deadline = time.monotonic() + timeout
            while live:
                # a pipe is read the moment it is readable: a result larger
                # than the pipe's buffer never leaves its worker blocked
                ready = wait([*unread, *live], max(0.0, deadline - time.monotonic()))
                if not ready:
                    break
                for obj in ready:
                    if obj in unread:
                        _read_report(unread.pop(obj), obj, reports)
                for rank in [live.pop(obj) for obj in ready if obj in live]:
                    if pipes[rank] in unread:  # exited: all it wrote is in the pipe
                        _read_report(unread.pop(pipes[rank]), pipes[rank], reports)
                    if reports.get(rank, ("",))[0] != "result":
                        dead[rank] = 1
                        deaths[0] += 1
        finally:
            self._reap(procs)
            for rd in unread:
                rd.close()
            w.shutdown()
        failure = _failure([r for r in range(n) if r not in live.values()], reports, procs)
        if live:
            hung = TimeoutError(
                f"rank(s) {sorted(live.values())} did not finish within {timeout}s"
            )
            if failure is None:
                raise hung
            raise failure from hung
        if failure is not None:
            raise failure
        return [pickle.loads(reports[rank][1]) for rank in range(n)]

    def _reap(self, procs: list) -> None:
        """No worker outlives the launch: terminate, then kill, stragglers."""
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(1.0)
                if p.is_alive():
                    p.kill()
                    p.join(1.0)


def _read_report(rank: int, conn, reports: dict) -> None:
    """A worker's one report off its pipe; nothing when it closed unwritten."""
    try:
        reports[rank] = conn.recv()
    except EOFError:
        pass
    finally:
        conn.close()


def _failure(ranks: list[int], reports: dict, procs: list) -> BaseException | None:
    """What the launch raises for these finished ranks, if anything.

    Worker-raised errors outrank a missing result, and among them a
    root-cause application error outranks the MpiErrProcFailed /
    MpiFatalError storms it set off on the surviving ranks.
    """
    errors = [
        _unpickle_failure(rank, reports[rank][1])
        for rank in ranks
        if reports.get(rank, ("",))[0] == "error"
    ]
    if errors:
        consequence = (MpiErrProcFailed, MpiFatalError)
        return next((exc for exc in errors if not isinstance(exc, consequence)), errors[0])
    lost = [rank for rank in ranks if rank not in reports]
    if lost:
        return MpiErrProcFailed(
            f"rank {lost[0]} worker process exited (exitcode "
            f"{procs[lost[0]].exitcode}) without a result",
            failed=frozenset(lost),
        )
    return None


def _unpickle_failure(rank: int, body: bytes) -> BaseException:
    try:
        kind, payload = pickle.loads(body)
    except Exception:
        return WorkerFailure(f"rank {rank} failed (unreadable error report)")
    if kind == "raise":
        return payload
    tname, msg, tb = payload
    return WorkerFailure(f"rank {rank} failed: {tname}: {msg}\n{tb}")


# -- worker side -------------------------------------------------------------------


class _WorkerSubstrate(Substrate):
    """The substrate a worker's single-rank world is bound to."""

    name = "proc-worker"
    hosting = "process"

    def __init__(self, world, mapping) -> None:
        super().__init__(world)
        self.mapping = mapping

    def validate(self) -> None:
        return None

    def build_fabric(self):
        return SockFabric(self.world.size, mapping=self.mapping)

    def launch(self, n, main, session_factory, timeout):
        raise RuntimeError(
            "a worker substrate hosts exactly one rank, driven by "
            "_worker_entry; it does not launch"
        )


def _die_with(launcher: int) -> None:
    """End this process when its launcher ends: the kernel's parent-death
    signal, armed, then a check for a launcher that died before it was."""
    prctl = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)  # Linux only
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        if prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != launcher:
        os._exit(1)


def _meet(mapping, size: int, rank: int, timeout: float) -> None:
    """The boot barrier, in the mapping: set this rank's ready word, then
    wait until every rank's is set (or the launcher has declared it dead,
    which the channel's first poll reads)."""
    ready, dead, _ = control_block(mapping, size)
    ready[rank] = 1
    deadline = time.monotonic() + timeout
    while not all(ready[p] or dead[p] for p in range(size)):
        if time.monotonic() > deadline:
            raise TimeoutError(f"rank {rank}: world did not assemble within {timeout}s")
        time.sleep(0.0002)


def _worker_entry(
    spec: WorldSpec, mapping, rank: int, main, session_factory, results, launcher: int
) -> None:
    """One worker process's whole life: barrier, run (and drain), report."""
    from repro.cluster.world import World

    world = None
    try:
        _die_with(launcher)
        world = World(
            spec.size,
            channel="sock",
            clock_mode=spec.clock_mode,
            costs=spec.costs,
            eager_threshold=spec.eager_threshold,
            reliable=spec.reliable,
            reliability_opts=spec.reliability_opts,
            observe=spec.observe,
            substrate=lambda w: _WorkerSubstrate(w, mapping),
        )
        ctx = world.context_for(rank)
        # barrier-at-boot: no main starts until every rank is up
        _meet(mapping, spec.size, rank, spec.boot_timeout)
        open_session(ctx, session_factory)
        result = draining(world, main)(ctx)
        results.send(("result", pickle.dumps(result)))
    except BaseException as exc:
        try:
            payload = pickle.dumps(("raise", exc))
        except Exception:
            payload = pickle.dumps(
                ("info", (type(exc).__name__, str(exc), traceback.format_exc()))
            )
        try:
            results.send(("error", payload))
        except Exception:
            pass
        raise SystemExit(1)
    finally:
        try:
            if world is not None and rank in world._engines:
                world._engines[rank].finalize()
        except Exception:
            pass
        try:
            if world is not None:
                world.shutdown()
        except Exception:
            pass
