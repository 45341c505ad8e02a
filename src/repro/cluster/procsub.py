"""The proc substrate: one real OS process per rank.

The launcher side (:class:`ProcSubstrate`) creates the world's shared
ring mapping, starts a :class:`~repro.cluster.router.PacketRouter`, forks
``n`` worker processes running :func:`_worker_entry`, and collects their
pickled results (or failures) off the router's control plane.  Each
worker builds its *own* single-rank :class:`~repro.cluster.world.World`
bound to a :class:`_WorkerSubstrate`, whose fabric is a one-endpoint
:class:`~repro.mp.channels.proc.ProcFabric` over the inherited mapping,
dialling the launcher's router for control — so the entire MPI stack
above the channel seam runs unmodified in a genuinely separate address
space, and packets never pass through the launcher.

What changes relative to ``inproc``, and only this:

* ``main``, ``session_factory`` and every rank's result must be
  picklable (module-level functions/classes — the spawn-safety rule);
* ranks are process-hosted (``hosting="process"``): an idle wait spins
  before it yields the CPU instead of ceding the interpreter at once;
* ``sanitize=``, ``fault_plan=`` and ``progress="async"`` are rejected:
  the sanitizer's cross-rank graphs and the fault injector's shared plan
  are single-address-space constructs, and async progress is a task on
  the rank's *simulated* clock (transport failures are *detected*
  instead: a worker that dies surfaces as
  :class:`~repro.mp.errors.MpiErrProcFailed` on every peer and at the
  launcher);
* dynamic ranks (``spawn``/``replace_failed``) are unavailable — the
  rings and star are fixed at boot.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.substrate import Substrate, draining, open_session
from repro.mp.channels.base import ChannelStack
from repro.mp.errors import MpiErrProcFailed
from repro.simtime import CostModel


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


class _LauncherFabric:
    """The launcher's stand-in fabric: it owns the router, hosts no ranks."""

    supports_dynamic_ranks = False

    def __init__(self, router) -> None:
        self.router = router

    def endpoint(self, *args, **kwargs):
        raise RuntimeError(
            "the proc launcher hosts no ranks; endpoints live in the "
            "worker processes"
        )


class ProcSubstrate(Substrate):
    """Real multi-process execution behind the same World seam."""

    name = "proc"
    hosting = "process"
    supports_dynamic_ranks = False

    def __init__(self, world, boot_timeout: float = 30.0, result_grace: float = 5.0) -> None:
        super().__init__(world)
        self.boot_timeout = boot_timeout
        #: how long after the last worker exits to wait for the router
        #: thread to drain its RESULT/ERROR frames
        self.result_grace = result_grace
        self.router = None
        self.mapping = None

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
                "it is a recurring task on the rank's simulated clock, and "
                "process-hosted ranks have no progress thread (use "
                "substrate='inproc')"
            )

    def build_fabric(self):
        from repro.cluster.router import PacketRouter
        from repro.mp.channels.sock import ring_mapping

        # the rings exist before any worker does: an early packet just waits
        self.mapping = ring_mapping(self.world.size)
        self.router = PacketRouter(self.world.size)
        self.router.start()
        return _LauncherFabric(self.router)

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
        # fork, the one start method: the mapping has no name to reopen
        ctx = multiprocessing.get_context("fork")
        procs: list = []
        exitcodes: dict[int, int | None] = {}
        try:
            for rank in range(n):
                p = ctx.Process(
                    target=_worker_entry,
                    args=(spec, self.router.address, self.mapping, rank, main, session_factory),
                    name=f"rank-{rank}",
                    daemon=True,
                )
                p.start()
                procs.append(p)
            deadline = time.monotonic() + timeout
            for rank, p in enumerate(procs):
                p.join(max(0.0, deadline - time.monotonic()))
                if p.is_alive():
                    raise TimeoutError(
                        f"rank-{rank} did not finish within {timeout}s"
                    )
                exitcodes[rank] = p.exitcode
            self._await_control_plane(n)
        finally:
            self._reap(procs)
            w.shutdown()
        return self._collect(n, exitcodes)

    # -- result collection ---------------------------------------------------------

    def _await_control_plane(self, n: int) -> None:
        """The router thread may still be draining RESULT frames the
        workers wrote just before exiting; give it a bounded moment."""
        deadline = time.monotonic() + self.result_grace
        while time.monotonic() < deadline:
            results = self.router.results_snapshot()
            dead = self.router.dead_snapshot()
            if all(r in results or r in dead for r in range(n)):
                return
            time.sleep(0.005)

    def _collect(self, n: int, exitcodes: dict[int, int | None]) -> list[Any]:
        results = self.router.results_snapshot()
        dead = self.router.dead_snapshot()
        # worker-raised errors outrank transport verdicts, and among them a
        # root-cause application error outranks the MpiErrProcFailed /
        # MpiFatalError storms it set off on the surviving ranks
        errors = [
            _unpickle_failure(rank, results[rank][1])
            for rank in range(n)
            if rank in results and results[rank][0] == "error"
        ]
        if errors:
            from repro.mp.errors import MpiFatalError

            consequence = (MpiErrProcFailed, MpiFatalError)
            for exc in errors:
                if not isinstance(exc, consequence):
                    raise exc
            raise errors[0]
        out: list[Any] = []
        for rank in range(n):
            kind_body = results.get(rank)
            if kind_body is None:
                code = exitcodes.get(rank)
                raise MpiErrProcFailed(
                    f"rank {rank} worker process exited (exitcode {code}) "
                    "without a result",
                    failed=frozenset(dead | {rank}),
                )
            out.append(pickle.loads(kind_body[1]))
        return out

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

    def shutdown(self) -> None:
        if self.router is not None:
            self.router.stop()


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
    supports_dynamic_ranks = False

    def __init__(self, world, address, mapping) -> None:
        super().__init__(world)
        self.address = address
        self.mapping = mapping

    def validate(self) -> None:
        return None

    def build_fabric(self):
        from repro.mp.channels.proc import ProcFabric

        return ProcFabric(self.world.size, address=self.address, mapping=self.mapping)

    def launch(self, n, main, session_factory, timeout):
        raise RuntimeError(
            "a worker substrate hosts exactly one rank, driven by "
            "_worker_entry; it does not launch"
        )


def _proc_channel(engine):
    """The engine's underlying ProcChannel (through any stacked layers)."""
    ch = engine.device.channel
    if isinstance(ch, ChannelStack):
        ch = ch.unwrap()
    return ch


def _worker_entry(spec: WorldSpec, address, mapping, rank: int, main, session_factory) -> None:
    """One worker process's whole life: connect, barrier, run, report."""
    from repro.cluster.world import World

    world = None
    ch = None
    try:
        world = World(
            spec.size,
            channel="proc",
            clock_mode=spec.clock_mode,
            costs=spec.costs,
            eager_threshold=spec.eager_threshold,
            reliable=spec.reliable,
            reliability_opts=spec.reliability_opts,
            observe=spec.observe,
            substrate=lambda w: _WorkerSubstrate(w, address, mapping),
        )
        ctx = world.context_for(rank)
        ch = _proc_channel(ctx.engine)
        # barrier-at-boot: no main starts until every rank is reachable
        ch.wait_ready(spec.boot_timeout)
        open_session(ctx, session_factory)
        result = draining(world, main)(ctx)
        ch.send_result(result)
        ch.send_bye()
    except BaseException as exc:
        if ch is not None:
            try:
                payload = pickle.dumps(("raise", exc))
            except Exception:
                payload = pickle.dumps(
                    ("info", (type(exc).__name__, str(exc), traceback.format_exc()))
                )
            try:
                ch.send_error(payload)
                ch.send_bye()
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
