"""World construction, the mpiexec launcher and dynamic process spawning.

Where ranks actually *live* is delegated to an execution substrate
(:mod:`repro.cluster.substrate`): ``substrate="inproc"`` hosts every rank
as a thread of this process over a simulated fabric (the default, and
the original behaviour), ``substrate="proc"`` boots one real OS process
per rank talking over shared-memory rings
(:mod:`repro.cluster.procsub`).  Everything above the channel seam —
matching, protocol, collectives, observation — is identical either way.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.substrate import _RankThread, make_substrate, open_session
from repro.mp.channels import FABRICS, FaultPlan
from repro.mp.channels.base import ChannelStack
from repro.mp.communicator import Communicator, Group
from repro.mp.errors import MpiErrDeadlock, MpiErrTimeout
from repro.mp.mpi import MpiEngine
from repro.simtime import Clock, CostModel


@dataclass
class RankContext:
    """What a rank's main function receives."""

    world: "World"
    rank: int
    engine: MpiEngine
    clock: Clock
    #: populated for spawned children: the intercommunicator to the parents
    parent_comm: Communicator | None = None
    #: free-form slot for session layers (Motor VM, baseline bindings, ...)
    session: Any = None
    #: the rank's Instrumentation when the world was built with observe=...
    obs: Any = None
    #: the rank's RankSanitizer when the world was built with sanitize=...
    san: Any = None

    @property
    def size(self) -> int:
        return self.engine.world_size

    @property
    def comm_world(self) -> Communicator:
        return self.engine.comm_world


class World:
    """One machine — simulated or real: a channel fabric plus per-rank stacks."""

    def __init__(
        self,
        size: int,
        channel: str = "shm",
        clock_mode: str = "virtual",
        costs: CostModel | None = None,
        eager_threshold: int | None = None,
        fault_plan: FaultPlan | None = None,
        reliable: bool | None = None,
        reliability_opts: dict | None = None,
        observe: str | None = None,
        sanitize: str | None = None,
        progress: str = "polled",
        substrate: Any = "inproc",
        substrate_opts: dict | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        if channel not in FABRICS:
            raise ValueError(f"unknown channel {channel!r} (have {sorted(FABRICS)})")
        if clock_mode not in ("wall", "virtual"):
            raise ValueError(f"unknown clock mode {clock_mode!r}")
        if progress not in ("polled", "async"):
            raise ValueError(f"unknown progress mode {progress!r}")
        if observe not in (None, "disabled", "enabled", "detached"):
            raise ValueError(f"unknown observe mode {observe!r}")
        if sanitize not in (None, "disabled", "enabled", "detached"):
            raise ValueError(f"unknown sanitize mode {sanitize!r}")
        self.size = size
        self.channel_name = channel
        self.clock_mode = clock_mode
        #: "polled" (progress only when a rank calls into the library) or
        #: "async" (each rank's progress engine also stepped by a tick on
        #: its clock; see docs/ARCHITECTURE.md "Progress modes")
        self.progress = progress
        self.costs = costs if costs is not None else CostModel()
        self.eager_threshold = eager_threshold
        self.fault_plan = fault_plan
        # a faulty wire needs the reliability sublayer unless told otherwise
        self.reliable = (fault_plan is not None) if reliable is None else reliable
        self.reliability_opts = reliability_opts
        #: None (nothing attached), "disabled" (subscriber attached but
        #: inert — the A11 overhead configuration), "enabled" (full
        #: recording) or "detached" (attached then removed — the A13
        #: empty-spine configuration)
        self.observe = observe
        self._insts: dict[int, Any] = {}
        #: None (nothing attached), "disabled" (subscriber attached but
        #: inert — the A12 overhead configuration), "enabled" (full
        #: checking) or "detached" (attached then removed, A13)
        self.sanitize = sanitize
        self.sanitizer: Any = None
        if sanitize is not None:
            from repro.analyze import Sanitizer

            self.sanitizer = Sanitizer()
        #: the execution substrate: owns rank hosting, fabric construction,
        #: clock selection and the boot barrier (see repro.cluster.substrate)
        self.substrate = make_substrate(substrate, self, substrate_opts)
        self.substrate.validate()
        self.fabric = self.substrate.build_fabric()
        self._engines: dict[int, MpiEngine] = {}
        self._mains_done: set[int] = set()
        #: per rank, how many exit drains gave up at their wall timeout
        self.quiesce_expired: Counter[int] = Counter()
        self._done_lock = threading.Lock()
        self._clocks: dict[int, Clock] = {}
        self._spawn_lock = threading.Lock()
        self._spawn_contexts = 1 << 16
        #: every rank born after boot (spawned child or replacement)
        self.spawned_threads: list[_RankThread] = []
        self._next_rank = size

    # -- per-rank construction ----------------------------------------------------

    def clock_for(self, rank: int) -> Clock:
        if rank not in self._clocks:
            self._clocks[rank] = self.substrate.make_clock(rank)
        return self._clocks[rank]

    def engine_for(self, rank: int, yield_fn: Callable[[], None] | None = None) -> MpiEngine:
        return self._build_engine(rank, self.size, yield_fn)

    def _build_engine(
        self, rank: int, world_size: int, yield_fn: Callable[[], None] | None = None
    ) -> MpiEngine:
        """Every engine of this world — boot, replacement or spawned child —
        is built here, so all are told the substrate's one hosting fact."""
        clock = self.clock_for(rank)
        ch = self.fabric.endpoint(rank, clock, self.costs)
        self._engines[rank] = eng = MpiEngine(
            rank,
            world_size,
            ch,
            clock=clock,
            costs=self.costs,
            yield_fn=yield_fn,
            eager_threshold=self.eager_threshold,
            reliable=self.reliable,
            reliability_opts=self.reliability_opts,
            progress=self.progress,
            hosting=self.substrate.hosting,
        )
        self._wire_peer_death(ch, eng)
        return eng

    @staticmethod
    def _wire_peer_death(ch, eng: MpiEngine) -> None:
        """Route transport-level death verdicts into the device.

        Channels with a failure detector of their own expose
        ``on_peer_dead`` (sock: a malformed frame on a peer's ring, and
        under the proc substrate the launcher's death notices); wiring it to
        ``device._peer_failed`` turns a dead peer into ordinary
        ``MPI_ERR_PROC_FAILED`` completions for every waiter.
        """
        base = ch.unwrap() if isinstance(ch, ChannelStack) else ch
        if hasattr(base, "on_peer_dead"):
            base.on_peer_dead = eng.device._peer_failed

    def context_for(self, rank: int, yield_fn: Callable[[], None] | None = None) -> RankContext:
        return self._context(rank, self.engine_for(rank, yield_fn))

    def _context(
        self, rank: int, engine: MpiEngine, parent_comm: Communicator | None = None
    ) -> RankContext:
        """A rank's context, the world's observer and sanitizer attached."""
        ctx = RankContext(
            world=self, rank=rank, engine=engine, clock=self.clock_for(rank),
            parent_comm=parent_comm,
        )
        self._attach_obs(ctx)
        self._attach_san(ctx)
        return ctx

    def _attach_san(self, ctx: RankContext) -> None:
        if self.sanitizer is None:
            return
        from repro.analyze import attach_engine as san_attach_engine
        from repro.analyze import detach_engine as san_detach_engine

        san = self.sanitizer.rank_view(
            ctx.rank, clock=ctx.clock, costs=self.costs,
            enabled=(self.sanitize == "enabled"),
        )
        san_attach_engine(san, ctx.engine)
        if self.sanitize == "detached":
            # A13: subscribe then unsubscribe, leaving an empty spine —
            # measures the emit sites' falsy-tuple residue
            san_detach_engine(ctx.engine, san)
            return
        ctx.san = san

    def _attach_obs(self, ctx: RankContext) -> None:
        if self.observe is None:
            return
        from repro.obs import Instrumentation, attach_engine, detach_all

        inst = Instrumentation(
            ctx.rank, ctx.clock, costs=self.costs,
            enabled=(self.observe == "enabled"),
        )
        attach_engine(inst, ctx.engine)
        inst.register_provider(
            lambda: {"cluster.quiesce_expired": self.quiesce_expired[ctx.rank]}
        )
        if self.observe == "detached":
            detach_all(inst)
            return
        ctx.obs = inst
        self._insts[ctx.rank] = inst

    # -- merged per-run reporting -------------------------------------------------

    def merged_snapshot(self) -> dict:
        """In-process merge of every rank's snapshot (post-run, launcher side)."""
        if self.observe is None:
            raise RuntimeError("world was not built with observe=...")
        if not self._insts:
            raise RuntimeError(
                "no in-process rank snapshots to merge (the proc substrate "
                "hosts ranks in worker processes; use mpiexec(observe="
                "\"enabled\").snapshot or repro.obs.cluster_snapshot, which "
                "gather over the wire)"
            )
        from repro.obs import merge_snapshots

        return merge_snapshots(
            [self._insts[r].snapshot() for r in sorted(self._insts)]
        )

    def merged_report(self) -> str:
        from repro.obs import render_report

        return render_report(self.merged_snapshot())

    # -- MPI-2 dynamic process management ----------------------------------------

    def spawn(
        self,
        parent_ctx: RankContext,
        child_main: Callable[[RankContext], Any],
        nprocs: int,
        session_factory: Callable[[RankContext], Any] | None = None,
    ) -> Communicator:
        """Spawn ``nprocs`` child ranks; returns the parent-side intercomm.

        Collective over the parent communicator: every parent rank calls,
        rank 0 performs the actual thread creation, and all parents get an
        intercommunicator whose remote group is the children.
        """
        from repro.mp import collectives

        parent_comm = parent_ctx.comm_world
        # Agree on child ranks and a context id (rank 0 decides, bcasts).
        if parent_comm.rank == 0:
            base, ctx_id = self._allocate_ranks(nprocs)
            info = f"{base},{ctx_id}".encode()
        else:
            info = None
        info = collectives.bcast_bytes(parent_ctx.engine, parent_comm, info, 0)
        base, ctx_id = (int(x) for x in info.decode().split(","))
        child_ranks = list(range(base, base + nprocs))
        parent_group = Group(
            parent_comm.group.world_rank(i) for i in range(parent_comm.size)
        )
        child_group = Group(child_ranks)

        if parent_comm.rank == 0:
            if not getattr(self.fabric, "supports_dynamic_ranks", False):
                raise RuntimeError(
                    f"{self.channel_name} fabric does not support dynamic "
                    "spawn (existing endpoints cannot reach new ranks); use "
                    "the shm or ib channel"
                )
            for r in child_ranks:
                self.fabric.add_rank(r)
            for i, r in enumerate(child_ranks):
                engine = self._child_engine(r, child_group, i)
                parent_side = Communicator(
                    engine=engine,
                    context_id=ctx_id,
                    group=child_group,
                    rank=i,
                    remote_group=parent_group,
                )
                self._host_late_rank(
                    f"spawned-{r}", child_main, r, engine, session_factory, parent_side
                )

        return Communicator(
            engine=parent_ctx.engine,
            context_id=ctx_id,
            group=parent_comm.group,
            rank=parent_comm.rank,
            remote_group=child_group,
        )

    def replace_failed(
        self,
        parent_ctx: RankContext,
        old_comm: Communicator,
        shrunken: Communicator,
        replacement_main: Callable[[RankContext], Any],
        session_factory: Callable[[RankContext], Any] | None = None,
    ) -> Communicator:
        """Respawn the ranks ``old_comm`` lost and rebuild it full-size.

        Collective over ``shrunken`` (the agreed survivor communicator
        from ``old_comm.shrink()``): rank 0 of the shrunken communicator
        allocates fresh world ranks — one per failed slot — and spawns
        them running ``replacement_main``; every survivor returns a new
        communicator with ``old_comm``'s size and slot layout, where each
        failed slot is now a replacement rank.  The replacements' own
        ``comm_world`` *is* that rebuilt communicator, so application
        code is uniform across survivors and replacements.

        Restoring state is the recovery manager's job
        (:meth:`repro.mp.recovery.RecoveryManager.resync`), driven by
        :func:`repro.mp.recovery.recover`.
        """
        from repro.mp import collectives

        lost = [r for r in old_comm.group.ranks if not shrunken.group.contains(r)]
        if not lost:
            raise ValueError("replace_failed: no failed ranks to replace")
        nprocs = len(lost)
        if shrunken.rank == 0:
            if not getattr(self.fabric, "supports_dynamic_ranks", False):
                raise RuntimeError(
                    f"{self.channel_name} fabric cannot add replacement "
                    "ranks; use the shm or ib channel"
                )
            base, ctx_id = self._allocate_ranks(nprocs)
            # endpoints must exist before any survivor can learn the new
            # rank ids (a send to an unknown rank has no mailbox)
            for i in range(nprocs):
                self.fabric.add_rank(base + i)
            info = f"{base},{ctx_id}".encode()
        else:
            info = None
        info = collectives.bcast_bytes(parent_ctx.engine, shrunken, info, 0)
        base, ctx_id = (int(x) for x in info.decode().split(","))
        replaced = {w: base + i for i, w in enumerate(lost)}
        full_group = Group(replaced.get(w, w) for w in old_comm.group.ranks)
        if shrunken.rank == 0:
            for w in lost:
                slot = old_comm.group.local_rank(w)
                rank = replaced[w]
                engine = self._replacement_engine(
                    rank, full_group, slot, ctx_id, old_comm.errhandler
                )
                self._host_late_rank(
                    f"replacement-{rank}", replacement_main, rank, engine, session_factory
                )
        return Communicator(
            engine=parent_ctx.engine,
            context_id=ctx_id,
            group=full_group,
            rank=old_comm.rank,
            errhandler=old_comm.errhandler,
        )

    def _allocate_ranks(self, nprocs: int) -> tuple[int, int]:
        """Fresh world ranks ``base .. base+nprocs-1`` and a context id."""
        with self._spawn_lock:
            base = self._next_rank
            self._next_rank += nprocs
            ctx_id = self._spawn_contexts
            self._spawn_contexts += 4
        return base, ctx_id

    def _host_late_rank(
        self,
        name: str,
        main: Callable[[RankContext], Any],
        rank: int,
        engine: MpiEngine,
        session_factory: Callable[[RankContext], Any] | None,
        parent_comm: Communicator | None = None,
    ) -> None:
        """Start a rank born after boot (spawned child or replacement):
        context, session, a seat on the substrate."""
        ctx = self._context(rank, engine, parent_comm)
        open_session(ctx, session_factory)
        t = self.substrate.host(name, main, ctx)
        self.spawned_threads.append(t)
        t.start()

    def _replacement_engine(
        self, rank: int, full_group: Group, slot: int, ctx_id: int, errhandler: str
    ) -> MpiEngine:
        eng = self._build_engine(rank, full_group.size)
        # The replacement's world IS the rebuilt communicator: same context
        # id and group as every survivor's copy, same slot the dead rank had.
        eng.comm_world = Communicator(
            engine=eng, context_id=ctx_id, group=full_group, rank=slot,
            errhandler=errhandler,
        )
        return eng

    def _child_engine(self, rank: int, child_group: Group, local: int) -> MpiEngine:
        eng = self._build_engine(rank, self._next_rank)
        # Children's COMM_WORLD spans the spawned set only (MPI-2 semantics).
        eng.comm_world = Communicator(
            engine=eng, context_id=0, group=child_group, rank=local
        )
        return eng

    # -- the exit drain -----------------------------------------------------------

    def _dead(self) -> set[int]:
        return set(self.fault_plan.dead_ranks) if self.fault_plan is not None else set()

    def _all_drained(self) -> bool:
        """True when no live rank still owes the wire anything."""
        dead = self._dead()
        for r, eng in list(self._engines.items()):
            if r in dead:
                continue
            rel = eng.device.rel
            if rel is not None and any(rel._unacked.values()):
                return False
            if eng.device._outbox:
                return False
            if eng.device._grant and eng.device._rndv_recvs:
                return False  # an open grant: the put or its notice is owed
            if getattr(eng.device.channel, "_held", None):
                return False
        return True

    def quiesce(self, rank: int, engine: MpiEngine, timeout: float = 30.0) -> None:
        """Linger after a rank's main returns, until it owes the world nothing.

        The exit drain of both substrates; two debts keep a rank polling.
        A byte-stream channel (sock, and so every proc worker) may still
        hold the tail of the rank's last frames in its backlog, which only
        the rank's own polls push into the ring: it polls until no peer
        still reading is owed a byte — a dead peer, or one whose main has
        returned (its channel is retired), is owed nothing.  Under the
        reliability sublayer a dropped packet it sent still needs
        retransmitting, and a peer's retransmission still needs acking:
        every rank keeps the progress engine turning until all mains have
        returned and every live rank's unacked window is empty (the
        simulated analogue of the drain inside MPI_Finalize).  An expired
        ``timeout`` does not raise; it is counted in :attr:`quiesce_expired`
        (pvar ``cluster.quiesce_expired``).
        """
        with self._done_lock:
            self._mains_done.add(rank)
        channel = engine.device.channel
        channel.retire()
        if self.fault_plan is not None and self.fault_plan.is_dead(rank):
            return  # a crashed rank does not get a graceful drain
        if not (self.reliable or channel.owes()):
            return

        def quiet() -> bool:
            if channel.owes():
                return False
            if not self.reliable:
                return True
            with self._done_lock:
                expected = set(self._engines.keys()) - self._dead()
                all_done = expected <= self._mains_done | self._dead()
            return all_done and self._all_drained()

        try:
            engine.progress.drive(quiet, timeout, "world not quiet")
        except MpiErrTimeout:
            # still silent to the caller; counted where a report can see it
            with self._done_lock:
                self.quiesce_expired[rank] += 1

    # -- launching ----------------------------------------------------------------

    def launch(
        self,
        n: int,
        main: Callable[[RankContext], Any],
        session_factory: Callable[[RankContext], Any] | None = None,
        timeout: float = 120.0,
    ) -> list[Any]:
        """Host ``n`` ranks running ``main`` on this world's substrate."""
        return self.substrate.launch(n, main, session_factory, timeout)

    def shutdown(self) -> None:
        self.substrate.shutdown()


class RankResults(list):
    """What :func:`mpiexec` returns: the ranks' results, indexed by rank,
    plus what the world recorded about the run."""

    #: the world's sanitizer report (``sanitize=`` set), else ``None``
    report: Any = None
    #: the merged obs snapshot gathered to rank 0 (``observe="enabled"``), else ``None``
    snapshot: dict | None = None
    #: True when the run deadlocked under an enabled sanitizer (the report
    #: holds the MA-R01 finding); the list is then empty
    deadlocked = False


def mpiexec(
    n: int,
    main: Callable[[RankContext], Any],
    channel: str = "shm",
    clock_mode: str = "virtual",
    costs: CostModel | None = None,
    eager_threshold: int | None = None,
    session_factory: Callable[[RankContext], Any] | None = None,
    timeout: float = 120.0,
    fault_plan: FaultPlan | None = None,
    reliable: bool | None = None,
    reliability_opts: dict | None = None,
    observe: str | None = None,
    sanitize: str | None = None,
    progress: str = "polled",
    substrate: Any = "inproc",
    substrate_opts: dict | None = None,
) -> RankResults:
    """Launch ``n`` ranks running ``main`` and return their results by rank.

    ``session_factory`` builds the per-rank programming environment (a
    Motor VM, a set of wrapper bindings, a bare native engine, ...) and is
    stored on ``ctx.session``.  The first rank exception is re-raised.

    ``fault_plan`` injects seeded failures below the device (and enables
    the reliability sublayer unless ``reliable`` overrides it).

    ``observe`` attaches the repro.obs instrumentation to every rank:
    ``"enabled"`` records, ``"disabled"`` attaches inert hooks (the A11
    overhead configuration), ``None`` leaves the stack untouched.  When
    recording, after every rank's ``main`` returns the ranks join a
    collective gather (``collectives.gather_bytes``) of their local
    snapshots and rank 0 merges them — the cluster-wide aggregation path,
    exercising the wire rather than peeking across threads; the merged
    snapshot is the result's ``.snapshot`` (render with
    ``repro.obs.render_report``).

    ``sanitize`` attaches the repro.analyze runtime sanitizer the same
    way: ``"enabled"`` checks, ``"disabled"`` attaches inert hooks (the
    A12 overhead configuration), ``None`` leaves the stack untouched; the
    findings are the result's ``.report``.

    A world whose every rank waits with nothing in flight raises
    :class:`~repro.mp.errors.MpiErrDeadlock` naming each rank's wait, at
    once rather than at ``timeout`` (inproc, without the reliability
    sublayer or a fault plan).  A rank error that left its peers waiting
    re-raises in preference.  Under ``sanitize="enabled"`` the deadlock
    does not propagate: the result comes back empty with ``.deadlocked``
    set and the MA-R01 finding in the report.

    ``substrate`` picks the execution substrate: ``"inproc"`` (default,
    thread-per-rank in this process) or ``"proc"`` (one OS process per
    rank; ``main`` and its results must be picklable, and
    ``sanitize``/``fault_plan`` are not available — they are
    cross-address-space concepts).  ``clock_mode`` is ``"virtual"`` (the
    modelled clock: the default, and the only clock inproc) or ``"wall"``
    (real elapsed time, ``substrate="proc"`` only).
    """
    world = World(n, channel=channel, clock_mode=clock_mode, costs=costs,
                  eager_threshold=eager_threshold, fault_plan=fault_plan,
                  reliable=reliable, reliability_opts=reliability_opts,
                  observe=observe, sanitize=sanitize, progress=progress,
                  substrate=substrate, substrate_opts=substrate_opts)
    out = RankResults()
    if world.sanitizer is not None:
        out.report = world.sanitizer.report
    gather = observe == "enabled"
    try:
        results = world.launch(n, _ObservedMain(main) if gather else main,
                               session_factory, timeout)
    except MpiErrDeadlock as err:
        if sanitize != "enabled":
            raise
        world.sanitizer.on_deadlock(err)
        out.deadlocked = True
        return out
    if gather:
        out.snapshot = next((m for _r, m in results if m is not None), None)
        results = [r for r, _m in results]
    out.extend(results)
    return out


class _ObservedMain:
    """Picklable rank-main wrapper: ``main``, then the snapshot gather.

    A module-level class (not a closure) so the proc substrate can ship
    it to worker processes; the merged snapshot travels back inside each
    rank's result tuple instead of a shared in-process box.
    """

    def __init__(self, main: Callable[[RankContext], Any]) -> None:
        self.main = main

    def __call__(self, ctx: RankContext) -> tuple[Any, dict | None]:
        from repro.obs import cluster_snapshot

        result = self.main(ctx)
        merged = cluster_snapshot(ctx.engine, ctx.comm_world, ctx.obs, root=0)
        return result, merged
