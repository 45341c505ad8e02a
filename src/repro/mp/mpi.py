"""The MPI interface layer: parameter checking over the CH3 device.

This is MPICH2's top layer (paper Figure 6/7: "Parameter Checking &
Collective Operations").  It is deliberately buffer-oriented and C-like:
``send(buf_desc, dest, tag, comm)``.  The managed bindings (Motor's
System.MP, the Indiana wrapper, mpiJava) all sit *above* this layer and
differ only in how they cross into it — which is the paper's experiment.
"""

from __future__ import annotations

from typing import Callable

from repro.mp.buffers import BufferDesc
from repro.mp.ch3 import CH3Device
from repro.mp.channels.base import Channel
from repro.mp.communicator import Communicator, Group
from repro.mp.errors import (
    ERRORS_ARE_FATAL,
    MpiErrBuffer,
    MpiErrComm,
    MpiErrProcFailed,
    MpiErrRank,
    MpiErrRequest,
    MpiErrTag,
    MpiErrTruncate,
    MpiFatalError,
)
from repro.mp.hooks import wire_engine
from repro.mp.matching import ANY_SOURCE, ANY_TAG
from repro.mp.progress import ProgressEngine
from repro.mp.request import RECV, SEND, Request
from repro.mp.schedule import Schedule
from repro.mp.status import Status
from repro.mp.win import Win
from repro.simtime import Clock, CostModel, VirtualClock

#: MPI_TAG_UB for user tags; higher tags are reserved for collectives.
TAG_UB = (1 << 20) - 1


class MpiEngine:
    """One rank's complete MPI stack over a channel endpoint."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        channel: Channel,
        clock: Clock | None = None,
        costs: CostModel | None = None,
        yield_fn: Callable[[], None] | None = None,
        eager_threshold: int | None = None,
        reliable: bool = False,
        reliability_opts: dict | None = None,
        progress: str = "polled",
        hosting: str = "thread",
    ) -> None:
        if progress not in ("polled", "async"):
            raise ValueError(
                f"progress must be 'polled' or 'async', got {progress!r}"
            )
        if hosting not in ("thread", "process"):
            raise ValueError(
                f"hosting must be 'thread' or 'process', got {hosting!r}"
            )
        self.rank = rank
        self.world_size = world_size
        self.clock = clock if clock is not None else VirtualClock()
        self.costs = costs if costs is not None else CostModel()
        self.device = CH3Device(
            rank,
            channel,
            self.clock,
            self.costs,
            eager_threshold=eager_threshold,
            reliable=reliable,
            reliability_opts=reliability_opts,
        )
        self.progress = ProgressEngine(self.device, yield_fn)
        #: hosting is the substrate's one fact, and decides the idle policy
        #: only.  "thread": ranks share one interpreter — an idle wait cedes
        #: it at once.  "process": the rank owns an OS process — an idle
        #: wait spins before yielding.
        self.progress.thread_hosted = hosting == "thread"
        self.progress_mode = progress
        if progress == "async":
            self.progress.start_ticking(self.costs.async_poll_period_ns)
        #: the rank's hook spine, shared by every layer of this stack;
        #: observers (repro.obs, repro.analyze) attach here
        self.hooks = wire_engine(self)
        self.comm_world = Communicator(
            engine=self, context_id=0, group=Group(range(world_size)), rank=rank
        )
        self.comm_self = Communicator(
            engine=self, context_id=2, group=Group([rank]), rank=0
        )
        # failure gossip targets: whoever the current world communicator
        # spans (replacement engines override comm_world before first use)
        self.device.gossip_ranks = lambda: self.comm_world.group.ranks
        self._next_context = 16
        #: window ids allocate engine-locally but deterministically, like
        #: context ids: ranks creating windows in the same (collective)
        #: order agree on every id
        self._next_win_id = 1
        self._shrink_count = 0
        self._recovery = None
        self.finalized = False
        #: set when an MPI_ERRORS_ARE_FATAL handler fired (the simulated
        #: equivalent of the job being aborted)
        self.aborted = False

    # ------------------------------------------------------------- point-to-point
    # (arguments checked inline, once each: every message crosses these two)

    def isend(
        self,
        buf: BufferDesc,
        dest: int,
        tag: int,
        comm: Communicator | None = None,
        sync: bool = False,
        _internal: bool = False,
    ) -> Request:
        comm = comm or self.comm_world
        if not isinstance(comm, Communicator):
            raise MpiErrComm(f"not a communicator: {comm!r}")
        if not isinstance(buf, BufferDesc):
            raise MpiErrBuffer(f"not a buffer descriptor: {buf!r}")
        if not (_internal or 0 <= tag <= TAG_UB):
            raise MpiErrTag(f"tag {tag} outside [0, {TAG_UB}]")
        wdst = comm.world_rank_of(dest)
        ctx = comm.coll_context_id if _internal else comm.context_id
        req = Request(
            SEND, buf, dest, tag, ctx, total=buf.nbytes, sync=sync, hooks=self.hooks
        )
        self.device.start_send(req, wdst)
        return req

    def irecv(
        self,
        buf: BufferDesc,
        source: int,
        tag: int,
        comm: Communicator | None = None,
        _internal: bool = False,
    ) -> Request:
        comm = comm or self.comm_world
        if not isinstance(comm, Communicator):
            raise MpiErrComm(f"not a communicator: {comm!r}")
        if not isinstance(buf, BufferDesc):
            raise MpiErrBuffer(f"not a buffer descriptor: {buf!r}")
        if not (_internal or tag == ANY_TAG or 0 <= tag <= TAG_UB):
            raise MpiErrTag(f"tag {tag} outside [0, {TAG_UB}]")
        ctx = comm.coll_context_id if _internal else comm.context_id
        src_world = (
            ANY_SOURCE if source == ANY_SOURCE else comm.world_rank_of(source)
        )
        req = Request(RECV, buf, src_world, tag, ctx, total=buf.nbytes, hooks=self.hooks)
        self.device.post_recv(req)
        return req

    def _guarded_wait(
        self, req, comm: Communicator, timeout: float | None = None, wait=None
    ) -> None:
        """Progress-wait (``progress.wait`` on one request unless another
        member of the wait family is passed), reporting process failure
        per the communicator's error handler: ERRORS_RETURN raises a
        catchable :class:`MpiErrProcFailed`; ERRORS_ARE_FATAL marks the
        engine aborted and raises :class:`MpiFatalError` (the simulated
        abort)."""
        try:
            (wait or self.progress.wait)(req, timeout=timeout)
        except MpiErrProcFailed as exc:
            if comm.errhandler == ERRORS_ARE_FATAL:
                self.aborted = True
                raise MpiFatalError(
                    f"rank {self.rank}: {exc} (MPI_ERRORS_ARE_FATAL)"
                ) from exc
            raise

    def send(self, buf: BufferDesc, dest: int, tag: int, comm: Communicator | None = None, **kw) -> None:
        req = self.isend(buf, dest, tag, comm, **kw)
        self._guarded_wait(req, comm or self.comm_world)

    def ssend(self, buf: BufferDesc, dest: int, tag: int, comm: Communicator | None = None) -> None:
        req = self.isend(buf, dest, tag, comm, sync=True)
        self._guarded_wait(req, comm or self.comm_world)

    def recv(self, buf: BufferDesc, source: int, tag: int, comm: Communicator | None = None, **kw) -> Status:
        req = self.irecv(buf, source, tag, comm, **kw)
        self._guarded_wait(req, comm or self.comm_world)
        return self._finish_recv(req, comm or self.comm_world)

    def _finish_recv(self, req: Request, comm: Communicator) -> Status:
        status = req.status
        if status.error == "MPI_ERR_TRUNCATE":
            raise MpiErrTruncate(
                f"message of {req.total} bytes truncated to {req.buf.nbytes}"
            )
        # Translate world source back to communicator-local rank (once:
        # test_all and wait may both finish the same recv).
        if status.source >= 0 and not status.source_is_local:
            try:
                status.source = comm.local_rank_of_world(status.source)
                status.source_is_local = True
            except MpiErrRank:
                pass  # intercomm FIN paths may not translate; keep world rank
        return status

    def wait(
        self,
        req: Request,
        comm: Communicator | None = None,
        timeout: float | None = None,
    ) -> Status:
        req.check_usable()
        self._guarded_wait(req, comm or self.comm_world, timeout=timeout)
        if req.kind == RECV:
            return self._finish_recv(req, comm or self.comm_world)
        return req.status

    def wait_all(
        self, reqs, comm: Communicator | None = None, timeout: float | None = None
    ) -> list[Status]:
        """MPI_Waitall; ``timeout`` bounds the whole batch (see
        :meth:`ProgressEngine.wait_all`, which does the waiting)."""
        reqs = list(reqs)
        comm = comm or self.comm_world
        for r in reqs:
            r.check_usable()
        self._guarded_wait(reqs, comm, timeout, wait=self.progress.wait_all)
        return [self._finish_recv(r, comm) if r.kind == RECV else r.status for r in reqs]

    def test(self, req: Request) -> bool:
        req.check_usable()
        return self.progress.test(req)

    def test_all(self, reqs, comm: Communicator | None = None) -> bool:
        """MPI_Testall: one progress step, True iff every request is done.

        Like ``test``/``wait``, a request completed by a dead peer raises
        :class:`MpiErrProcFailed` instead of reading as plain success, and
        completed recvs get their status source translated (once).
        """
        self.progress.step()
        if not all(r.completed for r in reqs):
            self.progress.miss()
            return False
        comm = comm or self.comm_world
        for r in reqs:
            self.progress.check_failed(r)
            if r.kind == RECV:
                self._finish_recv(r, comm)
        return True

    def wait_any(self, reqs, timeout: float | None = None) -> int:
        """MPI_Waitany: block until one request completes; returns its index."""
        if not reqs:
            raise MpiErrRequest("wait_any on an empty request list")
        self.progress.drive(
            lambda: any(r.completed for r in reqs), timeout,
            f"no request of {len(reqs)} completed",
        )
        return next(i for i, r in enumerate(reqs) if r.completed)

    def wait_some(self, reqs, timeout: float | None = None) -> list[int]:
        """MPI_Waitsome: block until >= 1 completes; returns their indices."""
        first = self.wait_any(reqs, timeout=timeout)
        self.progress.step()
        return [i for i, r in enumerate(reqs) if r.completed] or [first]

    def iprobe(self, source: int, tag: int, comm: Communicator | None = None) -> Status | None:
        self.progress.step()
        st = self._iprobe_queued(source, tag, comm or self.comm_world)
        if st is None:
            self.progress.miss()
        return st

    def _iprobe_queued(self, source: int, tag: int, comm: Communicator) -> Status | None:
        """The unexpected queue's answer, without a progress step."""
        src_world = ANY_SOURCE if source == ANY_SOURCE else comm.world_rank_of(source)
        st = self.device.iprobe(src_world, tag, comm.context_id)
        if st is not None and st.source >= 0:
            st.source = comm.local_rank_of_world(st.source)
        return st

    def probe(
        self,
        source: int,
        tag: int,
        comm: Communicator | None = None,
        timeout: float | None = None,
    ) -> Status:
        """MPI_Probe: block until a matching message is queued."""
        comm = comm or self.comm_world
        st = None

        def queued() -> bool:
            nonlocal st
            st = self._iprobe_queued(source, tag, comm)
            return st is not None

        self.progress.drive(queued, timeout, f"no message from {source} with tag {tag}")
        return st

    def cancel(self, req: Request) -> bool:
        return self.device.cancel_recv(req)

    # ------------------------------------------------------------- one-sided

    def win_create(
        self,
        buf: BufferDesc,
        comm: Communicator | None = None,
        dtype: str = "byte",
        force_emulation: bool = False,
    ) -> Win:
        """Collectively create an RMA window over ``buf``.

        Every rank of ``comm`` must call, in the same order relative to
        other window creations (ids allocate deterministically, like
        context ids).  The trailing barrier guarantees every peer's
        window exists — and, on RMA-capable channels, is registered for
        the native path — before any origin issues a one-sided op.

        ``force_emulation`` skips native registration, so every op on
        this window (from this rank, and from peers targeting it) lowers
        onto the two-sided packet plane — the A17 ablation's control arm.
        """
        comm = comm or self.comm_world
        if not isinstance(comm, Communicator):
            raise MpiErrComm(f"not a communicator: {comm!r}")
        if not isinstance(buf, BufferDesc):
            raise MpiErrBuffer(f"not a buffer descriptor: {buf!r}")
        win_id = self._next_win_id
        self._next_win_id += 1
        win = Win(self, win_id, buf, comm, dtype=dtype, force_emulation=force_emulation)
        self.device.add_window(win)
        if not force_emulation:
            self.device.channel.rma_register(win_id, self.rank, buf)
        self.barrier(comm)
        return win

    # ------------------------------------------------------------- comm mgmt

    def _alloc_context(self) -> int:
        ctx = self._next_context
        self._next_context += 4  # even user ctx + odd collective ctx, spare
        return ctx

    def comm_dup(self, comm: Communicator) -> Communicator:
        """Collective: every rank of ``comm`` must call in the same order."""
        from repro.mp import collectives

        newcomm = Communicator(
            engine=self,
            context_id=self._alloc_context(),
            group=comm.group,
            rank=comm.rank,
            errhandler=comm.errhandler,
        )
        collectives.barrier(self, comm)
        return newcomm

    def comm_split(self, comm: Communicator, color: int, key: int) -> Communicator | None:
        """Collective split; color < 0 (MPI_UNDEFINED) yields None."""
        from repro.mp import collectives

        # Exchange (color, key, world_rank) triples via allgather.
        mine = (color, key, comm.group.world_rank(comm.rank))
        triples = collectives.allgather_obj(self, comm, mine)
        ctx = self._alloc_context()
        if color < 0:
            return None
        members = sorted(
            [t for t in triples if t[0] == color], key=lambda t: (t[1], t[2])
        )
        ranks = [t[2] for t in members]
        return Communicator(
            engine=self,
            context_id=ctx,
            group=Group(ranks),
            rank=ranks.index(mine[2]),
            errhandler=comm.errhandler,
        )

    def intercomm_merge(self, inter: Communicator, high: bool) -> Communicator:
        """MPI_Intercomm_merge: one intracommunicator spanning both groups.

        Collective over the intercommunicator; every member of each side
        must pass the same ``high`` flag per side.  The low side's ranks
        come first in the merged group.  The merged context id is derived
        deterministically from the intercomm's (spawn allocates context
        ids in strides of 4, leaving room).
        """
        if not inter.is_inter:
            raise MpiErrComm("intercomm_merge needs an inter-communicator")
        local, remote = inter.group, inter.remote_group
        first, second = (remote, local) if high else (local, remote)
        merged = Group(tuple(first.ranks) + tuple(second.ranks))
        me_world = local.world_rank(inter.rank)
        return Communicator(
            engine=self,
            context_id=inter.context_id + 2,
            group=merged,
            rank=merged.local_rank(me_world),
        )

    @property
    def recovery(self):
        """The rank's :class:`repro.mp.recovery.RecoveryManager` (lazy)."""
        if self._recovery is None:
            from repro.mp.recovery import RecoveryManager

            self._recovery = RecoveryManager(self)
        return self._recovery

    def comm_shrink(self, comm: Communicator) -> Communicator:
        """ULFM-style MPI_Comm_shrink over ``comm``'s survivors.

        With the reliability sublayer on (i.e. failure detection exists),
        the survivors run the message-based agreement protocol
        (:meth:`repro.mp.recovery.RecoveryManager.shrink_agree`): they
        agree on the failed set *and* on a shared shrink epoch — the max
        of every survivor's engine-local shrink counter plus one — from
        which the context id derives.  Survivors whose counters drifted
        (one shrank a sub-communicator the others never saw) still get
        one identical context id.

        Without the reliability sublayer there is no detector to agree
        over, so the failed set comes from the shared fault plan and the
        counters are *validated* instead: every rank allgathers its
        counter and a mismatch raises :class:`MpiErrComm` — loudly, where
        the old behaviour silently returned colliding context ids.
        """
        me_world = comm.group.world_rank(comm.rank)
        failed = set(self.device.failed_ranks)
        plan = getattr(self.device.channel, "plan", None)
        if plan is not None:
            failed |= set(plan.dead_ranks)
        if me_world in failed:
            raise MpiErrComm("a failed rank cannot shrink a communicator")
        if self.device.rel is not None:
            epoch, agreed = self.recovery.shrink_agree(comm)
            failed |= set(agreed)
        else:
            epoch = self._validated_shrink_epoch(comm, failed)
        self._shrink_count = epoch
        ctx = (1 << 18) + 4 * epoch
        survivors = [r for r in comm.group.ranks if r not in failed]
        group = Group(survivors)
        return Communicator(
            engine=self,
            context_id=ctx,
            group=group,
            rank=group.local_rank(me_world),
            errhandler=comm.errhandler,
        )

    def _validated_shrink_epoch(self, comm: Communicator, failed: set) -> int:
        """Exchange shrink counters over the survivors; mismatch raises.

        The legacy counter scheme relied on every survivor having called
        shrink the same number of times; a drifted counter produced a
        silent context-id collision.  The counters are now compared via
        an allgather over the survivors and any disagreement surfaces as
        a clear :class:`MpiErrComm` on every rank.
        """
        from repro.mp import collectives

        survivors = [r for r in comm.group.ranks if r not in failed]
        sub = Communicator(
            engine=self,
            context_id=comm.context_id,
            group=Group(survivors),
            rank=survivors.index(comm.group.world_rank(comm.rank)),
            errhandler=comm.errhandler,
        )
        counts = collectives.allgather_obj(
            self, sub, (self._shrink_count, 0, sub.group.world_rank(sub.rank))
        )
        seen = {c[0] for c in counts}
        if len(seen) != 1:
            raise MpiErrComm(
                "shrink counters disagree across survivors "
                f"({sorted(seen)}): context ids would silently collide; "
                "shrink must be called collectively the same number of times"
            )
        return seen.pop() + 1

    # ------------------------------------------------------------- collectives

    def start_schedule(self, name: str, comm: Communicator, gen) -> Request:
        """Register a collective schedule with the progress engine.

        The first advance runs synchronously so parameter errors raise at
        the call site; a schedule that finishes immediately (size-1
        communicator, root with nothing to wait for) never registers.
        """
        sched = Schedule(self, name, comm, gen)
        if not sched.step():
            self.progress.add_schedule(sched)
        return sched.req

    def barrier(self, comm: Communicator | None = None) -> None:
        from repro.mp import collectives

        collectives.barrier(self, comm or self.comm_world)

    def ibarrier(self, comm: Communicator | None = None) -> Request:
        from repro.mp import collectives

        return collectives.ibarrier(self, comm or self.comm_world)

    def ibcast(self, buf: BufferDesc, root: int = 0, comm: Communicator | None = None) -> Request:
        from repro.mp import collectives

        return collectives.ibcast(self, comm or self.comm_world, buf, root)

    def ireduce(
        self,
        sendbuf: BufferDesc,
        recvbuf: BufferDesc | None,
        datatype,
        op: str = "sum",
        root: int = 0,
        comm: Communicator | None = None,
    ) -> Request:
        from repro.mp import collectives

        return collectives.ireduce(
            self, comm or self.comm_world, sendbuf, recvbuf, datatype, op, root
        )

    def iallreduce(
        self,
        sendbuf: BufferDesc,
        recvbuf: BufferDesc,
        datatype,
        op: str = "sum",
        comm: Communicator | None = None,
    ) -> Request:
        from repro.mp import collectives

        return collectives.iallreduce(
            self, comm or self.comm_world, sendbuf, recvbuf, datatype, op
        )

    def finalize(self) -> None:
        self.finalized = True
        self.progress.stop_ticking()
