"""Collective operations built on point-to-point (MPICH2's approach).

Algorithms are the classic small-message ones MPICH2 uses at these scales:
binomial-tree broadcast, dissemination barrier, linear scatter/gather at
the root, reduce as gather-and-combine.  All collective traffic runs on
the communicator's odd (collective) context id with reserved tags, so it
can never match user receives.

Every algorithm is written once, as a *schedule* generator (``_sched_*``)
yielding rounds of nonblocking point-to-point requests; see
:mod:`repro.mp.schedule`.  The blocking entry points (``barrier``,
``bcast``, …) drive the generator inline, waiting out each round — byte
for byte the same traffic in the same order as before the refactor.  The
nonblocking entry points (``ibarrier``, ``ibcast``, …) hand the generator
to the progress engine and return a request immediately.

Schedules mark their extent with ``region_begin``/``region_end`` on the
engine's hook spine: the observability layer turns regions into spans
("coll.bcast"), the sanitizer uses them to label point-to-point traffic
with the collective it belongs to in deadlock reports.

Byte-counted interfaces take :class:`BufferDesc`; the ``*_bytes`` helpers
exchange variable-length blobs (used by comm_split and the object layers
above).
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.datatypes import Datatype
from repro.mp.errors import MpiErrCount, MpiErrRoot


class _Region:
    """Emit region_begin/region_end on the engine's spine (cheap when
    nothing is attached: two empty-tuple checks)."""

    __slots__ = ("hooks", "name", "args")

    def __init__(self, hooks, name: str, args: dict) -> None:
        self.hooks = hooks
        self.name = name
        self.args = args

    def __enter__(self):
        cbs = self.hooks.region_begin
        if cbs:
            for cb in cbs:
                cb(self.name, self.args)
        return self

    def __exit__(self, *exc):
        cbs = self.hooks.region_end
        if cbs:
            for cb in cbs:
                cb(self.name)
        return False


def _region(engine, name: str, **args) -> _Region:
    return _Region(engine.hooks, name, args)


#: reserved tag space for collectives (above MPI_TAG_UB)
_TAG_BARRIER = (1 << 20) + 1
_TAG_BCAST = (1 << 20) + 2
_TAG_SCATTER = (1 << 20) + 3
_TAG_GATHER = (1 << 20) + 4
_TAG_REDUCE = (1 << 20) + 5
_TAG_ALLTOALL = (1 << 20) + 6
_TAG_VARLEN = (1 << 20) + 7
_TAG_SENDRECV = (1 << 20) + 8
_TAG_SCAN = (1 << 20) + 9

# -- reduction operators ------------------------------------------------------

OPS: dict[str, Callable] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": max,
    "min": min,
    "land": lambda a, b: bool(a) and bool(b),
    "lor": lambda a, b: bool(a) or bool(b),
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
}


def _check_root(comm, root: int) -> None:
    if not 0 <= root < comm.size:
        raise MpiErrRoot(f"root {root} invalid for communicator of size {comm.size}")


def _check_op(op: str) -> Callable:
    try:
        return OPS[op]
    except KeyError:
        raise KeyError(f"unknown reduction op {op!r} (have {sorted(OPS)})") from None


# -- executors ----------------------------------------------------------------


def _run_inline(engine, gen) -> None:
    """Drive a schedule to completion, waiting out each round (blocking)."""
    try:
        for rnd in gen:
            for req in rnd:
                engine.progress.wait(req)
    finally:
        gen.close()


def _start(engine, name: str, comm, gen):
    """Hand a schedule to the progress engine; returns its CollRequest."""
    return engine.start_schedule(name, comm, gen)


# -- barrier ------------------------------------------------------------------


def _sched_barrier(engine, comm):
    """Dissemination barrier: ceil(log2 n) rounds of empty messages."""
    n = comm.size
    if n == 1:
        return
    rank = comm.rank
    with _region(engine, "coll.barrier", size=n):
        empty = BufferDesc.from_bytes(b"")
        k = 1
        while k < n:
            dst = (rank + k) % n
            src = (rank - k) % n
            sreq = engine.isend(empty, dst, _TAG_BARRIER, comm, _internal=True)
            rbuf = BufferDesc.from_bytes(b"")
            rreq = engine.irecv(rbuf, src, _TAG_BARRIER, comm, _internal=True)
            yield [sreq, rreq]
            k <<= 1


def barrier(engine, comm) -> None:
    _run_inline(engine, _sched_barrier(engine, comm))


def ibarrier(engine, comm):
    return _start(engine, "coll.barrier", comm, _sched_barrier(engine, comm))


# -- broadcast ------------------------------------------------------------------


def _sched_bcast(engine, comm, buf: BufferDesc, root: int):
    """Binomial-tree broadcast of ``buf`` bytes from ``root``."""
    n = comm.size
    if n == 1:
        return
    with _region(engine, "coll.bcast", root=root, bytes=buf.nbytes):
        # Rotate so the root is virtual rank 0.
        vrank = (comm.rank - root) % n
        mask = 1
        # Receive phase: find parent.
        while mask < n:
            if vrank & mask:
                parent = ((vrank & ~mask) + root) % n
                yield [engine.irecv(buf, parent, _TAG_BCAST, comm, _internal=True)]
                break
            mask <<= 1
        # Send phase: forward to children below the found bit.
        mask >>= 1
        while mask > 0:
            if vrank + mask < n:
                child = ((vrank + mask) + root) % n
                yield [engine.isend(buf, child, _TAG_BCAST, comm, _internal=True)]
            mask >>= 1


def bcast(engine, comm, buf: BufferDesc, root: int = 0) -> None:
    _check_root(comm, root)
    _run_inline(engine, _sched_bcast(engine, comm, buf, root))


def ibcast(engine, comm, buf: BufferDesc, root: int = 0):
    _check_root(comm, root)
    return _start(engine, "coll.bcast", comm, _sched_bcast(engine, comm, buf, root))


# -- scatter / gather ------------------------------------------------------------


def _sched_scatter(engine, comm, sendbuf, recvbuf, root):
    """Equal-slice scatter: rank i gets slice i of the root's buffer."""
    n = comm.size
    each = recvbuf.nbytes
    with _region(engine, "coll.scatter", root=root, bytes=each):
        if comm.rank == root:
            if sendbuf is None or sendbuf.nbytes != each * n:
                raise MpiErrCount(
                    f"scatter: root buffer must be {each * n} bytes, "
                    f"got {None if sendbuf is None else sendbuf.nbytes}"
                )
            reqs = []
            for i in range(n):
                if i == root:
                    recvbuf.write(0, sendbuf.read(i * each, each))
                else:
                    piece = BufferDesc(sendbuf.base, sendbuf.addr + i * each, each)
                    reqs.append(engine.isend(piece, i, _TAG_SCATTER, comm, _internal=True))
            yield reqs
        else:
            yield [engine.irecv(recvbuf, root, _TAG_SCATTER, comm, _internal=True)]


def scatter(engine, comm, sendbuf: BufferDesc | None, recvbuf: BufferDesc, root: int = 0) -> None:
    _check_root(comm, root)
    _run_inline(engine, _sched_scatter(engine, comm, sendbuf, recvbuf, root))


def iscatter(engine, comm, sendbuf: BufferDesc | None, recvbuf: BufferDesc, root: int = 0):
    _check_root(comm, root)
    return _start(engine, "coll.scatter", comm, _sched_scatter(engine, comm, sendbuf, recvbuf, root))


def _sched_scatterv(engine, comm, sendbuf, counts, displs, recvbuf, root):
    """Variable-slice scatter (MPI_Scatterv), counts/displs in bytes."""
    n = comm.size
    if comm.rank == root:
        if len(counts) != n or len(displs) != n:
            raise MpiErrCount("scatterv: counts/displs must have one entry per rank")
        reqs = []
        for i in range(n):
            piece = BufferDesc(sendbuf.base, sendbuf.addr + displs[i], counts[i])
            if i == root:
                recvbuf.write(0, piece.view())
            else:
                reqs.append(engine.isend(piece, i, _TAG_SCATTER, comm, _internal=True))
        yield reqs
    else:
        yield [engine.irecv(recvbuf, root, _TAG_SCATTER, comm, _internal=True)]


def scatterv(engine, comm, sendbuf, counts, displs, recvbuf: BufferDesc, root: int = 0) -> None:
    _check_root(comm, root)
    _run_inline(engine, _sched_scatterv(engine, comm, sendbuf, counts, displs, recvbuf, root))


def _sched_gather(engine, comm, sendbuf, recvbuf, root):
    """Equal-slice gather into the root's buffer."""
    n = comm.size
    each = sendbuf.nbytes
    with _region(engine, "coll.gather", root=root, bytes=each):
        if comm.rank == root:
            if recvbuf is None or recvbuf.nbytes != each * n:
                raise MpiErrCount(
                    f"gather: root buffer must be {each * n} bytes, "
                    f"got {None if recvbuf is None else recvbuf.nbytes}"
                )
            reqs = []
            for i in range(n):
                if i == root:
                    recvbuf.write(root * each, sendbuf.view())
                else:
                    piece = BufferDesc(recvbuf.base, recvbuf.addr + i * each, each)
                    reqs.append(engine.irecv(piece, i, _TAG_GATHER, comm, _internal=True))
            yield reqs
        else:
            yield [engine.isend(sendbuf, root, _TAG_GATHER, comm, _internal=True)]


def gather(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc | None, root: int = 0) -> None:
    _check_root(comm, root)
    _run_inline(engine, _sched_gather(engine, comm, sendbuf, recvbuf, root))


def igather(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc | None, root: int = 0):
    _check_root(comm, root)
    return _start(engine, "coll.gather", comm, _sched_gather(engine, comm, sendbuf, recvbuf, root))


def _sched_gatherv(engine, comm, sendbuf, recvbuf, counts, displs, root):
    """Variable-slice gather (MPI_Gatherv), counts/displs in bytes."""
    n = comm.size
    if comm.rank == root:
        if len(counts) != n or len(displs) != n:
            raise MpiErrCount("gatherv: counts/displs must have one entry per rank")
        reqs = []
        for i in range(n):
            if i == root:
                recvbuf.write(displs[i], sendbuf.view())
            else:
                piece = BufferDesc(recvbuf.base, recvbuf.addr + displs[i], counts[i])
                reqs.append(engine.irecv(piece, i, _TAG_GATHER, comm, _internal=True))
        yield reqs
    else:
        yield [engine.isend(sendbuf, root, _TAG_GATHER, comm, _internal=True)]


def gatherv(engine, comm, sendbuf: BufferDesc, recvbuf, counts, displs, root: int = 0) -> None:
    _check_root(comm, root)
    _run_inline(engine, _sched_gatherv(engine, comm, sendbuf, recvbuf, counts, displs, root))


def _sched_allgather(engine, comm, sendbuf, recvbuf):
    """gather to rank 0 then broadcast (fine at these scales)."""
    with _region(engine, "coll.allgather", bytes=sendbuf.nbytes):
        yield from _sched_gather(engine, comm, sendbuf, recvbuf if comm.rank == 0 else None, 0)
        yield from _sched_bcast(engine, comm, recvbuf, 0)


def allgather(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc) -> None:
    _run_inline(engine, _sched_allgather(engine, comm, sendbuf, recvbuf))


def iallgather(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc):
    return _start(engine, "coll.allgather", comm, _sched_allgather(engine, comm, sendbuf, recvbuf))


def _check_alltoall(comm, sendbuf, recvbuf) -> int:
    n = comm.size
    if sendbuf.nbytes != recvbuf.nbytes or sendbuf.nbytes % n:
        raise MpiErrCount("alltoall: buffers must be equal and divisible by size")
    return sendbuf.nbytes // n


def _sched_alltoall(engine, comm, sendbuf, recvbuf, each):
    """Pairwise exchange of equal slices."""
    n = comm.size
    rank = comm.rank
    with _region(engine, "coll.alltoall", bytes=each):
        recvbuf.write(rank * each, sendbuf.read(rank * each, each))
        reqs = []
        for i in range(n):
            if i == rank:
                continue
            rpiece = BufferDesc(recvbuf.base, recvbuf.addr + i * each, each)
            reqs.append(engine.irecv(rpiece, i, _TAG_ALLTOALL, comm, _internal=True))
        for i in range(n):
            if i == rank:
                continue
            spiece = BufferDesc(sendbuf.base, sendbuf.addr + i * each, each)
            reqs.append(engine.isend(spiece, i, _TAG_ALLTOALL, comm, _internal=True))
        yield reqs


def alltoall(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc) -> None:
    each = _check_alltoall(comm, sendbuf, recvbuf)
    _run_inline(engine, _sched_alltoall(engine, comm, sendbuf, recvbuf, each))


def ialltoall(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc):
    each = _check_alltoall(comm, sendbuf, recvbuf)
    return _start(engine, "coll.alltoall", comm, _sched_alltoall(engine, comm, sendbuf, recvbuf, each))


# -- reductions ------------------------------------------------------------------


def _sched_reduce(engine, comm, sendbuf, recvbuf, datatype, op, root):
    """Element-wise reduction at the root (linear combine).

    Contributions are folded in strict ascending rank order regardless of
    ``root``, so non-associative (floating-point) results are bit-identical
    for every choice of root.
    """
    combine = OPS[op]
    n = comm.size
    with _region(engine, "coll.reduce", op=op, root=root, bytes=sendbuf.nbytes):
        if comm.rank == root:
            if recvbuf is None or recvbuf.nbytes != sendbuf.nbytes:
                raise MpiErrCount("reduce: recv buffer must match send buffer size")
            contribs: list[list | None] = [None] * n
            contribs[root] = list(datatype.unpack_values(sendbuf.tobytes()))
            tmp = BufferDesc.from_native(NativeMemory(sendbuf.nbytes))
            for i in range(n):
                if i == root:
                    continue
                yield [engine.irecv(tmp, i, _TAG_REDUCE, comm, _internal=True)]
                contribs[i] = list(datatype.unpack_values(tmp.tobytes()))
            acc = contribs[0]
            for i in range(1, n):
                acc = [combine(a, b) for a, b in zip(acc, contribs[i])]
            recvbuf.write(0, datatype.pack_values(acc))
        else:
            yield [engine.isend(sendbuf, root, _TAG_REDUCE, comm, _internal=True)]


def reduce(
    engine,
    comm,
    sendbuf: BufferDesc,
    recvbuf: BufferDesc | None,
    datatype: Datatype,
    op: str = "sum",
    root: int = 0,
) -> None:
    _check_root(comm, root)
    _check_op(op)
    _run_inline(engine, _sched_reduce(engine, comm, sendbuf, recvbuf, datatype, op, root))


def ireduce(
    engine,
    comm,
    sendbuf: BufferDesc,
    recvbuf: BufferDesc | None,
    datatype: Datatype,
    op: str = "sum",
    root: int = 0,
):
    _check_root(comm, root)
    _check_op(op)
    return _start(
        engine, "coll.reduce", comm,
        _sched_reduce(engine, comm, sendbuf, recvbuf, datatype, op, root),
    )


def _sched_allreduce(engine, comm, sendbuf, recvbuf, datatype, op):
    with _region(engine, "coll.allreduce", op=op, bytes=sendbuf.nbytes):
        yield from _sched_reduce(engine, comm, sendbuf, recvbuf, datatype, op, 0)
        yield from _sched_bcast(engine, comm, recvbuf, 0)


def allreduce(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc, datatype: Datatype, op: str = "sum") -> None:
    _check_op(op)
    _run_inline(engine, _sched_allreduce(engine, comm, sendbuf, recvbuf, datatype, op))


def iallreduce(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc, datatype: Datatype, op: str = "sum"):
    _check_op(op)
    return _start(
        engine, "coll.allreduce", comm,
        _sched_allreduce(engine, comm, sendbuf, recvbuf, datatype, op),
    )


def sendrecv(
    engine,
    comm,
    sendbuf: BufferDesc,
    dest: int,
    recvbuf: BufferDesc,
    source: int,
    sendtag: int | None = None,
    recvtag: int | None = None,
):
    """MPI_Sendrecv: simultaneous send and receive, deadlock-free.

    Posts the receive, starts the send, then progresses both — the classic
    shift-exchange building block for halo patterns.
    """
    stag = _TAG_SENDRECV if sendtag is None else sendtag
    rtag = _TAG_SENDRECV if recvtag is None else recvtag
    internal = sendtag is None
    rreq = engine.irecv(recvbuf, source, rtag, comm, _internal=internal)
    sreq = engine.isend(sendbuf, dest, stag, comm, _internal=internal)
    engine.progress.wait(sreq)
    engine.progress.wait(rreq)
    return rreq.status


def _sched_scan(engine, comm, sendbuf, recvbuf, datatype, op):
    """MPI_Scan: inclusive prefix reduction (rank i gets op over 0..i).

    Linear pipeline: each rank combines its predecessor's prefix with its
    own contribution and forwards the result.
    """
    combine = OPS[op]
    rank, n = comm.rank, comm.size
    with _region(engine, "coll.scan", op=op, bytes=sendbuf.nbytes):
        mine = list(datatype.unpack_values(sendbuf.tobytes()))
        if rank > 0:
            prev = BufferDesc.from_native(NativeMemory(sendbuf.nbytes))
            yield [engine.irecv(prev, rank - 1, _TAG_SCAN, comm, _internal=True)]
            upstream = datatype.unpack_values(prev.tobytes())
            mine = [combine(a, b) for a, b in zip(upstream, mine)]
        packed = datatype.pack_values(mine)
        if rank < n - 1:
            yield [
                engine.isend(
                    BufferDesc.from_bytes(packed), rank + 1, _TAG_SCAN, comm, _internal=True
                )
            ]
        recvbuf.write(0, packed)


def scan(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc, datatype: Datatype, op: str = "sum") -> None:
    _check_op(op)
    _run_inline(engine, _sched_scan(engine, comm, sendbuf, recvbuf, datatype, op))


def iscan(engine, comm, sendbuf: BufferDesc, recvbuf: BufferDesc, datatype: Datatype, op: str = "sum"):
    _check_op(op)
    return _start(engine, "coll.scan", comm, _sched_scan(engine, comm, sendbuf, recvbuf, datatype, op))


# -- variable-length blob exchange ------------------------------------------------


def gather_bytes(engine, comm, data: bytes, root: int = 0) -> list[bytes] | None:
    """Gather arbitrary-length byte strings at the root."""
    lenbuf = BufferDesc.from_bytes(struct.pack("<q", len(data)))
    n = comm.size
    with _region(engine, "coll.gather_bytes", root=root, bytes=len(data)):
        if comm.rank == root:
            lens = BufferDesc.from_native(NativeMemory(8 * n))
            gather(engine, comm, lenbuf, lens, root)
            counts = list(struct.unpack(f"<{n}q", lens.tobytes()))
            # running prefix sum: O(n), not sum(counts[:i]) per rank (O(n^2))
            displs = []
            total = 0
            for c in counts:
                displs.append(total)
                total += c
            blob = BufferDesc.from_native(NativeMemory(total))
            gatherv(engine, comm, BufferDesc.from_bytes(data), blob, counts, displs, root)
            raw = blob.tobytes()
            return [raw[displs[i] : displs[i] + counts[i]] for i in range(n)]
        gather(engine, comm, lenbuf, None, root)
        gatherv(engine, comm, BufferDesc.from_bytes(data), None, None, None, root)
        return None


def bcast_bytes(engine, comm, data: bytes | None, root: int = 0) -> bytes:
    """Broadcast an arbitrary-length byte string."""
    if comm.rank == root:
        if data is None:
            raise MpiErrCount("bcast_bytes: root must supply data")
        lenbuf = BufferDesc.from_bytes(struct.pack("<q", len(data)))
        bcast(engine, comm, lenbuf, root)
        payload = BufferDesc.from_bytes(data)
        bcast(engine, comm, payload, root)
        return data
    lenbuf = BufferDesc.from_native(NativeMemory(8))
    bcast(engine, comm, lenbuf, root)
    (n,) = struct.unpack("<q", lenbuf.tobytes())
    payload = BufferDesc.from_native(NativeMemory(n))
    bcast(engine, comm, payload, root)
    return payload.tobytes()


def allgather_obj(engine, comm, triple: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Allgather of (color, key, world_rank) triples for comm_split."""
    mine = struct.pack("<3q", *triple)
    blobs = gather_bytes(engine, comm, mine, 0)
    if comm.rank == 0:
        flat = b"".join(blobs)
    else:
        flat = b""
    flat = bcast_bytes(engine, comm, flat if comm.rank == 0 else None, 0)
    out = []
    for i in range(0, len(flat), 24):
        out.append(struct.unpack("<3q", flat[i : i + 24]))
    return out
