"""2-D halo exchange over one-sided RMA windows.

The canonical stencil communication pattern: each rank owns a 2-D tile
(``rows`` interior rows of ``cols`` int32 cells, plus one halo row above
and below), ranks form a ring, and every iteration each rank *puts* its
boundary rows straight into its neighbours' halo rows inside a fence
epoch, then runs a deterministic integer stencil over its interior.

One workload, two arms: the same rank main runs over a native window
(the channel's RMA fast path lands each row with a single direct write,
zero payload copies) or with ``force_emulation=True`` (the op lowers
onto the packet plane — chunked PUTs, one copy per byte at the landing,
target CPU charged).  Identical puts, identical fences, identical
stencil — so the grids are bit-identical across arms and the ledger and
virtual-clock deltas isolate exactly what the native path saves.  The
A17 ablation (``bench smoke``) is built on this pair.

All state is integer arithmetic on latched byte buffers; there is no
floating point anywhere, so digests are exact across channels, arms and
substrates.
"""

from __future__ import annotations

import array
import zlib

from repro.cluster.world import mpiexec
from repro.mp.buffers import BufferDesc
from repro.mp.hooks import wire_engine

#: simulated cost of one stencil cell update (three adds, a mask)
STENCIL_NS_PER_CELL = 2.0


class _RmaCopyCounter:
    """Spine subscriber: payload bytes memcpy'd at RMA landing sites."""

    def __init__(self) -> None:
        self.rma_copied = 0

    def on_copy(self, where: str, nbytes: int) -> None:
        if where.startswith("rma-"):
            self.rma_copied += nbytes


class HaloExchange:
    """Picklable rank main for the halo-exchange workload.

    Returns a per-rank dict: the grid digest, the virtual-clock time
    spent inside exchange epochs, elapsed time, and the data-plane
    ledger split (moved/copied/RMA-attributed copies, native vs
    emulated op counts).
    """

    def __init__(
        self,
        rows: int = 8,
        cols: int = 1024,
        iterations: int = 4,
        force_emulation: bool = False,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.iterations = iterations
        self.force_emulation = force_emulation

    def __call__(self, ctx):
        rows, cols = self.rows, self.cols
        me, n = ctx.rank, ctx.size
        up, down = (me - 1) % n, (me + 1) % n
        width = 4
        row_bytes = cols * width

        counter = _RmaCopyCounter()
        wire_engine(ctx.engine).attach(counter)

        # (rows + 2) x cols grid: halo row 0, interior 1..rows, halo rows+1
        grid = array.array(
            "i", [((me + 1) * 7919 + r * 31 + c) & 0xFFFF
                  for r in range(rows + 2) for c in range(cols)]
        )
        buf = BufferDesc.from_bytes(grid.tobytes())
        win = ctx.engine.win_create(
            buf, dtype="int32", force_emulation=self.force_emulation
        )

        def row_desc(r: int) -> BufferDesc:
            return BufferDesc(buf.base, buf.addr + r * row_bytes, row_bytes)

        def read_row(r: int) -> array.array:
            a = array.array("i")
            a.frombytes(bytes(row_desc(r).view()))
            return a

        stats0 = dict(ctx.engine.device.stats)
        copied0 = counter.rma_copied
        t0 = ctx.clock.now()
        comm_ns = 0.0
        for _it in range(self.iterations):
            c0 = ctx.clock.now()
            win.fence()
            # first interior row -> up's bottom halo; last -> down's top halo
            win.put(row_desc(1), up, (rows + 1) * row_bytes)
            win.put(row_desc(rows), down, 0)
            win.fence()
            comm_ns += ctx.clock.now() - c0

            # deterministic integer stencil over the interior
            above = read_row(0)
            rows_data = [read_row(r) for r in range(1, rows + 1)]
            below = read_row(rows + 1)
            for i, cur in enumerate(rows_data):
                lo = rows_data[i - 1] if i > 0 else above
                hi = rows_data[i + 1] if i + 1 < rows else below
                row_desc(i + 1).write(
                    0,
                    array.array(
                        "i",
                        [(cur[c] * 3 + lo[c] + hi[c]) & 0xFFFF for c in range(cols)],
                    ).tobytes(),
                )
            ctx.clock.charge(STENCIL_NS_PER_CELL * rows * cols)

        stats1 = dict(ctx.engine.device.stats)
        digest = zlib.crc32(bytes(buf.view()))
        win.free()
        return {
            "digest": digest,
            "comm_ns": comm_ns,
            "elapsed_ns": ctx.clock.now() - t0,
            "bytes_moved": stats1["bytes_moved"] - stats0["bytes_moved"],
            "bytes_copied": stats1["bytes_copied"] - stats0["bytes_copied"],
            "rma_copied": counter.rma_copied - copied0,
            "rma_native_ops": stats1["rma_native_ops"] - stats0["rma_native_ops"],
            "rma_emulated_ops": stats1["rma_emulated_ops"] - stats0["rma_emulated_ops"],
        }


def run_halo(
    nranks: int = 2,
    rows: int = 8,
    cols: int = 1024,
    iterations: int = 4,
    force_emulation: bool = False,
    channel: str = "shm",
    progress: str = "polled",
    substrate: str = "inproc",
    timeout: float = 300.0,
) -> list[dict]:
    """Drive :class:`HaloExchange` over a world; per-rank result dicts."""
    return mpiexec(
        nranks,
        HaloExchange(rows, cols, iterations, force_emulation),
        channel=channel,
        progress=progress,
        substrate=substrate,
        timeout=timeout,
    )
