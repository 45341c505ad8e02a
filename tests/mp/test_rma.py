"""One-sided RMA windows: sync flavors, native/emulated parity, rules.

Covers the three MPI-2 synchronization flavors over ``MpiEngine.win_create``
windows (fence, post/start/complete/wait, passive lock/unlock — the last
driven entirely by async progress on the target), negotiation fallbacks,
the equivalence of the native channel path and its packet-plane emulation
(same bytes, different ledgers), the epoch causal-floor accounting (two
concurrent epochs must not serialize), and the sanitizer's MA-R06/MA-R07
epoch rules.
"""

import array
import time

import pytest

from repro.cluster import mpiexec
from repro.mp.buffers import BufferDesc
from repro.mp.errors import MpiErrRma

pytestmark = pytest.mark.rma


def ints(*vals):
    return BufferDesc.from_bytes(array.array("i", vals).tobytes())


def read_ints(buf):
    a = array.array("i")
    a.frombytes(buf.tobytes())
    return list(a)


# --------------------------------------------------------------- fence


class _FencePut:
    def __init__(self, force_emulation=False):
        self.force = force_emulation

    def __call__(self, ctx):
        buf = ints(*([ctx.rank * 10 + i for i in range(4)]))
        win = ctx.engine.win_create(buf, dtype="int32",
                                    force_emulation=self.force)
        src = ints(77 + ctx.rank, 88 + ctx.rank)
        win.fence()
        win.put(src, target=(ctx.rank + 1) % ctx.size, target_offset=8)
        win.fence()
        out = read_ints(buf)
        st = dict(ctx.engine.device.stats)
        win.free()
        return out, st["rma_native_ops"], st["rma_emulated_ops"]


class TestFence:
    def test_fence_put_native_shm(self):
        res = mpiexec(2, _FencePut(), channel="shm", clock_mode="virtual",
                      timeout=120)
        assert res[0][0] == [0, 1, 78, 89]
        assert res[1][0] == [10, 11, 77, 88]
        assert all(r[1] == 1 and r[2] == 0 for r in res)

    def test_fence_put_emulated_matches(self):
        res = mpiexec(2, _FencePut(force_emulation=True), channel="shm",
                      clock_mode="virtual", timeout=120)
        assert res[0][0] == [0, 1, 78, 89]
        assert res[1][0] == [10, 11, 77, 88]
        assert all(r[1] == 0 and r[2] == 1 for r in res)

    def test_fence_put_sock_falls_back(self):
        # sock has no native RMA: same results via the packet plane
        res = mpiexec(2, _FencePut(), channel="sock", clock_mode="virtual",
                      timeout=120)
        assert res[0][0] == [0, 1, 78, 89]
        assert all(r[1] == 0 and r[2] == 1 for r in res)


# ---------------------------------------------------------------- PSCW


def _pscw_main(ctx):
    buf = ints(*([ctx.rank + 1] * 4))
    win = ctx.engine.win_create(buf, dtype="int32")
    if ctx.rank == 0:
        win.start([1])
        win.put(ints(7, 8, 9, 10), target=1, target_offset=0)
        win.complete()
    else:
        win.post([0])
        win.wait()
    out = read_ints(buf)
    win.free()
    return out


class TestPscw:
    def test_pscw_sock(self):
        res = mpiexec(2, _pscw_main, channel="sock", clock_mode="virtual",
                      timeout=120)
        assert res[1] == [7, 8, 9, 10]

    def test_pscw_shm(self):
        res = mpiexec(2, _pscw_main, channel="shm", clock_mode="virtual",
                      timeout=120)
        assert res[1] == [7, 8, 9, 10]


# ------------------------------------------------------------- passive


def _passive_main(ctx):
    buf = ints(*([100 + ctx.rank] * 4))
    win = ctx.engine.win_create(buf, dtype="int32")
    if ctx.rank == 0:
        win.lock(1)
        win.put(ints(41, 42, 43, 44), target=1, target_offset=0)
        win.unlock(1)
        ctx.engine.barrier()
    else:
        # pure compute modeled as virtual-clock charges: the async task
        # drives lock grant + landing without this rank ever calling in
        spun = 0
        while spun < 20_000:
            ctx.clock.charge(5_000.0)
            time.sleep(0)
            spun += 1
        ctx.engine.barrier()
    out = read_ints(buf)
    win.free()
    return out


class TestPassive:
    def test_lock_put_unlock_async_progress(self):
        res = mpiexec(2, _passive_main, channel="shm", clock_mode="virtual",
                      progress="async", timeout=120)
        assert res[1] == [41, 42, 43, 44]

    def test_exclusive_lock_serializes(self):
        def main(ctx):
            buf = ints(0, 0)
            win = ctx.engine.win_create(buf, dtype="int32")
            if ctx.rank in (0, 1):
                win.lock(2)
                win.accumulate(ints(1, 1), target=2, target_offset=0)
                win.unlock(2)
            ctx.engine.barrier()
            out = read_ints(buf)
            win.free()
            return out

        res = mpiexec(3, main, channel="shm", clock_mode="virtual",
                      timeout=120)
        assert res[2] == [2, 2]


# --------------------------------------------------- accumulate parity


def _acc_arm(force):
    def main(ctx):
        buf = ints(*([10 + ctx.rank] * 4)) if ctx.rank == 1 else ints(0, 0, 0, 0)
        win = ctx.engine.win_create(buf, dtype="int32", force_emulation=force)
        win.fence()
        if ctx.rank == 0:
            win.accumulate(ints(10, 11, 12, 13), target=1, target_offset=0)
        win.fence()
        out = read_ints(buf)
        st = dict(ctx.engine.device.stats)
        win.free()
        return out, st["rma_native_ops"], st["rma_emulated_ops"]

    return main


class TestAccumulate:
    def test_native_vs_emulated_equivalence(self):
        rn = mpiexec(2, _acc_arm(False), channel="shm", clock_mode="virtual",
                     timeout=120)
        re_ = mpiexec(2, _acc_arm(True), channel="shm", clock_mode="virtual",
                      timeout=120)
        assert rn[1][0] == re_[1][0] == [21, 22, 23, 24]
        assert rn[0][1] == 1 and rn[0][2] == 0    # native arm
        assert re_[0][1] == 0 and re_[0][2] == 1  # emulated arm

    def test_integer_sums_wrap_on_both_paths(self):
        """MPI_SUM wraps modulo the element width, as MPICH's compiled C
        reduction does: int32 max + 1 is min, byte 100 + 100 is -56."""

        def arm(force):
            def main(ctx):
                theirs = ctx.rank == 1
                wide = ints(2**31 - 1, 5) if theirs else ints(0, 0)
                narrow = BufferDesc.from_bytes(bytes([100, 7] if theirs else [0, 0]))
                wins = [ctx.engine.win_create(buf, dtype=dtype, force_emulation=force)
                        for buf, dtype in ((wide, "int32"), (narrow, "byte"))]
                for win in wins:
                    win.fence()
                if ctx.rank == 0:
                    wins[0].accumulate(ints(1, 1), target=1, target_offset=0)
                    wins[1].accumulate(BufferDesc.from_bytes(bytes([100, 1])),
                                       target=1, target_offset=0)
                for win in wins:
                    win.fence()
                st = dict(ctx.engine.device.stats)
                for win in wins:
                    win.free()
                return wide.tobytes() + narrow.tobytes(), st["rma_native_ops"], st["rma_emulated_ops"]

            return main

        native = mpiexec(2, arm(False), channel="shm", timeout=120)
        emulated = mpiexec(2, arm(True), channel="shm", timeout=120)
        assert native[0][1:] == (2, 0) and emulated[0][1:] == (0, 2)
        window = native[1][0]
        assert window == emulated[1][0]
        assert read_ints(BufferDesc.from_bytes(window[:8])) == [-(2**31), 6]
        assert array.array("b", window[8:]).tolist() == [-56, 8]


# ------------------------------------------------------------ get path


def _get_main(ctx):
    buf = ints(*([ctx.rank * 5 + i for i in range(4)]))
    win = ctx.engine.win_create(buf, dtype="int32")
    got = ints(0, 0)
    win.fence()
    if ctx.rank == 0:
        win.get(got, target=1, target_offset=4)
    win.fence()
    win.free()
    return read_ints(got)


class TestGet:
    def test_get_native_shm(self):
        res = mpiexec(2, _get_main, channel="shm", clock_mode="virtual",
                      timeout=120)
        assert res[0] == [6, 7]

    def test_get_emulated_sock(self):
        res = mpiexec(2, _get_main, channel="sock", clock_mode="virtual",
                      timeout=120)
        assert res[0] == [6, 7]


# --------------------------------------------------------------- guards


class TestGuards:
    def test_out_of_range_put_raises(self):
        def main(ctx):
            buf = ints(0, 0)
            win = ctx.engine.win_create(buf, dtype="int32")
            win.fence()
            try:
                if ctx.rank == 0:
                    win.put(ints(1, 2, 3), target=1, target_offset=4)
                return "no-raise"
            except MpiErrRma:
                return "raised"
            finally:
                win.fence()
                win.free()

        res = mpiexec(2, main, channel="shm", timeout=120)
        assert res[0] == "raised"

    def test_use_after_free_raises(self):
        def main(ctx):
            buf = ints(0, 0)
            win = ctx.engine.win_create(buf, dtype="int32")
            win.free()
            win.free()  # idempotent
            try:
                win.fence()
                return "no-raise"
            except MpiErrRma:
                return "raised"

        res = mpiexec(2, main, channel="shm", timeout=120)
        assert res == ["raised", "raised"]

    def test_bad_dtype_rejected(self):
        def main(ctx):
            buf = ints(0, 0)
            try:
                ctx.engine.win_create(buf, dtype="float16")
                return "no-raise"
            except MpiErrRma:
                # creation is collective: peers still need the real one
                win = ctx.engine.win_create(buf, dtype="int32")
                win.free()
                return "raised"

        res = mpiexec(2, main, channel="shm", timeout=120)
        assert res == ["raised", "raised"]


# --------------------------------------------- epoch causal accounting


class _TimedHalo:
    """One fence epoch, both ranks put concurrently; returns epoch ns."""

    def __init__(self, nbytes, force_emulation=False):
        self.nbytes = nbytes
        self.force = force_emulation

    def __call__(self, ctx):
        buf = BufferDesc.from_bytes(bytes(self.nbytes))
        win = ctx.engine.win_create(buf, dtype="int32",
                                    force_emulation=self.force)
        src = BufferDesc.from_bytes(bytes(self.nbytes))
        win.fence()
        win.fence()  # settle clocks before the timed epoch
        t = ctx.clock.now()
        win.fence()
        win.put(src, target=(ctx.rank + 1) % 2, target_offset=0)
        win.fence()
        dt = ctx.clock.now() - t
        win.free()
        return dt


class TestEpochAccounting:
    def test_concurrent_epochs_do_not_serialize(self):
        """A wall-time-fast rank's epoch-close packet must not jump the
        slow rank's clock mid-epoch: each rank's epoch costs its own
        charges plus the shared sync, not the sum of both ranks'."""
        nbytes = 1 << 18
        res = mpiexec(2, _TimedHalo(nbytes), channel="shm",
                      clock_mode="virtual", timeout=120)
        per_byte = 9.5 * 0.2  # shm native RMA fraction of CostModel default
        own = nbytes * per_byte
        for dt in res:
            assert dt < own * 1.5, (
                f"epoch took {dt:.0f}ns for {own:.0f}ns of own charges: "
                "peer traffic serialized into the epoch"
            )

    def test_native_beats_emulation_on_large_windows(self):
        nbytes = 1 << 18
        nat = mpiexec(2, _TimedHalo(nbytes), channel="shm",
                      clock_mode="virtual", timeout=120)
        emu = mpiexec(2, _TimedHalo(nbytes, force_emulation=True),
                      channel="shm", clock_mode="virtual", timeout=120)
        for r in range(2):
            assert emu[r] / nat[r] >= 2.0, (nat, emu)


# ------------------------------------------------------ sanitizer rules


def _no_epoch_main(ctx):
    buf = ints(0, 0, 0, 0)
    win = ctx.engine.win_create(buf, dtype="int32")
    if ctx.rank == 0:
        win.put(ints(1, 2), target=1, target_offset=0)  # no epoch at all
    ctx.engine.barrier()
    win.free()
    return True


def _overlap_main(ctx):
    buf = ints(0, 0, 0, 0)
    win = ctx.engine.win_create(buf, dtype="int32")
    win.fence()
    if ctx.rank == 0:
        win.put(ints(1, 2), target=1, target_offset=0)
        win.put(ints(3, 4), target=1, target_offset=4)  # [4,12) vs [0,8)
    win.fence()
    win.free()
    return True


def _clean_main(ctx):
    buf = ints(0, 0, 0, 0)
    win = ctx.engine.win_create(buf, dtype="int32")
    win.fence()
    if ctx.rank == 0:
        win.put(ints(1, 2), target=1, target_offset=0)
        win.put(ints(3, 4), target=1, target_offset=8)  # disjoint
    win.fence()
    win.fence()
    if ctx.rank == 0:
        win.put(ints(5, 6), target=1, target_offset=0)  # new epoch, same range
        win.accumulate(ints(1, 1), target=1, target_offset=8)
        win.accumulate(ints(1, 1), target=1, target_offset=8)  # acc+acc is ordered
    win.fence()
    win.free()
    return True


class TestSanitizerRma:
    def test_ma_r06_op_outside_epoch(self):
        report = mpiexec(2, _no_epoch_main, channel="shm", sanitize="enabled",
                         timeout=120).report
        r06 = report.by_rule("MA-R06")
        assert len(r06) == 1 and r06[0].rank == 0, report.render_text()

    def test_ma_r07_overlapping_puts(self):
        report = mpiexec(2, _overlap_main, channel="shm", sanitize="enabled",
                         timeout=120).report
        r07 = report.by_rule("MA-R07")
        assert len(r07) == 1 and r07[0].rank == 0, report.render_text()

    def test_clean_epochs_produce_no_findings(self):
        report = mpiexec(2, _clean_main, channel="shm", sanitize="enabled",
                         timeout=120).report
        assert not report.findings, report.render_text()
