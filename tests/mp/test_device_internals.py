"""CH3 device internals: rendezvous truncation, sync paths, stats."""

import pytest

from repro.cluster import mpiexec
from repro.mp import MpiErrTruncate
from repro.mp.buffers import BufferDesc, NativeMemory


class TestRendezvousTruncation:
    @staticmethod
    def _truncated(channel):
        """A 200 KiB rendezvous into a 64 KiB buffer: error surfaces, the
        buffer holds the prefix, nothing past the descriptor is written.
        Returns (size, cap, bytes moved, bytes copied) at the receiver."""
        size = 200 * 1024
        cap = 64 * 1024
        payload = bytes(i % 251 for i in range(size))

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                eng.send(BufferDesc.from_bytes(payload), 1, 1)
                return None
            guard_before = b"\xaa" * 64
            region = NativeMemory(cap + 64)
            region.mem[cap:] = guard_before  # canary after the buffer
            with pytest.raises(MpiErrTruncate):
                eng.recv(BufferDesc.from_native(region, 0, cap), 0, 1)
            return (
                bytes(region.mem[:cap]) == payload[:cap],
                bytes(region.mem[cap:]) == guard_before,
                eng.device.stats["bytes_moved"],
                eng.device.stats["bytes_copied"],
            )

        prefix_ok, canary_ok, moved, copied = mpiexec(2, main, channel=channel)[1]
        assert prefix_ok, "received prefix differs"
        assert canary_ok, "transport wrote past the descriptor"
        return size, cap, moved, copied

    def test_rndv_message_larger_than_buffer(self):
        """On shm the CTS grants exactly the buffer: the sender puts the
        prefix, the truncated tail never leaves it, nothing is copied."""
        _size, cap, moved, copied = self._truncated("shm")
        assert moved == cap
        assert copied == 0

    def test_rndv_message_larger_than_buffer_on_sock(self):
        """The DATA stream: every streamed byte is accepted (moved) but only
        the landing prefix is ever copied — tail bytes touch no memory."""
        size, cap, moved, copied = self._truncated("sock")
        assert moved == size
        assert copied == cap

    def test_unexpected_rndv_then_small_recv(self):
        """RTS arrives before the receive is posted AND the receive is too
        small: still a clean truncation error."""
        size = 200 * 1024

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                # non-blocking: a blocking rendezvous send cannot complete
                # before the (post-barrier) receive clears it to stream
                req = eng.isend(BufferDesc.from_bytes(b"\x55" * size), 1, 1)
                eng.barrier()
                eng.progress.wait(req)
                return None
            eng.barrier()  # ensure the RTS is queued as unexpected
            buf = NativeMemory(1024)
            with pytest.raises(MpiErrTruncate):
                eng.recv(BufferDesc.from_native(buf), 0, 1)
            return True

        assert mpiexec(2, main, channel="shm")[1] is True


class TestSyncModes:
    def test_ssend_rendezvous(self):
        """Synchronous semantics on the rendezvous path too."""
        size = 200 * 1024

        def main(ctx):
            eng = ctx.engine
            buf = NativeMemory(size)
            if ctx.rank == 0:
                eng.ssend(BufferDesc.from_native(buf), 1, 1)
                return eng.device.stats["rndv"]
            eng.recv(BufferDesc.from_native(buf), 0, 1)
            return None

        assert mpiexec(2, main, channel="shm")[0] == 1

    def test_stats_track_protocols(self):
        def main(ctx):
            eng = ctx.engine
            small = NativeMemory(64)
            big = NativeMemory(200 * 1024)
            if ctx.rank == 0:
                eng.send(BufferDesc.from_native(small), 1, 1)
                eng.send(BufferDesc.from_native(big), 1, 2)
                return (eng.device.stats["eager"], eng.device.stats["rndv"])
            eng.recv(BufferDesc.from_native(small), 0, 1)
            eng.recv(BufferDesc.from_native(big), 0, 2)
            return None

        # barrier traffic is eager too, so check >= for eager
        eager, rndv = mpiexec(2, main, channel="shm")[0]
        assert eager >= 1 and rndv == 1


class TestCancellation:
    def test_cancel_then_matching_message_goes_unexpected(self):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 1:
                buf = NativeMemory(4)
                req = eng.irecv(BufferDesc.from_native(buf), 0, 9)
                assert eng.cancel(req)
                eng.barrier()
                # the message the peer sent after the cancel is findable
                st = eng.probe(0, 9)
                got = NativeMemory(st.count)
                eng.recv(BufferDesc.from_native(got), 0, 9)
                return got.tobytes()
            eng.barrier()
            eng.send(BufferDesc.from_bytes(b"late"), 1, 9)
            return None

        assert mpiexec(2, main, channel="shm")[1] == b"late"

    def test_cancel_completed_request_fails(self):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                eng.send(BufferDesc.from_bytes(b"x"), 1, 3)
            else:
                buf = NativeMemory(1)
                req = eng.irecv(BufferDesc.from_native(buf), 0, 3)
                eng.wait(req)
                return eng.cancel(req)
            return None

        assert mpiexec(2, main, channel="shm")[1] is False


class TestMergeAtMatch:
    """A two-sided arrival lands its timestamp where it is *matched*:
    on arrival if a receive is posted, at ``post_recv`` if not."""

    AHEAD = 5_000_000.0  # the sender runs 5 ms ahead of the receiver

    def _pair(self):
        from repro.mp.ch3 import CH3Device
        from repro.mp.channels import FABRICS
        from repro.simtime import CostModel, VirtualClock

        fab, cm = FABRICS["shm"](2), CostModel()
        devs = []
        for rank in (0, 1):
            clock = VirtualClock()
            devs.append(CH3Device(rank, fab.endpoint(rank, clock, cm), clock, cm,
                                  eager_threshold=1024))
        devs[0].clock.charge(self.AHEAD)
        return devs[0], devs[1], cm

    def _send(self, d0, nbytes):
        from repro.mp.request import Request

        req = Request("send", BufferDesc.from_bytes(b"\x01" * nbytes), 1, 1, 0, nbytes)
        d0.start_send(req, 1)
        return req

    def _recv(self, d1, nbytes):
        from repro.mp.request import RECV, Request

        req = Request(RECV, BufferDesc.from_native(NativeMemory(nbytes)), 0, 1, 0, nbytes)
        d1.post_recv(req)
        return req

    def test_unexpected_eager_merges_at_post_recv(self):
        d0, d1, cm = self._pair()
        self._send(d0, 64)
        assert d1.poll() == 1 and d1.stats["unexpected"] == 1
        # drained, staged — and still at its own time plus the staging copy
        assert d1.clock.now() == cm.copy_per_byte_ns * 64
        ts = d1.queues.unexpected[0].ts
        assert ts > self.AHEAD
        rreq = self._recv(d1, 64)
        assert rreq.completed and d1.clock.now() > ts  # ts + the delivery copy

    def test_unexpected_rts_merges_at_post_recv(self):
        d0, d1, _cm = self._pair()
        self._send(d0, 4096)
        assert d1.poll() == 1 and d1.stats["unexpected"] == 1
        assert d1.clock.now() == 0.0  # an RTS stages nothing
        ts = d1.queues.unexpected[0].ts
        self._recv(d1, 4096)
        # the RTS's time, plus only what sending the CTS costs
        assert ts <= d1.clock.now() < ts + 10_000.0

    @pytest.mark.parametrize("nbytes", [64, 4096])
    def test_matched_arrival_merges_as_it_arrives(self, nbytes):
        d0, d1, _cm = self._pair()
        self._recv(d1, nbytes)
        self._send(d0, nbytes)
        assert d1.poll() == 1 and d1.stats["unexpected"] == 0
        assert d1.clock.now() > self.AHEAD
