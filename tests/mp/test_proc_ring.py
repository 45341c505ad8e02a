"""The ring data plane sock and proc share: the ring, then the channels.

First the :class:`~repro.mp.channels.sock.Ring` alone, over a plain
``bytearray`` (no process, no mapping): its cursor layout — the torn-cursor
finding pinned as a unit test — and its byte-stream contract under the
channel's own write / backlog / drain discipline.  Then the channels (a
malformed frame attributed to its sender on both ring fabrics; on proc's
address-less fabric, frames larger than a ring, the teardown flush and the
router refusing data), and last, behind ``-m realproc``, real worker
processes.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import PacketRouter
from repro.cluster.world import mpiexec
from repro.mp.buffers import BufferDesc
from repro.mp.channels import FABRICS
from repro.mp.channels.proc import RING_CAPACITY
from repro.mp.channels.sock import HEAD_SLOT, RING_HEADER, TAIL_SLOT, Ring
from repro.mp.channels.wire import PKT, FrameReader, decode_packet_body, encode_frame
from repro.mp.datatypes import LONG
from repro.mp.errors import ERRORS_RETURN, MpiErrProcFailed
from repro.mp.packets import EAGER, HEADER_SIZE, Packet
from repro.simtime import CostModel, WallClock

LAUNCH_TIMEOUT = 60.0
DRAIN_TIMEOUT = 10.0
TAG = 11


def _ring(capacity: int) -> Ring:
    return Ring(bytearray(RING_HEADER + capacity), capacity=capacity)


def _pattern(nbytes: int, salt: int = 0) -> bytes:
    return bytes((i * 7 + salt) & 0xFF for i in range(nbytes))


class TestRingLayout:
    def test_cursors_are_native_u64(self):
        cur = _ring(64)._cur
        assert cur.format == "Q" and cur.itemsize == 8

    def test_cursors_aligned_on_distinct_cache_lines(self):
        head, tail = HEAD_SLOT * 8, TAIL_SLOT * 8
        assert head % 8 == 0 and tail % 8 == 0
        assert head // 64 != tail // 64
        assert max(head, tail) + 8 <= RING_HEADER
        # every ring of a mapping starts 8-byte aligned
        assert (RING_HEADER + RING_CAPACITY) % 8 == 0

    @pytest.mark.parametrize("capacity", [0, 3, 96])
    def test_capacity_must_be_a_power_of_two(self, capacity):
        with pytest.raises(ValueError):
            _ring(capacity)

    def test_a_full_ring_refuses_without_clobbering(self):
        ring = _ring(64)
        assert ring.write(memoryview(_pattern(100))) == 64
        assert ring.write(memoryview(b"late")) == 0
        assert len(ring) == 64
        assert ring.read() == _pattern(100)[:64]
        assert ring.read() == b"" and len(ring) == 0

    def test_wrap_at_every_offset(self):
        cap = 64
        for pos in range(cap):
            ring = _ring(cap)
            ring.write(memoryview(bytes(pos)))
            ring.read()  # both cursors now sit at pos
            chunk = _pattern(cap, salt=pos)
            assert ring.write(memoryview(chunk)) == cap  # wraps unless pos == 0
            assert len(ring) == cap
            assert ring.read() == chunk


class _Pipe:
    """One direction of the channel in miniature: a ring, the sender's
    backlog, the receiver's decoder — ``SockChannel``'s own discipline."""

    def __init__(self, capacity: int) -> None:
        self.ring = _ring(capacity)
        self.backlog = bytearray()
        self.reader = FrameReader()
        self.got: list[bytes] = []

    def send(self, body: bytes) -> None:
        frame = memoryview(encode_frame(PKT, 0, body))
        n = 0 if self.backlog else self.ring.write(frame)
        self.backlog += frame[n:]

    def flush(self) -> None:
        with memoryview(self.backlog) as mv:
            n = self.ring.write(mv)
        del self.backlog[:n]

    def drain(self) -> None:
        self.got += [body for _t, _a, body in self.reader.feed(self.ring.read())]


@st.composite
def _ring_scripts(draw):
    cap = draw(st.sampled_from([64, 256, 4096]))
    size = st.one_of(
        st.sampled_from([0, cap - 4, cap, 3 * cap]), st.integers(0, 2 * cap)
    )
    op = st.one_of(size, st.sampled_from(["flush", "drain"]))
    return cap, draw(st.lists(op, max_size=40))


class TestRingStream:
    @settings(max_examples=150, deadline=None)
    @given(_ring_scripts())
    def test_frames_arrive_fifo_and_byte_identical(self, script):
        cap, ops = script
        pipe, sent = _Pipe(cap), []
        for op in ops:
            if op == "flush":
                pipe.flush()
            elif op == "drain":
                pipe.drain()  # mid-frame whenever the ring held only a piece
            else:
                sent.append(_pattern(op, salt=len(sent)))
                pipe.send(sent[-1])
            assert 0 <= len(pipe.ring) <= cap
        for _ in range(len(pipe.backlog) // cap + 2):
            pipe.flush()
            pipe.drain()
        assert not pipe.backlog and len(pipe.ring) == 0
        assert pipe.got == sent


class TestDecodeDefectsAreValueErrors:
    def test_short_packet_body(self):
        with pytest.raises(ValueError):
            decode_packet_body(b"\0" * 10)

    def test_torn_payload(self):
        body = Packet(ptype=EAGER, src=0, dst=1, payload=b"abcdef").encode()
        with pytest.raises(ValueError):
            decode_packet_body(body[:-2])

    @pytest.mark.parametrize("length", [0, 4, 0xFFFFFFFF])
    def test_impossible_frame_length(self, length):
        with pytest.raises(ValueError):
            list(FrameReader().feed(length.to_bytes(4, "little") + b"\0" * 8))


def _pkt(src, dst, tag, payload=b"x"):
    return Packet(ptype=EAGER, src=src, dst=dst, tag=tag, op_id=tag, payload=payload)


def _drain(ch, want, also_poll=()):
    got = []
    deadline = time.monotonic() + DRAIN_TIMEOUT
    while len(got) < want:
        for other in also_poll:  # a sender pushes its backlog when it polls
            other.recv_packets()
        got.extend(ch.recv_packets())
        assert time.monotonic() < deadline, f"{len(got)}/{want} packets"
    return got


def _trio(name):
    fab = FABRICS[name](3)
    return fab, [fab.endpoint(r, WallClock(), CostModel()) for r in range(3)]


@pytest.fixture
def trio():
    fab, chans = _trio("proc")
    yield chans
    fab.shutdown()


@pytest.fixture
def ring_trios():
    """Three ranks on each fabric the ring data plane carries."""
    fabs, trios = zip(*(_trio(name) for name in ("sock", "proc")))
    yield trios
    for fab in fabs:
        fab.shutdown()


class TestChannelOverRings:
    def test_frame_larger_than_the_ring_arrives_in_pieces(self, trio):
        c0, c1, _ = trio
        big = _pattern(3 * RING_CAPACITY + 75)
        c0.send_packet(_pkt(0, 1, 1, big))
        c0.send_packet(_pkt(0, 1, 2, b"after"))  # queues behind the backlog
        first, second = _drain(c1, 2, also_poll=[c0])
        assert (first.tag, bytes(first.payload_mv())) == (1, big)
        assert (second.tag, bytes(second.payload_mv())) == (2, b"after")

    def test_self_send_crosses_the_diagonal_ring(self, trio):
        c0 = trio[0]
        body = _pattern(RING_CAPACITY + 75)
        c0.send_packet(_pkt(0, 0, 5, body))
        (got,) = _drain(c0, 1)
        assert bytes(got.payload_mv()) == body

    def test_has_incoming_sees_the_ring_before_the_socket(self, trio):
        c0, c1, _ = trio
        _drain_control(c1)
        assert not c1.has_incoming()
        c0.send_packet(_pkt(0, 1, 1))
        assert c1.has_incoming()  # no poll in between: the cursors say so

    def test_teardown_flushes_the_backlog(self, trio):
        """Finding 3: the tail of a frame one byte larger than the ring
        must not die with its sender."""
        c0, c1, _ = trio
        body = _pattern(RING_CAPACITY)  # + header + frame head = capacity + 75
        assert HEADER_SIZE + 9 == 75
        c0.send_packet(_pkt(0, 1, 1, body))
        assert c0._backlog[1]
        got = []
        peer = threading.Thread(target=lambda: got.extend(_drain(c1, 1)), daemon=True)
        peer.start()
        c0.finalize()  # no further poll from c0: finalize alone must deliver
        peer.join(DRAIN_TIMEOUT)
        assert not peer.is_alive()
        assert bytes(got[0].payload_mv()) == body

    def test_malformed_frame_kills_its_sender_only(self, ring_trios):
        for c0, c1, c2 in ring_trios:
            dead = []
            c0.on_peer_dead = dead.append
            c1.send_packet(_pkt(1, 0, 1))
            assert [p.tag for p in _drain(c0, 1)] == [1]
            c1._tx[0].write(memoryview(b"\xff" * 16))  # a garbage length prefix
            c1.send_packet(_pkt(1, 0, 2))
            c2.send_packet(_pkt(2, 0, 3))
            assert [(p.src, p.tag) for p in _drain(c0, 1)] == [(2, 3)]
            assert dead == [1] and c0.dead_ranks == {1}, c0.name
            assert c0.recv_packets() == []  # rank 1's ring is read no more
            c0.send_packet(_pkt(0, 1, 4))  # dropped: nobody will drain that ring
            assert len(c0._tx[1]) == 0 and not c0._backlog[1]

    def test_frame_for_another_rank_is_malformed(self, ring_trios):
        for c0, c1, _ in ring_trios:
            dead = []
            c0.on_peer_dead = dead.append
            c1._tx[0].write(memoryview(encode_frame(PKT, 2, _pkt(1, 2, 1).encode())))
            assert c0.recv_packets() == []
            assert dead == [1], c0.name


def _drain_control(ch):
    """Let the boot-time GO land so the control socket is quiet."""
    deadline = time.monotonic() + DRAIN_TIMEOUT
    while not ch.ready:
        ch.recv_packets()
        assert time.monotonic() < deadline


class GarbageMain:
    """Rank 1 corrupts its ring to rank 0; rank 0's posted recv from it
    fails typed, and rank 0 <-> rank 2 traffic carries on."""

    def __call__(self, ctx):
        eng = ctx.engine
        ctx.comm_world.errhandler = ERRORS_RETURN
        buf = BufferDesc.from_bytes(bytearray(8))
        if ctx.rank == 1:
            eng.device.channel._tx[0].write(memoryview(b"\xff" * 16))
            return "corrupted"
        if ctx.rank == 2:
            eng.send(BufferDesc.from_bytes(b"rank-two"), 0, TAG)
            eng.recv(buf, 0, TAG)
            return buf.tobytes()
        with pytest.raises(MpiErrProcFailed):
            eng.recv(buf, 1, TAG)
        eng.recv(buf, 2, TAG)
        eng.send(BufferDesc.from_bytes(b"rank-nil"), 2, TAG)
        return buf.tobytes()


def test_garbage_on_a_ring_is_proc_failed_for_that_peer():
    results = mpiexec(3, GarbageMain(), channel="proc", timeout=LAUNCH_TIMEOUT)
    assert results == [b"rank-two", "corrupted", b"rank-nil"]


def test_router_closes_a_connection_that_sends_it_a_packet():
    router = PacketRouter(2)
    router.start()
    try:
        with socket.create_connection(router.address, timeout=5.0) as conn:
            conn.sendall(encode_frame(PKT, 1, _pkt(0, 1, 1).encode()))
            assert conn.recv(64) == b""  # closed on us: nothing was relayed
        assert router.frames_forwarded == 0
    finally:
        router.stop()


class RouterLostMain:
    """Rank 0 loses the router under a posted receive: every peer becomes
    unreachable, so the wait ends typed instead of spinning or leaking the
    socket's ``OSError``."""

    def __call__(self, ctx):
        eng = ctx.engine
        ctx.comm_world.errhandler = ERRORS_RETURN
        if ctx.rank == 1:
            return "idle"
        req = eng.irecv(BufferDesc.from_bytes(bytearray(8)), 1, TAG)
        ctx.world.fabric._router.stop()
        with pytest.raises(MpiErrProcFailed) as err:
            eng.wait(req, timeout=DRAIN_TIMEOUT)
        ch = eng.device.channel
        ch.finalize()
        return sorted(err.value.failed), sorted(ch.dead_ranks), ch._closed


def test_losing_the_router_is_proc_failed_for_every_peer():
    results = mpiexec(2, RouterLostMain(), channel="proc", timeout=LAUNCH_TIMEOUT)
    assert results == [([1], [1], True), "idle"]


# -- real processes ------------------------------------------------------------------


class ExchangeMain:
    """pp_small's and pp_large's frames, back to back: 20 000 round trips
    of 139-byte frames, then 200 of (capacity + 75)-byte ones.  Rank 1's
    last act is a send whose tail sits on its backlog when main returns."""

    ROUNDS = ((20_000, 64), (200, RING_CAPACITY))

    def __call__(self, ctx):
        eng, peer = ctx.engine, 1 - ctx.rank
        bad = 0
        for rounds, nbytes in self.ROUNDS:
            out = BufferDesc.from_bytes(_pattern(nbytes, salt=ctx.rank))
            expect = _pattern(nbytes, salt=peer)
            for _ in range(rounds):
                inbuf = BufferDesc.from_bytes(bytearray(nbytes))
                if ctx.rank == 0:
                    eng.send(out, peer, TAG)
                    eng.recv(inbuf, peer, TAG)
                else:
                    eng.recv(inbuf, peer, TAG)
                    eng.send(out, peer, TAG)
                bad += inbuf.tobytes() != expect
        return bad


class RingCollectiveMain:
    """A 4-rank allreduce, then a Sendrecv with oneself over the diagonal."""

    def __call__(self, ctx):
        eng = ctx.engine
        sendbuf = BufferDesc.from_bytes(LONG.pack_values([ctx.rank + 1]))
        recvbuf = BufferDesc.from_bytes(bytearray(LONG.size))
        eng.wait(eng.iallreduce(sendbuf, recvbuf, LONG))
        body = _pattern(RING_CAPACITY + 1, salt=ctx.rank)
        inbuf = BufferDesc.from_bytes(bytearray(len(body)))
        recv = eng.irecv(inbuf, ctx.rank, TAG)
        eng.wait_all([recv, eng.isend(BufferDesc.from_bytes(body), ctx.rank, TAG)])
        return LONG.unpack_values(recvbuf.tobytes())[0], inbuf.tobytes() == body


class SurvivorSaw(RuntimeError):
    """Carries what the surviving rank observed back through the launcher."""


class DyingMidStreamMain:
    """Rank 1 sends five messages and half a frame, then its process dies."""

    def __call__(self, ctx):
        eng = ctx.engine
        ctx.comm_world.errhandler = ERRORS_RETURN
        if ctx.rank == 1:
            for _ in range(5):
                eng.send(BufferDesc.from_bytes(b"complete"), 0, TAG)
            frame = encode_frame(PKT, 0, _pkt(1, 0, TAG, b"never finished").encode())
            eng.device.channel._tx[0].write(memoryview(frame)[:40])
            os._exit(1)
        buf = BufferDesc.from_bytes(bytearray(8))
        for n in range(6):
            try:
                eng.recv(buf, 1, TAG)
            except MpiErrProcFailed:
                raise SurvivorSaw(f"MpiErrProcFailed after {n} messages") from None
        return "peer never died"


@pytest.mark.realproc
class TestRealProcesses:
    def test_small_and_ring_sized_frames_round_trip(self):
        assert mpiexec(2, ExchangeMain(), substrate="proc", timeout=LAUNCH_TIMEOUT) == [0, 0]

    def test_allreduce_and_self_sendrecv(self):
        results = mpiexec(4, RingCollectiveMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)
        assert results == [(10, True)] * 4

    def test_death_mid_stream_is_proc_failed_on_the_survivor(self):
        t0 = time.monotonic()
        with pytest.raises(SurvivorSaw, match="MpiErrProcFailed after 5 messages"):
            mpiexec(2, DyingMidStreamMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)
        assert time.monotonic() - t0 < 20.0

    def test_no_named_segment_is_left_behind(self):
        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        mpiexec(2, RingCollectiveMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)
        after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        assert after <= before
