"""The ring data plane: the ring, then the sock channel, then real processes.

First the :class:`~repro.mp.channels.sock.Ring` alone, over a plain
``bytearray`` (no process, no mapping): its cursor layout — the torn-cursor
finding pinned as a unit test.  Then the frame stream through the channel's
own sender and :class:`~repro.mp.channels.sock.RingReader` (FIFO and byte
identity, wrap points, frame defects); then the channel (a malformed frame
attributed to its sender, frames larger than a ring, the exit flush), and
last, behind ``-m realproc``, the proc substrate's worker processes, which
run that channel over their launcher's mapping: boot, death and the
launcher's own death.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster.procsub import _flush
from repro.cluster.world import mpiexec
from repro.mp.buffers import BufferDesc
from repro.mp.channels import FABRICS
from repro.mp.channels.sock import (
    HEAD_SLOT,
    LEAD,
    LENGTH_SIZE,
    MAX_FRAME,
    PKT,
    PREFIX,
    RING_CAPACITY,
    RING_HEADER,
    TAIL_SLOT,
    Ring,
    RingReader,
    SockChannel,
    SockFabric,
    control_block,
    packet_lead,
    ring_mapping,
)
from repro.mp.datatypes import LONG
from repro.mp.errors import ERRORS_RETURN, MpiErrProcFailed
from repro.mp.packets import EAGER, HEADER_SIZE, Packet
from repro.simtime import CostModel, WallClock

LAUNCH_TIMEOUT = 60.0
DRAIN_TIMEOUT = 10.0
TAG = 11


def _ring(capacity: int) -> Ring:
    return Ring(bytearray(RING_HEADER + capacity), capacity=capacity)


def _read(ring: Ring, n: int) -> bytes:
    buf = bytearray(n)
    assert ring.readinto(memoryview(buf)) == n
    return bytes(buf)


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

    def test_a_channel_refuses_a_ring_smaller_than_a_lead(self):
        with pytest.raises(ValueError, match="lead"):
            _pair(64)

    def test_a_full_ring_refuses_without_clobbering(self):
        ring = _ring(64)
        assert ring.write(memoryview(_pattern(100))) == 64
        assert ring.write(memoryview(b"late")) == 0
        assert len(ring) == 64
        assert _read(ring, 64) == _pattern(100)[:64]
        assert len(ring) == 0

    def test_wrap_at_every_offset(self):
        cap = 64
        for pos in range(cap):
            ring = _ring(cap)
            ring.write(memoryview(bytes(pos)))
            _read(ring, pos)  # both cursors now sit at pos
            chunk = _pattern(cap, salt=pos)
            assert ring.write(memoryview(chunk)) == cap  # wraps unless pos == 0
            assert len(ring) == cap
            assert _read(ring, cap) == chunk

    def test_parts_are_written_in_order_and_published_together(self):
        ring = _ring(64)
        _read(ring, ring.write(memoryview(bytes(60))))
        assert ring.write(b"lead", memoryview(_pattern(100))) == 64
        assert len(ring) == 64
        assert _read(ring, 64) == b"lead" + _pattern(60)

    def test_readinto_spans_the_wrap(self):
        ring = _ring(64)
        ring.write(memoryview(bytes(60)))
        _read(ring, 60)
        ring.write(memoryview(_pattern(10)))
        buf = bytearray(16)
        assert ring.readinto(memoryview(buf)) == 10
        assert buf[:10] == _pattern(10) and len(ring) == 0


def _pkt(src, dst, tag, payload=b"x"):
    return Packet(ptype=EAGER, src=src, dst=dst, tag=tag, op_id=tag, payload=payload)


def _frame(pkt: Packet) -> bytes:
    """The bytes ``send_packet`` puts on the wire for ``pkt``."""
    return packet_lead(pkt) + bytes(pkt.payload_mv())


def _pair(capacity: int) -> tuple[SockChannel, SockChannel]:
    """Ranks 0 and 1 over one mapping of ``capacity``-byte rings."""
    mapping = ring_mapping(2, capacity)
    return tuple(SockChannel(r, WallClock(), CostModel(), mapping, 2) for r in range(2))


def _align(c0: SockChannel, c1: SockChannel, pos: int) -> None:
    """Move both cursors of the ring 0 -> 1 to ``pos``."""
    c0._tx[1].write(memoryview(bytes(pos)))
    _read(c1._rx[0].ring, pos)


@st.composite
def _ring_scripts(draw):
    cap = draw(st.sampled_from([128, 256, 4096]))
    # payload sizes: empty, a frame of exactly 1x and 3x the ring, one
    # that overflows it by a byte, anything up to twice the ring
    size = st.one_of(
        st.sampled_from([0, cap - LEAD, cap - LEAD + 1, 3 * cap - LEAD]), st.integers(0, 2 * cap)
    )
    op = st.one_of(size, st.sampled_from(["flush", "drain"]))
    return cap, draw(st.integers(0, cap - 1)), draw(st.lists(op, max_size=40))


class TestRingStream:
    """The channel's sender and its :class:`RingReader`, over one ring."""

    @settings(max_examples=150, deadline=None)
    @given(_ring_scripts())
    def test_frames_arrive_fifo_and_byte_identical(self, script):
        cap, start, ops = script
        c0, c1 = _pair(cap)
        _align(c0, c1, start)
        sent, got = [], []
        for op in ops:
            if op == "flush":
                c0.flush_all()
            elif op == "drain":
                got += c1.recv_packets()  # mid-frame whenever the ring held only a piece
            else:
                sent.append(_pattern(op, salt=len(sent)))
                c0.send_packet(_pkt(0, 1, len(sent), sent[-1]))
            assert 0 <= len(c0._tx[1]) <= cap
        # each poll completes a frame or consumes a ring's worth of one
        for _ in range(len(sent) + c0.tx_backlog // cap + 2):
            c0.flush_all()
            got += c1.recv_packets()
        assert c0.tx_backlog == 0 and len(c0._tx[1]) == 0
        assert [p.tag for p in got] == list(range(1, len(sent) + 1))
        assert [p.payload for p in got] == sent
        assert all(type(p.payload) is bytes for p in got)

    @pytest.mark.parametrize("plen", [0, 1, 100], ids=lambda n: f"payload{n}")
    def test_every_wrap_offset(self, plen):
        """From every start offset: the lead straddles the wrap point, then
        the payload does, then neither."""
        cap = 256
        for pos in range(cap):
            c0, c1 = _pair(cap)
            _align(c0, c1, pos)
            body = _pattern(plen, salt=pos)
            c0.send_packet(_pkt(0, 1, 7, body))
            assert c0.tx_backlog == 0
            (got,) = c1.recv_packets()
            assert (got.tag, got.payload) == (7, body)
            assert len(c1._rx[0].ring) == 0

    @pytest.mark.parametrize("frames", [1, 3])
    def test_frame_of_a_multiple_of_the_ring(self, frames):
        cap = 256
        c0, c1 = _pair(cap)
        body = _pattern(frames * cap - LEAD)
        c0.send_packet(_pkt(0, 1, 1, body))
        c0.send_packet(_pkt(0, 1, 2, b""))
        got = []
        for _ in range(frames + 2):
            got += c1.recv_packets()
            c0.flush_all()
        assert [(p.tag, p.payload) for p in got] == [(1, body), (2, b"")]


@pytest.mark.parametrize(
    "mapping",
    [lambda: SockFabric(2).mapping, lambda: ring_mapping(2)],
    ids=["sock-fabric", "proc-launcher"],
)
def test_an_eager_threshold_frame_lands_whole(mapping):
    """Both fabrics' rings hold the largest eager frame: it is written in
    one go, nothing waits on the backlog, and one poll delivers it."""
    m = mapping()
    c0, c1 = (SockChannel(r, WallClock(), CostModel(), m, 2) for r in range(2))
    assert c0._tx[1].capacity == RING_CAPACITY
    body = _pattern(CostModel().eager_threshold)
    c0.send_packet(_pkt(0, 1, 1, body))
    assert c0.tx_backlog == 0
    (got,) = c1.recv_packets()
    assert got.payload == body


#: a lone frame prefix for each defect it alone reveals
BAD_PREFIXES = {
    "length-zero": PREFIX.pack(0, PKT, 0),
    "shorter-than-a-lead": PREFIX.pack(LEAD - LENGTH_SIZE - 1, PKT, 0),
    "over-max-frame": PREFIX.pack(MAX_FRAME + 1, PKT, 0),
    "garbage": b"\xff" * PREFIX.size,
    "wrong-type": PREFIX.pack(LEAD - LENGTH_SIZE, PKT + 1, 0),
    "wrong-rank": PREFIX.pack(LEAD - LENGTH_SIZE, PKT, 1),
}


def _torn_frame() -> bytes:
    """A frame whose prefix counts 2 payload bytes fewer than its header."""
    frame = _frame(_pkt(1, 0, 1, b"abcdef"))
    return PREFIX.pack(len(frame) - 2 - LENGTH_SIZE, PKT, 0) + frame[PREFIX.size:-2]


class TestDecodeDefectsAreValueErrors:
    @pytest.mark.parametrize("prefix", BAD_PREFIXES.values(), ids=BAD_PREFIXES.keys())
    def test_a_lone_bad_prefix(self, prefix):
        """Nine bytes are enough: no wait for a lead that may never come."""
        reader = RingReader(_ring(256), rank=0)
        reader.ring.write(memoryview(prefix))
        with pytest.raises(ValueError):
            reader.drain([])

    def test_short_packet_body(self):
        reader = RingReader(_ring(256), rank=0)
        reader.ring.write(PREFIX.pack(PREFIX.size - LENGTH_SIZE + 10, PKT, 0), b"\0" * 10)
        with pytest.raises(ValueError):
            reader.drain([])

    def test_torn_payload(self):
        reader = RingReader(_ring(256), rank=0)
        reader.ring.write(memoryview(_torn_frame()))
        with pytest.raises(ValueError):
            reader.drain([])

    def test_a_valid_prefix_waits_for_its_frame(self):
        reader, out = RingReader(_ring(256), rank=0), []
        frame = _frame(_pkt(1, 0, 1, b"abcdef"))
        reader.ring.write(memoryview(frame[:PREFIX.size]))
        reader.drain(out)
        reader.ring.write(memoryview(frame[PREFIX.size:]))
        reader.drain(out)
        assert [p.payload for p in out] == [b"abcdef"]

    @pytest.mark.parametrize("length", [0, 4, 0xFFFFFFFF])
    def test_impossible_frame_length(self, length):
        """Below a lead, or beyond any frame: refused from the prefix alone."""
        reader = RingReader(_ring(256), rank=0)
        reader.ring.write(PREFIX.pack(length, PKT, 0))
        with pytest.raises(ValueError):
            reader.drain([])


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
    fab, chans = _trio("sock")
    yield chans
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
        assert not c1.has_incoming()
        c0.send_packet(_pkt(0, 1, 1))
        assert c1.has_incoming()  # no poll in between: the cursors say so

    def test_teardown_flushes_the_backlog(self, trio):
        """Finding 3: the tail of a frame one byte larger than the ring
        must not die with its sender — a proc worker's exit flush."""
        c0, c1, _ = trio
        body = _pattern(RING_CAPACITY)  # + header + frame head = capacity + 75
        assert LEAD == HEADER_SIZE + PREFIX.size == 75
        c0.send_packet(_pkt(0, 1, 1, body))
        assert c0._backlog[1]
        got = []
        peer = threading.Thread(target=lambda: got.extend(_drain(c1, 1)), daemon=True)
        peer.start()
        _flush(c0)  # no further poll from c0's engine: the exit flush must deliver
        peer.join(DRAIN_TIMEOUT)
        assert not peer.is_alive()
        assert bytes(got[0].payload_mv()) == body

    def test_malformed_frame_kills_its_sender_only(self, trio):
        c0, c1, c2 = trio
        dead = []
        c0.on_peer_dead = dead.append
        c1.send_packet(_pkt(1, 0, 1))
        assert [p.tag for p in _drain(c0, 1)] == [1]
        c1._tx[0].write(memoryview(b"\xff" * 16))  # a garbage length prefix
        c1.send_packet(_pkt(1, 0, 2))
        c2.send_packet(_pkt(2, 0, 3))
        assert [(p.src, p.tag) for p in _drain(c0, 1)] == [(2, 3)]
        assert dead == [1] and c0.dead_ranks == {1}
        assert c0.recv_packets() == []  # rank 1's ring is read no more
        c0.send_packet(_pkt(0, 1, 4))  # dropped: nobody will drain that ring
        assert len(c0._tx[1]) == 0 and not c0._backlog[1]

    def test_frame_for_another_rank_is_malformed(self, trio):
        c0, c1, _ = trio
        dead = []
        c0.on_peer_dead = dead.append
        c1._tx[0].write(memoryview(_frame(_pkt(1, 2, 1))))
        assert c0.recv_packets() == []
        assert dead == [1]

    @pytest.mark.parametrize(
        "garbage", [*BAD_PREFIXES.values(), _torn_frame()], ids=[*BAD_PREFIXES, "torn-payload"]
    )
    def test_each_frame_defect_is_its_sender_dead_on_the_next_poll(self, trio, garbage):
        c0, c1, _ = trio
        dead = []
        c0.on_peer_dead = dead.append
        c1._tx[0].write(memoryview(garbage))
        assert c0.recv_packets() == []
        assert dead == [1] and c0._rx[1] is None


def test_a_death_notice_follows_what_the_dead_rank_published():
    """The launcher's word that rank 1's process ended: the poll that reads
    it still delivers the frames rank 1 published, and the next one fails
    what waits on rank 1 — on every peer."""
    fab, (c0, c1, c2) = _trio("sock")
    _, dead_words, deaths = control_block(fab.mapping, 3)
    dead = {0: [], 2: []}
    c0.on_peer_dead, c2.on_peer_dead = dead[0].append, dead[2].append
    c1.send_packet(_pkt(1, 0, 1))
    dead_words[1] = 1
    deaths[0] += 1
    assert [p.tag for p in c0.recv_packets()] == [1] and dead[0] == []
    assert c0.recv_packets() == [] and dead[0] == [1] and c0.dead_ranks == {1}
    assert c2.recv_packets() == c2.recv_packets() == [] and dead[2] == [1]
    fab.shutdown()


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
    results = mpiexec(3, GarbageMain(), channel="sock", timeout=LAUNCH_TIMEOUT)
    assert results == [b"rank-two", "corrupted", b"rank-nil"]


# -- real processes ------------------------------------------------------------------


class ExchangeMain:
    """Small and eager-threshold frames, back to back: 20 000 round trips
    of 139-byte frames, then 200 of the largest eager frame, each written
    whole into the peer's ring."""

    ROUNDS = ((20_000, 64), (200, CostModel().eager_threshold))

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
            frame = _frame(_pkt(1, 0, TAG, b"never finished"))
            eng.device.channel._tx[0].write(memoryview(frame)[:40])
            os._exit(1)
        buf = BufferDesc.from_bytes(bytearray(8))
        for n in range(6):
            try:
                eng.recv(buf, 1, TAG)
            except MpiErrProcFailed:
                raise SurvivorSaw(f"MpiErrProcFailed after {n} messages") from None
        return "peer never died"


class ThirdRankDiesMain:
    """Rank 2 sends rank 0 one message, then its process dies; ranks 0 and 1
    each wait on it, and rank 1 tells rank 0 what it saw."""

    def __call__(self, ctx):
        eng = ctx.engine
        ctx.comm_world.errhandler = ERRORS_RETURN
        if ctx.rank == 2:
            eng.send(BufferDesc.from_bytes(b"last"), 0, TAG)
            os._exit(1)
        buf = BufferDesc.from_bytes(bytearray(4))
        if ctx.rank == 0:
            eng.recv(buf, 2, TAG)
        try:
            eng.recv(buf, 2, TAG)
            saw = "nothing"
        except MpiErrProcFailed as exc:
            saw = f"failed={sorted(exc.failed)}"
        if ctx.rank == 1:
            eng.send(BufferDesc.from_bytes(saw.encode().ljust(32)), 0, TAG)
            return saw
        theirs = BufferDesc.from_bytes(bytearray(32))
        eng.recv(theirs, 1, TAG)
        raise SurvivorSaw(f"rank 0 {saw}, rank 1 {theirs.tobytes().decode().strip()}")


#: a launcher whose two workers record their pids in the directory argv[1]
#: and then outlive any test, unless something ends them
SLEEPING_LAUNCHER = """
import os, sys, time
from repro.cluster import mpiexec

def main(ctx):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

mpiexec(2, main, substrate="proc", timeout=120)
"""


def _gone(pid: int) -> bool:
    """Exited: no process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


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

    def test_a_death_is_proc_failed_on_every_survivor(self):
        with pytest.raises(SurvivorSaw, match=r"rank 0 failed=\[2\], rank 1 failed=\[2\]"):
            mpiexec(3, ThirdRankDiesMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)

    def test_losing_the_launcher_ends_its_workers(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        launcher = subprocess.Popen(
            [sys.executable, "-c", SLEEPING_LAUNCHER, str(tmp_path)], env=env
        )
        pids: list[int] = []
        try:
            deadline = time.monotonic() + LAUNCH_TIMEOUT
            while len(pids) < 2:
                assert time.monotonic() < deadline and launcher.poll() is None
                time.sleep(0.05)
                pids = [int(name) for name in os.listdir(tmp_path)]
            launcher.kill()
            launcher.wait()
            deadline = time.monotonic() + 10.0
            while not all(map(_gone, pids)):
                assert time.monotonic() < deadline, "the workers outlived their launcher"
                time.sleep(0.05)
        finally:
            launcher.kill()
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, 9)

    def test_no_named_segment_is_left_behind(self):
        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        mpiexec(2, RingCollectiveMain(), substrate="proc", timeout=LAUNCH_TIMEOUT)
        after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        assert after <= before
