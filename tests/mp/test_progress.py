"""The progress engine: polling, yielding, waiting."""

from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.ch3 import CH3Device
from repro.mp.channels import FABRICS
from repro.mp.progress import ProgressEngine
from repro.mp.request import RECV, Request
from repro.simtime import CostModel, WallClock


def device_pair():
    fab = FABRICS["shm"](2)
    cm = CostModel()
    d0 = CH3Device(0, fab.endpoint(0, WallClock(), cm), WallClock(), cm)
    d1 = CH3Device(1, fab.endpoint(1, WallClock(), cm), WallClock(), cm)
    return d0, d1


class TestPolling:
    def test_poll_counts(self):
        d0, _ = device_pair()
        eng = ProgressEngine(d0)
        assert eng.poll() == 0
        assert eng.polls == 1
        assert eng.idle_polls == 1

    def test_yield_fn_called_every_poll(self):
        d0, _ = device_pair()
        yields = []
        eng = ProgressEngine(d0, yield_fn=lambda: yields.append(1))
        for _ in range(5):
            eng.poll()
        assert len(yields) == 5

    def test_handled_packets_not_idle(self):
        d0, d1 = device_pair()
        e0 = ProgressEngine(d0)
        e1 = ProgressEngine(d1)
        req = Request("send", BufferDesc.from_bytes(b"hi"), 1, 1, 0, 2)
        d0.start_send(req, 1)
        rreq = Request(RECV, BufferDesc.from_native(NativeMemory(2)), 0, 1, 0, 2)
        d1.post_recv(rreq)
        handled = e1.poll()
        assert handled >= 1
        assert e1.idle_polls == 0

    def test_wait_completes_posted_recv(self):
        d0, d1 = device_pair()
        e1 = ProgressEngine(d1)
        rreq = Request(RECV, BufferDesc.from_native(NativeMemory(4)), 0, 1, 0, 4)
        d1.post_recv(rreq)
        sreq = Request("send", BufferDesc.from_bytes(b"data"), 1, 1, 0, 4)
        d0.start_send(sreq, 1)
        e1.wait(rreq)
        assert rreq.completed
        assert bytes(rreq.buf.view()) == b"data"

    def test_test_polls_once(self):
        d0, _ = device_pair()
        eng = ProgressEngine(d0)
        req = Request(RECV, BufferDesc.from_native(NativeMemory(1)), 0, 1, 0, 1)
        d0.post_recv(req)
        assert not eng.test(req)
        assert eng.polls == 1

    def test_wait_all_order_independent(self):
        d0, d1 = device_pair()
        e1 = ProgressEngine(d1)
        recvs = []
        for tag in (1, 2, 3):
            r = Request(RECV, BufferDesc.from_native(NativeMemory(1)), 0, tag, 0, 1)
            d1.post_recv(r)
            recvs.append(r)
        # send in reverse tag order
        for tag in (3, 2, 1):
            s = Request("send", BufferDesc.from_bytes(bytes([tag])), 1, tag, 0, 1)
            d0.start_send(s, 1)
        e1.wait_all(recvs)
        assert [bytes(r.buf.view())[0] for r in recvs] == [1, 2, 3]


class TestDeviceQuiescence:
    def test_quiescent_after_traffic(self):
        d0, d1 = device_pair()
        e1 = ProgressEngine(d1)
        r = Request(RECV, BufferDesc.from_native(NativeMemory(2)), 0, 1, 0, 2)
        d1.post_recv(r)
        s = Request("send", BufferDesc.from_bytes(b"ok"), 1, 1, 0, 2)
        d0.start_send(s, 1)
        e1.wait(r)
        assert d0.quiescent
        assert d1.quiescent

    def test_not_quiescent_with_posted_recv(self):
        _, d1 = device_pair()
        r = Request(RECV, BufferDesc.from_native(NativeMemory(1)), 0, 1, 0, 1)
        d1.post_recv(r)
        assert not d1.quiescent
