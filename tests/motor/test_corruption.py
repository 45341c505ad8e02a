"""Failure injection: the §2.3 hazard, demonstrated and then prevented.

An in-flight zero-copy transfer writes to a latched heap address.  If the
collector moves the unpinned destination object between packets, the rest
of the message lands on stale memory and the object's contents are
corrupted — "the result would be an environment crash at the next garbage
collection".  Motor's conditional pin prevents exactly this.

The hazard has two shapes.  On a packet channel (``sock``) the payload is a
DATA stream and the collection strikes *mid-stream*.  On a channel that
grants (``shm``) the payload is one put, and the window is between the
match — when the latched address goes into the CTS's grant — and the put.
"""

from repro.cluster import mpiexec
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig

SIZE = 192 * 1024  # rendezvous-sized: streams in many packets
PATTERN = bytes((i * 13 + 5) % 256 for i in range(SIZE))


def _run_transfer(protect: bool) -> bytes:
    """Rank 1 receives into a young managed array and forces a collection
    mid-stream; with ``protect`` a Motor conditional pin guards the buffer."""

    def main(ctx):
        eng = ctx.engine
        if ctx.rank == 0:
            eng.send(BufferDesc.from_bytes(PATTERN), 1, 1)
            return None
        rt = ManagedRuntime(
            RuntimeConfig(heap_capacity=16 << 20, nursery_size=1 << 20)
        )
        arr = rt.new_array("byte", SIZE)
        assert rt.heap.in_gen0(arr.addr), "buffer must start in the nursery"
        _mt, data_addr, nbytes = rt.om.data_window(arr.addr)
        req = eng.irecv(BufferDesc(rt.heap.mem, data_addr, nbytes), 0, 1)
        if protect:
            rt.gc.register_conditional_pin(arr, req.in_flight)
        # poll until the stream has started but not finished...
        while req.bytes_moved < 16 * 1024:
            eng.progress.poll()
        assert not req.completed
        # ... then collect: unprotected buffers move, the latched address
        # goes stale, and the remaining packets corrupt memory.
        rt.collect(0)
        eng.progress.wait(req)
        return rt.array_bytes(arr)

    return mpiexec(2, main, channel="sock")[1]


def _run_granted_transfer(protect: bool):
    """The shm shape: rank 1 collects after its receive matched (the grant
    on the latched address is out) and before the sender's put lands."""

    def main(ctx):
        eng = ctx.engine
        if ctx.rank == 0:
            eng.send(BufferDesc.from_bytes(PATTERN), 1, 1)
            return None
        rt = ManagedRuntime(
            RuntimeConfig(heap_capacity=16 << 20, nursery_size=1 << 20)
        )
        arr = rt.new_array("byte", SIZE)
        _mt, data_addr, nbytes = rt.om.data_window(arr.addr)
        req = eng.irecv(BufferDesc(rt.heap.mem, data_addr, nbytes), 0, 1)
        if protect:
            rt.gc.register_conditional_pin(arr, req.in_flight)
        while not req.started:  # matched: the CTS and its grant are out
            eng.progress.poll()
        assert not req.completed and req.bytes_moved == 0
        rt.collect(0)
        eng.progress.wait(req)
        rt.collect(0)  # complete: a conditional pin must be dropped now
        return rt.array_bytes(arr), rt.gc.pending_conditional_count

    return mpiexec(2, main, channel="shm")[1]


class TestCorruptionHazard:
    def test_unpinned_inflight_buffer_is_corrupted(self):
        """The failure the paper warns about, reproduced for real."""
        got = _run_transfer(protect=False)
        assert got != PATTERN, (
            "expected corruption: the object moved mid-transfer and the "
            "stream kept writing to the old address"
        )
        # the first chunk(s) arrived before the move and were copied with
        # the object; the tail is what went missing
        assert got[:1024] == PATTERN[:1024]
        assert got[-1024:] != PATTERN[-1024:]

    def test_conditional_pin_prevents_corruption(self):
        """Same schedule, Motor's status-dependent pin: intact payload."""
        got = _run_transfer(protect=True)
        assert got == PATTERN

    def test_granted_put_lands_on_the_stale_address(self):
        """shm: the object moved between match and landing; the whole put
        went to the old address, so the array holds none of the payload."""
        got, _ = _run_granted_transfer(protect=False)
        assert got != PATTERN
        assert got == bytes(SIZE)

    def test_conditional_pin_covers_the_grant(self):
        """Pinned exactly while the grant is open; dropped afterwards."""
        got, pending = _run_granted_transfer(protect=True)
        assert got == PATTERN
        assert pending == 0

    def test_conditional_pin_is_dropped_after_completion(self):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                eng.send(BufferDesc.from_bytes(PATTERN), 1, 1)
                return None
            rt = ManagedRuntime(
                RuntimeConfig(heap_capacity=16 << 20, nursery_size=1 << 20)
            )
            arr = rt.new_array("byte", SIZE)
            _mt, data_addr, nbytes = rt.om.data_window(arr.addr)
            req = eng.irecv(BufferDesc(rt.heap.mem, data_addr, nbytes), 0, 1)
            rt.gc.register_conditional_pin(arr, req.in_flight)
            eng.progress.wait(req)
            rt.collect(0)  # operation complete: the request must be dropped
            return (
                rt.gc.pending_conditional_count,
                rt.gc.stats.conditional_pins_dropped,
                rt.array_bytes(arr) == PATTERN,
            )

        assert mpiexec(2, main, channel="shm")[1] == (0, 1, True)

    def test_sender_side_hazard_also_prevented(self):
        """The source buffer is read across polls too; pin protects it."""

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                rt = ManagedRuntime(
                    RuntimeConfig(heap_capacity=16 << 20, nursery_size=1 << 20)
                )
                arr = rt.new_byte_array(PATTERN)
                _mt, data_addr, nbytes = rt.om.data_window(arr.addr)
                req = eng.isend(BufferDesc(rt.heap.mem, data_addr, nbytes), 1, 1)
                rt.gc.register_conditional_pin(arr, req.in_flight)
                # force collections while the stream drains
                while not req.completed:
                    rt.collect(0)
                    eng.progress.poll()
                return None
            buf = NativeMemory(SIZE)
            eng.recv(BufferDesc.from_native(buf), 0, 1)
            return buf.tobytes() == PATTERN

        assert mpiexec(2, main, channel="shm")[1] is True
