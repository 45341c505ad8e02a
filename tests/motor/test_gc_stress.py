"""GC stress: full message-passing workloads with constant forced GCs.

A stressor induces a collection at (nearly) every safepoint poll while
real transfers are in flight.  Everything must still be correct: this is
the integration-level proof that the pinning policy, the conditional
pins, the handle discipline and the write barrier compose.
"""

import pytest

from repro.cluster import mpiexec
from repro.motor import motor_session
from repro.runtime.safepoint import EveryNStressor
from repro.workloads.linkedlist import (
    build_linked_list,
    define_linked_array,
    verify_linked_list,
)


def stressed_motor2(fn, every_n=3, channel="shm", **kw):
    def factory(ctx):
        vm = motor_session(ctx)
        vm.runtime.safepoint.stressor = EveryNStressor(every_n)
        return vm

    return mpiexec(2, fn, channel=channel, session_factory=factory, **kw)


class TestStressedTransfers:
    def test_small_pingpong_under_stress(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            pattern = list(range(16))
            for round_ in range(10):
                arr = vm.new_array("int32", 16, values=pattern if comm.Rank == 0 else None)
                if comm.Rank == 0:
                    comm.Send(arr, 1, round_)
                    back = vm.new_array("int32", 16)
                    comm.Recv(back, 1, 100 + round_)
                    assert [back[i] for i in range(16)] == pattern
                else:
                    comm.Recv(arr, 0, round_)
                    comm.Send(arr, 0, 100 + round_)
            return vm.runtime.gc.stats.gen0_collections

        collections = stressed_motor2(main)
        assert all(c > 5 for c in collections), collections

    def test_rendezvous_under_stress(self):
        """Large zero-copy transfers with GCs forced mid-stream: the
        policy's deferred/conditional pins must hold the line."""
        size = 192 * 1024
        payload = bytes((i * 31 + 7) % 256 for i in range(size))

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("byte", size)
            if comm.Rank == 0:
                vm.runtime.fill_array_bytes(arr.ref, payload)
                comm.Send(arr, 1, 1)
                return True
            comm.Recv(arr, 0, 1)
            return vm.runtime.array_bytes(arr.ref) == payload

        assert stressed_motor2(main, every_n=2, channel="sock")[1] is True

    def test_nonblocking_under_stress(self):
        size = 160 * 1024

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("byte", size)
            if comm.Rank == 0:
                vm.runtime.fill_array_bytes(arr.ref, bytes([0x42]) * size)
                req = comm.Isend(arr, 1, 1)
                req.Wait()
                return vm.runtime.gc.stats.conditional_pins_registered
            req = comm.Irecv(arr, 0, 1)
            req.Wait()
            ok = vm.runtime.array_bytes(arr.ref) == bytes([0x42]) * size
            return (ok, vm.runtime.gc.stats.conditional_pins_honored)

        sender, receiver = stressed_motor2(main, every_n=2, channel="sock")
        ok, honored = receiver
        assert ok
        # with GCs forced constantly, at least one mark phase found the
        # transfer still in flight and honoured the conditional pin
        assert honored >= 1

    def test_oo_transport_under_stress(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            define_linked_array(vm.runtime)
            for _ in range(5):
                if comm.Rank == 0:
                    head = build_linked_list(vm.runtime, 20, 800)
                    comm.OSend(head, 1, 3)
                else:
                    got = comm.ORecv(0, 3)
                    verify_linked_list(vm.runtime, got, 20, 800)
            return True

        assert all(stressed_motor2(main))

    @pytest.mark.progress
    def test_oo_echo_under_async_progress_and_stress(self):
        """The 256-element list out and back with a collection at every
        safepoint and the progress engine stepped from inside charges: the
        deserializer's nursery runs land between collections, never across
        one, so the echo verifies and no pin outlives the transfer."""

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            rt = vm.runtime
            define_linked_array(rt)
            if comm.Rank == 0:
                comm.OSend(build_linked_list(rt, 256, 4096), 1, 3)
                verify_linked_list(rt, comm.ORecv(1, 4), 256, 4096)
            else:
                got = comm.ORecv(0, 3)
                verify_linked_list(rt, got, 256, 4096)
                comm.OSend(got, 0, 4)
            return (rt.gc.active_pin_count, rt.gc.stats.gen0_collections,
                    ctx.engine.progress.async_polls)

        for pins, collections, async_polls in stressed_motor2(
            main, every_n=1, channel="sock", clock_mode="virtual", progress="async"
        ):
            assert pins == 0
            assert collections > 0 and async_polls > 0

    def test_collectives_under_stress(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            from repro.mp.datatypes import INT

            for _ in range(5):
                send = vm.new_array("int32", 4, values=[comm.Rank + 1] * 4)
                recv = vm.new_array("int32", 4)
                comm.Allreduce(send, recv, INT, "sum")
                assert [recv[i] for i in range(4)] == [3, 3, 3, 3]
            return True

        assert all(stressed_motor2(main))

    def test_heap_stays_consistent_after_stress(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            keep = []
            for i in range(20):
                arr = vm.new_array("int32", 8, values=[i] * 8)
                keep.append(arr)
                if comm.Rank == 0:
                    comm.Send(arr, 1, i)
                else:
                    got = vm.new_array("int32", 8)
                    comm.Recv(got, 0, i)
            # everything we kept is intact despite dozens of collections
            for i, arr in enumerate(keep):
                assert [arr[j] for j in range(8)] == [i] * 8
            vm.collect(1)
            return True

        assert all(stressed_motor2(main))
