"""System.MP end-to-end: the managed bindings over full Motor worlds."""

import pytest

from repro.cluster import mpiexec
from repro.motor import motor_session, register_mp_internals
from repro.motor.system_mp import MPStatus
from repro.mp.datatypes import INT
from repro.workloads.linkedlist import build_linked_list, verify_linked_list


def motor2(fn, channel="shm", **kw):
    return mpiexec(2, fn, channel=channel, session_factory=motor_session, **kw)


class TestPointToPoint:
    def test_send_recv_array(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = vm.new_array("int32", 8, values=list(range(8)))
                comm.Send(arr, 1, 5)
            else:
                arr = vm.new_array("int32", 8)
                st = MPStatus()
                comm.Recv(arr, 0, 5, status=st)
                return ([arr[i] for i in range(8)], st.source, st.count)

        assert motor2(main)[1] == (list(range(8)), 0, 32)

    def test_send_recv_plain_object(self):
        def main(ctx):
            vm = ctx.session
            vm.define_class("Sample", [("a", "int32"), ("b", "float64")])
            comm = vm.comm_world
            if comm.Rank == 0:
                obj = vm.new("Sample")
                obj.a = 11
                obj.b = 2.75
                comm.Send(obj, 1, 1)
            else:
                obj = vm.new("Sample")
                comm.Recv(obj, 0, 1)
                return (obj.a, obj.b)

        assert motor2(main)[1] == (11, 2.75)

    def test_array_offset_count_overload(self):
        """'An overloaded set of operations cater for array transport and
        include an offset and count parameter' (§4.2.1)."""

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = vm.new_array("int32", 10, values=list(range(10)))
                comm.Send(arr, 1, 2, offset=3, length=4)
            else:
                arr = vm.new_array("int32", 4)
                comm.Recv(arr, 0, 2)
                return [arr[i] for i in range(4)]

        assert motor2(main)[1] == [3, 4, 5, 6]

    def test_recv_into_array_slice(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = vm.new_array("int32", 2, values=[77, 88])
                comm.Send(arr, 1, 3)
            else:
                arr = vm.new_array("int32", 6)
                comm.Recv(arr, 0, 3, offset=2, length=2)
                return [arr[i] for i in range(6)]

        assert motor2(main)[1] == [0, 0, 77, 88, 0, 0]

    def test_ssend(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = vm.new_array("byte", 4)
                comm.Ssend(arr, 1, 9)
                return "done"
            arr = vm.new_array("byte", 4)
            comm.Recv(arr, 0, 9)
            return "got"

        assert motor2(main) == ["done", "got"]

    def test_isend_irecv(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = vm.new_array("float64", 4, values=[0.5] * 4)
                req = comm.Isend(arr, 1, 4)
                req.Wait()
            else:
                arr = vm.new_array("float64", 4)
                req = comm.Irecv(arr, 0, 4)
                st = req.Wait()
                return (arr[3], st.count)

        assert motor2(main)[1] == (0.5, 32)

    def test_large_rendezvous_through_bindings(self):
        size = 200 * 1024

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = vm.new_array("byte", size)
                vm.runtime.fill_array_bytes(arr.ref, bytes([7]) * size)
                comm.Send(arr, 1, 6)
            else:
                arr = vm.new_array("byte", size)
                comm.Recv(arr, 0, 6)
                return vm.runtime.array_bytes(arr.ref) == bytes([7]) * size

        assert motor2(main, channel="sock")[1] is True


class TestCollectives:
    def test_bcast(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("int32", 3, values=[1, 2, 3] if comm.Rank == 0 else None)
            comm.Bcast(arr, 0)
            return [arr[i] for i in range(3)]

        assert motor2(main) == [[1, 2, 3], [1, 2, 3]]

    def test_scatter_gather_primitive_arrays(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            n = comm.Size
            send = (
                vm.new_array("int32", 2 * n, values=list(range(2 * n)))
                if comm.Rank == 0
                else None
            )
            recv = vm.new_array("int32", 2)
            comm.Scatter(send, recv, 0)
            mine = [recv[i] for i in range(2)]
            back = vm.new_array("int32", 2 * n) if comm.Rank == 0 else None
            comm.Gather(recv, back, 0)
            gathered = (
                [back[i] for i in range(2 * n)] if comm.Rank == 0 else None
            )
            return (mine, gathered)

        results = motor2(main)
        assert results[0] == ([0, 1], [0, 1, 2, 3])
        assert results[1] == ([2, 3], None)

    def test_allreduce(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            send = vm.new_array("int32", 2, values=[comm.Rank + 1, 10])
            recv = vm.new_array("int32", 2)
            comm.Allreduce(send, recv, INT, "sum")
            return [recv[i] for i in range(2)]

        assert motor2(main) == [[3, 20], [3, 20]]

    def test_barrier(self):
        def main(ctx):
            for _ in range(3):
                ctx.session.comm_world.Barrier()
            return True

        assert all(motor2(main))


class TestOOOperations:
    def test_osend_orecv_tree(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            from repro.workloads.linkedlist import define_linked_array

            define_linked_array(vm.runtime)
            if comm.Rank == 0:
                head = build_linked_list(vm.runtime, 6, 240)
                comm.OSend(head, 1, 3)
            else:
                st = MPStatus()
                got = comm.ORecv(0, 3, status=st)
                verify_linked_list(vm.runtime, got, 6, 240)
                return st.count > 0

        assert motor2(main)[1] is True

    def test_osend_array_subset_overload(self):
        """OSend(obj, offset, numcomponents, dest, tag) (§4.2.2)."""

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            vm.define_class("Box", [("v", "int32", True)], transportable_class=True)
            if comm.Rank == 0:
                arr = vm.new_array("Box", 5)
                for i in range(5):
                    arr[i] = vm.new("Box", v=i * 3) if False else None
                # fill via runtime to pass ObjRef values
                for i in range(5):
                    vm.runtime.set_elem_ref(arr.ref, i, vm.runtime.new("Box", v=i * 3))
                comm.OSend(arr, 1, 4, offset=1, numcomponents=2)
            else:
                got = comm.ORecv(0, 4)
                rt = vm.runtime
                return [
                    rt.get_field(rt.get_elem(got, i), "v")
                    for i in range(rt.array_length(got))
                ]

        assert motor2(main)[1] == [3, 6]

    def test_obcast(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            from repro.workloads.linkedlist import define_linked_array

            define_linked_array(vm.runtime)
            if comm.Rank == 0:
                head = build_linked_list(vm.runtime, 3, 96)
                comm.OBcast(head, 0)
                return "root"
            got = comm.OBcast(None, 0)
            verify_linked_list(vm.runtime, got, 3, 96)
            return "ok"

        assert motor2(main) == ["root", "ok"]

    def test_oscatter_ogather_roundtrip(self):
        def main(ctx):
            vm = ctx.session
            rt = vm.runtime
            comm = vm.comm_world
            from repro.workloads.linkedlist import define_linked_array

            define_linked_array(rt)
            if comm.Rank == 0:
                arr = rt.new_array("LinkedArray", 4)
                for i in range(4):
                    node = rt.new("LinkedArray")
                    rt.set_ref(node, "array", rt.new_array("int32", 1, values=[i]))
                    rt.set_elem_ref(arr, i, node)
                sub = comm.OScatter(arr, 0)
            else:
                sub = comm.OScatter(None, 0)
            gathered = comm.OGather(sub, 0)
            if comm.Rank == 0:
                return [
                    rt.get_elem(rt.get_field(rt.get_elem(gathered, i), "array"), 0)
                    for i in range(rt.array_length(gathered))
                ]
            return rt.array_length(sub)

        results = motor2(main)
        assert results[0] == [0, 1, 2, 3]
        assert results[1] == 2  # each of 2 ranks got 2 elements

    def test_orecv_any_source(self):
        from repro.mp.matching import ANY_SOURCE

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            from repro.workloads.linkedlist import define_linked_array

            define_linked_array(vm.runtime)
            if comm.Rank == 0:
                head = build_linked_list(vm.runtime, 2, 32)
                comm.OSend(head, 1, 7)
            else:
                st = MPStatus()
                got = comm.ORecv(ANY_SOURCE, 7, status=st)
                verify_linked_list(vm.runtime, got, 2, 32)
                return st.source

        assert motor2(main)[1] == 0


class TestCommManagement:
    def test_dup_and_split(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            dup = comm.Dup()
            assert dup.Rank == comm.Rank
            sub = comm.Split(color=0, key=-comm.Rank)  # reversed order
            return (sub.Rank, sub.Size)

        results = motor2(main)
        assert results[0] == (1, 2)  # reversed by key
        assert results[1] == (0, 2)

    def test_spawn_motor_children(self):
        def child(cctx):
            cvm = cctx.session
            parent = cvm.parent_comm()
            arr = cvm.new_array("int32", 1)
            parent.Recv(arr, 0, 1)
            arr[0] = arr[0] + 100
            parent.Send(arr, 0, 2)
            return True

        def main(ctx):
            vm = ctx.session
            inter = vm.spawn(child, 1)
            if ctx.rank == 0:
                arr = vm.new_array("int32", 1, values=[5])
                inter.Send(arr, 0, 1)
                back = vm.new_array("int32", 1)
                inter.Recv(back, 0, 2)
                return back[0]
            return None

        assert motor2(main)[0] == 105


class TestRecoverySurface:
    def test_agree_checkpoint_restore_managed_and_callintern(self):
        """Agree/Checkpoint/Restore through the managed communicator and
        through the ``callintern`` rows managed IL reaches them by."""

        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            internals = register_mp_internals(vm)
            me = comm.Rank
            folded, failed = comm.Agree(0b110 | me)
            il_folded = internals["MP.Agree"](0b110 | me)
            state = {"rank": me, "units": [me, me + 1], "note": "x" * me}
            epochs = [comm.Checkpoint(state)]
            restored = comm.Restore()
            epochs.append(internals["MP.Checkpoint"]((me, b"blob")))
            il_restored = internals["MP.Restore"]()
            # §4.2.1: a reference-bearing managed object is not plain data
            head = vm.proxy(build_linked_list(vm.runtime, 3, total_bytes=96))
            with pytest.raises(TypeError, match="cannot encode"):
                comm.Checkpoint(head)
            return (folded, sorted(failed), il_folded, epochs,
                    restored == state, il_restored == (me, b"blob"))

        results = mpiexec(3, main, channel="shm", session_factory=motor_session,
                          reliability_opts=dict(retransmit_after=16, max_retries=10))
        assert results == [(0b110, [], 0b110, [1, 2], True, True)] * 3
