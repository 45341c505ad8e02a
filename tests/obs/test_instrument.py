"""Hook attachment, layer-safe detach, and cluster integration."""

import pytest

from repro.cluster import mpiexec
from repro.cluster.world import World
from repro.motor import motor_session
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.obs import Instrumentation, detach, detach_all, instrument
from repro.simtime import VirtualClock

pytestmark = pytest.mark.obs


class TestAttachDetach:
    def test_instrument_context_attaches_stack(self):
        def main(ctx):
            inst = instrument(ctx)
            spine = ctx.engine.hooks
            # one spine shared by every layer, carrying our subscriber
            assert ctx.engine.device.hooks is spine
            assert ctx.engine.progress.hooks is spine
            assert ctx.engine.device.channel.hooks is spine
            assert inst.subscriber in spine.subscribers
            detach_all(inst)
            assert inst.subscriber not in spine.subscribers
            assert not spine.active
            return True

        assert all(mpiexec(2, main))

    def test_detach_is_layer_safe(self):
        """Detaching an older instrumentation must not clobber a newer one."""

        def main(ctx):
            first = instrument(ctx)
            second = instrument(ctx)  # subscribes alongside, not instead
            spine = ctx.engine.hooks
            detach_all(first)  # must leave second's subscription alone
            assert second.subscriber in spine.subscribers
            assert first.subscriber not in spine.subscribers
            detach_all(second)
            assert not spine.active
            return True

        assert all(mpiexec(2, main))

    def test_targeted_detach_respects_owner(self):
        from repro.mp.hooks import HookSpine

        class Sub:
            hooks = HookSpine()

        sub = Sub()
        a = Instrumentation(0, VirtualClock())
        b = Instrumentation(0, VirtualClock())
        sub.hooks.attach(a.subscriber)
        detach(sub, b)  # b never subscribed here
        assert a.subscriber in sub.hooks.subscribers
        detach(sub, a)
        assert a.subscriber not in sub.hooks.subscribers

    def test_both_observers_see_the_same_traffic(self):
        """Two instrumentations attached at once both record (the old
        single-attribute plumbing could only carry one)."""

        def main(ctx):
            first = instrument(ctx)
            second = instrument(ctx)
            buf = BufferDesc.from_native(NativeMemory(16))
            if ctx.rank == 0:
                ctx.engine.send(buf, 1, 4)
            else:
                ctx.engine.recv(buf, 0, 4)
            return (
                [e.name for e in first.recorder.events],
                [e.name for e in second.recorder.events],
            )

        (ev0a, ev0b), _ = mpiexec(2, main)
        assert ev0a == ev0b == ["mp.send"]

    def test_hooks_capture_message_lifecycle(self):
        def main(ctx):
            inst = instrument(ctx)
            buf = BufferDesc.from_native(NativeMemory(64))
            if ctx.rank == 0:
                ctx.engine.send(buf, 1, 9)
            else:
                ctx.engine.recv(buf, 0, 9)
            snap = inst.snapshot()
            return [e["name"] for e in snap["events"]], snap["counters"]

        (ev0, c0), (ev1, c1) = mpiexec(2, main)
        assert ev0 == ["mp.send"]
        assert ev1 == ["mp.recv.post", "mp.recv.complete"]
        assert c0["mp.ch3.eager_sends"] == 1
        # the receiver must actually poll the progress engine to complete
        assert c1["mp.progress.polls"] > 0


    def test_hooks_capture_rma_lifecycle(self):
        def main(ctx):
            inst = instrument(ctx)
            win = ctx.engine.win_create(
                BufferDesc.from_native(NativeMemory(16)), dtype="int32"
            )
            win.fence()
            if ctx.rank == 0:
                win.put(BufferDesc.from_native(NativeMemory(8)), 1, 0)
            win.fence()
            win.free()
            snap = inst.snapshot()
            return [e["name"] for e in snap["events"]]

        ev0, ev1 = mpiexec(2, main, channel="shm")
        # origin: epoch open, the put, epoch close
        assert ev0.count("mp.rma.epoch") >= 2
        assert "mp.rma.op" in ev0
        # the put is native on shm — the target records only its epochs
        assert ev1.count("mp.rma.epoch") >= 2
        assert "mp.rma.violation" not in ev0 + ev1

    def test_rma_op_outside_an_epoch_is_an_event(self):
        def main(ctx):
            inst = instrument(ctx)
            win = ctx.engine.win_create(
                BufferDesc.from_native(NativeMemory(16)), dtype="int32"
            )
            if ctx.rank == 0:
                win.put(BufferDesc.from_native(NativeMemory(8)), 1, 0)  # no epoch
            ctx.engine.barrier()
            win.free()
            return [e for e in inst.snapshot()["events"] if e["name"] == "mp.rma.violation"]

        ev0, ev1 = mpiexec(2, main, channel="shm")
        assert [e["args"]["rule"] for e in ev0] == ["MA-R06"] and ev1 == []


class TestMotorAttach:
    def test_vm_pvars_and_gc_events(self):
        def main(ctx):
            vm = ctx.session
            inst = instrument(vm)
            comm = vm.comm_world
            # OSend/ORecv go through the serializer (plain Send of a
            # primitive array takes the zero-copy path and never would)
            if comm.Rank == 0:
                arr = vm.new_array("byte", 64)
                comm.OSend(arr, 1, 1)
            else:
                comm.ORecv(0, 1)
            vm.collect(0)
            snap = inst.snapshot()
            names = {e["name"] for e in snap["events"]}
            assert "gc.collect" in names
            assert snap["counters"]["motor.mp.fcalls"] > 0
            assert snap["counters"]["gc.collections.gen0"] >= 1
            assert "gc.pins.checks" in snap["counters"]
            spans = {s["name"] for s in snap["spans"]}
            assert "motor.serialize" in spans or "motor.deserialize" in spans
            return True

        assert all(mpiexec(2, main, session_factory=motor_session))

    def test_split_spans_are_one_per_frame_and_one_per_landing(self):
        """The split sender encodes every part of a frame in one pass and
        the gather side lands every part in one: a scattered frame is one
        ``motor.serialize`` span and one ``motor.serialized`` event (its
        objects summed over its parts), and landing the parts is one
        ``motor.deserialize`` span."""
        from repro.workloads.linkedlist import define_linked_array

        def main(ctx):
            vm = ctx.session
            rt = vm.runtime
            define_linked_array(rt)
            inst = instrument(vm)
            comm = vm.comm_world
            if comm.Rank == 0:
                arr = rt.new_array("LinkedArray", 6)
                for i in range(6):
                    node = rt.new("LinkedArray")
                    rt.set_ref(node, "array", rt.new_array("int32", 1, values=[i]))
                    rt.set_elem_ref(arr, i, node)
                comm.OScatter(arr, 0)
            else:
                comm.OScatter(None, 0)
            snap = inst.snapshot()
            spans = [s["name"] for s in snap["spans"]]
            events = [e["args"]["objects"] for e in snap["events"]
                      if e["name"] == "motor.serialized"]
            return spans.count("motor.serialize"), events, spans.count("motor.deserialize")

        # the root frames one chunk per rank (3 parts of 2 objects each)
        root, other = mpiexec(2, main, session_factory=motor_session)
        assert root == (2, [6, 6], 1)
        assert other == (0, [], 1)

    def test_conditional_pin_registration_is_an_event(self):
        """A young buffer under a nonblocking receive is protected by a
        conditional pin (§7.4); the registration shows on the timeline."""

        def main(ctx):
            vm = ctx.session
            inst = instrument(vm)
            comm = vm.comm_world
            arr = vm.new_array("int32", 16)
            if comm.Rank == 0:
                comm.Barrier()
                comm.Send(arr, 1, 4)
                return 0
            req = comm.Irecv(arr, 0, 4)
            comm.Barrier()
            req.Wait()
            return [e["name"] for e in inst.snapshot()["events"]].count("gc.pin.conditional")

        assert mpiexec(2, main, session_factory=motor_session) == [0, 1]


class TestClusterIntegration:
    def test_mpiexec_observed_merges_all_ranks(self):
        def main(ctx):
            buf = BufferDesc.from_native(NativeMemory(32))
            if ctx.rank == 0:
                ctx.engine.send(buf, 1, 1)
            else:
                ctx.engine.recv(buf, 0, 1)
            return ctx.rank

        results = mpiexec(2, main, clock_mode="virtual", observe="enabled")
        merged = results.snapshot
        assert results == [0, 1]
        assert merged["ranks"] == [0, 1]
        sends = merged["counters"]["mp.ch3.eager_sends"]
        assert sends["total"] >= 1 and 0 in sends["by_rank"]
        # the gather itself ran *after* each snapshot: the merged timeline
        # must not contain the aggregation's own collective span
        assert all(s["name"] != "coll.gather_bytes" for s in merged["spans"])

    def test_world_in_process_merge(self):
        world = World(2, clock_mode="virtual", observe="enabled")

        def main(ctx):
            buf = BufferDesc.from_native(NativeMemory(16))
            if ctx.rank == 0:
                ctx.engine.send(buf, 1, 2)
            else:
                ctx.engine.recv(buf, 0, 2)

        import threading

        ctxs = [world.context_for(r) for r in range(2)]
        threads = [threading.Thread(target=main, args=(c,)) for c in ctxs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        world.shutdown()
        merged = world.merged_snapshot()
        assert merged["counters"]["mp.ch3.eager_sends"]["total"] == 1
        report = world.merged_report()
        assert "cluster report" in report and "mp.ch3.eager_sends" in report

    def test_unobserved_world_refuses_merge(self):
        world = World(1)
        with pytest.raises(RuntimeError):
            world.merged_snapshot()

    def test_observe_disabled_attaches_inert_hooks(self):
        def main(ctx):
            assert ctx.obs is not None and not ctx.obs.enabled
            buf = BufferDesc.from_native(NativeMemory(8))
            if ctx.rank == 0:
                ctx.engine.send(buf, 1, 3)
            else:
                ctx.engine.recv(buf, 0, 3)
            snap = ctx.obs.snapshot()
            # no recorded events; pull-model pvars still readable on demand
            assert snap["events"] == [] and snap["spans"] == []
            if ctx.rank == 1:
                # the receiver must poll; the sender's eager send can
                # complete inline without ever entering the progress loop
                assert snap["counters"]["mp.progress.polls"] > 0
            return True

        assert all(mpiexec(2, main, observe="disabled"))
