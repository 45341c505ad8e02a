"""The hook spine: attach-time compilation, wiring, dispatch."""

import pytest

from repro.cluster import mpiexec
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.hooks import EVENTS, NULL_SPINE, HookSpine, spine_of, wire_engine


class Recorder:
    """Subscribes to a few events; records what it sees."""

    def __init__(self):
        self.seen = []

    def on_send_posted(self, req, dst, rndv):
        self.seen.append(("send_posted", dst, rndv))

    def on_packet_tx(self, pkt):
        self.seen.append(("packet_tx", pkt.kind))

    def on_recv_complete(self, status):
        self.seen.append(("recv_complete", status.source))


class TestCompile:
    def test_empty_spine_has_empty_tuples(self):
        spine = HookSpine()
        for name in EVENTS:
            assert getattr(spine, name) == ()
        assert not spine.active

    def test_attach_compiles_only_implemented_events(self):
        spine = HookSpine()
        sub = Recorder()
        spine.attach(sub)
        assert spine.active
        assert len(spine.send_posted) == 1
        assert len(spine.packet_tx) == 1
        assert spine.recv_posted == ()  # Recorder has no on_recv_posted

    def test_attach_is_idempotent(self):
        spine = HookSpine()
        sub = Recorder()
        spine.attach(sub)
        spine.attach(sub)
        assert len(spine.send_posted) == 1  # no double dispatch

    def test_detach_recompiles(self):
        spine = HookSpine()
        a, b = Recorder(), Recorder()
        spine.attach(a)
        spine.attach(b)
        assert len(spine.send_posted) == 2
        spine.detach(a)
        assert len(spine.send_posted) == 1
        assert spine.send_posted[0].__self__ is b
        spine.detach(a)  # detaching a stranger is a no-op
        assert len(spine.send_posted) == 1

    def test_detach_all(self):
        spine = HookSpine()
        spine.attach(Recorder())
        spine.attach(Recorder())
        spine.detach_all()
        assert not spine.active
        assert spine.send_posted == ()

    def test_null_spine_is_frozen(self):
        assert not NULL_SPINE.active
        with pytest.raises(RuntimeError):
            NULL_SPINE.attach(Recorder())

    def test_spine_of_materializes_private_spine(self):
        class Thing:
            hooks = NULL_SPINE

        t = Thing()
        spine = spine_of(t)
        assert spine is not NULL_SPINE
        assert t.hooks is spine
        assert spine_of(t) is spine  # stable after first call


class TestWiring:
    def test_wire_engine_shares_one_spine(self):
        def main(ctx):
            eng = ctx.engine
            spine = eng.hooks
            assert eng.device.hooks is spine
            assert eng.device.queues.hooks is spine
            assert eng.progress.hooks is spine
            assert eng.device.channel.hooks is spine
            return True

        assert all(mpiexec(2, main))

    def test_wire_engine_covers_channel_stack(self):
        from repro.mp.channels import FaultPlan

        def main(ctx):
            eng = ctx.engine
            ch = eng.device.channel
            assert ch.name == "faulty"
            assert ch.hooks is eng.hooks
            assert ch.inner.hooks is eng.hooks
            return True

        assert all(mpiexec(2, main, fault_plan=FaultPlan()))

    def test_rewire_keeps_live_spine(self):
        """wire_engine on an already-wired engine must not orphan
        subscribers by swapping in a fresh spine."""

        def main(ctx):
            eng = ctx.engine
            sub = Recorder()
            eng.hooks.attach(sub)
            spine = wire_engine(eng)
            assert spine is eng.hooks
            assert sub in spine.subscribers
            return True

        assert all(mpiexec(1, main))


class TestDispatch:
    def test_stack_emits_through_spine(self):
        def main(ctx):
            sub = Recorder()
            ctx.engine.hooks.attach(sub)
            buf = BufferDesc.from_native(NativeMemory(16))
            if ctx.rank == 0:
                ctx.engine.send(buf, 1, 1)
            else:
                ctx.engine.recv(buf, 0, 1)
            ctx.engine.hooks.detach(sub)
            return sub.seen

        seen0, seen1 = mpiexec(2, main)
        assert ("send_posted", 1, False) in seen0
        assert any(k[0] == "packet_tx" for k in seen0)
        assert ("recv_complete", 0) in seen1

    def test_detached_spine_costs_nothing_to_consult(self):
        spine = HookSpine()
        # the emit-site idiom: slot load, falsy check — no calls
        cbs = spine.send_posted
        assert not cbs
