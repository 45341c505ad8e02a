"""World construction and the mpiexec launcher."""

import pytest

from repro.cluster import World, mpiexec
from repro.mp.buffers import BufferDesc
from repro.simtime import VirtualClock, WallClock


class TestWorld:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            World(0)
        with pytest.raises(ValueError):
            World(2, channel="infiniband")
        with pytest.raises(ValueError):
            World(2, clock_mode="lamport")

    def test_clock_modes(self):
        w = World(2, clock_mode="virtual")
        assert isinstance(w.clock_for(0), VirtualClock)
        assert w.clock_for(0) is w.clock_for(0)  # cached per rank
        assert w.clock_for(0) is not w.clock_for(1)
        assert isinstance(World(2).clock_for(0), VirtualClock)  # the default
        with pytest.raises(ValueError, match="substrate='proc'"):
            World(2, clock_mode="wall")  # inproc runs on the modelled clock
        w2 = World(2, clock_mode="wall", substrate="proc")  # builds, forks nothing
        try:
            assert isinstance(w2.clock_for(0), WallClock)
        finally:
            w2.shutdown()

    def test_context_construction(self):
        w = World(2)
        ctx = w.context_for(0)
        assert ctx.rank == 0
        assert ctx.size == 2
        assert ctx.comm_world.size == 2


class TestMpiexec:
    def test_results_by_rank(self):
        assert mpiexec(3, lambda ctx: ctx.rank * 10) == [0, 10, 20]

    def test_exception_propagates(self):
        def main(ctx):
            if ctx.rank == 1:
                raise ValueError("rank 1 exploded")
            return "ok"

        with pytest.raises(ValueError, match="rank 1 exploded"):
            mpiexec(2, main)

    def test_session_factory(self):
        seen = []

        def factory(ctx):
            seen.append(ctx.rank)
            return f"session-{ctx.rank}"

        results = mpiexec(2, lambda ctx: ctx.session, session_factory=factory)
        assert results == ["session-0", "session-1"]
        assert sorted(seen) == [0, 1]

    def test_single_rank(self):
        assert mpiexec(1, lambda ctx: ctx.size) == [1]

    def test_timeout(self):
        import time

        def main(ctx):
            if ctx.rank == 0:
                time.sleep(3.0)
            return True

        with pytest.raises(TimeoutError):
            mpiexec(1, main, timeout=0.2)

    def test_a_world_naming_no_clock_runs_on_the_modelled_one(self):
        """Same run, same modelled time and the same polls, every time."""

        def main(ctx):
            eng, peer, buf = ctx.engine, 1 - ctx.rank, BufferDesc.from_bytes(bytes(64))
            for _ in range(4):
                if ctx.rank == 0:
                    eng.send(buf, peer, 1)
                    eng.recv(buf, peer, 2)
                else:
                    eng.recv(buf, peer, 1)
                    eng.send(buf, peer, 2)
            return ctx.clock.now(), eng.progress.polls

        first = mpiexec(2, main)
        assert first == mpiexec(2, main)
        assert all(now > 0 and polls > 0 for now, polls in first), first


class TestSpawn:
    def test_spawn_children_and_intercomm(self):
        """MPI-2 dynamic process management (paper §7)."""
        from repro.mp.buffers import BufferDesc, NativeMemory

        def child_main(ctx):
            parent = ctx.parent_comm
            assert parent is not None
            assert parent.is_inter
            # child world spans the spawned set only
            assert ctx.engine.comm_world.size == 2
            buf = NativeMemory(8)
            ctx.engine.recv(BufferDesc.from_native(buf), 0, 1, parent)
            # double and send back
            data = bytearray(buf.mem)
            data[0] *= 2
            ctx.engine.send(BufferDesc.from_bytes(bytes(data)), 0, 2, parent)
            return True

        def parent_main(ctx):
            inter = ctx.world.spawn(ctx, child_main, 2)
            assert inter.is_inter
            assert inter.remote_size == 2
            if ctx.rank == 0:
                out = []
                for child in range(2):
                    ctx.engine.send(
                        BufferDesc.from_bytes(bytes([21 + child] * 8)), child, 1, inter
                    )
                for child in range(2):
                    buf = NativeMemory(8)
                    ctx.engine.recv(BufferDesc.from_native(buf), child, 2, inter)
                    out.append(buf.mem[0])
                return sorted(out)
            return None

        results = mpiexec(2, parent_main)
        assert results[0] == [42, 44]

    def test_a_spawned_child_is_held_to_the_launch_deadline(self):
        """A child still running when the launch's one deadline passes is
        a TimeoutError naming its thread, as a boot rank's would be."""
        import time

        def child_main(ctx):
            time.sleep(1.0)

        def main(ctx):
            ctx.world.spawn(ctx, child_main, 1)

        with pytest.raises(TimeoutError, match="spawned-1"):
            mpiexec(1, main, channel="shm", timeout=0.2)


class TestSpawnGating:
    def test_sock_fabric_refuses_dynamic_spawn(self):
        """Sock's rings are carved for the boot-time world: spawning later ranks
        would leave them unreachable, so the world refuses cleanly."""

        def main(ctx):
            with pytest.raises(RuntimeError, match="does not support dynamic"):
                ctx.world.spawn(ctx, lambda c: True, 1)
            return True

        assert all(mpiexec(1, main, channel="sock"))

    def test_ib_fabric_supports_dynamic_spawn(self):
        def child(cctx):
            return cctx.rank

        def main(ctx):
            inter = ctx.world.spawn(ctx, child, 2)
            return inter.remote_size

        assert mpiexec(1, main, channel="ib") == [2]
