"""The ping-pong drivers and the faces of the flavor table."""

import pytest

from repro.baselines.native_cpp import NativeComm
from repro.cluster import mpiexec
from repro.runtime.errors import ObjectModelViolation
from repro.workloads import linkedlist
from repro.workloads.adapters import ADAPTERS, make_adapter
from repro.workloads.pingpong import (
    FIG9_SIZES,
    FIG10_OBJECT_COUNTS,
    sweep_buffer_pingpong,
    sweep_tree_pingpong,
)

QUICK = {"iterations": 4, "timed": 2, "runs": 1}


class TestAxes:
    def test_fig9_sizes(self):
        assert FIG9_SIZES[0] == 4
        assert FIG9_SIZES[-1] == 262144
        assert len(FIG9_SIZES) == 17  # the paper's 17 powers of two

    def test_fig10_counts(self):
        assert FIG10_OBJECT_COUNTS[0] == 2
        assert FIG10_OBJECT_COUNTS[-1] == 8192


class TestAdapters:
    def test_registry_complete(self):
        assert {
            "cpp",
            "motor",
            "motor-hashed",
            "motor-pin-always",
            "indiana-sscli",
            "indiana-sscli-fastchecked",
            "indiana-dotnet",
            "mpijava",
            "jmpi",
        } <= set(ADAPTERS)

    def test_unknown_adapter(self):
        from repro.cluster import World

        ctx = World(2).context_for(0)
        with pytest.raises(ValueError, match="unknown adapter"):
            make_adapter("openmpi", ctx)

    @pytest.mark.parametrize("flavor", sorted(ADAPTERS))
    def test_buffer_verbs_uniform(self, flavor):
        """Every face satisfies the fig9 verbs, barrier included."""

        def main(ctx):
            face = make_adapter(flavor, ctx)
            buf = face.alloc_buffer(16)
            face.barrier()
            if ctx.rank == 0:
                face.fill_buffer(buf, bytes(range(16)))
                face.send(buf, 1, 1)
                face.recv(buf, 1, 2)
                return face.buffer_bytes(buf)
            face.recv(buf, 0, 1)
            face.send(buf, 0, 2)
            return None

        assert mpiexec(2, main)[0] == bytes(range(16))

    @pytest.mark.parametrize("flavor", sorted(ADAPTERS))
    def test_fill_refuses_an_overlong_payload(self, flavor):
        """Six bytes do not fit a four-byte buffer, native or managed, and
        the refused fill leaves the buffer as it was."""

        def main(ctx):
            face = make_adapter(flavor, ctx)
            buf = face.alloc_buffer(4)
            face.fill_buffer(buf, b"abcd")
            with pytest.raises((ValueError, ObjectModelViolation), match="4"):
                face.fill_buffer(buf, b"012345")
            return face.buffer_bytes(buf)

        assert mpiexec(2, main) == [b"abcd", b"abcd"]

    @pytest.mark.parametrize(
        "flavor", ["motor", "motor-hashed", "indiana-sscli", "indiana-dotnet", "mpijava", "jmpi"]
    )
    def test_tree_verbs_uniform(self, flavor):
        def main(ctx):
            face = make_adapter(flavor, ctx)
            linkedlist.define_linked_array(face.runtime)
            if ctx.rank == 0:
                tree = linkedlist.build_linked_list(face.runtime, 4, 160)
                face.send_tree(tree, 1, 1)
                return None
            got = face.recv_tree(0, 1)
            linkedlist.verify_linked_list(face.runtime, got, 4, 160)
            return True

        assert mpiexec(2, main)[1] is True

    def test_native_has_no_trees(self):
        assert not hasattr(NativeComm, "send_tree")

    def test_overflow_prediction_only_for_mpijava(self):
        def main(ctx):
            faces = {f: make_adapter(f, ctx) for f in ("mpijava", "motor", "indiana-sscli")}
            limit = faces["mpijava"].runtime.costs.java_recursion_limit
            return [face.tree_will_overflow(limit + 1) for face in faces.values()] + [
                faces["mpijava"].tree_will_overflow(limit - 1)
            ]

        assert mpiexec(2, main)[0] == [True, False, False, False]


class TestSweeps:
    def test_buffer_sweep_returns_means(self):
        res = sweep_buffer_pingpong("cpp", sizes=[4, 64], **QUICK)
        assert set(res) == {4, 64}
        assert all(v > 0 for v in res.values())

    def test_buffer_sweep_monotone_in_size(self):
        res = sweep_buffer_pingpong("cpp", sizes=[4, 4096, 65536], **QUICK)
        assert res[4] < res[4096] < res[65536]

    def test_buffer_sweep_deterministic_virtual(self):
        a = sweep_buffer_pingpong("motor", sizes=[4, 1024], **QUICK)
        b = sweep_buffer_pingpong("motor", sizes=[4, 1024], **QUICK)
        assert a == pytest.approx(b)

    def test_tree_sweep_basic(self):
        res = sweep_tree_pingpong("motor", object_counts=[2, 8], **QUICK)
        assert res[2] > 0 and res[8] > res[2] * 0.5

    def test_tree_sweep_marks_overflow_gap(self):
        res = sweep_tree_pingpong("mpijava", object_counts=[4, 2048], **QUICK)
        assert res[4] is not None
        assert res[2048] is None  # the paper's stack-overflow gap

    def test_wall_clock_mode_runs(self):
        res = sweep_buffer_pingpong(
            "cpp", sizes=[64], clock_mode="wall", **QUICK
        )
        assert res[64] > 0
