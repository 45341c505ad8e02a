"""The wrapper baselines end-to-end: Indiana, mpiJava, JMPI, native."""

from functools import partial

import pytest

from repro.baselines.indiana import IndianaComm
from repro.baselines.jmpi import JmpiComm
from repro.baselines.mpijava import MpiJavaComm
from repro.baselines.native_cpp import NativeComm
from repro.cluster import mpiexec
from repro.mp.errors import MpiErrTag, MpiErrTruncate
from repro.mp.matching import ANY_TAG
from repro.workloads.adapters import ADAPTERS
from repro.workloads.linkedlist import build_linked_list, verify_linked_list

#: each binding as the flavor table builds it (a binding class is its own
#: session factory); the test ids keep the bindings' names
BINDINGS = [
    pytest.param("cpp", id="native"),
    pytest.param("indiana-sscli", id="indiana"),
    "mpijava",
    "jmpi",
]


@pytest.mark.parametrize("flavor", BINDINGS)
class TestBufferRoundtrip:
    def test_pingpong(self, flavor):
        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(32)
            if comm.rank == 0:
                comm.fill_buffer(buf, bytes(range(32)))
                comm.send(buf, 1, 1)
                comm.recv(buf, 1, 2)
                return comm.buffer_bytes(buf)
            comm.recv(buf, 0, 1)
            data = bytearray(comm.buffer_bytes(buf))
            data.reverse()
            comm.fill_buffer(buf, bytes(data))
            comm.send(buf, 0, 2)
            return None

        res = mpiexec(2, main, session_factory=ADAPTERS[flavor])
        assert res[0] == bytes(reversed(range(32)))

    def test_barrier(self, flavor):
        def main(ctx):
            ctx.session.barrier()
            return True

        assert all(mpiexec(2, main, session_factory=ADAPTERS[flavor]))


@pytest.mark.parametrize("flavor", BINDINGS[1:])
class TestTreeRoundtrip:
    def test_tree_transport(self, flavor):
        def main(ctx):
            comm = ctx.session
            from repro.workloads.linkedlist import define_linked_array

            define_linked_array(comm.runtime)
            if comm.rank == 0:
                head = build_linked_list(comm.runtime, 5, 200)
                comm.send_tree(head, 1, 3)
                return None
            got = comm.recv_tree(0, 3)
            verify_linked_list(comm.runtime, got, 5, 200)
            return True

        res = mpiexec(2, main, session_factory=ADAPTERS[flavor])
        assert res[1] is True


class TestIndianaArchitecture:
    def test_pins_every_operation(self):
        """'Pinning is performed for each MPI operation' (§8)."""

        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(16)
            pins_before = comm.runtime.gc.stats.pin_calls
            if comm.rank == 0:
                comm.send(buf, 1, 1)
                comm.send(buf, 1, 2)
            else:
                comm.recv(buf, 0, 1)
                comm.recv(buf, 0, 2)
            return comm.runtime.gc.stats.pin_calls - pins_before

        assert mpiexec(2, main, session_factory=IndianaComm) == [2, 2]

    def test_pins_even_elder_objects(self):
        """No generation test: the wrapper cannot know, so it always pays."""

        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(16)
            comm.runtime.collect(0)  # promote the buffer
            pins_before = comm.runtime.gc.stats.pin_calls
            if comm.rank == 0:
                comm.send(buf, 1, 1)
            else:
                comm.recv(buf, 0, 1)
            return comm.runtime.gc.stats.pin_calls - pins_before

        assert mpiexec(2, main, session_factory=IndianaComm) == [1, 1]

    def test_crosses_pinvoke_per_call(self):
        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(8)
            before = comm.gate.stats.calls
            if comm.rank == 0:
                comm.send(buf, 1, 1)
            else:
                comm.recv(buf, 0, 1)
            return comm.gate.stats.calls - before

        assert mpiexec(2, main, session_factory=IndianaComm) == [1, 1]

    def test_host_profiles(self):
        def main(ctx):
            return ctx.session.profile.name

        for prof in ("sscli-free", "sscli-fastchecked", "dotnet"):
            res = mpiexec(
                2,
                main,
                session_factory=partial(IndianaComm, profile=prof),
            )
            assert res == [prof, prof]


class TestMpiJavaArchitecture:
    def test_jni_auto_pin(self):
        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(16)
            before = comm.gate.stats.auto_pins
            if comm.rank == 0:
                comm.send(buf, 1, 1)
            else:
                comm.recv(buf, 0, 1)
            return comm.gate.stats.auto_pins - before

        assert mpiexec(2, main, session_factory=MpiJavaComm) == [1, 1]

    def test_arrays_of_arrays_model(self):
        """Java int[2][3]: an object per row — many objects, not one."""

        def main(ctx):
            comm = ctx.session
            multi = comm.new_multi_array(2, 3)
            rt = comm.runtime
            assert rt.type_of(multi).element_is_ref
            row = rt.get_elem(multi, 0)
            assert rt.array_length(row) == 3
            return True

        assert all(mpiexec(2, main, session_factory=MpiJavaComm))


class TestJmpiArchitecture:
    def test_no_pinning_ever(self):
        """Pure managed: nothing native touches the heap, no pins at all."""

        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(16)
            if comm.rank == 0:
                comm.send(buf, 1, 1)
            else:
                comm.recv(buf, 0, 1)
            return comm.runtime.gc.stats.pin_calls

        assert mpiexec(2, main, session_factory=JmpiComm) == [0, 0]

    def test_rmi_serializes_everything(self):
        def main(ctx):
            comm = ctx.session
            buf = comm.alloc_buffer(16)
            before = comm.serializer.objects_serialized
            if comm.rank == 0:
                comm.send(buf, 1, 1)
                return comm.serializer.objects_serialized - before
            comm.recv(buf, 0, 1)
            return None

        assert mpiexec(2, main, session_factory=JmpiComm)[0] >= 1


class TestNativeArchitecture:
    def test_no_managed_runtime(self):
        def main(ctx):
            comm = ctx.session
            assert not hasattr(comm, "runtime")
            return True

        assert all(mpiexec(2, main, session_factory=NativeComm))


class TestJmpiReceive:
    """JMPI's receive behaves like the other arms': the envelope's tag is
    matched and reported, and an overlong message is MPI_ERR_TRUNCATE."""

    @staticmethod
    def _run(send_len: int, recv_len: int, recv_tag: int):
        def main(ctx):
            comm = ctx.session
            if comm.rank == 0:
                buf = comm.alloc_buffer(send_len)
                comm.fill_buffer(buf, bytes(range(send_len)))
                comm.send(buf, 1, 7)
                return None
            buf = comm.alloc_buffer(recv_len)
            st = comm.recv(buf, 0, recv_tag)
            return st.tag, st.count, comm.buffer_bytes(buf)

        return mpiexec(2, main, session_factory=JmpiComm)[1]

    @pytest.mark.parametrize("recv_tag", [7, ANY_TAG])
    def test_status_reports_the_senders_tag(self, recv_tag):
        assert self._run(8, 8, recv_tag) == (7, 8, bytes(range(8)))

    def test_another_tag_is_refused(self):
        with pytest.raises(MpiErrTag, match="tag 99"):
            self._run(8, 8, 99)

    def test_overlong_message_is_truncation(self):
        with pytest.raises(MpiErrTruncate):
            self._run(8, 4, 7)

    def test_tree_receive_checks_the_tag(self):
        def main(ctx):
            comm = ctx.session
            if comm.rank == 0:
                comm.send_tree(build_linked_list(comm.runtime, 2, 16), 1, 3)
                return None
            comm.recv_tree(0, 4)

        with pytest.raises(MpiErrTag, match="tag 4"):
            mpiexec(2, main, session_factory=JmpiComm)
