"""Error paths through the Message Passing Core's FCall surface."""

import pytest

from repro.cluster import mpiexec
from repro.motor import motor_session
from repro.il import ExecutionEngine, assemble
from repro.motor import register_mp_internals
from repro.motor.serialization import SerializationError
from repro.mp.errors import MpiErrRank, MpiErrTag
from repro.runtime.errors import NullReferenceError_


def motor2(fn, **kw):
    return mpiexec(2, fn, channel="shm", session_factory=motor_session, **kw)


class TestParameterChecking:
    def test_bad_dest_rank_through_bindings(self):
        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("byte", 4)
            with pytest.raises(MpiErrRank):
                vm.comm_world.Send(arr, 7, 1)
            return True

        assert all(motor2(main))

    def test_bad_tag_through_bindings(self):
        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("byte", 4)
            with pytest.raises(MpiErrTag):
                vm.comm_world.Send(arr, 1 - ctx.rank, -3)
            return True

        assert all(motor2(main))

    def test_wrong_argument_type_rejected_by_unwrap(self):
        def main(ctx):
            vm = ctx.session
            with pytest.raises(TypeError, match="managed object"):
                vm.comm_world.Send(b"raw bytes", 1 - ctx.rank, 1)
            with pytest.raises(TypeError):
                vm.comm_world.OSend([1, 2, 3], 1 - ctx.rank, 1)
            return True

        assert all(motor2(main))

    def test_osend_subset_on_non_array(self):
        def main(ctx):
            vm = ctx.session
            vm.define_class("Solo", [("x", "int32", True)])
            obj = vm.new("Solo")
            with pytest.raises(SerializationError):
                vm.comm_world.OSend(obj, 1 - ctx.rank, 1, offset=0, numcomponents=1)
            return True

        assert all(motor2(main))

    def test_failed_send_releases_pins(self):
        """A parameter error after a PIN_NOW (policy disabled) must not
        leave the buffer pinned."""
        from repro.motor.vm import MotorVM

        def session(ctx):
            return MotorVM(ctx, pinning_policy_enabled=False)

        def main(ctx):
            vm = ctx.session
            arr = vm.new_array("byte", 4)
            with pytest.raises(MpiErrRank):
                vm.comm_world.Send(arr, 9, 1)
            return vm.runtime.gc.active_pin_count

        assert mpiexec(2, main, session_factory=session) == [0, 0]

    def test_guard_released_even_on_test_path(self):
        def main(ctx):
            vm = ctx.session
            comm = vm.comm_world
            arr = vm.new_array("byte", 16)
            if comm.Rank == 0:
                comm.Barrier()
                comm.Send(arr, 1, 1)
                return None
            req = comm.Irecv(arr, 0, 1)
            comm.Barrier()
            spins = 0
            while not req.Test() and spins < 200000:
                spins += 1
            assert req.completed
            # the guard slot is cleared once Test observed completion
            return req._handle.guard is None

        assert motor2(main)[1] is True


#: System.MP calls handed a null buffer, by name: each must raise the
#: typed managed error before anything crosses the wire
NULL_BUFFER_CALLS = {
    "Send": lambda comm: comm.Send(None, 0, 1),
    "Recv": lambda comm: comm.Recv(None, 0, 1),
    "Isend": lambda comm: comm.Isend(None, 0, 1),
    "Irecv": lambda comm: comm.Irecv(None, 0, 1),
    "Bcast": lambda comm: comm.Bcast(None, 0),
    "WinCreate": lambda comm: comm.WinCreate(None),
}


@pytest.mark.parametrize("call", sorted(NULL_BUFFER_CALLS))
def test_null_buffer_is_a_null_reference(call):
    def main(ctx):
        with pytest.raises(NullReferenceError_):
            NULL_BUFFER_CALLS[call](ctx.session.comm_world)
        return True

    assert all(mpiexec(1, main, session_factory=motor_session))


def test_il_null_buffer_is_a_null_reference():
    """``ldnull`` reaching ``callintern MP.Send/3`` raises the same error."""

    def main(ctx):
        vm = ctx.session
        il = ExecutionEngine(vm.runtime, assemble(
            ".method m() {\n ldnull\n ldc.i4 0\n ldc.i4 1\n callintern MP.Send/3\n ret\n}",
            "null_send",
        ), register_mp_internals(vm))
        with pytest.raises(NullReferenceError_):
            il.call("m")
        return True

    assert all(mpiexec(1, main, session_factory=motor_session))
