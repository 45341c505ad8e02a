"""The blocking call path, held to its budget.

System.MP reaches the Message Passing Core through an FCall, with no
marshalling (paper §5.1, §7.3), and each layer between them does each
thing once (docs/ARCHITECTURE.md, "The blocking call path").  These tests
pin what that costs the host, in Python frames entered per call, beside
what it costs the model, in clock charges and modelled nanoseconds; and
that every layer boundary is still a method looked up on its instance at
call time, so shadowing one sees every crossing.

Frame counts are ceilings, not equalities: newer interpreters inline
comprehensions (PEP 709) and count lower.
"""

import sys
from collections import Counter

from repro.cluster import mpiexec
from repro.il import ExecutionEngine, assemble
from repro.motor import motor_session, register_mp_internals

#: frames one call may enter, its own included, on rank 0 of a warm
#: two-rank world: an eager 64 B Send, a blocking 64 B Recv, and one
#: round trip of the IL ping-pong loop
SEND_FRAMES = 40
RECV_FRAMES = 80
IL_ROUND_TRIP_FRAMES = 140

#: (clock charges, modelled ns) of the same two calls
SEND_MODEL = (4, 3010.0)
RECV_MODEL = (6, 56190.0)

WARMUP = 3

PING_IL = """
.method ping(sbuf, rbuf, peer, n) {
    .locals 1
    ldc.i4 0
    stloc 0
loop:
    ldloc 0
    ldarg 3
    clt
    brfalse done
    ldarg 0
    ldarg 2
    ldc.i4 1
    callintern MP.Send/3
    ldarg 1
    ldarg 2
    ldc.i4 2
    callintern MP.Recv/3:r
    pop
    ldloc 0
    ldc.i4 1
    add
    stloc 0
    br loop
done:
    ret
}
"""


def frames(call, *args) -> int:
    """Python frames entered while ``call(*args)`` runs, its own included."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "call":
            n += 1

    old = sys.getprofile()
    sys.setprofile(count)
    try:
        call(*args)
    finally:
        sys.setprofile(old)
    return n


def pingpong_world(rank0, rounds_after: int = 1):
    """Rank 0 runs ``rank0(ctx, comm, sbuf, rbuf)`` after the warm-up;
    rank 1 echoes ``rounds_after`` more 64 B round trips."""

    def main(ctx):
        vm = ctx.session
        comm = vm.comm_world
        sbuf = vm.runtime.new_array("byte", 64)
        rbuf = vm.runtime.new_array("byte", 64)
        peer = 1 - ctx.rank
        for _ in range(WARMUP):
            if ctx.rank == 0:
                comm.Send(sbuf, peer, 1)
                comm.Recv(rbuf, peer, 2)
            else:
                comm.Recv(rbuf, peer, 1)
                comm.Send(rbuf, peer, 2)
        if ctx.rank == 0:
            return rank0(ctx, comm, sbuf, rbuf)
        for _ in range(rounds_after):
            comm.Recv(rbuf, peer, 1)
            comm.Send(rbuf, peer, 2)
        return None

    return mpiexec(2, main, channel="sock", clock_mode="virtual",
                   session_factory=motor_session)[0]


class TestFrameBudget:
    def test_send_and_recv(self):
        def rank0(ctx, comm, sbuf, rbuf):
            clock = ctx.clock
            out = {}
            for name, call, args in (("send", comm.Send, (sbuf, 1, 1)),
                                     ("recv", comm.Recv, (rbuf, 1, 2))):
                charges, now = clock.charges, clock.now()
                n = frames(call, *args)
                out[name] = (n, (clock.charges - charges, clock.now() - now))
            return out

        got = pingpong_world(rank0)
        send_frames, send_model = got["send"]
        recv_frames, recv_model = got["recv"]
        assert send_frames <= SEND_FRAMES, f"eager Send entered {send_frames} frames"
        assert recv_frames <= RECV_FRAMES, f"blocking Recv entered {recv_frames} frames"
        # the modelled cost is not what a shorter path may change
        assert send_model == SEND_MODEL
        assert recv_model == RECV_MODEL

    def test_il_round_trip(self):
        """One more iteration of the managed loop (``callintern MP.Send/3``,
        ``MP.Recv/3:r``) is one round trip: the difference of two runs."""

        def rank0(ctx, comm, sbuf, rbuf):
            vm = ctx.session
            il = ExecutionEngine(vm.runtime, assemble(PING_IL, "ping"),
                                 register_mp_internals(vm))
            il.call("ping", sbuf, rbuf, 1, 1)  # compiled before it is counted
            return frames(il.call, "ping", sbuf, rbuf, 1, 2) - frames(
                il.call, "ping", sbuf, rbuf, 1, 1)

        per_round_trip = pingpong_world(rank0, rounds_after=4)
        assert per_round_trip <= IL_ROUND_TRIP_FRAMES


#: the boundaries the layer tracer of benchmarks/perf shadows on a rank's
#: objects, by the attribute of the Motor VM that reaches each object
BOUNDARIES = {
    "fcall": ("call",),
    "core": ("mp_send", "mp_recv"),
    "policy": ("pre_blocking", "on_enter_wait", "release"),
    "gc": ("pin", "unpin"),
    "engine": ("isend", "irecv"),
    "progress": ("wait",),
    "device": ("start_send", "post_recv", "poll"),
    "channel": ("send_packet", "recv_packets"),
}

#: crossings of one eager Send and one blocking Recv on rank 0
CROSSINGS = {
    "fcall.call": 2,
    "core.mp_send": 1,
    "core.mp_recv": 1,
    "policy.pre_blocking": 2,
    "policy.on_enter_wait": 1,
    "policy.release": 2,
    "gc.pin": 1,
    "gc.unpin": 1,
    "engine.isend": 1,
    "engine.irecv": 1,
    "progress.wait": 1,
    "device.start_send": 1,
    "device.post_recv": 1,
    "device.poll": 2,
    "channel.send_packet": 1,
    "channel.recv_packets": 2,
}


def test_layer_boundaries_stay_shadowable():
    """An instance attribute shadowing a boundary sees every crossing:
    no layer caches the bound method of the next one."""

    def rank0(ctx, comm, sbuf, rbuf):
        vm = ctx.session
        engine = vm.engine
        owners = {
            "fcall": vm.fcall,
            "core": vm.core,
            "policy": vm.policy,
            "gc": vm.runtime.gc,
            "engine": engine,
            "progress": engine.progress,
            "device": engine.device,
            "channel": engine.device.channel,
        }
        crossed = Counter()
        for owner, names in BOUNDARIES.items():
            obj = owners[owner]
            for name in names:

                def shadow(*args, _inner=getattr(obj, name), _key=f"{owner}.{name}", **kw):
                    crossed[_key] += 1
                    return _inner(*args, **kw)

                setattr(obj, name, shadow)
        comm.Send(sbuf, 1, 1)
        comm.Recv(rbuf, 1, 2)
        return dict(crossed)

    assert pingpong_world(rank0) == CROSSINGS
