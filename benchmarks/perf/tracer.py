"""Outside-in layer tracer: time the stack without touching ``src/``.

A rank main already holds every object whose public methods form a layer
boundary (``ctx.session``, ``ctx.engine``, ``.progress``, ``.device``,
``.device.channel``).  :func:`install` shadows those bound methods with
instance attributes that open a span, call through and close it, so the
same tracer works for rank threads (``inproc``) and worker processes
(``proc``): it lives in the rank main, nothing is shared across ranks.

A span is ``(layer, start_ns, end_ns, parent, op)``.  A layer's **self
time** is its spans' duration minus the part its child spans cover, so
self times over all layers (plus the residual ``app`` root span the rank
main opens around each sample) sum to the traced end-to-end time.  Both
clocks are read at every boundary: host time (``perf_counter_ns``) and
modelled time (``ctx.clock.now()``).

Aggregates are kept for the whole timed phase; raw spans are kept only
for the first :data:`SPAN_DUMP_LIMIT` boundaries of it (a 64 B ping-pong
crosses ~200 boundaries per round trip — keeping them all would measure
the allocator, not the stack).
"""

from __future__ import annotations

from time import perf_counter_ns

#: raw spans retained per repetition for the span dump
SPAN_DUMP_LIMIT = 4000

#: the residual layer: the rank main's own loop, opened per sample
APP = "app"

#: every layer a per-layer metric is reported for, outermost first
LAYERS = (
    APP,
    "il.engine",
    "motor.system_mp",
    "runtime.interop",
    "motor.mpcore",
    "motor.pinpolicy",
    "motor.serialization",
    "motor.buffers",
    "runtime.gcollector",
    "mp.mpi",
    "mp.collectives",
    "mp.win",
    "mp.progress",
    "mp.ch3",
    "mp.reliability",
    "mp.recovery",
    "mp.channels",
)


def calibrate() -> int:
    """Host nanoseconds one fixed pure-Python loop takes: the noise probe.

    Timed around every set-up and every sample, so the harness can tell a
    disturbed measurement from a quiet one without looking at the
    measurement itself.
    """
    t0 = perf_counter_ns()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return perf_counter_ns() - t0


class Tracer:
    """Per-rank span recorder with online self-time aggregation."""

    def __init__(self, clock_now, span_limit: int = SPAN_DUMP_LIMIT) -> None:
        self._now = clock_now
        self._limit = span_limit
        self._patched: list[tuple[object, str]] = []
        #: open frames: [layer, wall0, virt0, child_wall, child_virt, span_index]
        self._stack: list[list] = []
        #: first op index of the sample being traced (IL loops hide op boundaries)
        self.op = 0
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (end of warm-up)."""
        self.wall_self = dict.fromkeys(LAYERS, 0)
        self.virt_self = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.spans: list[list] = []
        #: free-form counts bumped by ``after=`` hooks (serialized bytes)
        self.counts: dict[str, int] = {}

    # -- span bookkeeping --------------------------------------------------------

    def enter(self, layer: str) -> None:
        index = -1
        if len(self.spans) < self._limit:
            index = len(self.spans)
            parent = self._stack[-1][5] if self._stack else -1
            self.spans.append([layer, 0, 0, parent, self.op])
        frame = [layer, 0, self._now(), 0, 0.0, index]
        self._stack.append(frame)
        frame[1] = perf_counter_ns()

    def exit(self) -> None:
        wall1 = perf_counter_ns()
        virt1 = self._now()
        layer, wall0, virt0, child_wall, child_virt, index = self._stack.pop()
        wall = wall1 - wall0
        virt = virt1 - virt0
        self.wall_self[layer] += wall - child_wall
        self.virt_self[layer] += virt - child_virt
        self.calls[layer] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[3] += wall
            parent[4] += virt
        if index >= 0:
            span = self.spans[index]
            span[1], span[2] = wall0, wall1

    # -- wrapping ----------------------------------------------------------------

    def _traced(self, fn, layer: str, after=None):
        stack = self._stack  # empty outside a root span: call straight through
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result)
            return result

        return traced

    def wrap(self, obj, names, layer: str, after=None) -> None:
        """Shadow ``obj``'s bound methods ``names`` with traced ones."""
        for name in names:
            setattr(obj, name, self._traced(getattr(obj, name), layer, after))
            self._patched.append((obj, name))

    def proxy(self, obj, names, layer: str):
        """A traced stand-in for an object whose class has ``__slots__``."""
        return _Proxy(obj, {n: self._traced(getattr(obj, n), layer) for n in names})

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def uninstall(self) -> None:
        """Remove every shadowing attribute: the class methods show again."""
        for obj, name in reversed(self._patched):
            delattr(obj, name)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "wall_self_ns": dict(self.wall_self),
            "virt_self_ns": dict(self.virt_self),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": [tuple(s) for s in self.spans],
        }


class _Proxy:
    def __init__(self, inner, traced: dict) -> None:
        self._inner = inner
        self.__dict__.update(traced)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(tracer: Tracer, ctx) -> None:
    """Wrap one rank's stack, layer by layer (the README's layer table)."""
    wrap = tracer.wrap
    engine = ctx.engine
    device = engine.device
    vm = ctx.session
    if vm is not None:
        wrap(vm.comm_world, ("Send", "Recv", "OSend", "ORecv", "Barrier", "WinCreate"),
             "motor.system_mp")
        wrap(vm.fcall, ("call",), "runtime.interop")
        wrap(vm.core, ("mp_send", "mp_recv", "mp_osend", "mp_orecv", "mp_barrier",
                       "mp_win_create", "mp_win_put", "mp_win_fence", "mp_win_free"),
             "motor.mpcore")
        wrap(vm.policy, ("pre_blocking", "on_enter_wait", "pin_now", "release",
                         "window_pin", "window_release"), "motor.pinpolicy")
        wrap(vm.serializer, ("serialize",), "motor.serialization",
             after=lambda out: tracer.count("serialized_bytes", len(out)))
        wrap(vm.serializer, ("deserialize",), "motor.serialization")
        wrap(vm.pool, ("acquire", "release"), "motor.buffers")
        wrap(vm.runtime.gc, ("collect", "pin", "unpin"), "runtime.gcollector")
    wrap(engine, ("isend", "irecv", "send", "recv", "wait", "wait_any", "win_create"),
         "mp.mpi")
    wrap(engine, ("barrier", "start_schedule"), "mp.collectives")
    wrap(engine.progress, ("wait", "wait_all", "poll_until", "poll", "test"), "mp.progress")
    wrap(device, ("start_send", "post_recv", "poll"), "mp.ch3")
    wrap(device.channel, ("send_packet", "recv_packets", "has_incoming", "rma_put", "rma_get"),
         "mp.channels")
    if device.rel is not None:
        wrap(device.rel, ("outbound", "inbound", "tick"), "mp.reliability")
        # the recovery manager is built lazily; only reliable worlds checkpoint
        wrap(engine.recovery, ("checkpoint",), "mp.recovery")


def trace_window(tracer: Tracer, window):
    """Trace a ``MotorWindow`` (slotted, so proxied) and its native ``Win``."""
    tracer.wrap(window.native, ("fence", "put", "free"), "mp.win")
    return tracer.proxy(window, ("Put", "Fence", "Free"), "motor.system_mp")
