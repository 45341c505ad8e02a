"""Managed-to-native call gates: FCall vs. P/Invoke vs. JNI.

The architectural comparison at the core of the paper: wrapper MPI
libraries cross a managed-to-native boundary (JNI for Java, P/Invoke for
the CLI) on *every* MPI call, paying marshalling and security checks each
time; Motor's `System.MP` reaches the runtime-internal MPI core through
FCalls, which are internally trusted and skip both (§2.2, §5.1).

Each gate here performs its boundary crossing as *real work* (so the
wall-clock benchmarks measure it) and charges its calibrated cost (so the
virtual-clock figures reflect it):

* :class:`FCallGate` — safepoint polls at entry and exit, nothing else.
* :class:`PInvokeGate` — marshals every argument into a flat descriptor
  record and walks a simulated call stack performing a declarative
  security (unmanaged-code permission) demand.
* :class:`JNIGate` — marshals like P/Invoke, resolves each call through a
  JNIEnv function-table indirection, and automatically pins array/object
  arguments for the duration of the call (JNI semantics; the paper
  contrasts this with the CLI where pinning is the caller's problem).
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.mp.hooks import NULL_SPINE
from repro.runtime.handles import ObjRef
from repro.simtime import HostProfile


class GateStats:
    __slots__ = ("calls", "marshalled_args", "security_checks", "auto_pins")

    def __init__(self) -> None:
        self.calls = 0
        self.marshalled_args = 0
        self.security_checks = 0
        self.auto_pins = 0


class FCallGate:
    """The SSCLI internal-call mechanism (paper: FCall / InternalCall).

    FCalls must behave like managed code: they poll the collector on entry
    and exit, and any object arguments are received as GC-protected
    handles (``ObjRef``), never raw addresses — the analogue of the
    SSCLI's protected-pointer macros.
    """

    name = "fcall"

    #: the rank's hook spine (``wire_vm``): each crossing counts ``motor.mp.fcalls``
    hooks = NULL_SPINE

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.stats = GateStats()

    def call(self, fn: Callable, *args: Any, **kwargs: Any):
        for cb in self.hooks.count:
            cb("motor.mp.fcalls", 1)
        rt = self.runtime
        rt.clock.charge(rt.costs.fcall_ns)
        self.stats.calls += 1
        rt.safepoint.poll()  # on entry, before the operation commences
        try:
            return fn(*args, **kwargs)
        finally:
            rt.safepoint.poll()  # immediately prior to exiting the FCall


class _MarshallingGate:
    """Shared machinery for the wrapper-side gates (P/Invoke, JNI)."""

    def __init__(self, runtime, profile: HostProfile) -> None:
        self.runtime = runtime
        self.profile = profile
        self.stats = GateStats()
        # A synthetic managed call stack for the security walk; each frame
        # is (assembly, has_unmanaged_permission).
        self._stack = [
            ("UserApp.exe", False),
            ("System.dll", False),
            ("MPI.Bindings.dll", True),
        ]

    def _marshal(self, args: tuple) -> bytes:
        """Flatten every argument into a native descriptor record.

        This is the per-call marshalling cost the paper attributes to
        P/Invoke and JNI; it is genuine byte-bashing work here.
        """
        out = bytearray()
        for a in args:
            if isinstance(a, ObjRef):
                out += struct.pack("<BQ", 1, a.addr)
            elif isinstance(a, bool):
                out += struct.pack("<B?", 2, a)
            elif isinstance(a, int):
                out += struct.pack("<Bq", 3, a)
            elif isinstance(a, float):
                out += struct.pack("<Bd", 4, a)
            elif isinstance(a, (bytes, bytearray, memoryview)):
                mv = memoryview(a)
                out += struct.pack("<BI", 5, len(mv))
            elif a is None:
                out += struct.pack("<B", 0)
            else:
                enc = repr(a).encode()
                out += struct.pack("<BI", 6, len(enc)) + enc
            self.stats.marshalled_args += 1
        return bytes(out)

    def _security_demand(self) -> None:
        """Walk the call stack demanding SecurityPermission.UnmanagedCode."""
        for _assembly, granted in reversed(self._stack):
            self.stats.security_checks += 1
            if granted:
                return
        # bindings assemblies are always granted in this simulation


class PInvokeGate(_MarshallingGate):
    """The CLI Platform Invoke boundary (paper §2.1: Indiana bindings)."""

    name = "pinvoke"

    def call(self, fn: Callable, *args: Any, **kwargs: Any):
        rt = self.runtime
        rt.clock.charge(rt.costs.gate_cost("pinvoke", len(args), self.profile))
        self.stats.calls += 1
        self._marshal(args)
        self._security_demand()
        # GC-mode transition: the thread leaves cooperative (managed) mode.
        rt.safepoint.poll()
        try:
            return fn(*args, **kwargs)
        finally:
            rt.safepoint.poll()


class JNIGate(_MarshallingGate):
    """The Java Native Interface boundary (paper §2.1: mpiJava, JavaMPI).

    JNI "automatically pins and unpins objects" (§2.3) — every ObjRef
    argument is pinned before the native call and unpinned afterwards,
    regardless of whether the transport actually needed it.
    """

    name = "jni"

    def __init__(self, runtime, profile: HostProfile) -> None:
        super().__init__(runtime, profile)
        # JNIEnv function table: calls are resolved through this dict, the
        # extra indirection JNI imposes relative to a direct native call.
        self._jni_env: dict[str, Callable] = {}

    def call(self, fn: Callable, *args: Any, **kwargs: Any):
        rt = self.runtime
        rt.clock.charge(rt.costs.gate_cost("jni", len(args), self.profile))
        self.stats.calls += 1
        self._marshal(args)
        # JNIEnv function-table indirection: the native entry is resolved
        # through the env table on every call.
        self._jni_env["entry"] = fn
        entry = self._jni_env["entry"]
        cookies = []
        for a in args:
            if isinstance(a, ObjRef) and not a.is_null:
                cookies.append(rt.gc.pin(a, cost_mult=self.profile.pin_mult))
                self.stats.auto_pins += 1
        rt.safepoint.poll()
        try:
            return entry(*args, **kwargs)
        finally:
            for c in cookies:
                rt.gc.unpin(c, cost_mult=self.profile.pin_mult)
            rt.safepoint.poll()
