"""The mpiJava baseline (paper refs [5], §2.1).

A Java wrapper over native MPI through JNI: the JNI gate marshals every
call and **automatically pins and unpins** object arguments (§2.3) — no
policy, no generation test.  Object transport uses the ``MPI.OBJECT``
datatype, i.e. the standard Java serialization mechanism
(:class:`repro.baselines.serializers.JavaSerializer`), whose genuine
recursion overflows on long linked lists, stopping the Figure 10 series
at 1024 objects.

Java's arrays-of-arrays model is also reproduced: ``new_multi_array``
builds an ``int[][]`` as an array of references to row arrays, which
cannot be transported buffer-to-buffer (it is many objects), only through
serialization — the contrast with the CLI's true multidimensional arrays
the paper draws in §3.
"""

from __future__ import annotations

from functools import partial

from repro.baselines.managed import ManagedBinding
from repro.baselines.serializers import JavaSerializer
from repro.cluster.world import RankContext
from repro.mp.status import Status
from repro.runtime.handles import ObjRef


class MpiJavaComm(ManagedBinding):
    """mpiJava bindings over JNI, hosted by the JVM profile."""

    name = "mpijava"

    def __init__(self, ctx: RankContext, profile: str = "jvm") -> None:
        super().__init__(ctx, profile)
        # JNI pins/unpins object args automatically on every call.
        self.gate = self.runtime.gate("jni", self.profile)
        self.serializer = JavaSerializer(self.runtime, self.profile)

    def new_multi_array(self, rows: int, cols: int) -> ObjRef:
        """Java ``int[rows][cols]``: an array of row-array references."""
        arr = self.runtime.new_array("int32[]", rows)
        for r in range(rows):
            row = self.runtime.new_array("int32", cols)
            self.runtime.set_elem_ref(arr, r, row)
        return arr

    # -- point-to-point through JNI ------------------------------------------------

    def send(self, buf: ObjRef, dest: int, tag: int) -> None:
        desc = self._buf_desc(buf)
        # The gate receives the ObjRef argument so JNI can auto-pin it.
        self.gate.call(
            lambda _buf: self.engine.send(desc, dest, tag, self.comm), buf
        )

    def recv(self, buf: ObjRef, source: int, tag: int) -> Status:
        desc = self._buf_desc(buf)
        return self.gate.call(
            lambda _buf: self.engine.recv(desc, source, tag, self.comm), buf
        )

    def barrier(self) -> None:
        self.gate.call(partial(self.engine.barrier, self.comm))

    def tree_will_overflow(self, elements: int) -> bool:
        # writeObject recursion deepens once per list element.
        return elements > self.runtime.costs.java_recursion_limit
