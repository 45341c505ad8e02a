"""The comparison systems of the paper's evaluation (§8).

Every baseline runs over the *same* MPICH2-like substrate as Motor — the
paper levelled the field the same way ("to provide a fair comparison, they
were reimplemented over MPICH2 v1.0.2").  What differs is the architecture
above the substrate, which is exactly the experiment:

* :mod:`repro.baselines.native_cpp` — the C++ application: no managed
  runtime, no gates, no pinning; buffers are native memory.
* :mod:`repro.baselines.indiana` — the Indiana C# bindings: a managed
  wrapper crossing P/Invoke per call, pinning the buffer for *every*
  operation, hosted by a selectable runtime profile (SSCLI free /
  fastchecked, commercial .NET).
* :mod:`repro.baselines.mpijava` — mpiJava: a JNI wrapper with automatic
  pin/unpin, Java's arrays-of-arrays model, and the JDK-style recursive
  object serializer (which genuinely overflows on long linked lists).
* :mod:`repro.baselines.jmpi` — JMPI: pure managed MPI over an RMI
  simulation; fully portable, no native anything, and slow.
* :mod:`repro.baselines.managed` — what the three managed bindings above
  share: a hosting runtime, ``byte[]`` buffers, and tree transport as a
  size-prefixed serialized stream.
* :mod:`repro.baselines.serializers` — the standard atomic serializers
  (CLI binary, Java object serialization) that the wrapper bindings use
  for object trees; both read type information through the slow metadata
  path and neither can produce a split representation.

Each binding class takes a rank's context, so it is its own
``session_factory`` for :func:`repro.cluster.mpiexec` and its own entry in
the flavor table (:mod:`repro.workloads.adapters`): the ping-pong drivers
call its verbs directly.
"""

from repro.baselines.indiana import IndianaComm
from repro.baselines.jmpi import JmpiComm
from repro.baselines.mpijava import MpiJavaComm
from repro.baselines.native_cpp import NativeComm
from repro.baselines.serializers import (
    ClrBinarySerializer,
    JavaSerializer,
    SerializationStackOverflow,
)

__all__ = [
    "NativeComm",
    "IndianaComm",
    "MpiJavaComm",
    "JmpiComm",
    "ClrBinarySerializer",
    "JavaSerializer",
    "SerializationStackOverflow",
]
