"""A CLI-like managed runtime simulator (the SSCLI substrate).

This package reproduces, in Python, the parts of the Shared Source CLI that
Motor's design depends on (paper §5):

* a byte-addressed managed heap with object headers, MethodTables and
  FieldDescs (:mod:`repro.runtime.heap`, :mod:`repro.runtime.typesys`,
  :mod:`repro.runtime.objectmodel`);
* a two-generational garbage collector with promotion-with-compaction, an
  SSCLI-style pin table (pinned collections promote the whole nursery
  block), a remembered set for elder-to-young references, and Motor's
  *conditional* pin requests resolved during the mark phase
  (:mod:`repro.runtime.gcollector`);
* a GC-updated handle table so user code holds stable references to moving
  objects (:mod:`repro.runtime.handles`);
* the safepoint / GC-polling protocol FCalls must participate in
  (:mod:`repro.runtime.safepoint`);
* the three managed-to-native call gates the paper compares — FCall
  (internal, trusted), P/Invoke (marshalling + security checks) and JNI
  (marshalling + automatic pin/unpin) (:mod:`repro.runtime.interop`);
* slow metadata-based reflection vs. fast FieldDesc-bit lookups
  (:mod:`repro.runtime.reflection`).

Objects really live in a byte-addressed heap (a private anonymous mapping
whose pages are committed on first touch), really move when collected,
and an unpinned in-flight transfer really corrupts memory — the hazards the
paper's pinning policy exists to prevent are genuine in this simulator.
"""

from repro.runtime.errors import (
    InvalidOperation,
    ManagedError,
    NullReferenceError_,
    ObjectModelViolation,
    OutOfManagedMemory,
    TypeLoadError,
)
from repro.runtime.typesys import (
    FD_TRANSPORTABLE,
    FieldDesc,
    FieldSpec,
    MethodTable,
    PrimitiveType,
    TypeRegistry,
)
from repro.runtime.handles import ObjRef
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig

__all__ = [
    "ManagedError",
    "OutOfManagedMemory",
    "NullReferenceError_",
    "ObjectModelViolation",
    "InvalidOperation",
    "TypeLoadError",
    "PrimitiveType",
    "FieldSpec",
    "FieldDesc",
    "MethodTable",
    "TypeRegistry",
    "FD_TRANSPORTABLE",
    "ObjRef",
    "ManagedRuntime",
    "RuntimeConfig",
]
