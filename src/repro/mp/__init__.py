"""An MPICH2-like layered message-passing substrate.

Reproduces the structure of MPICH2 the paper relies on (§6, Figure 6):

* the **MPI layer** (:mod:`repro.mp.mpi`) — parameter checking and the
  public point-to-point API, with collectives built on top of it
  (:mod:`repro.mp.collectives`);
* the **ADI-3 / CH3 device** (:mod:`repro.mp.ch3`) — message queuing
  (posted-receive and unexpected-message queues,
  :mod:`repro.mp.matching`), packetizing and data transfer with an
  eager/rendezvous protocol (:mod:`repro.mp.packets`);
* the **channel layer** (:mod:`repro.mp.channels`) — the five-function
  transport interface of Gropp & Lusk's channel device: ``sock`` (framed
  packets over bounded byte rings, polled for readiness — the shape of
  MPICH2's Windows sock channel without the completion port a polled
  model never reads), ``shm``/``ib`` (one in-memory transport, two link
  profiles; they can also *put*, so windows and large messages land with
  one direct write), ``ssm`` (sockets + shared memory combined) and
  ``proc`` (sock's rings shared between real processes, plus a control
  socket);
* a **progress engine** (:mod:`repro.mp.progress`) whose polling-wait
  accepts a yield hook — the place where Motor's FCalls poll the garbage
  collector (paper §7.1/§7.4).

Transfers move bytes directly between the supplied buffers (heap memory
for managed callers, native memory for the C-like baseline) with no
intermediate staging except where real MPIs also stage (unexpected eager
messages) — so the zero-copy/pinning interplay the paper analyses is
real in this substrate.
"""

from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.communicator import Communicator, Group
from repro.mp.datatypes import BYTE, CHAR, DOUBLE, FLOAT, INT, LONG, Datatype
from repro.mp.errors import (
    MpiError,
    MpiErrInternal,
    MpiErrPending,
    MpiErrRank,
    MpiErrTag,
    MpiErrTruncate,
)
from repro.mp.mpi import ANY_SOURCE, ANY_TAG, MpiEngine
from repro.mp.request import Request
from repro.mp.status import Status

__all__ = [
    "BufferDesc",
    "NativeMemory",
    "Communicator",
    "Group",
    "Datatype",
    "BYTE",
    "CHAR",
    "INT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "MpiError",
    "MpiErrRank",
    "MpiErrTag",
    "MpiErrTruncate",
    "MpiErrPending",
    "MpiErrInternal",
    "MpiEngine",
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "Status",
]
