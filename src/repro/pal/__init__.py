"""Platform Adaptation Layer (PAL) simulation.

The SSCLI runtime is written against the PAL, a virtual subset of the
Windows API; porting the runtime means re-implementing the PAL (paper
§5.4).  Motor ports the MPICH2 core to the PAL, leaving only the lowest
MPICH2 layer — the sock channel — below it, talking to the OS directly
(including the Windows-specific I/O completion ports the PAL does not
expose; paper §7.1).

This package reproduces that structure:

* kernel objects (:mod:`repro.pal.events`) are process-wide primitives
  shared between rank threads, standing in for the host OS;
* :class:`repro.pal.api.PAL` is the per-rank facade the runtime and the
  ported MPI core call through.  Two backends exist: ``windows`` (thin —
  the PAL is almost a pass-through, as in the real SSCLI) and ``unix``
  (thick — every call pays an emulation surcharge, reproducing the
  Windows-vs-UNIX PAL asymmetry the paper describes);
* the sock channel's transport lives *below* the PAL, as in Motor: the
  facade refuses ``CreateIoCompletionPort``, and the channels poll their
  queues or byte rings directly (see :mod:`repro.mp.channels`).
"""

from repro.pal.api import PAL, PalError
from repro.pal.events import Event

__all__ = [
    "PAL",
    "PalError",
    "Event",
]
