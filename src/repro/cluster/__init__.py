"""Cluster worlds: rank hosting, the launcher and dynamic spawning.

The paper's evaluation runs two MPI processes on one node; here a
:class:`World` hosts its ranks on one of two **execution substrates**
behind the same seam:

* ``substrate="inproc"`` (default) — each rank is a Python thread with
  its **own** managed runtime (own heap, own collector, own safepoint
  state) connected to its peers through a simulated channel fabric.
  Isolated per-rank heaps keep the GC/pinning semantics honest: a peer's
  in-flight data lands in *my* heap while *my* collector may be moving
  objects — the exact interplay the paper studies.
* ``substrate="proc"`` — one real OS process per rank
  (:mod:`repro.cluster.procsub`): packets cross shared-memory rings rank
  to rank, and the launcher only forks the workers, collects their
  results and relays the kernel's word that one died — the same MPI
  stack, with the bytes genuinely crossing address spaces.

:func:`mpiexec` is the launcher; :meth:`World.spawn` provides the MPI-2
dynamic process management Motor implemented (paper §7: "selected MPI-2
functionality such as dynamic process management and dynamic
intercommunication routines").  ``python -m repro.cluster`` runs a
pingpong on real processes from the command line.
"""

from repro.cluster.substrate import InprocSubstrate, Substrate, make_substrate
from repro.cluster.world import RankContext, World, mpiexec

__all__ = [
    "World",
    "RankContext",
    "Substrate",
    "InprocSubstrate",
    "make_substrate",
    "mpiexec",
]
