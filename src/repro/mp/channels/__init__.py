"""Channel implementations (the lowest MPICH2 layer).

"Implementing MPICH2 with a new transport requires developing a new
channel ... the simplest port requires implementation of five functions
which define the simplest functionality required to move a message from
one address space to another" (paper §6).  :class:`repro.mp.channels.base.
Channel` is that five-function interface.  Two transports implement it,
one per execution substrate:

* the **in-memory** transport (:mod:`repro.mp.channels.mem`) carries every
  simulated (``inproc``) world: one packet queue per rank plus a window
  registry for native one-sided ops.  The ``channel=`` name picks only a
  table of link rows (:data:`repro.simtime.LINK_PROFILES`): ``sock`` (the
  configuration Motor shipped with), ``shm`` (MPICH2's shared-memory
  channel), ``ib`` (the RDMA-style port of paper §9) and ``ssm`` (shm
  within a node, sock across nodes) differ only in constants;
* the **ring** transport (:mod:`repro.mp.channels.sock`) carries real
  processes (``proc``): packets framed onto a byte ring per ordered pair
  of ranks, in a mapping the forked workers inherit (see
  :mod:`repro.cluster.procsub`), priced with the sock row.  Being an
  independent implementation of the same costs, it referees the
  simulated one.

:class:`FaultyChannel` is a wrapper, not a transport: it composes over
either and injects the failures described by a seeded :class:`FaultPlan`
(see ``repro.mp.channels.faulty``).
"""

from functools import partial

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.channels.faulty import FaultPlan, FaultyChannel, FaultyFabric
from repro.mp.channels.mem import LinkTable, MemChannel, MemFabric
from repro.mp.channels.sock import SockChannel, SockFabric

#: an in-memory fabric by ``channel=`` name: ``FABRICS[name](world_size)``
FABRICS = {name: partial(MemFabric, channel=name) for name in ("shm", "sock", "ssm", "ib")}

__all__ = [
    "Channel",
    "ChannelFabric",
    "LinkTable",
    "MemChannel",
    "MemFabric",
    "SockChannel",
    "SockFabric",
    "FaultPlan",
    "FaultyChannel",
    "FaultyFabric",
    "FABRICS",
]
