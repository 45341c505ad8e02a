"""Channel implementations (the lowest MPICH2 layer).

"Implementing MPICH2 with a new transport requires developing a new
channel ... the simplest port requires implementation of five functions
which define the simplest functionality required to move a message from
one address space to another" (paper §6).  :class:`repro.mp.channels.base.
Channel` is that five-function interface.  Three mechanisms implement it:

* one **in-memory** transport (:mod:`repro.mp.channels.mem`): a bounded
  shared queue per rank plus a window registry for native one-sided ops.
  ``shm`` (MPICH2's shared-memory channel) and ``ib`` (the RDMA-style
  port of paper §9) are the same code over two rows of
  :data:`repro.simtime.LINK_PROFILES` — they differ only in constants;
* one **framed** transport, ``sock``: packets framed onto a bounded byte
  ring per ordered pair of ranks, so a large message genuinely arrives
  over several polls — the configuration Motor shipped with, and the
  mechanism the pinning ablations need.  ``ssm`` composes the two (shm
  for peers on the same node, sock across nodes) and adds no mechanism of
  its own; ``proc`` is sock with its rings in a mapping worker processes
  share, plus a control socket to the launcher's router — what the proc
  execution substrate runs on; see :mod:`repro.cluster.substrate`.

:class:`FaultyChannel` is a wrapper, not a transport: it composes over
any of the concrete channels and injects the failures described by a
seeded :class:`FaultPlan` (see ``repro.mp.channels.faulty``).
"""

from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.channels.faulty import FaultPlan, FaultyChannel, FaultyFabric
from repro.mp.channels.mem import IbChannel, IbFabric, ShmChannel, ShmFabric
from repro.mp.channels.proc import ProcChannel, ProcFabric
from repro.mp.channels.sock import SockChannel, SockFabric
from repro.mp.channels.ssm import SsmChannel, SsmFabric

FABRICS = {
    "shm": ShmFabric,
    "sock": SockFabric,
    "ssm": SsmFabric,
    "ib": IbFabric,
    "proc": ProcFabric,
}

__all__ = [
    "Channel",
    "ChannelFabric",
    "ShmChannel",
    "ShmFabric",
    "SockChannel",
    "SockFabric",
    "SsmChannel",
    "SsmFabric",
    "IbChannel",
    "IbFabric",
    "ProcChannel",
    "ProcFabric",
    "FaultPlan",
    "FaultyChannel",
    "FaultyFabric",
    "FABRICS",
]
