"""Process groups and communicators.

Context-id allocation is deterministic and identical across ranks, which
(as in a real MPI) requires communicator-creating calls to be collective:
every rank must perform the same sequence of dup/split/spawn operations.
Each communicator owns two context ids: an even one for point-to-point
traffic and the next odd one for collectives, so collective traffic can
never match user receives (MPICH2 uses the same trick).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mp.errors import ERRORS_ARE_FATAL, ERRORS_RETURN, MpiErrComm, MpiErrRank


class Group:
    """An ordered set of world ranks (MPI_Group)."""

    def __init__(self, ranks) -> None:
        self.ranks = tuple(ranks)
        if len(set(self.ranks)) != len(self.ranks):
            raise MpiErrRank(f"duplicate ranks in group: {self.ranks}")
        self._index = {r: i for i, r in enumerate(self.ranks)}

    @property
    def size(self) -> int:
        return len(self.ranks)

    def world_rank(self, local: int) -> int:
        try:
            return self.ranks[local]
        except IndexError:
            raise MpiErrRank(f"rank {local} out of range for group of {self.size}") from None

    def local_rank(self, world: int) -> int:
        try:
            return self._index[world]
        except KeyError:
            raise MpiErrRank(f"world rank {world} not in group") from None

    def contains(self, world: int) -> bool:
        return world in self._index

    # -- set operations (MPI_Group_*) ------------------------------------------

    def incl(self, locals_) -> "Group":
        return Group(self.world_rank(i) for i in locals_)

    def excl(self, locals_) -> "Group":
        drop = {self.world_rank(i) for i in locals_}
        return Group(r for r in self.ranks if r not in drop)

    def union(self, other: "Group") -> "Group":
        seen = list(self.ranks)
        for r in other.ranks:
            if r not in self._index:
                seen.append(r)
        return Group(seen)

    def intersection(self, other: "Group") -> "Group":
        return Group(r for r in self.ranks if other.contains(r))

    def difference(self, other: "Group") -> "Group":
        return Group(r for r in self.ranks if not other.contains(r))

    @staticmethod
    def translate_ranks(g1: "Group", ranks, g2: "Group") -> list[int]:
        out = []
        for r in ranks:
            w = g1.world_rank(r)
            out.append(g2.local_rank(w) if g2.contains(w) else -1)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash(self.ranks)

    def __repr__(self) -> str:
        return f"<Group {self.ranks}>"


@dataclass
class Communicator:
    """An intra- or inter-communicator bound to one rank's engine."""

    engine: object  # MpiEngine (forward ref; avoids the import cycle)
    context_id: int
    group: Group
    rank: int  # local rank within group
    #: inter-communicator remote group (None for intracomms)
    remote_group: Group | None = None
    #: per-communicator error handler (MPI-2 §4.13): how MPI-surface calls
    #: report process failure and timeout
    errhandler: str = ERRORS_ARE_FATAL

    def set_errhandler(self, handler: str) -> None:
        if handler not in (ERRORS_ARE_FATAL, ERRORS_RETURN):
            raise MpiErrComm(f"unknown error handler {handler!r}")
        self.errhandler = handler

    def shrink(self) -> "Communicator":
        """ULFM-style MPI_Comm_shrink: a new communicator of survivors.

        Collective over the *surviving* ranks; every survivor must call it
        (in the same order relative to other communicator-creating calls)
        and gets a communicator excluding every rank the reliability layer
        has declared failed.  The new communicator inherits this one's
        error handler.
        """
        return self.engine.comm_shrink(self)

    def agree(self, value: int = -1, op: str = "band") -> tuple[int, frozenset]:
        """ULFM-style MPI_Comm_agree over this communicator's survivors.

        Returns ``(folded_value, failed_world_ranks)`` — the ``op``-fold
        of every survivor's ``value`` plus the agreed failed set, identical
        on every survivor even when their local detectors disagreed.
        """
        return self.engine.recovery.agree(self, value, op)

    def checkpoint(self, state, placement: str | None = None, root: int = 0) -> int:
        """Coordinated checkpoint of rank-local ``state``; returns the
        committed epoch.  Collective over the communicator."""
        return self.engine.recovery.checkpoint(self, state, placement=placement, root=root)

    def restore(self, epoch: int | None = None):
        """Rank-local state from the last committed checkpoint epoch."""
        return self.engine.recovery.restore(self, epoch)

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def coll_context_id(self) -> int:
        return self.context_id + 1

    @property
    def is_inter(self) -> bool:
        return self.remote_group is not None

    @property
    def remote_size(self) -> int:
        if self.remote_group is None:
            raise MpiErrComm("not an inter-communicator")
        return self.remote_group.size

    def world_rank_of(self, local: int) -> int:
        """Destination resolution: remote group for intercomms.  A rank
        outside the group (``ANY_SOURCE`` included) is MPI_ERR_RANK."""
        g = self.remote_group if self.remote_group is not None else self.group
        ranks = g.ranks
        if not 0 <= local < len(ranks):
            raise MpiErrRank(f"rank {local} invalid for communicator of size {len(ranks)}")
        return ranks[local]

    def local_rank_of_world(self, world: int) -> int:
        g = self.remote_group if self.remote_group is not None else self.group
        local = g._index.get(world)  # Group.local_rank's lookup, in place
        if local is None:
            raise MpiErrRank(f"world rank {world} not in group")
        return local

    def __repr__(self) -> str:
        kind = "inter" if self.is_inter else "intra"
        return f"<{kind}Comm ctx={self.context_id} rank={self.rank}/{self.size}>"
