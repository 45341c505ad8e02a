"""Group algebra and communicator bookkeeping (no transport needed)."""

import pytest

from repro.mp.communicator import Communicator, Group
from repro.mp.errors import MpiErrComm, MpiErrRank


class TestGroup:
    def test_basic(self):
        g = Group([3, 1, 4])
        assert g.size == 3
        assert g.world_rank(0) == 3
        assert g.local_rank(4) == 2
        assert g.contains(1) and not g.contains(9)

    def test_duplicates_rejected(self):
        with pytest.raises(MpiErrRank):
            Group([1, 1])

    def test_out_of_range(self):
        g = Group([0, 1])
        with pytest.raises(MpiErrRank):
            g.world_rank(5)
        with pytest.raises(MpiErrRank):
            g.local_rank(7)

    def test_incl_excl(self):
        g = Group([10, 20, 30, 40])
        assert g.incl([0, 2]).ranks == (10, 30)
        assert g.excl([1]).ranks == (10, 30, 40)

    def test_set_operations(self):
        a = Group([0, 1, 2])
        b = Group([2, 3])
        assert a.union(b).ranks == (0, 1, 2, 3)
        assert a.intersection(b).ranks == (2,)
        assert a.difference(b).ranks == (0, 1)

    def test_translate_ranks(self):
        a = Group([5, 6, 7])
        b = Group([7, 5])
        assert Group.translate_ranks(a, [0, 1, 2], b) == [1, -1, 0]

    def test_equality_and_hash(self):
        assert Group([1, 2]) == Group([1, 2])
        assert Group([1, 2]) != Group([2, 1])  # order matters
        assert hash(Group([1, 2])) == hash(Group([1, 2]))


class TestCommunicator:
    def _comm(self, **kw):
        defaults = dict(engine=None, context_id=4, group=Group([0, 1, 2]), rank=1)
        defaults.update(kw)
        return Communicator(**defaults)

    def test_intracomm_properties(self):
        c = self._comm()
        assert c.size == 3
        assert not c.is_inter
        assert c.coll_context_id == c.context_id + 1
        assert c.world_rank_of(2) == 2

    def test_rank_checking(self):
        c = self._comm()
        assert c.world_rank_of(0) == 0
        with pytest.raises(MpiErrRank):
            c.world_rank_of(3)
        with pytest.raises(MpiErrRank):
            c.world_rank_of(-1)
        from repro.mp.matching import ANY_SOURCE

        # the wildcard is the receive's to allow (MpiEngine.irecv), never a destination
        with pytest.raises(MpiErrRank):
            c.world_rank_of(ANY_SOURCE)

    def test_intercomm(self):
        c = self._comm(remote_group=Group([5, 6]))
        assert c.is_inter
        assert c.remote_size == 2
        # destination resolution goes through the REMOTE group
        assert c.world_rank_of(1) == 6
        with pytest.raises(MpiErrRank):
            c.world_rank_of(2)  # remote group has only 2 members

    def test_remote_size_on_intracomm(self):
        with pytest.raises(MpiErrComm):
            _ = self._comm().remote_size

    def test_repr(self):
        assert "intraComm" in repr(self._comm())
        assert "interComm" in repr(self._comm(remote_group=Group([9])))
