"""Communicator and group management.

Creation calls are collectives: the runtime allocates communicator ids
(cids) inside the rendezvous finalizer, so cid assignment order is a
deterministic function of program behaviour — mirroring how Pilgrim's
group-wide max-allreduce (§3.3.1) yields identical symbolic ids on every
member.  Inter-communicator creation uses a leader-pair rendezvous keyed
by (peer comm, tag), and non-blocking duplication (``MPI_Comm_idup``)
delivers the new communicator through the request's value at completion —
the tricky case the paper calls out in §3.3.1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import constants as C
from .api_base import ApiBase
from .comm import Comm
from .errors import (CollectiveMismatchError, InvalidArgumentError)
from .group import Group
from .request import Request


class ApiComm(ApiBase):
    """Communicator/group mixin."""

    # -- local queries -----------------------------------------------------------

    def comm_size(self, comm: Optional[Comm] = None) -> int:
        comm = comm or self.world
        comm.check_usable()
        t0 = self._tick()
        size = self._views[comm].local.size
        self._rec("MPI_Comm_size", t0, (comm, size))
        return size

    def comm_rank(self, comm: Optional[Comm] = None) -> int:
        comm = comm or self.world
        comm.check_usable()
        t0 = self._tick()
        rank = self._views[comm].rank
        self._rec("MPI_Comm_rank", t0, (comm, rank))
        return rank

    def comm_remote_size(self, comm: Comm) -> int:
        comm.check_usable()
        if comm.remote_group is None:
            raise InvalidArgumentError(
                "MPI_Comm_remote_size on an intra-communicator")
        t0 = self._tick()
        size = self._views[comm].peer.size
        self._rec("MPI_Comm_remote_size", t0, (comm, size))
        return size

    def comm_test_inter(self, comm: Comm) -> bool:
        comm.check_usable()
        t0 = self._tick()
        flag = comm.remote_group is not None
        self._rec("MPI_Comm_test_inter", t0, (comm, flag))
        return flag

    def comm_compare(self, comm1: Comm, comm2: Comm) -> int:
        comm1.check_usable()
        comm2.check_usable()
        t0 = self._tick()
        if comm1 is comm2:
            result = C.IDENT
        else:
            result = comm1.group.compare(comm2.group)
            if result == C.IDENT:
                result = C.CONGRUENT
        self._rec("MPI_Comm_compare", t0, (comm1, comm2, result))
        return result

    def comm_set_name(self, comm: Comm, comm_name: str) -> None:
        comm.check_usable()
        t0 = self._tick()
        comm.name = comm_name[:C.MAX_OBJECT_NAME]
        self._rec("MPI_Comm_set_name", t0, (comm, comm_name))

    def comm_get_name(self, comm: Comm) -> str:
        comm.check_usable()
        t0 = self._tick()
        name = comm.name
        self._rec("MPI_Comm_get_name", t0, (comm, name, len(name)))
        return name

    def comm_group(self, comm: Optional[Comm] = None) -> Group:
        comm = comm or self.world
        comm.check_usable()
        t0 = self._tick()
        grp = self._views[comm].local
        self._rec("MPI_Comm_group", t0, (comm, grp))
        return grp

    # -- creation collectives ---------------------------------------------------------

    def comm_dup(self, comm: Optional[Comm] = None):
        comm = comm or self.world
        rt = self.rt

        def compute(g, c):
            newc = rt.make_comm(Group(c.group.ranks))
            return {w: newc for w in g.arrived}

        t0 = self._tick()
        newcomm = yield self._coll("comm_dup", comm, None, 0, compute,
                                   ("comm_dup",))
        self._rec("MPI_Comm_dup", t0, (comm, newcomm))
        return newcomm

    def comm_idup(self, comm: Optional[Comm] = None) -> Request:
        """Non-blocking duplicate: the new communicator is the request's
        ``value`` once a Wait/Test completes it."""
        comm = comm or self.world
        rt = self.rt

        def compute(g, c):
            newc = rt.make_comm(Group(c.group.ranks))
            return {w: newc for w in g.arrived}

        t0 = self._tick()
        req = self._coll_nb("comm_dup", comm, None, 0, compute,
                            ("comm_idup",))
        self._rec("MPI_Comm_idup", t0, (comm, None, req))
        return req

    def comm_split(self, comm: Optional[Comm] = None, color: int = 0,
                   key: int = 0):
        comm = comm or self.world
        rt = self.rt

        def compute(g, c):
            buckets: dict[int, list[tuple[int, int, int]]] = {}
            for i, w in enumerate(c.group.ranks):
                col, k = g.arrived[w][0]
                if col == C.UNDEFINED:
                    continue
                buckets.setdefault(col, []).append((k, i, w))
            out: dict[int, Optional[Comm]] = {w: None for w in g.arrived}
            for col in sorted(buckets):
                members = sorted(buckets[col])
                newc = rt.make_comm(Group([w for _, _, w in members]))
                for _, _, w in members:
                    out[w] = newc
            return out

        t0 = self._tick()
        newcomm = yield self._coll("comm_split", comm, (color, key), 0,
                                   compute)
        self._rec("MPI_Comm_split", t0, (comm, color, key, newcomm))
        return newcomm

    def comm_split_type(self, comm: Optional[Comm] = None,
                        split_type: int = 1, key: int = 0):
        """``MPI_Comm_split_type`` with SHARED semantics: ranks on the same
        simulated node (``runtime.node_size`` consecutive world ranks) end
        up in the same communicator."""
        comm = comm or self.world
        node = self.rank // self.rt.node_size
        rt = self.rt

        def compute(g, c):
            buckets: dict[int, list[tuple[int, int, int]]] = {}
            for i, w in enumerate(c.group.ranks):
                col, k = g.arrived[w][0]
                buckets.setdefault(col, []).append((k, i, w))
            out: dict[int, Optional[Comm]] = {}
            for col in sorted(buckets):
                members = sorted(buckets[col])
                newc = rt.make_comm(Group([w for _, _, w in members]))
                for _, _, w in members:
                    out[w] = newc
            return out

        t0 = self._tick()
        newcomm = yield self._coll("comm_split", comm, (node, key), 0,
                                   compute)
        self._rec("MPI_Comm_split_type", t0, (comm, split_type, key, newcomm))
        return newcomm

    def comm_create(self, comm: Comm, group: Group):
        comm.check_usable()
        rt = self.rt

        def compute(g, c):
            members = [w for w in c.group.ranks if group.contains(w)]
            newc = rt.make_comm(Group(group.ranks)) if members else None
            return {w: (newc if group.contains(w) else None)
                    for w in g.arrived}

        t0 = self._tick()
        newcomm = yield self._coll("comm_create", comm, None, 0, compute,
                                   ("comm_create", tuple(group.ranks)))
        self._rec("MPI_Comm_create", t0, (comm, group, newcomm))
        return newcomm

    def comm_free(self, comm: Comm) -> None:
        """Mark this rank's participation in freeing *comm*; the shared
        object is freed once every member has called."""
        comm.check_usable()
        t0 = self._tick()
        n = comm.attrs.get("_free_count", 0) + 1
        comm.attrs["_free_count"] = n
        if n == comm.nmembers:
            comm.freed = True
        self._rec("MPI_Comm_free", t0, (comm,))

    # -- inter-communicators -------------------------------------------------------------

    def intercomm_create(self, local_comm: Comm, local_leader: int,
                         peer_comm: Comm, remote_leader: int, tag: int = 0):
        local_comm.check_usable()
        peer_comm.check_usable()
        if not 0 <= local_leader < local_comm.group.size:
            raise InvalidArgumentError("local_leader out of range")
        own_leader_w = local_comm.group.world_rank(local_leader)
        remote_leader_w = peer_comm.group.world_rank(remote_leader)
        key = (peer_comm.cid, tag,
               frozenset((own_leader_w, remote_leader_w)))
        t0 = self._tick()
        fut = self.rt.join_intercomm_create(
            key, local_comm, self.rank, self.clock.now)
        newcomm, tdone = yield fut
        self.clock.sync_to(tdone)
        self._rec("MPI_Intercomm_create", t0, (
            local_comm, local_leader, peer_comm, remote_leader, tag, newcomm))
        return newcomm

    def intercomm_merge(self, intercomm: Comm, high: bool = False):
        intercomm.check_usable()
        if intercomm.remote_group is None:
            raise InvalidArgumentError(
                "MPI_Intercomm_merge on an intra-communicator")
        rt = self.rt

        def compute(g, c):
            side_a, side_b = c.group, c.remote_group
            high_a = {g.arrived[w][0] for w in side_a.ranks}
            high_b = {g.arrived[w][0] for w in side_b.ranks}
            if len(high_a) != 1 or len(high_b) != 1:
                raise CollectiveMismatchError(
                    "inconsistent 'high' flags within one side of "
                    "MPI_Intercomm_merge")
            ha, hb = high_a.pop(), high_b.pop()
            if ha == hb:
                # standard: order is then implementation-defined; use the
                # side containing the smallest world rank first
                first = side_a if min(side_a.ranks) < min(side_b.ranks) \
                    else side_b
            else:
                first = side_a if not ha else side_b
            second = side_b if first is side_a else side_a
            newc = rt.make_comm(Group(first.ranks + second.ranks))
            return {w: newc for w in g.arrived}

        t0 = self._tick()
        newcomm = yield self._coll("comm_merge", intercomm, high, 0,
                                   compute)
        self._rec("MPI_Intercomm_merge", t0, (intercomm, int(high), newcomm))
        return newcomm

    # -- groups (all local) -----------------------------------------------------------------

    def group_size(self, group: Group) -> int:
        t0 = self._tick()
        size = group.size
        self._rec("MPI_Group_size", t0, (group, size))
        return size

    def group_rank(self, group: Group) -> int:
        t0 = self._tick()
        rank = group.rank_of(self.rank)
        self._rec("MPI_Group_rank", t0, (group, rank))
        return rank

    def group_incl(self, group: Group, ranks: Sequence[int]) -> Group:
        t0 = self._tick()
        newgroup = group.incl(ranks)
        self._rec("MPI_Group_incl", t0, (
            group, len(ranks), tuple(ranks), newgroup))
        return newgroup

    def group_excl(self, group: Group, ranks: Sequence[int]) -> Group:
        t0 = self._tick()
        newgroup = group.excl(ranks)
        self._rec("MPI_Group_excl", t0, (
            group, len(ranks), tuple(ranks), newgroup))
        return newgroup

    def group_union(self, group1: Group, group2: Group) -> Group:
        t0 = self._tick()
        newgroup = group1.union(group2)
        self._rec("MPI_Group_union", t0, (group1, group2, newgroup))
        return newgroup

    def group_intersection(self, group1: Group, group2: Group) -> Group:
        t0 = self._tick()
        newgroup = group1.intersection(group2)
        self._rec("MPI_Group_intersection", t0, (group1, group2, newgroup))
        return newgroup

    def group_difference(self, group1: Group, group2: Group) -> Group:
        t0 = self._tick()
        newgroup = group1.difference(group2)
        self._rec("MPI_Group_difference", t0, (group1, group2, newgroup))
        return newgroup

    def group_range_incl(self, group: Group,
                         ranges: Sequence[tuple[int, int, int]]) -> Group:
        t0 = self._tick()
        newgroup = group.range_incl(ranges)
        self._rec("MPI_Group_range_incl", t0, (
            group, len(ranges), tuple(tuple(r) for r in ranges), newgroup))
        return newgroup

    def group_translate_ranks(self, group1: Group, ranks1: Sequence[int],
                              group2: Group) -> list[int]:
        t0 = self._tick()
        out = group1.translate_ranks(ranks1, group2)
        self._rec("MPI_Group_translate_ranks", t0, (
            group1, len(ranks1), tuple(ranks1), group2, tuple(out)))
        return out

    def group_compare(self, group1: Group, group2: Group) -> int:
        t0 = self._tick()
        result = group1.compare(group2)
        self._rec("MPI_Group_compare", t0, (group1, group2, result))
        return result

    def group_free(self, group: Group) -> None:
        t0 = self._tick()
        self._rec("MPI_Group_free", t0, (group,))
