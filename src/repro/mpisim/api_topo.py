"""Cartesian topology calls.

``MPI_Cart_create`` is a creation collective (it may drop ranks when the
grid is smaller than the communicator); the ``coords``/``rank``/``shift``
queries are local.  These are the calls the stencil workloads (§4.1) and
the BT/SP skeletons are built on — relative-rank encoding (§3.4.2) gets
its leverage from the shift results recorded here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .api_base import ApiBase
from .comm import Comm
from .errors import InvalidArgumentError
from .group import Group
from .topology import CartTopology, dims_create


def _cart(comm: Comm) -> CartTopology:
    if comm.topo is None:
        raise InvalidArgumentError(
            f"{comm.name} has no Cartesian topology attached")
    return comm.topo


class ApiTopo(ApiBase):
    """Topology mixin."""

    def dims_create(self, nnodes: int, ndims: int,
                    dims: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        t0 = self._tick()
        out = dims_create(nnodes, ndims, dims)
        self._rec("MPI_Dims_create", t0, (nnodes, ndims, out))
        return out

    def cart_create(self, comm_old: Optional[Comm], dims: Sequence[int],
                    periods: Sequence[bool], reorder: bool = False):
        comm = comm_old or self.world
        dims = tuple(int(d) for d in dims)
        periods = tuple(bool(p) for p in periods)
        if len(dims) != len(periods):
            raise InvalidArgumentError("dims/periods length mismatch")
        nnodes = 1
        for d in dims:
            nnodes *= d
        if nnodes > comm.group.size:
            raise InvalidArgumentError(
                f"cart grid {dims} larger than communicator "
                f"({comm.group.size})")
        rt = self.rt

        def compute(g, c):
            members = c.group.ranks[:nnodes]
            newc = rt.make_comm(Group(members))
            newc.topo = CartTopology(dims, periods)
            return {w: (newc if w in members else None) for w in g.arrived}

        t0 = self._tick()
        newcomm = yield self._coll("comm_create", comm, None, 0, compute,
                                   ("cart_create", dims, periods))
        self._rec("MPI_Cart_create", t0, (
            comm, len(dims), dims, tuple(int(p) for p in periods),
            int(reorder), newcomm))
        return newcomm

    def cart_coords(self, comm: Comm, rank: int) -> tuple[int, ...]:
        comm.check_usable()
        topo = _cart(comm)
        t0 = self._tick()
        coords = topo.coords_of(rank)
        self._rec("MPI_Cart_coords", t0, (comm, rank, topo.ndims, coords))
        return coords

    def cart_rank(self, comm: Comm, coords: Sequence[int]) -> int:
        comm.check_usable()
        topo = _cart(comm)
        t0 = self._tick()
        rank = topo.rank_of(coords)
        self._rec("MPI_Cart_rank", t0, (comm, tuple(coords), rank))
        return rank

    def cart_shift(self, comm: Comm, direction: int,
                   disp: int) -> tuple[int, int]:
        comm.check_usable()
        topo = _cart(comm)
        t0 = self._tick()
        me = self._views[comm].rank
        src, dest = topo.shift(me, direction, disp)
        self._rec("MPI_Cart_shift", t0, (comm, direction, disp, src, dest))
        return src, dest

    def cart_sub(self, comm: Comm, remain_dims: Sequence[bool]):
        comm.check_usable()
        topo = _cart(comm)
        remain = tuple(bool(r) for r in remain_dims)
        if len(remain) != topo.ndims:
            raise InvalidArgumentError("remain_dims length mismatch")
        rt = self.rt

        def compute(g, c):
            sub_dims = tuple(d for d, r in zip(topo.dims, remain) if r)
            sub_periods = tuple(p for p, r in zip(topo.periods, remain) if r)
            buckets: dict[tuple, list[tuple[tuple, int]]] = {}
            for crank, w in enumerate(c.group.ranks):
                coords = topo.coords_of(crank)
                key = tuple(x for x, r in zip(coords, remain) if not r)
                sub_coords = tuple(x for x, r in zip(coords, remain) if r)
                buckets.setdefault(key, []).append((sub_coords, w))
            out = {}
            for key in sorted(buckets):
                members = sorted(buckets[key])
                newc = rt.make_comm(Group([w for _, w in members]))
                newc.topo = CartTopology(sub_dims, sub_periods)
                for _, w in members:
                    out[w] = newc
            return out

        t0 = self._tick()
        newcomm = yield self._coll("comm_split", comm, None, 0, compute,
                                   ("cart_sub", remain))
        self._rec("MPI_Cart_sub", t0, (
            comm, tuple(int(r) for r in remain), newcomm))
        return newcomm
