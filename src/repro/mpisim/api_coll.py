"""Collective operations.

Each collective is a rendezvous on the communicator (see
:meth:`repro.mpisim.comm.Comm.join_collective`): the *n*-th collective call
of every member joins gathering *n*, the last arrival computes the results
and completion time (max arrival + LogP-style cost), and everyone resumes.
Blocking and non-blocking variants share the same rendezvous, which gives
``MPI_Ibarrier``/``MPI_Iallreduce`` correct ordering semantics for free.

Data semantics operate on Python payloads (numbers / sequences / None);
reductions are ordered by communicator rank as the standard requires for
deterministic results.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from . import datatypes as dt
from .api_base import ApiBase
from .comm import Comm
from .errors import InvalidArgumentError
from .future import Future
from .ops import Op, reduce_payloads
from .request import Request
from .status import EMPTY, Status


# -- result computations: compute(g, comm, *cargs) -> {world rank: result} ---

def _ordered(g, comm: Comm) -> list:
    return [g.arrived[w][0] for w in comm.group.ranks]


def _c_bcast(g, comm, root: int):
    val = g.arrived[comm.group.world_rank(root)][0]
    return {w: val for w in g.arrived}


def _c_reduce(g, comm, op: Op, root: int):
    return {comm.group.world_rank(root):
            reduce_payloads(op, _ordered(g, comm))}


def _c_allreduce(g, comm, op: Op):
    res = reduce_payloads(op, _ordered(g, comm))
    return {w: res for w in g.arrived}


def _c_gather(g, comm, root: int):
    return {comm.group.world_rank(root): _ordered(g, comm)}


def _c_allgather(g, comm):
    vals = _ordered(g, comm)
    return {w: vals for w in g.arrived}


def _c_scatter(g, comm, root: int):
    vals = g.arrived[comm.group.world_rank(root)][0]
    return {w: None if vals is None else vals[i]
            for i, w in enumerate(comm.group.ranks)}


def _c_alltoall(g, comm):
    rows = _ordered(g, comm)
    if all(r is None for r in rows):
        return {w: None for w in comm.group.ranks}
    return {w: [None if r is None else r[i] for r in rows]
            for i, w in enumerate(comm.group.ranks)}


def _c_scan(g, comm, op: Op, exclusive: bool):
    vals = _ordered(g, comm)
    out = {}
    for i, w in enumerate(comm.group.ranks):
        upto = vals[:i] if exclusive else vals[:i + 1]
        out[w] = reduce_payloads(op, upto) if upto else None
    return out


def _c_reduce_scatter_block(g, comm, op: Op):
    folded = reduce_payloads(op, _ordered(g, comm))
    return {w: None if folded is None else folded[i]
            for i, w in enumerate(comm.group.ranks)}


def _c_reduce_scatter(g, comm, op: Op, recvcounts: Sequence[int]):
    folded = reduce_payloads(op, _ordered(g, comm))
    out = {}
    off = 0
    for i, w in enumerate(comm.group.ranks):
        n = recvcounts[i]
        out[w] = None if folded is None else list(folded[off:off + n])
        off += n
    return out


class ApiColl(ApiBase):
    """Collectives mixin."""

    # -- rendezvous scaffolding ------------------------------------------------

    def _finalize(self, g, comm: Comm) -> None:
        """The last arrival completes the gathering: results, completion
        time (max arrival + LogP-style cost), everyone released."""
        tdone = g.tmax + self._net.coll_time(g.op, comm.nmembers, g.nbytes)
        results = g.compute(g, comm, *g.cargs) \
            if g.compute is not None else None
        if self._events is not None:
            self._events.emit("coll.complete", op=g.op, comm=comm.cid,
                              nprocs=comm.nmembers, bytes=g.nbytes,
                              vtime=tdone)
        sched, clocks = self._sched, self.rt.clocks
        for wr, fut in g.futures.items():
            val = results.get(wr) if results is not None else None
            if isinstance(fut, Request):
                sched.complete_request(fut, Status(*EMPTY), tdone, val)
            else:
                # a rank parked in a blocking collective resumes at tdone
                clock = clocks[wr]
                if tdone > clock.now:
                    clock.now = tdone
                sched.resolve(fut, val)

    def _coll(self, op_name: str, comm: Comm, payload: Any, nbytes: int,
              compute, check_args: Any = None, cargs: tuple = ()) -> Future:
        """Blocking collective: the caller yields the returned future and
        is resumed with this rank's result, its clock at completion time.
        *compute* and *cargs* are read off the first arriver only."""
        if comm.freed:
            comm.check_usable()
        self._ctx.last_call = op_name  # scheduler.call_name spells it out
        fut = Future(("%s@%s rank=%s", op_name, comm.name, self.rank))
        g = comm.join_collective(self.rank, op_name, nbytes, compute, cargs,
                                 payload, self.clock.now, fut, check_args)
        if g is not None:
            self._finalize(g, comm)
        return fut

    def _coll_nb(self, op_name: str, comm: Comm, payload: Any, nbytes: int,
                 compute, check_args: Any = None,
                 cargs: tuple = ()) -> Request:
        """Non-blocking collective: returns a request whose ``value`` will
        hold this rank's result on completion."""
        if comm.freed:
            comm.check_usable()
        now = self.clock.now
        req = self._new_request("icoll:" + op_name, comm_cid=comm.cid,
                                nbytes=nbytes, post_time=now)
        g = comm.join_collective(self.rank, op_name, nbytes, compute, cargs,
                                 payload, now, req, check_args)
        if g is not None:
            self._finalize(g, comm)
        return req

    @staticmethod
    def _require_intra(comm: Comm, op_name: str) -> None:
        if comm.remote_group is not None:
            raise InvalidArgumentError(
                f"{op_name} on an inter-communicator is not supported by "
                f"the simulator (merge it first, as Pilgrim itself does)")

    def _root_world(self, comm: Comm, root: int) -> int:
        if not 0 <= root < comm.group.size:
            raise InvalidArgumentError(
                f"root {root} out of range for {comm.name}")
        return comm.group.world_rank(root)

    # -- blocking collectives -------------------------------------------------------

    def barrier(self, comm: Optional[Comm] = None):
        comm = comm or self.world
        t0 = self._tick()
        yield self._coll("barrier", comm, None, 0, None)
        self._rec("MPI_Barrier", t0, (comm,))

    def bcast(self, buffer: int, count: int, datatype: dt.Datatype,
              root: int, comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Bcast")
        self._root_world(comm, root)
        if datatype.freed or not datatype.committed:
            datatype.check_usable()
        t0 = self._tick()
        val = yield self._coll("bcast", comm, data, count * datatype.size,
                               _c_bcast, ("bcast", root), (root,))
        self._rec("MPI_Bcast", t0, (buffer, count, datatype, root, comm))
        return val

    def reduce(self, sendbuf: int, recvbuf: int, count: int,
               datatype: dt.Datatype, op: Op, root: int,
               comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Reduce")
        self._root_world(comm, root)
        if datatype.freed or not datatype.committed:
            datatype.check_usable()
        t0 = self._tick()
        val = yield self._coll("reduce", comm, data, count * datatype.size,
                               _c_reduce, ("reduce", root, op.name),
                               (op, root))
        self._rec("MPI_Reduce", t0, (
            sendbuf, recvbuf, count, datatype, op, root, comm))
        return val

    def allreduce(self, sendbuf: int, recvbuf: int, count: int,
                  datatype: dt.Datatype, op: Op,
                  comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Allreduce")
        if datatype.freed or not datatype.committed:
            datatype.check_usable()
        t0 = self._tick()
        val = yield self._coll("allreduce", comm, data, count * datatype.size,
                               _c_allreduce, ("allreduce", op.name), (op,))
        self._rec("MPI_Allreduce", t0, (
            sendbuf, recvbuf, count, datatype, op, comm))
        return val

    def gather(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
               recvbuf: int, recvcount: int, recvtype: dt.Datatype,
               root: int, comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Gather")
        t0 = self._tick()
        val = yield self._coll("gather", comm, data, sendcount * sendtype.size,
                               _c_gather, ("gather", root), (root,))
        self._rec("MPI_Gather", t0, (
            sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root,
            comm))
        return val

    def gatherv(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                recvbuf: int, recvcounts: Optional[Sequence[int]],
                displs: Optional[Sequence[int]], recvtype: dt.Datatype,
                root: int, comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Gatherv")
        t0 = self._tick()
        val = yield self._coll("gather", comm, data, sendcount * sendtype.size,
                               _c_gather, ("gatherv", root), (root,))
        self._rec("MPI_Gatherv", t0, (
            sendbuf, sendcount, sendtype, recvbuf,
            tuple(recvcounts) if recvcounts else None,
            tuple(displs) if displs else None, recvtype, root, comm))
        return val

    def scatter(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                root: int, comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Scatter")
        t0 = self._tick()
        val = yield self._coll("scatter", comm, data,
                               recvcount * recvtype.size, _c_scatter,
                               ("scatter", root), (root,))
        self._rec("MPI_Scatter", t0, (
            sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root,
            comm))
        return val

    def scatterv(self, sendbuf: int, sendcounts: Optional[Sequence[int]],
                 displs: Optional[Sequence[int]], sendtype: dt.Datatype,
                 recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                 root: int, comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Scatterv")
        t0 = self._tick()
        val = yield self._coll("scatter", comm, data,
                               recvcount * recvtype.size, _c_scatter,
                               ("scatterv", root), (root,))
        self._rec("MPI_Scatterv", t0, (
            sendbuf, tuple(sendcounts) if sendcounts else None,
            tuple(displs) if displs else None, sendtype, recvbuf, recvcount,
            recvtype, root, comm))
        return val

    def allgather(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                  recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                  comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Allgather")
        t0 = self._tick()
        val = yield self._coll("allgather", comm, data,
                               sendcount * sendtype.size, _c_allgather,
                               ("allgather",))
        self._rec("MPI_Allgather", t0, (
            sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm))
        return val

    def allgatherv(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                   recvbuf: int, recvcounts: Optional[Sequence[int]],
                   displs: Optional[Sequence[int]], recvtype: dt.Datatype,
                   comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Allgatherv")
        t0 = self._tick()
        val = yield self._coll("allgather", comm, data,
                               sendcount * sendtype.size, _c_allgather,
                               ("allgatherv",))
        self._rec("MPI_Allgatherv", t0, (
            sendbuf, sendcount, sendtype, recvbuf,
            tuple(recvcounts) if recvcounts else None,
            tuple(displs) if displs else None, recvtype, comm))
        return val

    def alltoall(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                 recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                 comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Alltoall")
        t0 = self._tick()
        val = yield self._coll("alltoall", comm, data,
                               sendcount * sendtype.size * comm.size,
                               _c_alltoall, ("alltoall",))
        self._rec("MPI_Alltoall", t0, (
            sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm))
        return val

    def alltoallv(self, sendbuf: int, sendcounts: Sequence[int],
                  sdispls: Sequence[int], sendtype: dt.Datatype,
                  recvbuf: int, recvcounts: Sequence[int],
                  rdispls: Sequence[int], recvtype: dt.Datatype,
                  comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Alltoallv")
        t0 = self._tick()
        nbytes = sum(sendcounts) * sendtype.size
        val = yield self._coll("alltoallv", comm, data, nbytes, _c_alltoall,
                               ("alltoallv",))
        self._rec("MPI_Alltoallv", t0, (
            sendbuf, tuple(sendcounts), tuple(sdispls), sendtype, recvbuf,
            tuple(recvcounts), tuple(rdispls), recvtype, comm))
        return val

    def reduce_scatter(self, sendbuf: int, recvbuf: int,
                       recvcounts: Sequence[int], datatype: dt.Datatype,
                       op: Op, comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Reduce_scatter")
        if len(recvcounts) != comm.size:
            raise InvalidArgumentError("recvcounts length != comm size")
        t0 = self._tick()
        nbytes = sum(recvcounts) * datatype.size
        val = yield self._coll("reduce_scatter", comm, data, nbytes,
                               _c_reduce_scatter, ("reduce_scatter", op.name),
                               (op, recvcounts))
        self._rec("MPI_Reduce_scatter", t0, (
            sendbuf, recvbuf, tuple(recvcounts), datatype, op, comm))
        return val

    def reduce_scatter_block(self, sendbuf: int, recvbuf: int,
                             recvcount: int, datatype: dt.Datatype, op: Op,
                             comm: Optional[Comm] = None, data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Reduce_scatter_block")
        t0 = self._tick()
        nbytes = recvcount * datatype.size * comm.size
        val = yield self._coll("reduce_scatter", comm, data, nbytes,
                               _c_reduce_scatter_block,
                               ("reduce_scatter_block", op.name), (op,))
        self._rec("MPI_Reduce_scatter_block", t0, (
            sendbuf, recvbuf, recvcount, datatype, op, comm))
        return val

    def scan(self, sendbuf: int, recvbuf: int, count: int,
             datatype: dt.Datatype, op: Op, comm: Optional[Comm] = None,
             data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Scan")
        t0 = self._tick()
        val = yield self._coll("scan", comm, data, count * datatype.size,
                               _c_scan, ("scan", op.name), (op, False))
        self._rec("MPI_Scan", t0, (
            sendbuf, recvbuf, count, datatype, op, comm))
        return val

    def exscan(self, sendbuf: int, recvbuf: int, count: int,
               datatype: dt.Datatype, op: Op, comm: Optional[Comm] = None,
               data: Any = None):
        comm = comm or self.world
        self._require_intra(comm, "MPI_Exscan")
        t0 = self._tick()
        val = yield self._coll("scan", comm, data, count * datatype.size,
                               _c_scan, ("exscan", op.name), (op, True))
        self._rec("MPI_Exscan", t0, (
            sendbuf, recvbuf, count, datatype, op, comm))
        return val

    # -- non-blocking collectives -------------------------------------------------------

    def ibarrier(self, comm: Optional[Comm] = None) -> Request:
        comm = comm or self.world
        t0 = self._tick()
        req = self._coll_nb("barrier", comm, None, 0, None)
        self._rec("MPI_Ibarrier", t0, (comm, req))
        return req

    def ibcast(self, buffer: int, count: int, datatype: dt.Datatype,
               root: int, comm: Optional[Comm] = None,
               data: Any = None) -> Request:
        comm = comm or self.world
        self._require_intra(comm, "MPI_Ibcast")
        t0 = self._tick()
        req = self._coll_nb("bcast", comm, data, count * datatype.size,
                            _c_bcast, ("bcast", root), (root,))
        self._rec("MPI_Ibcast", t0, (buffer, count, datatype, root, comm, req))
        return req

    def iallreduce(self, sendbuf: int, recvbuf: int, count: int,
                   datatype: dt.Datatype, op: Op,
                   comm: Optional[Comm] = None, data: Any = None) -> Request:
        comm = comm or self.world
        self._require_intra(comm, "MPI_Iallreduce")
        t0 = self._tick()
        req = self._coll_nb("allreduce", comm, data, count * datatype.size,
                            _c_allreduce, ("allreduce", op.name), (op,))
        self._rec("MPI_Iallreduce", t0, (
            sendbuf, recvbuf, count, datatype, op, comm, req))
        return req

    def iallgather(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                   recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                   comm: Optional[Comm] = None, data: Any = None) -> Request:
        comm = comm or self.world
        self._require_intra(comm, "MPI_Iallgather")
        t0 = self._tick()
        req = self._coll_nb("allgather", comm, data,
                            sendcount * sendtype.size,
                            _c_allgather, ("allgather",))
        self._rec("MPI_Iallgather", t0, (
            sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
            req))
        return req

    def ialltoall(self, sendbuf: int, sendcount: int, sendtype: dt.Datatype,
                  recvbuf: int, recvcount: int, recvtype: dt.Datatype,
                  comm: Optional[Comm] = None, data: Any = None) -> Request:
        comm = comm or self.world
        self._require_intra(comm, "MPI_Ialltoall")
        t0 = self._tick()
        req = self._coll_nb("alltoall", comm, data,
                            sendcount * sendtype.size * comm.size,
                            _c_alltoall, ("alltoall",))
        self._rec("MPI_Ialltoall", t0, (
            sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
            req))
        return req
