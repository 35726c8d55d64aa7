"""Declarative MPI function registry.

The real Pilgrim generates its PMPI wrappers from the MPI 4.0 standard's
LaTeX sources because header files do not say which parameters are inputs
and which are outputs (§3.1).  This module plays that role for the
simulator: every simulated MPI function is described by a
:class:`FuncSpec` listing each parameter's name, direction, and *kind*.
The Pilgrim tracer walks these specs to encode call signatures — it never
hard-codes per-function knowledge except for the special cases the paper
itself singles out (communicator creation, requests, statuses, buffers).

The registry also carries the standard-level catalog numbers used by the
Table 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from . import constants as C

# Directions
IN = "in"
OUT = "out"
INOUT = "inout"

# Parameter kinds — these drive the tracer's symbolic encoding
K_COMM = "comm"            # MPI_Comm handle
K_GROUP = "group"          # MPI_Group handle
K_DATATYPE = "datatype"    # MPI_Datatype handle
K_DATATYPEV = "datatype[]" # array of datatype handles
K_REQUEST = "request"      # single MPI_Request handle
K_REQUESTV = "request[]"   # array of request handles
K_OP = "op"                # MPI_Op
K_RANK = "rank"            # src/dst rank (always relative-encoded)
K_ROOT = "root"            # rank-valued, usually constant (root/leader);
                           # relative only on exact match, like tags
K_TAG = "tag"              # message tag (relative encodable)
K_COLOR = "color"          # comm_split color (relative encodable)
K_KEY = "key"              # comm_split key (relative encodable)
K_PTR = "ptr"              # memory buffer pointer
K_COUNT = "count"          # element count
K_INT = "int"              # plain integer
K_INTV = "int[]"           # integer array
K_FLAG = "flag"            # boolean out-flag
K_STR = "str"              # string
K_STATUS = "status"        # MPI_Status out
K_STATUSV = "status[]"     # array of statuses
K_INDEX = "index"          # completion index (Waitany/Testany)
K_INDEXV = "index[]"       # completion index arrays (Waitsome/Testsome)
K_NEWCOMM = "newcomm"      # created communicator (out)
K_NEWTYPE = "newtype"      # created datatype (out)
K_WIN = "win"              # MPI_Win handle
K_NEWWIN = "newwin"        # created window (out)


@dataclass(frozen=True)
class Param:
    name: str
    direction: str
    kind: str


@dataclass(frozen=True)
class FuncSpec:
    name: str
    fid: int
    params: tuple[Param, ...]

    @cached_property
    def pos(self) -> dict[str, int]:
        """Parameter name → position, in ``params`` and so in the
        ``values`` tuple every ``TracerHooks.on_call`` carries."""
        return {p.name: i for i, p in enumerate(self.params)}

    def param(self, name: str) -> Param:
        return self.params[self.pos[name]]

    @cached_property
    def ctx_comm(self) -> Optional[str]:
        """The parameter whose communicator gives the call's *context
        rank* — what its rank-valued arguments are encoded relative to
        (§3.4.2).  None (RMA, group and datatype calls): the world rank.
        The one statement of the rule; the encoders and replay read it."""
        for name in ("comm", "comm_old", "local_comm", "intercomm"):
            if any(p.name == name for p in self.params):
                return name
        return None

    @cached_property
    def status_picks(self) -> Optional[Param]:
        """Which request each returned status describes, by parameter
        kind: the ``K_INDEX`` parameter (the one status is
        ``requests[index]``'s — Waitany/Testany), the ``K_INDEXV``
        parameter (``statuses[i]`` is ``requests[indices[i]]``'s —
        Waitsome/Testsome), or None: aligned, status with request and
        ``statuses[i]`` with ``requests[i]``."""
        for p in self.params:
            if p.kind in (K_INDEX, K_INDEXV):
                return p
        return None


def context_rank(comm, world_rank: int) -> int:
    """*world_rank*'s rank in *comm* (its own side of an
    inter-communicator); the world rank itself for no communicator or a
    non-member."""
    group = getattr(comm, "group", None)
    if group is None:
        return world_rank
    cr = group.rank_of(world_rank)
    if cr == C.UNDEFINED and comm.remote_group is not None:
        cr = comm.remote_group.rank_of(world_rank)
    return world_rank if cr == C.UNDEFINED else cr


def _p(name: str, direction: str, kind: str) -> Param:
    return Param(name, direction, kind)


_SPECS: list[tuple[str, list[Param]]] = [
    # -- environment ------------------------------------------------------
    ("MPI_Init", []),
    ("MPI_Finalize", []),
    ("MPI_Initialized", [_p("flag", OUT, K_FLAG)]),
    ("MPI_Get_processor_name", [_p("name", OUT, K_STR),
                                _p("resultlen", OUT, K_INT)]),
    ("MPI_Abort", [_p("comm", IN, K_COMM), _p("errorcode", IN, K_INT)]),
    # -- communicator queries ----------------------------------------------
    ("MPI_Comm_size", [_p("comm", IN, K_COMM), _p("size", OUT, K_INT)]),
    # NB: the output IS a rank — relative encoding collapses it to 0 on
    # every caller, which is essential for cross-rank grammar identity
    ("MPI_Comm_rank", [_p("comm", IN, K_COMM), _p("rank", OUT, K_ROOT)]),
    ("MPI_Comm_remote_size", [_p("comm", IN, K_COMM), _p("size", OUT, K_INT)]),
    ("MPI_Comm_test_inter", [_p("comm", IN, K_COMM), _p("flag", OUT, K_FLAG)]),
    ("MPI_Comm_compare", [_p("comm1", IN, K_COMM), _p("comm2", IN, K_COMM),
                          _p("result", OUT, K_INT)]),
    ("MPI_Comm_set_name", [_p("comm", IN, K_COMM), _p("comm_name", IN, K_STR)]),
    ("MPI_Comm_get_name", [_p("comm", IN, K_COMM), _p("comm_name", OUT, K_STR),
                           _p("resultlen", OUT, K_INT)]),
    ("MPI_Comm_group", [_p("comm", IN, K_COMM), _p("group", OUT, K_GROUP)]),
    # -- communicator construction -----------------------------------------
    ("MPI_Comm_dup", [_p("comm", IN, K_COMM), _p("newcomm", OUT, K_NEWCOMM)]),
    ("MPI_Comm_idup", [_p("comm", IN, K_COMM), _p("newcomm", OUT, K_NEWCOMM),
                       _p("request", OUT, K_REQUEST)]),
    ("MPI_Comm_split", [_p("comm", IN, K_COMM), _p("color", IN, K_COLOR),
                        _p("key", IN, K_KEY), _p("newcomm", OUT, K_NEWCOMM)]),
    ("MPI_Comm_split_type", [_p("comm", IN, K_COMM),
                             _p("split_type", IN, K_INT),
                             _p("key", IN, K_KEY),
                             _p("newcomm", OUT, K_NEWCOMM)]),
    ("MPI_Comm_create", [_p("comm", IN, K_COMM), _p("group", IN, K_GROUP),
                         _p("newcomm", OUT, K_NEWCOMM)]),
    ("MPI_Comm_free", [_p("comm", INOUT, K_COMM)]),
    ("MPI_Intercomm_create", [_p("local_comm", IN, K_COMM),
                              _p("local_leader", IN, K_ROOT),
                              _p("peer_comm", IN, K_COMM),
                              _p("remote_leader", IN, K_INT),
                              _p("tag", IN, K_TAG),
                              _p("newintercomm", OUT, K_NEWCOMM)]),
    ("MPI_Intercomm_merge", [_p("intercomm", IN, K_COMM),
                             _p("high", IN, K_INT),
                             _p("newintracomm", OUT, K_NEWCOMM)]),
    # -- groups --------------------------------------------------------------
    ("MPI_Group_size", [_p("group", IN, K_GROUP), _p("size", OUT, K_INT)]),
    ("MPI_Group_rank", [_p("group", IN, K_GROUP), _p("rank", OUT, K_ROOT)]),
    ("MPI_Group_incl", [_p("group", IN, K_GROUP), _p("n", IN, K_COUNT),
                        _p("ranks", IN, K_INTV), _p("newgroup", OUT, K_GROUP)]),
    ("MPI_Group_excl", [_p("group", IN, K_GROUP), _p("n", IN, K_COUNT),
                        _p("ranks", IN, K_INTV), _p("newgroup", OUT, K_GROUP)]),
    ("MPI_Group_union", [_p("group1", IN, K_GROUP), _p("group2", IN, K_GROUP),
                         _p("newgroup", OUT, K_GROUP)]),
    ("MPI_Group_intersection", [_p("group1", IN, K_GROUP),
                                _p("group2", IN, K_GROUP),
                                _p("newgroup", OUT, K_GROUP)]),
    ("MPI_Group_difference", [_p("group1", IN, K_GROUP),
                              _p("group2", IN, K_GROUP),
                              _p("newgroup", OUT, K_GROUP)]),
    ("MPI_Group_range_incl", [_p("group", IN, K_GROUP), _p("n", IN, K_COUNT),
                              _p("ranges", IN, K_INTV),
                              _p("newgroup", OUT, K_GROUP)]),
    ("MPI_Group_translate_ranks", [_p("group1", IN, K_GROUP),
                                   _p("n", IN, K_COUNT),
                                   _p("ranks1", IN, K_INTV),
                                   _p("group2", IN, K_GROUP),
                                   _p("ranks2", OUT, K_INTV)]),
    ("MPI_Group_compare", [_p("group1", IN, K_GROUP),
                           _p("group2", IN, K_GROUP),
                           _p("result", OUT, K_INT)]),
    ("MPI_Group_free", [_p("group", INOUT, K_GROUP)]),
    # -- point to point --------------------------------------------------------
    ("MPI_Send", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                  _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                  _p("tag", IN, K_TAG), _p("comm", IN, K_COMM)]),
    ("MPI_Ssend", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                   _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                   _p("tag", IN, K_TAG), _p("comm", IN, K_COMM)]),
    ("MPI_Bsend", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                   _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                   _p("tag", IN, K_TAG), _p("comm", IN, K_COMM)]),
    ("MPI_Rsend", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                   _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                   _p("tag", IN, K_TAG), _p("comm", IN, K_COMM)]),
    ("MPI_Recv", [_p("buf", OUT, K_PTR), _p("count", IN, K_COUNT),
                  _p("datatype", IN, K_DATATYPE), _p("source", IN, K_RANK),
                  _p("tag", IN, K_TAG), _p("comm", IN, K_COMM),
                  _p("status", OUT, K_STATUS)]),
    ("MPI_Sendrecv", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                      _p("sendtype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                      _p("sendtag", IN, K_TAG),
                      _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                      _p("recvtype", IN, K_DATATYPE), _p("source", IN, K_RANK),
                      _p("recvtag", IN, K_TAG), _p("comm", IN, K_COMM),
                      _p("status", OUT, K_STATUS)]),
    ("MPI_Isend", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                   _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                   _p("tag", IN, K_TAG), _p("comm", IN, K_COMM),
                   _p("request", OUT, K_REQUEST)]),
    ("MPI_Issend", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                    _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                    _p("tag", IN, K_TAG), _p("comm", IN, K_COMM),
                    _p("request", OUT, K_REQUEST)]),
    ("MPI_Irecv", [_p("buf", OUT, K_PTR), _p("count", IN, K_COUNT),
                   _p("datatype", IN, K_DATATYPE), _p("source", IN, K_RANK),
                   _p("tag", IN, K_TAG), _p("comm", IN, K_COMM),
                   _p("request", OUT, K_REQUEST)]),
    ("MPI_Send_init", [_p("buf", IN, K_PTR), _p("count", IN, K_COUNT),
                       _p("datatype", IN, K_DATATYPE), _p("dest", IN, K_RANK),
                       _p("tag", IN, K_TAG), _p("comm", IN, K_COMM),
                       _p("request", OUT, K_REQUEST)]),
    ("MPI_Recv_init", [_p("buf", OUT, K_PTR), _p("count", IN, K_COUNT),
                       _p("datatype", IN, K_DATATYPE), _p("source", IN, K_RANK),
                       _p("tag", IN, K_TAG), _p("comm", IN, K_COMM),
                       _p("request", OUT, K_REQUEST)]),
    ("MPI_Start", [_p("request", INOUT, K_REQUEST)]),
    ("MPI_Startall", [_p("count", IN, K_COUNT),
                      _p("array_of_requests", INOUT, K_REQUESTV)]),
    ("MPI_Probe", [_p("source", IN, K_RANK), _p("tag", IN, K_TAG),
                   _p("comm", IN, K_COMM), _p("status", OUT, K_STATUS)]),
    ("MPI_Iprobe", [_p("source", IN, K_RANK), _p("tag", IN, K_TAG),
                    _p("comm", IN, K_COMM), _p("flag", OUT, K_FLAG),
                    _p("status", OUT, K_STATUS)]),
    ("MPI_Cancel", [_p("request", IN, K_REQUEST)]),
    ("MPI_Request_free", [_p("request", INOUT, K_REQUEST)]),
    ("MPI_Request_get_status", [_p("request", IN, K_REQUEST),
                                _p("flag", OUT, K_FLAG),
                                _p("status", OUT, K_STATUS)]),
    # -- completion -------------------------------------------------------------
    ("MPI_Wait", [_p("request", INOUT, K_REQUEST),
                  _p("status", OUT, K_STATUS)]),
    ("MPI_Waitall", [_p("count", IN, K_COUNT),
                     _p("array_of_requests", INOUT, K_REQUESTV),
                     _p("array_of_statuses", OUT, K_STATUSV)]),
    ("MPI_Waitany", [_p("count", IN, K_COUNT),
                     _p("array_of_requests", INOUT, K_REQUESTV),
                     _p("index", OUT, K_INDEX),
                     _p("status", OUT, K_STATUS)]),
    ("MPI_Waitsome", [_p("incount", IN, K_COUNT),
                      _p("array_of_requests", INOUT, K_REQUESTV),
                      _p("outcount", OUT, K_INT),
                      _p("array_of_indices", OUT, K_INDEXV),
                      _p("array_of_statuses", OUT, K_STATUSV)]),
    ("MPI_Test", [_p("request", INOUT, K_REQUEST), _p("flag", OUT, K_FLAG),
                  _p("status", OUT, K_STATUS)]),
    ("MPI_Testall", [_p("count", IN, K_COUNT),
                     _p("array_of_requests", INOUT, K_REQUESTV),
                     _p("flag", OUT, K_FLAG),
                     _p("array_of_statuses", OUT, K_STATUSV)]),
    ("MPI_Testany", [_p("count", IN, K_COUNT),
                     _p("array_of_requests", INOUT, K_REQUESTV),
                     _p("index", OUT, K_INDEX), _p("flag", OUT, K_FLAG),
                     _p("status", OUT, K_STATUS)]),
    ("MPI_Testsome", [_p("incount", IN, K_COUNT),
                      _p("array_of_requests", INOUT, K_REQUESTV),
                      _p("outcount", OUT, K_INT),
                      _p("array_of_indices", OUT, K_INDEXV),
                      _p("array_of_statuses", OUT, K_STATUSV)]),
    # -- collectives ---------------------------------------------------------------
    ("MPI_Barrier", [_p("comm", IN, K_COMM)]),
    ("MPI_Ibarrier", [_p("comm", IN, K_COMM), _p("request", OUT, K_REQUEST)]),
    ("MPI_Bcast", [_p("buffer", INOUT, K_PTR), _p("count", IN, K_COUNT),
                   _p("datatype", IN, K_DATATYPE), _p("root", IN, K_ROOT),
                   _p("comm", IN, K_COMM)]),
    ("MPI_Ibcast", [_p("buffer", INOUT, K_PTR), _p("count", IN, K_COUNT),
                    _p("datatype", IN, K_DATATYPE), _p("root", IN, K_ROOT),
                    _p("comm", IN, K_COMM), _p("request", OUT, K_REQUEST)]),
    ("MPI_Reduce", [_p("sendbuf", IN, K_PTR), _p("recvbuf", OUT, K_PTR),
                    _p("count", IN, K_COUNT), _p("datatype", IN, K_DATATYPE),
                    _p("op", IN, K_OP), _p("root", IN, K_ROOT),
                    _p("comm", IN, K_COMM)]),
    ("MPI_Allreduce", [_p("sendbuf", IN, K_PTR), _p("recvbuf", OUT, K_PTR),
                       _p("count", IN, K_COUNT), _p("datatype", IN, K_DATATYPE),
                       _p("op", IN, K_OP), _p("comm", IN, K_COMM)]),
    ("MPI_Iallreduce", [_p("sendbuf", IN, K_PTR), _p("recvbuf", OUT, K_PTR),
                        _p("count", IN, K_COUNT),
                        _p("datatype", IN, K_DATATYPE),
                        _p("op", IN, K_OP), _p("comm", IN, K_COMM),
                        _p("request", OUT, K_REQUEST)]),
    ("MPI_Gather", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                    _p("sendtype", IN, K_DATATYPE),
                    _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                    _p("recvtype", IN, K_DATATYPE), _p("root", IN, K_ROOT),
                    _p("comm", IN, K_COMM)]),
    ("MPI_Gatherv", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                     _p("sendtype", IN, K_DATATYPE),
                     _p("recvbuf", OUT, K_PTR),
                     _p("recvcounts", IN, K_INTV), _p("displs", IN, K_INTV),
                     _p("recvtype", IN, K_DATATYPE), _p("root", IN, K_ROOT),
                     _p("comm", IN, K_COMM)]),
    ("MPI_Scatter", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                     _p("sendtype", IN, K_DATATYPE),
                     _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                     _p("recvtype", IN, K_DATATYPE), _p("root", IN, K_ROOT),
                     _p("comm", IN, K_COMM)]),
    ("MPI_Scatterv", [_p("sendbuf", IN, K_PTR),
                      _p("sendcounts", IN, K_INTV), _p("displs", IN, K_INTV),
                      _p("sendtype", IN, K_DATATYPE),
                      _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                      _p("recvtype", IN, K_DATATYPE), _p("root", IN, K_ROOT),
                      _p("comm", IN, K_COMM)]),
    ("MPI_Allgather", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                       _p("sendtype", IN, K_DATATYPE),
                       _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                       _p("recvtype", IN, K_DATATYPE), _p("comm", IN, K_COMM)]),
    ("MPI_Iallgather", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                        _p("sendtype", IN, K_DATATYPE),
                        _p("recvbuf", OUT, K_PTR),
                        _p("recvcount", IN, K_COUNT),
                        _p("recvtype", IN, K_DATATYPE),
                        _p("comm", IN, K_COMM),
                        _p("request", OUT, K_REQUEST)]),
    ("MPI_Allgatherv", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                        _p("sendtype", IN, K_DATATYPE),
                        _p("recvbuf", OUT, K_PTR),
                        _p("recvcounts", IN, K_INTV), _p("displs", IN, K_INTV),
                        _p("recvtype", IN, K_DATATYPE),
                        _p("comm", IN, K_COMM)]),
    ("MPI_Alltoall", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                      _p("sendtype", IN, K_DATATYPE),
                      _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                      _p("recvtype", IN, K_DATATYPE), _p("comm", IN, K_COMM)]),
    ("MPI_Ialltoall", [_p("sendbuf", IN, K_PTR), _p("sendcount", IN, K_COUNT),
                       _p("sendtype", IN, K_DATATYPE),
                       _p("recvbuf", OUT, K_PTR), _p("recvcount", IN, K_COUNT),
                       _p("recvtype", IN, K_DATATYPE), _p("comm", IN, K_COMM),
                       _p("request", OUT, K_REQUEST)]),
    ("MPI_Alltoallv", [_p("sendbuf", IN, K_PTR),
                       _p("sendcounts", IN, K_INTV), _p("sdispls", IN, K_INTV),
                       _p("sendtype", IN, K_DATATYPE),
                       _p("recvbuf", OUT, K_PTR),
                       _p("recvcounts", IN, K_INTV), _p("rdispls", IN, K_INTV),
                       _p("recvtype", IN, K_DATATYPE), _p("comm", IN, K_COMM)]),
    ("MPI_Reduce_scatter", [_p("sendbuf", IN, K_PTR),
                            _p("recvbuf", OUT, K_PTR),
                            _p("recvcounts", IN, K_INTV),
                            _p("datatype", IN, K_DATATYPE),
                            _p("op", IN, K_OP), _p("comm", IN, K_COMM)]),
    ("MPI_Reduce_scatter_block", [_p("sendbuf", IN, K_PTR),
                                  _p("recvbuf", OUT, K_PTR),
                                  _p("recvcount", IN, K_COUNT),
                                  _p("datatype", IN, K_DATATYPE),
                                  _p("op", IN, K_OP), _p("comm", IN, K_COMM)]),
    ("MPI_Scan", [_p("sendbuf", IN, K_PTR), _p("recvbuf", OUT, K_PTR),
                  _p("count", IN, K_COUNT), _p("datatype", IN, K_DATATYPE),
                  _p("op", IN, K_OP), _p("comm", IN, K_COMM)]),
    ("MPI_Exscan", [_p("sendbuf", IN, K_PTR), _p("recvbuf", OUT, K_PTR),
                    _p("count", IN, K_COUNT), _p("datatype", IN, K_DATATYPE),
                    _p("op", IN, K_OP), _p("comm", IN, K_COMM)]),
    # -- datatypes ---------------------------------------------------------------
    ("MPI_Type_contiguous", [_p("count", IN, K_COUNT),
                             _p("oldtype", IN, K_DATATYPE),
                             _p("newtype", OUT, K_NEWTYPE)]),
    ("MPI_Type_vector", [_p("count", IN, K_COUNT),
                         _p("blocklength", IN, K_COUNT),
                         _p("stride", IN, K_INT),
                         _p("oldtype", IN, K_DATATYPE),
                         _p("newtype", OUT, K_NEWTYPE)]),
    ("MPI_Type_indexed", [_p("count", IN, K_COUNT),
                          _p("array_of_blocklengths", IN, K_INTV),
                          _p("array_of_displacements", IN, K_INTV),
                          _p("oldtype", IN, K_DATATYPE),
                          _p("newtype", OUT, K_NEWTYPE)]),
    ("MPI_Type_create_struct", [_p("count", IN, K_COUNT),
                                _p("array_of_blocklengths", IN, K_INTV),
                                _p("array_of_displacements", IN, K_INTV),
                                _p("array_of_types", IN, K_DATATYPEV),
                                _p("newtype", OUT, K_NEWTYPE)]),
    ("MPI_Type_commit", [_p("datatype", INOUT, K_DATATYPE)]),
    ("MPI_Type_free", [_p("datatype", INOUT, K_DATATYPE)]),
    ("MPI_Type_size", [_p("datatype", IN, K_DATATYPE),
                       _p("size", OUT, K_INT)]),
    ("MPI_Type_get_extent", [_p("datatype", IN, K_DATATYPE),
                             _p("lb", OUT, K_INT),
                             _p("extent", OUT, K_INT)]),
    ("MPI_Get_count", [_p("status", IN, K_STATUS),
                       _p("datatype", IN, K_DATATYPE),
                       _p("count", OUT, K_INT)]),
    # -- topology ----------------------------------------------------------------
    ("MPI_Cart_create", [_p("comm_old", IN, K_COMM), _p("ndims", IN, K_COUNT),
                         _p("dims", IN, K_INTV), _p("periods", IN, K_INTV),
                         _p("reorder", IN, K_INT),
                         _p("comm_cart", OUT, K_NEWCOMM)]),
    ("MPI_Cart_coords", [_p("comm", IN, K_COMM), _p("rank", IN, K_RANK),
                         _p("maxdims", IN, K_COUNT),
                         _p("coords", OUT, K_INTV)]),
    ("MPI_Cart_rank", [_p("comm", IN, K_COMM), _p("coords", IN, K_INTV),
                       _p("rank", OUT, K_ROOT)]),
    ("MPI_Cart_shift", [_p("comm", IN, K_COMM), _p("direction", IN, K_INT),
                        _p("disp", IN, K_INT),
                        _p("rank_source", OUT, K_RANK),
                        _p("rank_dest", OUT, K_RANK)]),
    ("MPI_Cart_sub", [_p("comm", IN, K_COMM), _p("remain_dims", IN, K_INTV),
                      _p("newcomm", OUT, K_NEWCOMM)]),
    ("MPI_Dims_create", [_p("nnodes", IN, K_COUNT), _p("ndims", IN, K_COUNT),
                         _p("dims", INOUT, K_INTV)]),
    # -- one-sided (RMA) ------------------------------------------------------------
    ("MPI_Win_create", [_p("base", IN, K_PTR), _p("size", IN, K_COUNT),
                        _p("disp_unit", IN, K_INT), _p("comm", IN, K_COMM),
                        _p("win", OUT, K_NEWWIN)]),
    ("MPI_Win_allocate", [_p("size", IN, K_COUNT),
                          _p("disp_unit", IN, K_INT),
                          _p("comm", IN, K_COMM),
                          _p("baseptr", OUT, K_PTR),
                          _p("win", OUT, K_NEWWIN)]),
    ("MPI_Win_free", [_p("win", INOUT, K_WIN)]),
    ("MPI_Win_set_name", [_p("win", IN, K_WIN),
                          _p("win_name", IN, K_STR)]),
    ("MPI_Win_fence", [_p("assert", IN, K_INT), _p("win", IN, K_WIN)]),
    ("MPI_Put", [_p("origin_addr", IN, K_PTR),
                 _p("origin_count", IN, K_COUNT),
                 _p("origin_datatype", IN, K_DATATYPE),
                 _p("target_rank", IN, K_RANK),
                 _p("target_disp", IN, K_INT),
                 _p("target_count", IN, K_COUNT),
                 _p("target_datatype", IN, K_DATATYPE),
                 _p("win", IN, K_WIN)]),
    ("MPI_Get", [_p("origin_addr", OUT, K_PTR),
                 _p("origin_count", IN, K_COUNT),
                 _p("origin_datatype", IN, K_DATATYPE),
                 _p("target_rank", IN, K_RANK),
                 _p("target_disp", IN, K_INT),
                 _p("target_count", IN, K_COUNT),
                 _p("target_datatype", IN, K_DATATYPE),
                 _p("win", IN, K_WIN)]),
    ("MPI_Accumulate", [_p("origin_addr", IN, K_PTR),
                        _p("origin_count", IN, K_COUNT),
                        _p("origin_datatype", IN, K_DATATYPE),
                        _p("target_rank", IN, K_RANK),
                        _p("target_disp", IN, K_INT),
                        _p("target_count", IN, K_COUNT),
                        _p("target_datatype", IN, K_DATATYPE),
                        _p("op", IN, K_OP), _p("win", IN, K_WIN)]),
    ("MPI_Win_lock", [_p("lock_type", IN, K_INT), _p("rank", IN, K_RANK),
                      _p("assert", IN, K_INT), _p("win", IN, K_WIN)]),
    ("MPI_Win_unlock", [_p("rank", IN, K_RANK), _p("win", IN, K_WIN)]),
]

FUNCS: dict[str, FuncSpec] = {}
BY_ID: dict[int, FuncSpec] = {}
for _i, (_name, _params) in enumerate(_SPECS):
    spec = FuncSpec(_name, _i, tuple(_params))
    FUNCS[_name] = spec
    BY_ID[_i] = spec
del _i, _name, _params, spec


# -- standard-level catalog numbers for the Table 1 reproduction -------------
# MPI 4.0 RC function count (excluding MPI_Wtime/MPI_Wtick), from the paper.
TOTAL_MPI40_FUNCS = 446
# Functions recorded by each tool at full-standard scale (paper Table 1).
CYPRESS_SUPPORTED = 56
SCALATRACE_SUPPORTED = 125
PILGRIM_SUPPORTED = 446

#: The simulated API's function count — Pilgrim-in-this-repo records all of
#: these; the ScalaTrace baseline records the subset in
#: repro.scalatrace.tracer.SCALATRACE_RECORDED.
SIM_FUNC_COUNT = len(FUNCS)


def all_names() -> Iterable[str]:
    return FUNCS.keys()
