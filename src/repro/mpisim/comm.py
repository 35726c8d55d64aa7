"""Communicators: message channels plus collective rendezvous state.

A :class:`Comm` is shared by all member ranks (the simulator runs every
rank in one process).  It owns

* the point-to-point matching queues (posted receives / unexpected
  messages, per receiving rank, matched in MPI's posting order with
  wildcard support), and
* the collective rendezvous bookkeeping: MPI requires all members to call
  the same sequence of collectives on a communicator, so the *n*-th
  collective call of each rank on this comm joins gathering *n*.

Inter-communicators carry a local and a remote group; point-to-point peers
and collective roots are interpreted against the remote group exactly as
the standard specifies.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .errors import CollectiveMismatchError, InvalidHandleError
from .future import Future
from .group import Group


class MessageEnvelope:
    """A point-to-point message no receive was posted for yet (metadata +
    optional payload), parked in arrival order on the receiver's
    unexpected queue."""

    __slots__ = ("src", "tag", "nbytes", "data", "send_time", "send_req")

    def __init__(self, src: int, tag: int, nbytes: int, data: Any,
                 send_time: float, send_req=None):
        self.src = src              # comm rank of the sender (in sender's group)
        self.tag = tag
        self.nbytes = nbytes
        self.data = data
        self.send_time = send_time
        self.send_req = send_req


class CollGathering:
    """State of one in-progress collective on a communicator.  What the
    *first* arriver passed describes it; later arrivals add a payload
    and a future."""

    __slots__ = ("op", "nbytes", "compute", "cargs", "check_args",
                 "arrived", "futures", "tmax")

    def __init__(self, op: str, nbytes: int, compute: Optional[Callable],
                 cargs: tuple, check_args: Any, arrive_time: float):
        self.op = op
        self.nbytes = nbytes
        #: ``compute(gathering, comm, *cargs) -> {world rank: result}``
        self.compute = compute
        self.cargs = cargs
        #: signature-relevant args of the first arriver (mismatch check)
        self.check_args = check_args
        #: world rank -> (payload, arrival virtual time)
        self.arrived: dict[int, tuple[Any, float]] = {}
        #: world rank -> future resolved with the rank's result
        self.futures: dict[int, Future] = {}
        #: latest arrival so far
        self.tmax = arrive_time


class Comm:
    """An intra- or inter-communicator."""

    __slots__ = ("cid", "kind", "group", "remote_group", "nmembers", "name",
                 "topo", "freed", "_posted", "_unexpected", "_coll_seq",
                 "_colls", "attrs")

    def __init__(self, cid: int, group: Group,
                 remote_group: Optional[Group] = None,
                 name: str = ""):
        self.cid = cid
        self.kind = "inter" if remote_group is not None else "intra"
        self.group = group                  # local group
        self.remote_group = remote_group    # None for intra-comms
        #: ranks a collective gathers (an inter-communicator's involve
        #: both groups)
        self.nmembers = group.size + (remote_group.size
                                      if remote_group is not None else 0)
        self.name = name or f"comm#{cid}"
        self.topo = None                    # set by cart_create
        self.freed = False
        # p2p queues keyed by *receiving* world rank
        self._posted: dict[int, deque] = {}
        self._unexpected: dict[int, deque] = {}
        # collective sequencing: world rank -> next collective index
        self._coll_seq: dict[int, int] = {}
        self._colls: dict[int, CollGathering] = {}
        # cached user attributes (MPI_Comm_set_attr style), incl. names
        self.attrs: dict[Any, Any] = {}

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Local group size (MPI_Comm_size semantics for inter-comms too)."""
        return self.group.size

    @property
    def remote_size(self) -> int:
        if self.remote_group is None:
            raise InvalidHandleError("remote_size on an intra-communicator")
        return self.remote_group.size

    def check_usable(self) -> None:
        if self.freed:
            raise InvalidHandleError(f"communicator {self.name} was freed")

    # -- p2p queues ---------------------------------------------------------

    def posted_queue(self, world_rank: int) -> deque:
        q = self._posted.get(world_rank)
        if q is None:
            q = self._posted[world_rank] = deque()
        return q

    def unexpected_queue(self, world_rank: int) -> deque:
        q = self._unexpected.get(world_rank)
        if q is None:
            q = self._unexpected[world_rank] = deque()
        return q

    # -- collective sequencing ----------------------------------------------

    def join_collective(self, world_rank: int, op: str, nbytes: int,
                        compute: Optional[Callable], cargs: tuple,
                        payload: Any, arrive_time: float, future: Future,
                        check_args: Any = None) -> Optional[CollGathering]:
        """Register *world_rank*'s participation in its next collective.

        Returns the gathering when this arrival completed it — the caller
        then computes the results and resolves every future — else None.
        """
        idx = self._coll_seq.get(world_rank, 0)
        self._coll_seq[world_rank] = idx + 1
        g = self._colls.get(idx)
        if g is None:
            g = self._colls[idx] = CollGathering(op, nbytes, compute, cargs,
                                                 check_args, arrive_time)
        else:
            if g.op != op:
                raise CollectiveMismatchError(
                    f"{self.name}: rank {world_rank} called {op} while "
                    f"others called {g.op} (collective #{idx})")
            if g.check_args is not None and check_args is not None \
                    and g.check_args != check_args:
                raise CollectiveMismatchError(
                    f"{self.name}: mismatched arguments in collective {op} "
                    f"#{idx}: {g.check_args!r} vs {check_args!r}")
            if arrive_time > g.tmax:
                g.tmax = arrive_time
        g.arrived[world_rank] = (payload, arrive_time)
        g.futures[world_rank] = future
        if len(g.arrived) < self.nmembers:
            return None
        del self._colls[idx]
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm {self.name} cid={self.cid} size={self.size} {self.kind}>"
