"""Request objects for non-blocking operations.

A :class:`Request` is a :class:`~repro.mpisim.future.Future` enriched with
MPI metadata.  Requests carry rank-local integer handles; handle allocation
order is what Pilgrim's per-signature id pools (§3.4.3) are designed to
stabilise, so the runtime must hand handles out in creation order and the
tracer sees the raw objects.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidHandleError
from .future import _UNSET, Future
from .status import Status


class Request(Future):
    """A non-blocking operation in flight (or completed, or inactive)."""

    __slots__ = ("kind", "owner", "comm_cid", "peer", "tag", "nbytes",
                 "datatype_handle", "buf_addr", "handle", "status",
                 "complete_time", "freed", "cancelled", "persistent",
                 "active", "post_time", "consumed", "_persistent_start",
                 "current")

    def __init__(self, kind: str, owner: int, handle: int,
                 comm_cid: int = -1, peer: int = -1, tag: int = -1,
                 nbytes: int = 0, datatype_handle: int = 0,
                 buf_addr: int = 0, post_time: float = 0.0):
        # one per isend/irecv: every slot set here, positionally, with no
        # chained Future.__init__ and no description built (see ``desc``)
        self._value = _UNSET
        self.waiters = []
        self.callbacks = []
        self.kind = kind              # "isend" | "irecv" | "icoll:<op>" | ...
        self.owner = owner            # world rank that created the request
        self.handle = handle          # rank-local handle integer
        self.comm_cid = comm_cid
        self.peer = peer              # destination (isend) / source (irecv)
        self.tag = tag
        self.nbytes = nbytes
        self.datatype_handle = datatype_handle
        self.buf_addr = buf_addr
        self.status: Optional[Status] = None
        self.complete_time: float = 0.0
        self.post_time = post_time
        self.freed = False
        self.cancelled = False
        self.persistent = False
        self.active = True
        #: set once a completion call (wait/test) has consumed this request;
        #: mirrors MPI setting the user's handle to MPI_REQUEST_NULL
        self.consumed = False
        self._persistent_start = None  # callable restarting a persistent op
        #: for persistent requests: the in-flight operation of this round
        self.current: Optional["Request"] = None

    @property
    def desc(self) -> str:
        return "%s req#%s rank=%s" % (self.kind, self.handle, self.owner)

    def wait_target(self) -> "Request":
        """The future a completion call must wait on (persistent requests
        delegate to the in-flight operation of the current round)."""
        if self.persistent:
            return self.current if self.current is not None else self
        return self

    def check_usable(self) -> None:
        if self.freed:
            raise InvalidHandleError(f"request {self.desc} was freed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        st = "done" if self.done else "pending"
        return f"<Request {self.kind}#{self.handle} rank={self.owner} {st}>"


REQUEST_NULL = None  # completed-and-freed requests become None in user arrays
#: ``kind`` of the request ``MPI_Comm_idup`` returns: its ``value`` is the
#: new communicator, delivered by the completing Wait/Test (§3.3.1)
KIND_IDUP = "icoll:comm_dup"
