"""Shared plumbing for the rank-facing MPI API.

The API is split across mixin modules (p2p, completion, collectives,
communicator management, datatypes/topology/local) that all build on the
helpers here.  Conventions:

* **Blocking** operations are generator functions — rank programs invoke
  them as ``result = yield from m.recv(...)``.
* **Non-blocking / local** operations are plain methods.
* Every operation reports itself to the attached tracer through
  :meth:`_rec`, passing a tuple of *all* parameters (inputs and outputs)
  in the order :mod:`repro.mpisim.funcs` declares them, plus the virtual
  entry/exit timestamps — exactly the information a PMPI
  prologue/epilogue pair observes (§3.1).
"""

from __future__ import annotations

from . import constants as C
from . import datatypes as dt
from .comm import Comm
from .errors import InvalidArgumentError
from .request import Request

#: virtual cost of a purely local MPI call (comm_rank, type_size, ...)
LOCAL_OP_COST = 5.0e-8


class CommView:
    """What one rank knows about one communicator that no call can change
    — resolved once per (rank, communicator) pair, not per message."""

    __slots__ = ("local", "peer", "rank", "posted", "unexpected")

    def __init__(self, comm: Comm, world_rank: int):
        local, peer = comm.group, comm.remote_group
        if peer is None:
            peer = local
        elif not local.contains(world_rank):
            local, peer = peer, local
        #: the group the caller is a member of
        self.local = local
        #: the group src/dest arguments are interpreted against (the
        #: remote one on an inter-communicator)
        self.peer = peer
        #: the caller's rank in the communicator
        self.rank = local.rank_of(world_rank)
        #: the caller's receive queues
        self.posted = comm.posted_queue(world_rank)
        self.unexpected = comm.unexpected_queue(world_rank)


class _Views(dict):
    """``views[comm]``: one rank's :class:`CommView` of each communicator
    it has used, resolved on first use."""

    def __init__(self, world_rank: int):
        self.world_rank = world_rank

    def __missing__(self, comm: Comm) -> CommView:
        view = self[comm] = CommView(comm, self.world_rank)
        return view


class ApiBase:
    """State and helpers common to all API mixins.

    The success path pays only for what changes per call: whatever a run
    cannot change after ``SimMPI.__init__`` (the network model, the event
    log, the scheduler) is read once here, diagnostics are built by whoever
    reports a failure, and validation is in-line flag and range tests with
    the ``check_*`` helpers as the failure branch.
    """

    def __init__(self, rt, rank: int, ctx):
        self.rt = rt
        self.rank = rank                    # world rank
        self.clock = rt.clocks[rank]
        self.heap = rt.heaps[rank]
        self.types = rt.type_tables[rank]
        self.world: Comm = rt.world
        self._next_req_handle = 1
        hook = rt.tracer.on_call if rt.tracer is not None else None
        self._hook = hook
        self._mem_hook = rt.tracer.on_mem if rt.tracer is not None else None
        #: this rank's scheduler context; _rec and the blocking primitives
        #: keep its last_call current so deadlock/livelock diagnostics can
        #: name the MPI call each rank is parked in
        self._ctx = ctx
        self._sched = rt.scheduler
        self._events = rt.events
        self._net = rt.net
        #: the fixed software cost of an MPI call, as the clock charges it
        self._overhead = max(rt.net.overhead, 0.0)
        self._views = _Views(rank)

    # -- tracer plumbing -----------------------------------------------------

    def _rec(self, fname: str, t0: float, values: tuple) -> None:
        self._ctx.last_call = fname
        if self._hook is not None:
            self._hook(self.rank, fname, values, t0, self.clock.now)

    # -- request plumbing -----------------------------------------------------

    def _new_request(self, kind: str, **kw) -> Request:
        """A request under the next handle.  (The per-message posters
        spell this out, positionally.)"""
        req = Request(kind, self.rank, self._next_req_handle, **kw)
        self._next_req_handle += 1
        return req

    # -- argument validation ----------------------------------------------------

    def _check_p2p_args(self, comm: Comm, peer: int, count: int,
                        datatype: dt.Datatype, tag: int,
                        is_recv: bool) -> CommView:
        """Validate a point-to-point call; returns the caller's view of
        *comm*.  Straight-line when everything is in order; a failed test
        hands over to the helper that owns the message, and the tests run
        in the order the errors have always been reported."""
        if comm.freed:
            comm.check_usable()
        if datatype.freed or not datatype.committed:
            datatype.check_usable()
        if count < 0:
            raise InvalidArgumentError(f"negative count {count}")
        if not 0 <= tag <= C.TAG_UB and not (is_recv and tag == C.ANY_TAG):
            raise InvalidArgumentError(
                f"invalid {'recv' if is_recv else 'send'} tag {tag}")
        view = self._views[comm]
        if not 0 <= peer < view.peer.size and peer != C.PROC_NULL:
            self._check_peer(comm, peer, wildcard_ok=is_recv)
        return view

    def _check_peer(self, comm: Comm, peer: int, *,
                    wildcard_ok: bool = False) -> None:
        if peer == C.PROC_NULL:
            return
        if wildcard_ok and peer == C.ANY_SOURCE:
            return
        size = self._views[comm].peer.size
        if not 0 <= peer < size:
            raise InvalidArgumentError(
                f"peer rank {peer} out of range for {comm.name} (size {size})")

    # -- misc ------------------------------------------------------------------

    def _tick(self) -> float:
        """Charge the fixed software cost of an MPI call; returns entry
        time.  (The per-message calls spell these two statements out.)"""
        clock = self.clock
        t0 = clock.now
        clock.now = t0 + self._overhead
        return t0

    def compute(self, seconds: float) -> float:
        """Model a local computation phase (noise applied). Not an MPI call —
        never traced."""
        return self.clock.advance(seconds)

    def yield_to_scheduler(self):
        """Cooperatively let other ranks run (used by spin loops around
        Test/Iprobe). Usage: ``yield from m.yield_to_scheduler()``."""
        yield None

    # -- simulated heap interception ----------------------------------------------

    def malloc(self, size: int) -> int:
        addr = self.heap.malloc(size)
        if self._mem_hook is not None:
            self._mem_hook(self.rank, "malloc", {"size": size}, addr,
                           self.clock.now)
        return addr

    def calloc(self, nmemb: int, size: int) -> int:
        addr = self.heap.calloc(nmemb, size)
        if self._mem_hook is not None:
            self._mem_hook(self.rank, "calloc",
                           {"nmemb": nmemb, "size": size}, addr,
                           self.clock.now)
        return addr

    def realloc(self, addr: int, size: int) -> int:
        new_addr = self.heap.realloc(addr, size)
        if self._mem_hook is not None:
            self._mem_hook(self.rank, "realloc",
                           {"ptr": addr, "size": size}, new_addr,
                           self.clock.now)
        return new_addr

    def free(self, addr: int) -> None:
        self.heap.free(addr)
        if self._mem_hook is not None:
            self._mem_hook(self.rank, "free", {"ptr": addr}, None,
                           self.clock.now)

    def cuda_malloc(self, size: int, device: int = 0) -> int:
        addr = self.heap.cuda_malloc(size, device)
        if self._mem_hook is not None:
            self._mem_hook(self.rank, "cudaMalloc",
                           {"size": size, "device": device}, addr,
                           self.clock.now)
        return addr

    def cuda_free(self, addr: int) -> None:
        self.heap.cuda_free(addr)
        if self._mem_hook is not None:
            self._mem_hook(self.rank, "cudaFree", {"ptr": addr}, None,
                           self.clock.now)
