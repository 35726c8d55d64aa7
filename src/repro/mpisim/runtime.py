"""The simulator entry point: :class:`SimMPI` and :class:`RankAPI`.

Usage::

    from repro.mpisim import SimMPI, datatypes as dt

    def program(m):                  # a generator function, one per rank
        me = m.comm_rank()
        buf = m.malloc(1024)
        if me == 0:
            yield from m.send(buf, 1024, dt.BYTE, dest=1, tag=7)
        elif me == 1:
            data, st = yield from m.recv(buf, 1024, dt.BYTE, source=0, tag=7)
        yield from m.barrier()

    sim = SimMPI(nprocs=2, seed=1)
    result = sim.run(program)

Attach a tracer (e.g. ``repro.core.PilgrimTracer``) via the ``tracer=``
argument; it observes every call through :mod:`repro.mpisim.hooks`.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .api_coll import ApiColl
from .api_comm import ApiComm
from .api_completion import ApiCompletion
from .api_p2p import ApiP2P
from .api_rma import ApiRMA
from .api_topo import ApiTopo
from .api_type import ApiType
from ..obs import EventLog
from .clock import RankClock
from .comm import Comm
from .datatypes import DatatypeTable
from .errors import InvalidArgumentError, MpiSimError
from .future import Future
from .group import Group
from .hooks import TracerHooks
from .memory import RankHeap
from .netmodel import NetworkModel
from .scheduler import RankContext, Scheduler


class RankAPI(ApiP2P, ApiCompletion, ApiColl, ApiComm, ApiType,
              ApiTopo, ApiRMA):
    """The full rank-facing MPI surface (see the mixin modules)."""

    def finalized(self) -> bool:
        return self.rt.finished


@dataclass
class RunResult:
    """Summary of one simulated execution."""

    nprocs: int
    #: per-rank virtual completion times (seconds)
    rank_times: list[float]
    #: total scheduler resume steps
    steps: int
    #: total number of traced MPI calls (0 when no tracer is attached)
    mpi_calls: int = 0

    @property
    def app_time(self) -> float:
        """Virtual makespan of the run."""
        return max(self.rank_times) if self.rank_times else 0.0


class SimMPI:
    """A simulated MPI world of ``nprocs`` ranks.

    Args:
        nprocs: number of simulated processes.
        seed: master seed; drives compute-noise and completion-order RNGs.
            Two runs with the same seed and program are bit-identical.
        tracer: optional :class:`~repro.mpisim.hooks.TracerHooks`.
        net: network cost model (defaults to :class:`NetworkModel`).
        noise: relative std-dev of compute-time noise.
        node_size: ranks per simulated node (comm_split_type, hostnames).
        events: optional :class:`repro.obs.EventLog`; when attached the
            runtime records scheduler progress, message matches, wildcard
            resolutions, collective completions, and deadlock diagnostics.
    """

    def __init__(self, nprocs: int, *, seed: int = 0,
                 tracer: Optional[TracerHooks] = None,
                 net: Optional[NetworkModel] = None,
                 noise: float = 0.05,
                 node_size: int = 16,
                 spin_limit: int = 2_000_000,
                 events: Optional[EventLog] = None,
                 faults=None):
        if nprocs <= 0:
            raise InvalidArgumentError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self.seed = seed
        self.tracer = tracer
        self.net = net or NetworkModel()
        self.node_size = node_size
        self.world = Comm(cid=0, group=Group(range(nprocs)),
                          name="MPI_COMM_WORLD")
        self._comms: dict[int, Comm] = {0: self.world}
        self._next_cid = 1
        self.clocks = [RankClock(seed * 1_000_003 + r, noise)
                       for r in range(nprocs)]
        self.heaps = [RankHeap() for _ in range(nprocs)]
        self.type_tables = [DatatypeTable() for _ in range(nprocs)]
        #: completion-order RNG (Waitany/Waitsome/Testany picks)
        self.rng = random.Random(seed ^ 0x9E3779B9)
        #: runtime event log; None unless observability was requested.
        #: Normalized once, and the *normalized* value is what the
        #: scheduler gets — a disabled log must never be consulted on the
        #: scheduler hot path.
        self.events = events if events is not None and events.enabled \
            else None
        #: optional fault injection (resilience testing): a FaultPlan or
        #: pre-armed FaultInjector; only handed to the scheduler when the
        #: plan actually targets scheduler sites, so fault-free runs (and
        #: pipeline-only plans) keep the scheduler loop untouched
        from ..resilience.faults import arm as _arm_faults
        self.faults = _arm_faults(faults)
        self.scheduler = Scheduler(
            spin_limit=spin_limit, events=self.events,
            faults=self.faults
            if self.faults is not None and self.faults.wants_sched
            else None)
        self._next_wid = 0
        self._bridges: dict = {}
        self._ran = False
        self.finished = False
        self.apis: list[RankAPI] = []

    # -- registry ----------------------------------------------------------------

    def next_win_id(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        return wid

    def make_comm(self, group: Group,
                  remote_group: Optional[Group] = None,
                  name: str = "") -> Comm:
        comm = Comm(self._next_cid, group, remote_group, name)
        self._comms[comm.cid] = comm
        self._next_cid += 1
        return comm

    def comm_by_cid(self, cid: int) -> Comm:
        return self._comms[cid]

    # -- inter-communicator creation rendezvous ----------------------------------------

    def join_intercomm_create(self, key, local_comm: Comm, world_rank: int,
                              now: float) -> Future:
        fut = Future(("intercomm_create%s rank=%s", key, world_rank))
        st = self._bridges.setdefault(key, {})
        side = st.setdefault(local_comm.cid, {"comm": local_comm,
                                              "arrived": {}})
        side["arrived"][world_rank] = (fut, now)
        sides = list(st.values())
        if len(sides) == 2 and all(
                len(s["arrived"]) == s["comm"].group.size for s in sides):
            del self._bridges[key]
            sides.sort(key=lambda s: s["comm"].cid)
            ga, gb = sides[0]["comm"].group, sides[1]["comm"].group
            overlap = set(ga.ranks) & set(gb.ranks)
            if overlap:
                raise InvalidArgumentError(
                    f"intercomm_create: local groups overlap on {overlap}")
            newc = self.make_comm(Group(ga.ranks), Group(gb.ranks))
            total = ga.size + gb.size
            tmax = max(t for s in sides for _, t in s["arrived"].values())
            tdone = tmax + self.net.coll_time("comm_agree", total, 0)
            for s in sides:
                for _, (f, _t) in s["arrived"].items():
                    self.scheduler.resolve(f, (newc, tdone))
        return fut

    # -- execution --------------------------------------------------------------------

    def _rank_main(self, api: RankAPI,
                   program: Callable[[RankAPI], object]):
        api._rec("MPI_Init", api._tick(), ())
        gen = program(api)
        if inspect.isgenerator(gen):
            yield from gen
        elif gen is not None:
            raise MpiSimError(
                "rank programs must be generator functions (use "
                "'yield from m.<blocking-op>(...)' at least once, or "
                "return None)")
        # MPI_Finalize synchronises in practice; model it as a barrier.
        t0 = api.clock.now
        yield api._coll("barrier", self.world, None, 0, None)
        api._rec("MPI_Finalize", t0, ())

    def run(self, program: Callable[[RankAPI], object]) -> RunResult:
        """Execute *program* on every rank to completion."""
        if self._ran:
            raise MpiSimError("SimMPI.run() may only be called once; "
                              "create a fresh SimMPI per run")
        self._ran = True
        if self.tracer is not None:
            self.tracer.on_run_start(self)
        for r in range(self.nprocs):
            ctx = RankContext(r, None, self.clocks[r])
            # the API keeps the context's call trail current (diagnostics)
            api = RankAPI(self, r, ctx)
            ctx.gen = self._rank_main(api, program)
            self.apis.append(api)
            self.scheduler.add_rank(ctx)
        self.scheduler.run()
        self.finished = True
        if self.tracer is not None:
            self.tracer.on_run_end(self)
        calls = getattr(self.tracer, "total_calls", 0) if self.tracer else 0
        return RunResult(
            nprocs=self.nprocs,
            rank_times=[c.now for c in self.clocks],
            steps=self.scheduler.steps,
            mpi_calls=calls,
        )
