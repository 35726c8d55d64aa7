"""The ScalaTrace-style baseline tracer.

This implements the design points of ScalaTrace (V2/V4) that the paper's
comparison hinges on, at the fidelity level of Table 1:

* **Partial function coverage** — the Test* family, probes, cancels and
  object-name/query calls are NOT recorded (Table 1: 125 of 446 standard
  functions; the intro's ``MPI_Testsome`` example is exactly what gets
  lost).  Memory-management calls are never observed.
* **Partial parameter coverage** — memory pointers are dropped entirely
  (Table 1 row "memory pointer: ×"); requests draw ids from ONE pool per
  rank (the default scheme §3.4.3 criticises), so non-deterministic
  completion orders leak into the event stream and break pattern
  matching; requests consumed by unrecorded Test* calls never return
  their ids (the tracer cannot see the completion), faithfully degrading
  compression further; src/dst are offset-encoded as ScalaTrace's
  location-independent RSDs do; tags are retained (the paper configured
  ScalaTrace to retain them).
* **RSD/PRSD intra-process compression** (see :mod:`repro.scalatrace.rsd`).
* **Inter-process merge by whole-trace identity with rank lists** — no
  structural sharing across differing traces, which is what produces the
  linear growth in Fig 5/6.

Like the real ScalaTrace runs in §4.3 (which crashed in ``MPI_Waitall``
for Sedov/Cellular until the wrapper was commented out), the baseline
accepts a ``record_waitall=False`` switch; the FLASH benchmarks use it to
mirror the paper's setup.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.packing import write_uvarint
from ..mpisim import constants as C
from ..mpisim import funcs as F
from ..mpisim.comm import Comm
from ..mpisim.datatypes import Datatype
from ..mpisim.group import Group
from ..mpisim.hooks import TracerHooks
from ..mpisim.ops import Op
from ..mpisim.request import Request
from ..mpisim.status import Status
from ..obs import NULL_REGISTRY, MetricsRegistry, PhaseProfiler
from .rsd import RSDCompressor

#: functions the baseline does NOT record (sim-scale image of Table 1's
#: coverage gap; the full-standard number is funcs.SCALATRACE_SUPPORTED)
UNRECORDED = frozenset((
    "MPI_Test", "MPI_Testall", "MPI_Testany", "MPI_Testsome",
    "MPI_Iprobe", "MPI_Probe", "MPI_Cancel", "MPI_Request_get_status",
    "MPI_Comm_set_name", "MPI_Comm_get_name", "MPI_Get_processor_name",
    "MPI_Get_count", "MPI_Initialized",
    # one-sided communication: outside ScalaTrace's recorded surface
    "MPI_Win_create", "MPI_Win_allocate", "MPI_Win_free",
    "MPI_Win_set_name", "MPI_Win_fence", "MPI_Put", "MPI_Get",
    "MPI_Accumulate", "MPI_Win_lock", "MPI_Win_unlock",
))

SCALATRACE_RECORDED = frozenset(F.FUNCS) - UNRECORDED


@dataclass
class ScalaTraceResult:
    """Finalize products + perf accounting for the baseline."""

    trace_bytes: bytes
    total_calls: int
    recorded_calls: int
    n_unique_traces: int
    time_intra: float
    time_merge: float
    per_rank_entries: list[int] = field(default_factory=list)

    @property
    def trace_size(self) -> int:
        return len(self.trace_bytes)


class ScalaTraceTracer(TracerHooks):
    """Baseline tracer implementing ScalaTrace's published design."""

    def __init__(self, *, max_window: int = 32, record_waitall: bool = True,
                 relative_ranks: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self.max_window = max_window
        self.record_waitall = record_waitall
        #: ScalaTrace's location-independent encoding of src/dst
        self.relative_ranks = relative_ranks
        #: same instrument as Pilgrim's (scoped "scalatrace"), so Fig 7-
        #: style overhead comparisons come from one registry
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.obs = self.metrics.scope("scalatrace")
        self.profiler = PhaseProfiler(self.obs)
        self.nprocs = 0
        self.compressors: list[RSDCompressor] = []
        self._req_active: list[dict[int, int]] = []
        self._req_pool: list = []
        self.total_calls = 0
        self.recorded_calls = 0
        self.time_intra = 0.0
        self.result: Optional[ScalaTraceResult] = None

    # -- hooks ---------------------------------------------------------------------

    def on_run_start(self, sim) -> None:
        self.nprocs = sim.nprocs
        self.profiler = PhaseProfiler(self.obs)
        self.total_calls = self.recorded_calls = 0
        self.time_intra = 0.0
        self.compressors = [RSDCompressor(self.max_window)
                            for _ in range(sim.nprocs)]
        # ONE id pool per rank for all requests (no per-signature pools)
        from ..core.symbolic import IdPool
        self._req_active = [{} for _ in range(sim.nprocs)]
        self._req_pool = [IdPool() for _ in range(sim.nprocs)]
        self.result = None

    def on_call(self, rank: int, fname: str, values: tuple,
                t0: float, t1: float) -> None:
        self.total_calls += 1
        if fname in UNRECORDED:
            return
        if fname == "MPI_Waitall" and not self.record_waitall:
            return
        tick = _time.perf_counter()
        sig = self._encode(rank, fname, values)
        self.compressors[rank].append(sig)
        if fname in self._WAIT_FNAMES:
            self._release_consumed(rank, fname, values)
        self.recorded_calls += 1
        self.time_intra += _time.perf_counter() - tick

    def on_run_end(self, sim) -> None:
        self.result = self.finalize()

    # -- encoding ----------------------------------------------------------------------

    _WAIT_FNAMES = frozenset((
        "MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Waitsome",
        "MPI_Request_free",
    ))

    def _enc_request(self, rank: int, req: Optional[Request]) -> Any:
        if req is None:
            return None
        key = id(req)
        table = self._req_active[rank]
        got = table.get(key)
        if got is None:
            num = self._req_pool[rank].acquire()
            # hold a strong reference: ids are keyed by id(request), and a
            # collected fire-and-forget request must not alias a new one
            table[key] = (num, req)
            return num
        return got[0]

    def _enc_status(self, st: Optional[Status], ctx: int) -> Any:
        """Statuses keep (source, tag); sources go through the same
        location-independent offset encoding as src/dst arguments."""
        if not isinstance(st, Status):
            return None
        src = st.MPI_SOURCE
        if self.relative_ranks and src not in (C.PROC_NULL, C.ANY_SOURCE):
            return (("d", src - ctx), st.MPI_TAG)
        return (src, st.MPI_TAG)

    def _release_consumed(self, rank: int, fname: str,
                          values: tuple) -> None:
        reqs: list[Optional[Request]] = []
        for p, v in zip(F.FUNCS[fname].params, values):
            if p.kind == F.K_REQUEST:
                reqs.append(v)
            elif p.kind == F.K_REQUESTV:
                reqs.extend(v or ())
        table = self._req_active[rank]
        for req in reqs:
            if req is None or req.persistent:
                continue
            if req.consumed or req.freed:
                got = table.pop(id(req), None)
                if got is not None:
                    self._req_pool[rank].release(got[0])

    def _encode(self, rank: int, fname: str, values: tuple) -> tuple:
        spec = F.FUNCS[fname]
        comm_at = spec.pos.get(spec.ctx_comm)
        ctx = F.context_rank(
            None if comm_at is None else values[comm_at], rank)
        parts: list[Any] = [spec.fid]
        for p, v in zip(spec.params, values):
            kind = p.kind
            if kind == F.K_PTR:
                continue  # memory pointers are not collected (Table 1)
            if kind in (F.K_COMM, F.K_NEWCOMM):
                parts.append(v.cid if isinstance(v, Comm) else -1)
            elif kind in (F.K_DATATYPE, F.K_NEWTYPE):
                parts.append(v.handle if isinstance(v, Datatype) else -1)
            elif kind == F.K_DATATYPEV:
                parts.append(tuple(t.handle for t in v))
            elif kind == F.K_GROUP:
                parts.append(tuple(v.ranks) if isinstance(v, Group) else None)
            elif kind == F.K_RANK:
                if self.relative_ranks and isinstance(v, int) \
                        and v not in (C.PROC_NULL, C.ANY_SOURCE, C.UNDEFINED):
                    parts.append(("d", v - ctx))
                else:
                    parts.append(v)
            elif kind == F.K_ROOT:
                # rank-valued but usually constant: offset-encode only on
                # exact match (comm_rank output, root == me)
                if self.relative_ranks and v == ctx:
                    parts.append(("d", 0))
                else:
                    parts.append(v)
            elif kind == F.K_REQUEST:
                parts.append(self._enc_request(rank, v))
            elif kind == F.K_REQUESTV:
                parts.append(tuple(self._enc_request(rank, r)
                                   for r in (v or ())))
            elif kind == F.K_STATUS:
                parts.append(self._enc_status(v, ctx))
            elif kind == F.K_STATUSV:
                if v is None:
                    parts.append(None)
                else:
                    parts.append(tuple(self._enc_status(st, ctx)
                                       for st in v))
            elif kind == F.K_OP:
                parts.append(v.handle if isinstance(v, Op) else v)
            elif kind in (F.K_INTV, F.K_INDEXV):
                parts.append(tuple(v) if v is not None else None)
            elif kind == F.K_FLAG:
                parts.append(bool(v))
            else:
                parts.append(v)
        return tuple(parts)

    # -- finalize --------------------------------------------------------------------------

    def finalize(self) -> ScalaTraceResult:
        # idempotent, like every backend: a second call returns the
        # cached result and leaves the registry as it was
        if self.result is not None:
            return self.result
        prof = self.profiler
        prof.add("intra", self.time_intra, count=self.recorded_calls)
        with prof.phase("merge") as ph_merge:
            frozen = [c.freeze() for c in self.compressors]
            blobs = [RSDCompressor.serialize(f) for f in frozen]
            # inter-process merge: identical whole traces share one copy,
            # annotated with a rank list; differing traces are stored
            # verbatim
            unique: dict[bytes, list[int]] = {}
            order: list[bytes] = []
            for r, blob in enumerate(blobs):
                if blob not in unique:
                    unique[blob] = []
                    order.append(blob)
                unique[blob].append(r)
            out = bytearray(b"SCLT")
            write_uvarint(out, self.nprocs)
            write_uvarint(out, len(order))
            for blob in order:
                ranks = unique[blob]
                write_uvarint(out, len(ranks))
                for r in ranks:
                    write_uvarint(out, r)
                write_uvarint(out, len(blob))
                out.extend(blob)
        t_merge = ph_merge.wall
        if self.obs.enabled:
            self.obs.counter("calls").inc(self.total_calls)
            self.obs.counter("recorded_calls").inc(self.recorded_calls)
            self.obs.gauge("ranks").set(self.nprocs)
            self.obs.gauge("unique_traces").set(len(order))
            self.obs.gauge("trace_bytes").set(len(out))
        self.result = ScalaTraceResult(
            trace_bytes=bytes(out),
            total_calls=self.total_calls,
            recorded_calls=self.recorded_calls,
            n_unique_traces=len(order),
            time_intra=self.time_intra,
            time_merge=t_merge,
            per_rank_entries=[c.n_entries for c in self.compressors],
        )
        return self.result
