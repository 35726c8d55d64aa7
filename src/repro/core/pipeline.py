"""The explicit three-stage compression pipeline (shard → reduce →
serialize), with optional resilience.

Stage 1 (**shard**) freezes every rank, traced or ingest-folded, into a
self-contained :class:`~repro.core.shard.RankShard`.  Stage 2
(**reduce**) absorbs the shards, in rank order, into one
:class:`~repro.core.shard.ShardUnion`.  Pilgrim merges in ceil(log2 P)
pairwise levels (Fig 3/4) because P processes merge at once; one
process here would only remap every grammar once per level, so the
levels are the oracle: :func:`tree_reduce` over the associative
:func:`~repro.core.shard.merge_shards` yields the same bytes.  Stage 3
(**serialize**) runs the final CFG dedup/merge/Sequitur pass over the
reduced shard's per-rank grammars and emits the on-disk trace format.

**Resilience** (``faults=`` / ``retry=``): every freeze, every rank's
absorb (site ``merge``) and the serialize runs under a
:class:`~repro.resilience.retry.TaskSupervisor` — bounded exponential
backoff with seeded jitter, the failed task recomputed on every retry.
A task whose budget runs out does not abort the run: its rank becomes a
placeholder shard and a :class:`~repro.resilience.salvage.SalvageReport`
entry, and the result is marked ``degraded``.  The counters surface in
the ``pipeline.*`` metrics scope (``retries``, ``worker_deaths``,
``gave_up``, ``degraded``).  Unarmed, every stage takes the unsupervised
path — byte-identical output, no added work.

**Spans** (``recorder=``): each stage is a phase of the attached
:class:`~repro.obs.PhaseProfiler` (``shard``, ``cst_merge``,
``cfg_merge``, ``timing_merge``, ``serialize``) and each rank's absorb a
``merge.task`` span, recorded only for the attempt that survived.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

from ..obs import PhaseProfiler, SpanRecorder
from ..resilience.faults import FaultInjector, WorkerDiedError, arm
from ..resilience.retry import RetryPolicy, TaskSupervisor
from ..resilience.salvage import SalvageReport
from .errors import TraceFormatError
from .interproc import CFGMergeResult, merge_grammars
from .shard import RankShard, ShardUnion
from .trace_format import TraceFile

T = TypeVar("T")

#: what the supervisor retries: injected faults all subclass one of
#: these, and their real-world counterparts (transient I/O, allocation
#: failure, dead/hung worker, CRC-detected corruption) are exactly the
#: failures a retry can plausibly cure.  Anything else is a bug and
#: propagates immediately.
RETRYABLE = (OSError, MemoryError, TraceFormatError, WorkerDiedError)


def tree_reduce(items: Sequence[T], merge: Callable[[T, T], T]) -> T:
    """Fold *items* with an associative *merge* in ceil(log2 N) pairwise
    levels, as Pilgrim's parallel merge does: adjacent pairs merge left
    to right, an odd tail passes through unchanged.  The oracle
    :func:`~repro.core.shard.reduce_shards` is held to."""
    if not items:
        raise ValueError("tree_reduce needs at least one item")
    work = list(items)
    while len(work) > 1:
        merged = [merge(a, b) for a, b in zip(work[::2], work[1::2])]
        if len(work) % 2:
            merged.append(work[-1])
        work = merged
    return work[0]


@dataclass
class PipelineResult:
    """Everything the serialize stage produced."""

    trace_bytes: bytes
    cfg: CFGMergeResult
    shard: RankShard
    #: True when any rank span or section had to be abandoned; the
    #: salvage report then says exactly what was lost
    degraded: bool = False
    salvage: Optional[SalvageReport] = None
    #: the reduce's :attr:`~repro.core.shard.ShardUnion.rows`: per rank,
    #: where each of its signatures went in the merged table
    rows: list[list[int]] = field(default_factory=list)


class TracePipeline:
    """Drives shard → reduce → serialize over a run's ranks — traced
    :class:`~repro.core.shard.RankCompressor` objects or an ingest fold's
    ``RankFold`` objects: anything with ``rank``, ``observed_calls`` and
    ``freeze(memo)`` — timing every stage through *profiler*.

    ``faults`` arms a :class:`~repro.resilience.faults.FaultPlan` (or an
    already-armed injector, so the tracer and scheduler can share one);
    ``retry`` overrides the default :class:`~repro.resilience.retry.
    RetryPolicy`; ``scope`` is an optional ``repro.obs`` metrics scope
    (conventionally ``pipeline``) the resilience counters report into;
    ``recorder`` is an optional :class:`~repro.obs.SpanRecorder` the
    per-rank ``merge.task`` spans collect into — defaults to the
    profiler's recorder so phase and task spans share one tree.
    """

    def __init__(self, *, loop_detection: bool = True,
                 cfg_dedup: bool = True,
                 profiler: Optional[PhaseProfiler] = None,
                 faults=None, retry: Optional[RetryPolicy] = None,
                 scope=None, recorder: Optional[SpanRecorder] = None,
                 timing_meta=None):
        self.loop_detection = loop_detection
        self.cfg_dedup = cfg_dedup
        #: :class:`~repro.core.timing.TimingMeta` persisted alongside the
        #: timing sections (the binning bases, needed at reconstruction)
        self.timing_meta = timing_meta
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.recorder = (recorder if recorder is not None
                         else self.profiler.recorder)
        self.injector: Optional[FaultInjector] = arm(faults)
        if retry is None and self.injector is not None:
            # tie the backoff jitter to the plan seed: one (plan, seed)
            # pair must replay the identical recovery sequence
            retry = RetryPolicy(seed=self.injector.plan.seed)
        self.supervisor: Optional[TaskSupervisor] = (
            TaskSupervisor(retry, RETRYABLE, scope,
                           recorder=self.recorder)
            if retry is not None else None)
        self.salvage = SalvageReport()
        self._scope = scope

    @property
    def resilient(self) -> bool:
        return self.supervisor is not None

    # -- stage 1: shard ----------------------------------------------------------------

    def shard(self, ranks) -> list[RankShard]:
        memo: dict = {}     # one Sequitur per distinct rank stream
        with self.profiler.phase("shard"):
            if not self.resilient:
                return [rc.freeze(memo) for rc in ranks]
            return [self._freeze_resilient(rc, memo) for rc in ranks]

    def _freeze_resilient(self, rc, memo: dict) -> RankShard:
        inj = self.injector
        timing = self.timing_meta is not None

        def thunk(attempt: int) -> RankShard:
            if inj is not None:
                inj.raise_failure("shard.freeze", rc.rank)
            shard = rc.freeze(memo)
            if inj is not None:
                damaged = inj.corrupt_bytes("shard.freeze",
                                            shard.to_bytes(), rc.rank)
                if damaged is not None:
                    # transmit through the serialized form, as a real
                    # distributed pipeline would: the shard's per-section
                    # CRCs and the rank span it was sent for turn silent
                    # damage into a retryable error
                    shard = RankShard.from_bytes(damaged, span=(rc.rank, 1))
            return shard

        def on_exhausted(exc: BaseException) -> RankShard:
            self.salvage.lose_rank(
                rc.rank, rc.observed_calls,
                f"freeze abandoned ({type(exc).__name__}: {exc})")
            return RankShard.empty(rc.rank, 1, timing=timing)

        return self.supervisor.run(thunk, site="shard.freeze",
                                   on_exhausted=on_exhausted)

    # -- stage 2: reduce ---------------------------------------------------------------

    def reduce(self, shards: Sequence[RankShard]) -> ShardUnion:
        with self.profiler.phase("cst_merge"):
            union = ShardUnion()
            for shard in shards:
                self._absorb(union, shard)
            return union

    def _absorb(self, union: ShardUnion, shard: RankShard) -> None:
        """One rank's absorb.  Resilient, it is supervised: an injected
        failure, injected damage to the shard's bytes and a rank-span
        check, then the absorb (all-or-nothing), retried as a whole; a
        rank whose budget runs out is absorbed as a placeholder."""
        inj, rec, rank = self.injector, self.recorder, shard.base_rank

        def thunk(attempt: int) -> None:
            given = shard
            if inj is not None:
                inj.raise_failure("merge", rank)
                damaged = inj.corrupt_bytes("merge", shard.to_bytes(), rank)
                if damaged is not None:
                    given = RankShard.from_bytes(
                        damaged, span=(rank, shard.nranks))
            t0 = _time.perf_counter()
            union.absorb(given)
            # only the attempt that survived is recorded
            if rec.enabled:
                rec.record("merge.task", dur_s=_time.perf_counter() - t0,
                           scope="pipeline", rank=rank, attempt=attempt)

        def on_exhausted(exc: BaseException) -> None:
            for off, calls in enumerate(shard.calls):
                self.salvage.lose_rank(
                    rank + off, calls,
                    f"merge abandoned ({type(exc).__name__}: {exc})")
            union.absorb(RankShard.empty(
                rank, shard.nranks, timing=shard.timing_duration is not None))

        if self.resilient:
            self.supervisor.run(thunk, site="merge", on_exhausted=on_exhausted)
        else:
            thunk(0)

    # -- stage 3: serialize ------------------------------------------------------------

    def serialize(self, shard: RankShard) -> PipelineResult:
        prof = self.profiler
        with prof.phase("cfg_merge"):
            cfg = merge_grammars(shard.cfg.per_rank(),
                                 loop_detection=self.loop_detection,
                                 dedup=self.cfg_dedup)
        timing_d = timing_i = None
        if shard.timing_duration is not None:
            with prof.phase("timing_merge"):
                timing_d = merge_grammars(shard.timing_duration.per_rank(),
                                          loop_detection=self.loop_detection,
                                          dedup=self.cfg_dedup)
                timing_i = merge_grammars(shard.timing_interval.per_rank(),
                                          loop_detection=self.loop_detection,
                                          dedup=self.cfg_dedup)
        with prof.phase("serialize"):
            trace = TraceFile(nprocs=shard.nranks, cst=shard.merged_cst(),
                              cfg=cfg, timing_duration=timing_d,
                              timing_interval=timing_i,
                              timing_meta=(self.timing_meta
                                           if timing_d is not None else None))
            if not self.resilient:
                blob = trace.to_bytes()
            else:
                blob = self.supervisor.run(
                    lambda attempt: self._serialize_once(trace),
                    site="serialize")
        degraded = self.salvage.degraded
        if degraded and self._scope is not None:
            self._scope.counter("degraded").inc()
        return PipelineResult(trace_bytes=blob, cfg=cfg, shard=shard,
                              degraded=degraded,
                              salvage=self.salvage if degraded else None)

    def _serialize_once(self, trace: TraceFile) -> bytes:
        inj = self.injector
        if inj is not None:
            inj.raise_failure("serialize")
        blob = trace.to_bytes()
        if inj is not None:
            damaged = inj.corrupt_bytes("serialize", blob)
            if damaged is not None:
                # the reader's CRC pass is the corruption detector; a
                # parse failure here is retryable like any other fault
                TraceFile.from_bytes(damaged)
        return blob

    # -- the whole flow ----------------------------------------------------------------

    def run(self, ranks) -> PipelineResult:
        shards = self.shard(ranks)
        union = self.reduce(shards)
        result = self.serialize(union.shard)
        result.rows = union.rows
        return result
