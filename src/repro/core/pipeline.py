"""The explicit three-stage compression pipeline (shard → reduce →
serialize), with optional resilience.

Stage 1 (**shard**) freezes every rank's intra-process state into a
self-contained :class:`~repro.core.shard.RankShard`.  Stage 2
(**reduce**) folds the shards through :func:`~repro.core.shard.
merge_shards` in ceil(log2 P) pairwise levels — the paper's Fig 3/4 tree
reduction.  The paper runs each level on the application's own ranks;
here finalize runs in one process, so the tree is a serial loop.
Because the merge is associative (see :mod:`repro.core.shard`), every
tree shape yields byte-identical traces.  Stage 3 (**serialize**) runs
the final CFG dedup/merge/Sequitur pass over the reduced shard's
per-rank grammars and emits the on-disk trace format.

**Resilience** (``faults=`` / ``retry=``): every freeze, pair-merge, and
the final serialize runs under a :class:`~repro.resilience.retry.
TaskSupervisor` — bounded exponential backoff with seeded jitter, and a
recomputation of the failed task on every retry.  A task whose retry
budget is exhausted does not abort the run: its rank span is replaced by
a placeholder shard and recorded in a :class:`~repro.resilience.salvage.
SalvageReport`, and the result is marked ``degraded``.  The counters
surface through the ``pipeline.*`` metrics scope (``retries``,
``worker_deaths``, ``gave_up``, ``degraded``).  When neither faults nor
a retry policy are armed, every stage takes the unsupervised code path —
byte-identical output, no added work.

Each reduction level is timed as a ``merge.level.<k>`` phase in the
attached :class:`~repro.obs.PhaseProfiler`, so ``repro stats`` renders
the per-level breakdown of the Fig 8 decomposition.

**Span collection** (``recorder=``): when a :class:`~repro.obs.
SpanRecorder` is attached, every pair merge becomes a ``merge.task``
span nested under its ``merge.level.<k>`` phase span and counts into
``merge.tasks`` / ``merge.task_seconds``.  Under supervision a pair's
telemetry is recorded only once it survives every fault check, so a
killed or corrupted attempt never leaves a duplicate span behind.

:func:`tree_reduce` is generic (any associative ``merge(a, b)``), so
later subsystems — timing reduction, multi-trace aggregation — can reuse
the scheduler unchanged.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence, TypeVar

from ..obs import PhaseProfiler, SpanRecorder
from ..resilience.faults import FaultInjector, WorkerDiedError, arm
from ..resilience.retry import RetryPolicy, TaskSupervisor
from ..resilience.salvage import SalvageReport
from .errors import TraceFormatError
from .interproc import CFGMergeResult, merge_grammars
from .shard import GrammarSet, RankShard, merge_shards
from .trace_format import TraceFile

T = TypeVar("T")

#: what the supervisor retries: injected faults all subclass one of
#: these, and their real-world counterparts (transient I/O, allocation
#: failure, dead/hung worker, CRC-detected corruption) are exactly the
#: failures a retry can plausibly cure.  Anything else is a bug and
#: propagates immediately.
RETRYABLE = (OSError, MemoryError, TraceFormatError, WorkerDiedError)


def _pair_attrs(a, b) -> dict[str, Any]:
    """Span attributes identifying a merge pair (rank-span based when the
    items are shards; empty for generic reductions)."""
    base = getattr(a, "base_rank", None)
    if base is None:
        return {}
    return {"base_rank": base,
            "nranks": getattr(a, "nranks", 0) + getattr(b, "nranks", 0)}


def _count_task(scope, seconds: float) -> None:
    if scope is not None and scope.enabled:
        scope.counter("merge.tasks").inc()
        scope.timer("merge.task_seconds").add(seconds)


class _SiteMerge(NamedTuple):
    """A ``fn(a, b, site)`` for :func:`tree_reduce`: told the level it
    runs at, and recording its own ``merge.task`` telemetry (the
    pipeline's supervised merge, which names its fault site and counts
    only the attempt that survived)."""

    fn: Callable


def tree_reduce(items: Sequence[T],
                merge: Callable[[T, T], T] | _SiteMerge, *,
                profiler: Optional[PhaseProfiler] = None,
                phase_prefix: str = "merge.level",
                recorder: Optional[SpanRecorder] = None,
                scope=None) -> T:
    """Fold *items* with an associative *merge* in ceil(log2 N) pairwise
    levels: adjacent pairs merge left to right, an odd tail passes
    through unchanged.

    Per-level wall time is recorded as ``<phase_prefix>.<k>`` phases in
    *profiler*; with a *recorder* (and/or metrics *scope*) attached,
    every pair merge additionally records a ``merge.task`` span and
    counts into ``merge.tasks`` / ``merge.task_seconds``.  A merge
    wrapped in :class:`_SiteMerge` is handed each level's site instead
    and records its own telemetry.
    """
    if not items:
        raise ValueError("tree_reduce needs at least one item")
    if profiler is None:
        profiler = PhaseProfiler()
    if recorder is None:
        recorder = profiler.recorder
    collect = recorder.enabled or (scope is not None and scope.enabled)

    def step(a, b, site: str):
        if isinstance(merge, _SiteMerge):
            return merge.fn(a, b, site)
        if not collect:
            return merge(a, b)
        t0 = _time.perf_counter()
        with recorder.span("merge.task", scope="pipeline", site=site,
                           **_pair_attrs(a, b)):
            out = merge(a, b)
        _count_task(scope, _time.perf_counter() - t0)
        return out

    work = list(items)
    level = 0
    while len(work) > 1:
        site = f"{phase_prefix}.{level}"
        with profiler.phase(site):
            merged = [step(a, b, site) for a, b in zip(work[::2], work[1::2])]
            if len(work) % 2:
                merged.append(work[-1])
        work = merged
        level += 1
    return work[0]


@dataclass
class PipelineResult:
    """Everything the serialize stage produced."""

    trace: TraceFile
    trace_bytes: bytes
    cfg: CFGMergeResult
    shard: RankShard
    #: wall seconds: shard freeze + tree reduction (the "inter CST" cost)
    time_reduce: float = 0.0
    #: wall seconds: final CFG dedup/merge/Sequitur (the "inter CFG" cost)
    time_cfg: float = 0.0
    #: True when any rank span or section had to be abandoned; the
    #: salvage report then says exactly what was lost
    degraded: bool = False
    salvage: Optional[SalvageReport] = None


class TracePipeline:
    """Drives shard → reduce → serialize over a set of
    :class:`~repro.core.shard.RankCompressor` objects (or pre-built
    shards), timing every stage through *profiler*.

    ``faults`` arms a :class:`~repro.resilience.faults.FaultPlan` (or an
    already-armed injector, so the tracer and scheduler can share one);
    ``retry`` overrides the default :class:`~repro.resilience.retry.
    RetryPolicy`; ``scope`` is an optional ``repro.obs`` metrics scope
    (conventionally ``pipeline``) the resilience counters report into;
    ``recorder`` is an optional :class:`~repro.obs.SpanRecorder` the
    merge-task spans collect into — defaults to the profiler's recorder
    so phase and task spans share one tree.
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

    def shard(self, compressors) -> list[RankShard]:
        with self.profiler.phase("shard"):
            if not self.resilient:
                return [rc.freeze() for rc in compressors]
            return [self._freeze_resilient(rc) for rc in compressors]

    def _freeze_resilient(self, rc) -> RankShard:
        inj = self.injector
        timing = rc.timing is not None

        def thunk(attempt: int) -> RankShard:
            if inj is not None:
                inj.raise_failure("shard.freeze", rc.rank)
            shard = rc.freeze()
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

    def reduce(self, shards: Sequence[RankShard]) -> RankShard:
        with self.profiler.phase("cst_merge"):
            if not shards:
                # a never-run tracer still finalizes to a valid empty trace
                return RankShard(base_rank=0, nranks=0, sigs=[], counts=[],
                                 dur_ns=[], cfg=GrammarSet(unique=[], uid=[]),
                                 calls=[])
            merge: Callable[[RankShard, RankShard], RankShard] | _SiteMerge
            merge = (_SiteMerge(self._merge_supervised) if self.resilient
                     else merge_shards)
            return tree_reduce(shards, merge, profiler=self.profiler,
                               recorder=self.recorder, scope=self._scope)

    def _merge_supervised(self, a: RankShard, b: RankShard,
                          site: str) -> RankShard:
        """One pair merge under the supervisor: an injected failure, the
        merge, injected damage to the merged shard's serialized form and
        a rank-span check, retried as a whole; a pair whose budget runs
        out becomes a placeholder shard and a salvage entry."""
        inj = self.injector
        recorder, scope = self.recorder, self._scope

        def thunk(attempt: int) -> RankShard:
            if inj is not None:
                inj.raise_failure(site)
            t0 = _time.perf_counter()
            out = merge_shards(a, b)
            dt = _time.perf_counter() - t0
            if inj is not None:
                damaged = inj.corrupt_bytes(site, out.to_bytes())
                if damaged is not None:
                    out = RankShard.from_bytes(
                        damaged, span=(a.base_rank, a.nranks + b.nranks))
            # only a result that survived every fault check is counted:
            # a killed or corrupted attempt is recomputed, and counting
            # it here (not in the attempt) keeps the merged tree free of
            # duplicate merge spans
            if recorder.enabled or (scope is not None and scope.enabled):
                recorder.record("merge.task", dur_s=dt, scope="pipeline",
                                site=site, attempt=attempt,
                                **_pair_attrs(a, b))
                _count_task(scope, dt)
            return out

        def on_exhausted(exc: BaseException) -> RankShard:
            for off, c in enumerate(a.calls):
                self.salvage.lose_rank(a.base_rank + off, c)
            for off, c in enumerate(b.calls):
                self.salvage.lose_rank(b.base_rank + off, c)
            self.salvage.note(
                f"ranks [{a.base_rank}, {b.base_rank + b.nranks}) "
                f"lost at {site} ({type(exc).__name__}: {exc})")
            return RankShard.empty(
                a.base_rank, a.nranks + b.nranks,
                timing=a.timing_duration is not None)

        return self.supervisor.run(thunk, site=site,
                                   on_exhausted=on_exhausted)

    # -- stage 3: serialize ------------------------------------------------------------

    def serialize(self, shard: RankShard) -> PipelineResult:
        prof = self.profiler
        with prof.phase("cfg_merge") as ph_cfg:
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
        return PipelineResult(trace=trace, trace_bytes=blob, cfg=cfg,
                              shard=shard, time_cfg=ph_cfg.wall,
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

    def run(self, compressors) -> PipelineResult:
        shards = self.shard(compressors)
        final = self.reduce(shards)
        result = self.serialize(final)
        result.time_reduce = (self.profiler.wall("shard")
                              + self.profiler.wall("cst_merge"))
        return result
