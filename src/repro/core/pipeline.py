"""The explicit three-stage compression pipeline (shard → reduce →
serialize), with optional resilience.

Stage 1 (**shard**) freezes every rank's intra-process state into a
self-contained :class:`~repro.core.shard.RankShard`.  Stage 2
(**reduce**) folds the shards through :func:`~repro.core.shard.
merge_shards` in ceil(log2 P) pairwise levels — the paper's Fig 3/4 tree
reduction — serially by default or in parallel over a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=N``).  Because
the merge is associative (see :mod:`repro.core.shard`), every tree shape
and every ``jobs`` setting yields byte-identical traces.  Stage 3
(**serialize**) runs the final CFG dedup/merge/Sequitur pass over the
reduced shard's per-rank grammars and emits the on-disk trace format.

**Resilience** (``faults=`` / ``retry=``): every freeze, pair-merge, and
the final serialize runs under a :class:`~repro.resilience.retry.
TaskSupervisor` — per-task deadlines on pooled merges, bounded
exponential backoff with seeded jitter, re-dispatch of a failed worker's
subtree (the retry recomputes the merge serially in the parent), and a
circuit breaker that abandons the process pool for serial merging after
consecutive worker deaths.  A task whose retry budget is exhausted does
not abort the run: its rank span is replaced by a placeholder shard and
recorded in a :class:`~repro.resilience.salvage.SalvageReport`, and the
result is marked ``degraded``.  The counters surface through the
``pipeline.*`` metrics scope (``retries``, ``worker_deaths``,
``breaker_trips``, ``degraded``).  When neither faults nor a retry
policy are armed, every stage takes the exact pre-resilience code path
— byte-identical output, no added work on the hot path.

Each reduction level is timed as a ``merge.level.<k>`` phase in the
attached :class:`~repro.obs.PhaseProfiler`, so ``repro stats`` renders
the per-level breakdown of the Fig 8 decomposition.

**Span collection** (``recorder=``): when a :class:`~repro.obs.
SpanRecorder` is attached, every pair merge becomes a ``merge.task``
span nested under its ``merge.level.<k>`` phase span.  Pooled merges
run through :func:`_worker_merge`, which builds a fresh recorder in the
worker, wraps the merge in a span, and ships the exported batch plus
counter/timer deltas back with the result; the parent splices the batch
into its own tree (worker pids preserved, so exporters render one track
per worker) and folds the deltas into the ``pipeline.*`` scope.  Serial
merges record the identical span and metrics parent-side, so ``jobs=1``
and ``jobs=N`` runs report the same ``merge.tasks`` /
``merge.task_seconds`` totals.  On the resilient path a result's
telemetry is absorbed only after it survives every fault check, so a
killed or corrupted attempt can never leave duplicate spans behind.

:func:`tree_reduce` is generic (any associative ``merge(a, b)``), so
later subsystems — timing reduction, multi-trace aggregation — can reuse
the scheduler unchanged.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TypeVar

from ..obs import NULL_RECORDER, PhaseProfiler, SpanRecorder
from ..resilience.faults import (FaultInjector, WorkerDiedError,
                                 WorkerStallError, arm)
from ..resilience.retry import RetryPolicy, TaskSupervisor
from ..resilience.salvage import SalvageReport
from .errors import CorruptTraceError, TraceFormatError
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


def _worker_merge(merge: Callable, a, b, site: str):
    """Pool-side pair merge with telemetry: runs in the worker process,
    wraps the merge in a ``merge.task`` span recorded by a fresh
    worker-local :class:`SpanRecorder`, and returns ``(result, report)``
    where the report carries the exported span batch plus counter/timer
    deltas for the parent to splice and fold."""
    rec = SpanRecorder()
    t0 = _time.perf_counter()
    with rec.span("merge.task", scope="worker", site=site,
                  **_pair_attrs(a, b)):
        out = merge(a, b)
    dt = _time.perf_counter() - t0
    report = {"pid": rec.pid, "spans": rec.export(),
              "counters": {"merge.tasks": 1},
              "timers": {"merge.task_seconds": (1, dt)}}
    return out, report


def _absorb_report(report: Optional[dict[str, Any]],
                   recorder: SpanRecorder, scope) -> None:
    """Splice a worker's span batch under the currently open span and
    fold its metric deltas into *scope*."""
    if report is None:
        return
    recorder.splice(report.get("spans", ()))
    if scope is not None and scope.enabled:
        for name, n in report.get("counters", {}).items():
            scope.counter(name).inc(n)
        for name, (count, seconds) in report.get("timers", {}).items():
            scope.timer(name).add(seconds, count)


def _count_task(scope, seconds: float) -> None:
    if scope is not None and scope.enabled:
        scope.counter("merge.tasks").inc()
        scope.timer("merge.task_seconds").add(seconds)


def _local_merge(merge: Callable, a, b, site: str,
                 recorder: SpanRecorder, scope):
    """Parent-side pair merge recording the same span and metrics a
    pooled worker would report, so serial and pooled runs produce
    identical ``merge.tasks`` / ``merge.task_seconds`` totals."""
    t0 = _time.perf_counter()
    with recorder.span("merge.task", scope="pipeline", site=site,
                       **_pair_attrs(a, b)):
        out = merge(a, b)
    _count_task(scope, _time.perf_counter() - t0)
    return out


def _merge_level(items: list, merge: Callable, pool, *, site: str = "",
                 recorder: SpanRecorder = NULL_RECORDER,
                 scope=None) -> list:
    """One reduction level: merge adjacent pairs, pass an odd tail
    through unchanged.  With a pool, pair merges run concurrently; the
    gather is in order, so the next level sees a deterministic list.
    With telemetry enabled, each pair merge is a ``merge.task`` span
    (worker-recorded and spliced for pooled merges)."""
    collect = recorder.enabled or (scope is not None and scope.enabled)
    pairs = [(items[i], items[i + 1])
             for i in range(0, len(items) - 1, 2)]
    if pool is not None:
        if collect:
            futures = [pool.submit(_worker_merge, merge, a, b, site)
                       for a, b in pairs]
            merged = []
            for f in futures:
                out, report = f.result()
                _absorb_report(report, recorder, scope)
                merged.append(out)
        else:
            futures = [pool.submit(merge, a, b) for a, b in pairs]
            merged = [f.result() for f in futures]
    elif collect:
        merged = [_local_merge(merge, a, b, site, recorder, scope)
                  for a, b in pairs]
    else:
        merged = [merge(a, b) for a, b in pairs]
    if len(items) % 2:
        merged.append(items[-1])
    return merged


def tree_reduce(items: Sequence[T], merge: Callable[[T, T], T], *,
                jobs: int = 1,
                profiler: Optional[PhaseProfiler] = None,
                phase_prefix: str = "merge.level",
                recorder: Optional[SpanRecorder] = None,
                scope=None) -> T:
    """Fold *items* with an associative *merge* in ceil(log2 N) pairwise
    levels.

    ``jobs=1`` runs serially in-process; ``jobs>1`` dispatches each
    level's pair merges to a process pool (*merge* must then be a
    picklable module-level callable, as must the items).  Per-level wall
    time is recorded as ``<phase_prefix>.<k>`` phases in *profiler*;
    with a *recorder* (and/or metrics *scope*) attached, every pair
    merge additionally records a ``merge.task`` span and counts into
    ``merge.tasks`` / ``merge.task_seconds``.
    """
    if not items:
        raise ValueError("tree_reduce needs at least one item")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if profiler is None:
        profiler = PhaseProfiler()
    if recorder is None:
        recorder = profiler.recorder
    work = list(items)
    if len(work) == 1:
        return work[0]
    # a pool is pure overhead unless at least one level has >= 2 pairs
    use_pool = jobs > 1 and len(work) >= 4
    pool = ProcessPoolExecutor(max_workers=jobs) if use_pool else None
    try:
        level = 0
        while len(work) > 1:
            with profiler.phase(f"{phase_prefix}.{level}"):
                work = _merge_level(work, merge, pool,
                                    site=f"{phase_prefix}.{level}",
                                    recorder=recorder, scope=scope)
            level += 1
    finally:
        if pool is not None:
            pool.shutdown()
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
    merge-task spans (including worker-side batches) collect into —
    defaults to the profiler's recorder so phase and task spans share
    one tree.
    """

    def __init__(self, *, loop_detection: bool = True,
                 cfg_dedup: bool = True, jobs: int = 1,
                 profiler: Optional[PhaseProfiler] = None,
                 faults=None, retry: Optional[RetryPolicy] = None,
                 scope=None, recorder: Optional[SpanRecorder] = None,
                 timing_meta=None):
        self.loop_detection = loop_detection
        self.cfg_dedup = cfg_dedup
        self.jobs = jobs
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
        self.retry_policy = retry
        self.supervisor: Optional[TaskSupervisor] = (
            TaskSupervisor(retry, RETRYABLE, scope,
                           recorder=self.recorder)
            if retry is not None else None)
        self.salvage = SalvageReport()
        self._scope = scope

    @property
    def _collect(self) -> bool:
        """Whether merge-task telemetry is being gathered at all."""
        return self.recorder.enabled or (
            self._scope is not None and self._scope.enabled)

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
                    # CRCs turn silent damage into a retryable error
                    shard = RankShard.from_bytes(damaged)
                    if shard.base_rank != rc.rank or shard.nranks != 1:
                        raise CorruptTraceError(
                            f"rank {rc.rank} shard came back claiming "
                            f"ranks [{shard.base_rank}, "
                            f"{shard.base_rank + shard.nranks})")
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
            if not self.resilient:
                return tree_reduce(shards, merge_shards, jobs=self.jobs,
                                   profiler=self.profiler,
                                   recorder=self.recorder,
                                   scope=self._scope)
            return self._resilient_reduce(list(shards))

    def _resilient_reduce(self, work: list[RankShard]) -> RankShard:
        if len(work) == 1:
            return work[0]
        use_pool = self.jobs > 1 and len(work) >= 4
        pool = ProcessPoolExecutor(max_workers=self.jobs) \
            if use_pool else None
        try:
            level = 0
            while len(work) > 1:
                with self.profiler.phase(f"merge.level.{level}"):
                    work = self._resilient_level(work, level, pool)
                level += 1
        finally:
            if pool is not None:
                pool.shutdown()
        return work[0]

    def _resilient_level(self, items: list[RankShard], level: int,
                         pool) -> list[RankShard]:
        site = f"merge.level.{level}"
        sup = self.supervisor
        inj = self.injector
        deadline = self.retry_policy.deadline
        collect = self._collect
        pairs = [(items[i], items[i + 1])
                 for i in range(0, len(items) - 1, 2)]
        # submit the whole level up front (same shape as _merge_level);
        # once the breaker is open, pooled dispatch is over for this run
        futures: list = [None] * len(pairs)
        if pool is not None and not sup.broken:
            for i, (a, b) in enumerate(pairs):
                futures[i] = (pool.submit(_worker_merge, merge_shards,
                                          a, b, site) if collect
                              else pool.submit(merge_shards, a, b))

        merged: list[RankShard] = []
        for i, (a, b) in enumerate(pairs):
            fut = futures[i]

            def thunk(attempt: int, a=a, b=b, fut=fut) -> RankShard:
                if inj is not None:
                    inj.raise_failure(site)
                report = None
                t0 = _time.perf_counter()
                if attempt == 0 and fut is not None and not sup.broken:
                    try:
                        res = fut.result(timeout=deadline)
                    except _FuturesTimeout:
                        raise WorkerStallError(
                            f"merge worker blew its {deadline}s deadline "
                            f"at {site}") from None
                    except BrokenProcessPool as e:
                        raise WorkerDiedError(
                            f"merge worker died at {site}: {e}") from e
                    out, report = res if collect else (res, None)
                else:
                    # re-dispatch of the failed subtree: recompute the
                    # pair serially in the parent, which cannot die
                    out = merge_shards(a, b)
                dt = _time.perf_counter() - t0
                if inj is not None:
                    damaged = inj.corrupt_bytes(site, out.to_bytes())
                    if damaged is not None:
                        out = RankShard.from_bytes(damaged)
                        if out.base_rank != a.base_rank or \
                                out.nranks != a.nranks + b.nranks:
                            raise CorruptTraceError(
                                f"merged shard at {site} came back with "
                                f"the wrong rank span")
                # only a result that survived every fault check gets its
                # telemetry absorbed: a killed or corrupted attempt is
                # recomputed, and counting it here (not in the attempt)
                # keeps the merged tree free of duplicate merge spans
                # and the counters equal across jobs=1 and jobs=N runs
                if collect:
                    if report is not None:
                        _absorb_report(report, self.recorder, self._scope)
                    else:
                        self.recorder.record(
                            "merge.task", dur_s=dt, scope="pipeline",
                            site=site, attempt=attempt,
                            **_pair_attrs(a, b))
                        _count_task(self._scope, dt)
                return out

            def on_exhausted(exc: BaseException, a=a, b=b) -> RankShard:
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

            merged.append(sup.run(thunk, site=site,
                                  on_exhausted=on_exhausted))
        if len(items) % 2:
            merged.append(items[-1])
        return merged

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
