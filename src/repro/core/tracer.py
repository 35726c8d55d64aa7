"""The Pilgrim tracer (the paper's primary contribution, assembled).

Attach an instance to a :class:`repro.mpisim.SimMPI` run::

    tracer = PilgrimTracer()
    sim = SimMPI(nprocs=64, seed=1, tracer=tracer)
    sim.run(program)
    result = tracer.result          # PilgrimResult
    blob = result.trace_bytes       # the on-disk trace
    print(result.section_sizes())   # {"cst": ..., "cfg": ..., "total": ...}

Pipeline per intercepted call (Fig 2): encode parameters symbolically →
intern the signature in this rank's CST → log the terminal for this
rank's CFG → optionally bin timing.  Each rank's state lives in a
:class:`~repro.core.shard.RankCompressor`; at ``MPI_Finalize`` time each
distinct logged stream is compressed once (optimized Sequitur), and the
inter-process compression runs as the explicit shard → reduce →
serialize pipeline of :mod:`repro.core.pipeline` — one ordered-union
pass over per-rank shards, to the result of the paper's log2 P tree.

All the paper's optimizations are individually toggleable for the
ablation benchmarks: ``relative_ranks`` (§3.4.2),
``per_signature_request_pools`` (§3.4.3), ``loop_detection`` (§2.2's
run-length/loop optimization), ``cfg_dedup`` (§3.5.2's identity check).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..mpisim.hooks import TracerHooks
from ..obs import (NULL_REGISTRY, MetricsRegistry, PhaseProfiler,
                   SpanRecorder)
from ..resilience.faults import FaultInjector, arm
from ..resilience.retry import RetryPolicy
from ..resilience.salvage import SalvageReport
from .encoder import CommIdSpace, PerRankEncoder, WinIdSpace
from .pipeline import TracePipeline
from .shard import RankCompressor
from .timing import TimingCompressor, check_bases, timing_meta
from .trace_format import TraceFile, section_sizes

#: hoisted timer: the hot path pays two reads per call, and the
#: module-attribute hop is measurable at that frequency
_pc = _time.perf_counter

TIMING_AGGREGATE = "aggregate"
TIMING_LOSSY = "lossy"


@dataclass
class PilgrimResult:
    """Everything the finalize phase produced, plus perf accounting."""

    trace: TraceFile
    trace_bytes: bytes
    n_unique_grammars: int
    total_calls: int
    n_signatures: int
    #: wall seconds (``perf_counter``) spent in per-call tracing (Fig 8
    #: "intra-process")
    time_intra: float
    #: wall seconds in the shard freeze + CST reduce (Fig 8)
    time_cst_merge: float
    #: wall seconds in the CFG dedup/merge/final Sequitur (Fig 8)
    time_cfg_merge: float
    per_rank_calls: list[int] = field(default_factory=list)
    #: profiler phase -> wall seconds (always holds the finalize phases,
    #: ``shard`` / ``cst_merge`` / ``cfg_merge`` / ``timing_merge`` /
    #: ``serialize``; also the per-call split encode/cst/sequitur/timing
    #: when the tracer ran with an enabled metrics registry)
    phases: dict[str, float] = field(default_factory=dict)
    #: True when the resilient pipeline had to abandon any rank span or
    #: section; ``salvage`` then says exactly what was lost
    degraded: bool = False
    salvage: Optional[SalvageReport] = None
    #: audit log of every injected fault that actually fired
    fired_faults: list[str] = field(default_factory=list)
    #: exported span dicts for the whole run — one coherent tree rooted
    #: at the ``finalize`` span (empty when the tracer ran without a
    #: metrics registry)
    spans: list[dict[str, Any]] = field(default_factory=list)

    @property
    def trace_size(self) -> int:
        return len(self.trace_bytes)

    def section_sizes(self) -> dict[str, int]:
        return section_sizes(self.trace_bytes)

    @property
    def time_total_overhead(self) -> float:
        return self.time_intra + self.time_cst_merge + self.time_cfg_merge

    def overhead_breakdown(self) -> dict[str, float]:
        """Fig 8's decomposition, as fractions of total tracing overhead."""
        total = self.time_total_overhead or 1.0
        return {
            "intra": self.time_intra / total,
            "inter_cst": self.time_cst_merge / total,
            "inter_cfg": self.time_cfg_merge / total,
        }


class PilgrimTracer(TracerHooks):
    """Near-lossless tracing with CST+CFG compression."""

    #: per-rank state; a tracer that streams builds the streaming kind
    rank_class = RankCompressor

    def __init__(self, *,
                 relative_ranks: bool = True,
                 per_signature_request_pools: bool = True,
                 loop_detection: bool = True,
                 cfg_dedup: bool = True,
                 timing_mode: str = TIMING_AGGREGATE,
                 timing_base: float = 1.2,
                 per_function_base: Optional[dict[str, float]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 fault_plan=None,
                 retry: Optional[RetryPolicy] = None):
        if timing_mode not in (TIMING_AGGREGATE, TIMING_LOSSY):
            raise ValueError(f"unknown timing mode {timing_mode!r}")
        if timing_mode == TIMING_LOSSY:
            check_bases(timing_base, per_function_base)
        self.relative_ranks = relative_ranks
        self.per_signature_request_pools = per_signature_request_pools
        self.loop_detection = loop_detection
        self.cfg_dedup = cfg_dedup
        self.timing_mode = timing_mode
        self.timing_base = timing_base
        self.per_function_base = per_function_base
        #: armed fault injector (None when no plan is given: every
        #: injection point then reduces to a no-op None check).  An
        #: already-armed FaultInjector is accepted too, so the tracer
        #: and the simulator's scheduler can share one deterministic
        #: fault stream.
        self.faults: Optional[FaultInjector] = arm(fault_plan)
        #: retry policy for the resilient pipeline (None = defaults when
        #: faults are armed, no supervision otherwise)
        self.retry = retry
        #: observability: disabled by default (NULL_REGISTRY) so the
        #: benchmarked hot path pays nothing unless profiling is requested
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.obs = self.metrics.scope("pilgrim")
        #: span telemetry rides the same opt-in as the registry: one
        #: recorder for the whole run, shared by the profiler (phase
        #: spans) and the pipeline (merge-task spans)
        self.recorder = SpanRecorder(enabled=self.obs.enabled)
        self.profiler = PhaseProfiler(self.obs, recorder=self.recorder)
        # the fine per-call path stamps each stage itself
        self._fine = self.profiler.fine
        #: fine-grained per-call phase accumulators (seconds); folded into
        #: the profiler once at finalize to keep on_call cheap
        self._ph_encode = 0.0
        self._ph_cst = 0.0
        self._ph_seq = 0.0
        self._ph_timing = 0.0
        self._ph_mem = 0.0

        self.nprocs = 0
        self.comm_space: Optional[CommIdSpace] = None
        #: declared here, not first in on_run_start, so finalize() and
        #: introspection on a never-run tracer see None instead of dying
        #: with AttributeError
        self.win_space: Optional[WinIdSpace] = None
        #: per-rank compression state (the shard stage's input)
        self.ranks: list[RankCompressor] = []
        #: per-rank bound ``observe`` methods, captured at run start so
        #: on_call skips the attribute lookups
        self._observe: list = []
        #: aliases into self.ranks for the run's consumers (tests,
        #: benchmarks); emptied when :meth:`finalize` seals the ranks
        self.encoders: list[PerRankEncoder] = []
        self.timing: list[TimingCompressor] = []
        self.total_calls = 0
        self.time_intra = 0.0
        self.result: Optional[PilgrimResult] = None

    # -- hooks -------------------------------------------------------------------------

    def on_run_start(self, sim) -> None:
        # everything a run accumulates starts over where the run starts
        self.recorder = SpanRecorder(enabled=self.obs.enabled)
        self.profiler = PhaseProfiler(self.obs, recorder=self.recorder)
        self._ph_encode = self._ph_cst = self._ph_seq = 0.0
        self._ph_timing = self._ph_mem = 0.0
        self.total_calls = 0
        self.time_intra = 0.0
        self.nprocs = sim.nprocs
        self.comm_space = CommIdSpace(sim.nprocs)
        self.win_space = WinIdSpace(sim.nprocs)
        self.ranks = []
        for r in range(sim.nprocs):
            timing = TimingCompressor(
                self.timing_base, self.per_function_base,
                loop_detection=self.loop_detection) \
                if self.timing_mode == TIMING_LOSSY else None
            rc = self.rank_class(
                r, self.comm_space, win_space=self.win_space,
                relative_ranks=self.relative_ranks,
                per_signature_request_pools=self.per_signature_request_pools,
                loop_detection=self.loop_detection,
                timing=timing)
            rc.encoder.set_comm_resolver(sim.comm_by_cid)
            self.ranks.append(rc)
        self._observe = [rc.observe for rc in self.ranks]
        self.encoders = [rc.encoder for rc in self.ranks]
        self.timing = [rc.timing for rc in self.ranks] \
            if self.timing_mode == TIMING_LOSSY else []
        self.result = None

    def on_call(self, rank: int, fname: str, values: tuple,
                t0: float, t1: float) -> None:
        if self._fine:
            # profiled path: stamp each pipeline stage.  The stamps are
            # shared between adjacent stages, so the stage deltas sum to
            # the intra-process total exactly.
            rc = self.ranks[rank]
            tick = _time.perf_counter()
            sig = rc.encoder.encode_call(fname, values)
            tb = _time.perf_counter()
            term = rc.cst.intern(sig, t1 - t0)
            tc = _time.perf_counter()
            log = rc.grammar
            log.append(term)
            if len(log) >= rc._cap:
                rc._overflow()
            end = _time.perf_counter()
            self._ph_encode += tb - tick
            self._ph_cst += tc - tb
            self._ph_seq += end - tc
            if rc.timing is not None:
                rc.timing.record(term, fname, t0, t1)
                te = _time.perf_counter()
                self._ph_timing += te - end
                end = te
            self.total_calls += 1
            self.time_intra += end - tick
            return
        tick = _pc()
        self._observe[rank](fname, values, t0, t1)
        self.total_calls += 1
        self.time_intra += _pc() - tick

    def compress_ranks(self) -> None:
        """Compress every rank's logs through one memo: one Sequitur per
        distinct stream (DESIGN.md §15).  It is deferred hot-path work,
        so it is billed to ``time_intra`` and the ``sequitur`` phase."""
        tick = _time.perf_counter()
        memo: dict = {}
        for rc in self.ranks:
            rc.compress(memo)
        elapsed = _time.perf_counter() - tick
        self.time_intra += elapsed
        self._ph_seq += elapsed

    def on_mem(self, rank: int, fname: str, args: dict[str, Any],
               result: Any, t: float) -> None:
        tick = _time.perf_counter()
        self.encoders[rank].memory.on_mem(fname, args, result)
        dt = _time.perf_counter() - tick
        self.time_intra += dt
        if self._fine:
            self._ph_mem += dt

    def on_run_end(self, sim) -> None:
        self.result = self.finalize()

    # -- finalize (inter-process compression) ------------------------------------------------

    def finalize(self) -> PilgrimResult:
        # Idempotent: a second call must neither redo the pipeline nor
        # re-fold the per-call accumulators (which would double-count the
        # profiler's phases) — it returns the cached result.
        if self.result is not None:
            return self.result
        self.compress_ranks()
        prof = self.profiler
        # The whole inter-process stage lives under one root span; the
        # root opens *before* the per-call fold so the synthetic
        # encode/cst/sequitur spans nest under it too.
        with self.recorder.span("finalize", scope="pilgrim",
                                nprocs=self.nprocs):
            # Fold the per-call accumulators into the profiler (fine mode
            # only — in coarse mode there is just the undivided intra
            # total).
            if self._fine:
                prof.add("encode", self._ph_encode, count=self.total_calls)
                prof.add("cst", self._ph_cst, count=self.total_calls)
                prof.add("sequitur", self._ph_seq, count=self.total_calls)
                if self.timing:
                    prof.add("timing", self._ph_timing,
                             count=self.total_calls)
                if self._ph_mem:
                    prof.add("mem", self._ph_mem)

            # Shard → reduce → serialize (see repro.core.pipeline).  The
            # reduce is one pass over the per-rank partials, in rank
            # order, to the result of the paper's log2 P merge tree.
            lossy = self.timing_mode == TIMING_LOSSY
            pipeline = TracePipeline(loop_detection=self.loop_detection,
                                     cfg_dedup=self.cfg_dedup,
                                     profiler=prof, faults=self.faults,
                                     retry=self.retry,
                                     scope=self.metrics.scope("pipeline"),
                                     recorder=self.recorder,
                                     timing_meta=timing_meta(
                                         lossy, self.timing_base,
                                         self.per_function_base))
            out = pipeline.run(self.ranks)
        trace, blob, cfg = out.trace, out.trace_bytes, out.cfg

        phases = prof.phases()
        finalize_wall = (out.time_reduce + prof.wall("cfg_merge")
                         + prof.wall("timing_merge") + prof.wall("serialize"))
        if self.obs.enabled:
            self.obs.counter("calls").inc(self.total_calls)
            self.obs.gauge("ranks").set(self.nprocs)
            self.obs.gauge("signatures").set(out.shard.n_signatures)
            self.obs.gauge("unique_grammars").set(cfg.n_unique)
            self.obs.gauge("trace_bytes").set(len(blob))
            self.obs.timer("intra").add(self.time_intra,
                                        count=self.total_calls)
            self.obs.timer("total").add(self.time_intra + finalize_wall)
            if self.timing:
                clamped = sum(t.n_clamped for t in self.timing)
                if clamped:
                    # surfaced alongside the BinClampWarning: these calls'
                    # timings fell outside the representable bin range
                    self.obs.counter("timing_clamped_bins").inc(clamped)

        self.result = PilgrimResult(
            trace=trace,
            trace_bytes=blob,
            n_unique_grammars=cfg.n_unique,
            total_calls=self.total_calls,
            n_signatures=out.shard.n_signatures,
            time_intra=self.time_intra,
            time_cst_merge=out.time_reduce,
            time_cfg_merge=out.time_cfg,
            per_rank_calls=[rc.observed_calls for rc in self.ranks],
            phases=phases,
            degraded=out.degraded,
            salvage=out.salvage,
            fired_faults=list(self.faults.fired)
            if self.faults is not None else [],
            spans=self.recorder.export(),
        )
        # seal: every rank drops its working set
        # (:meth:`RankCompressor.seal`), and the tracer its views of it;
        # a finished rank keeps exactly what its ``freeze()`` answers with
        for rc in self.ranks:
            rc.seal()
        self._observe, self.encoders, self.timing = [], [], []
        return self.result
