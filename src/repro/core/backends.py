"""Pluggable tracer-backend registry.

Every place that attaches a tracer to a simulated run — the CLI, the
experiment runner, the benchmarks — used to hand-roll its own
``PilgrimTracer(...)`` / ``ScalaTraceTracer(...)`` construction.  This
module centralizes that: a backend is a named factory taking one shared
:class:`TracerOptions`, and :func:`make_tracer` is the only construction
path.

Built-in backends:

=============  =====================================================
``pilgrim``    the paper's tracer (CST + CFG compression, §2-3)
``scalatrace`` the ScalaTrace-style baseline (RSD/PRSD, §4 comparison)
``raw``        verbatim per-rank signature streams, no compression —
               the honest upper bound every figure is measured against
``null``       observes and counts calls but stores nothing — the
               floor for overhead comparisons
=============  =====================================================

Third parties register their own with :func:`register_backend` (usable
as a decorator).  Every backend's tracer exposes ``result`` after the
run with at least ``trace_bytes``, ``total_calls`` and ``trace_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..mpisim.hooks import TracerHooks
from .encoder import CommIdSpace, PerRankEncoder, WinIdSpace
from .packing import write_uvarint, write_value


@dataclass
class TracerOptions:
    """The options every backend understands (backends ignore what they
    cannot honor — e.g. ``lossy_timing`` on a tracer with no timing
    stage)."""

    #: lossy per-call timing (Pilgrim §3.2) instead of aggregate stats
    lossy_timing: bool = False
    #: no effect: every call takes the one per-call path.  Still accepted
    #: (and checked) because the e2e benchmark's workloads set it; removed
    #: with ROADMAP 2(a)'s benchmark PR
    batch_size: int = 1
    #: self-instrumentation registry (None = disabled, zero overhead)
    metrics: Any = None
    #: a FaultPlan (or pre-armed FaultInjector) to inject during the
    #: run and its finalize pipeline; None = every injection point is a
    #: no-op None check
    fault_plan: Any = None
    #: RetryPolicy for the resilient pipeline (None = defaults when a
    #: fault plan is armed, no supervision otherwise)
    retry: Any = None
    #: backend-specific constructor kwargs, passed through verbatim
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Eager validation: every consumer (CLI, facade, ingest client,
        # experiment runner) builds one of these, so a bad value should
        # fail here with the field's name — not deep inside
        # RankCompressor after a run has already started.
        if self.batch_size < 1:
            raise ValueError(
                f"TracerOptions.batch_size must be >= 1, "
                f"got {self.batch_size}")


BackendFactory = Callable[[TracerOptions], TracerHooks]

_BACKENDS: dict[str, BackendFactory] = {}


def register_backend(name: str,
                     factory: Optional[BackendFactory] = None, *,
                     replace: bool = False):
    """Register *factory* under *name*; usable as a decorator."""
    def _register(fn: BackendFactory) -> BackendFactory:
        if name in _BACKENDS and not replace:
            raise ValueError(f"tracer backend {name!r} already registered")
        _BACKENDS[name] = fn
        return fn
    return _register(factory) if factory is not None else _register


def available_backends() -> list[str]:
    return sorted(_BACKENDS)


def make_tracer(name: str, options: Optional[TracerOptions] = None,
                **overrides) -> TracerHooks:
    """Construct the backend *name* with *options* (keyword overrides are
    applied on a copy, so a shared options object stays untouched)."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown tracer backend {name!r}; "
                       f"known: {available_backends()}") from None
    opts = options if options is not None else TracerOptions()
    if overrides:
        opts = TracerOptions(**{**opts.__dict__, **overrides})
    return factory(opts)


# -- built-in backends ---------------------------------------------------------------------


@register_backend("pilgrim")
def _make_pilgrim(opts: TracerOptions) -> TracerHooks:
    from .tracer import TIMING_AGGREGATE, TIMING_LOSSY, PilgrimTracer
    return PilgrimTracer(
        timing_mode=TIMING_LOSSY if opts.lossy_timing else TIMING_AGGREGATE,
        metrics=opts.metrics,
        fault_plan=opts.fault_plan, retry=opts.retry,
        **opts.extra)


@register_backend("scalatrace")
def _make_scalatrace(opts: TracerOptions) -> TracerHooks:
    # late import: repro.scalatrace lives outside repro.core
    from ..scalatrace import ScalaTraceTracer
    return ScalaTraceTracer(metrics=opts.metrics, **opts.extra)


@dataclass
class SimpleTraceResult:
    """The minimal result surface shared by every backend."""

    trace_bytes: bytes
    total_calls: int
    per_rank_calls: list[int] = field(default_factory=list)

    @property
    def trace_size(self) -> int:
        return len(self.trace_bytes)


class NullTracer(TracerHooks):
    """Observes every call but stores nothing: the overhead floor (what a
    PMPI wrapper that immediately returns would cost)."""

    def __init__(self) -> None:
        self.nprocs = 0
        self.total_calls = 0
        self.per_rank_calls: list[int] = []
        self.result: Optional[SimpleTraceResult] = None

    def on_run_start(self, sim) -> None:
        self.nprocs = sim.nprocs
        self.total_calls = 0
        self.per_rank_calls = [0] * sim.nprocs
        self.result = None

    def on_call(self, rank, fname, values, t0, t1) -> None:
        self.total_calls += 1
        self.per_rank_calls[rank] += 1

    def on_run_end(self, sim) -> None:
        self.result = self.finalize()

    def finalize(self) -> SimpleTraceResult:
        if self.result is None:
            self.result = SimpleTraceResult(
                trace_bytes=b"", total_calls=self.total_calls,
                per_rank_calls=list(self.per_rank_calls))
        return self.result


class RawTracer(TracerHooks):
    """Verbatim per-rank signature streams, no compression at all — the
    uncompressed-size baseline ("4.5 TB for 1000 time steps" in the
    paper's intro is this tracer's regime).  Each rank's encoder sees
    the same calls and memory hooks as a Pilgrim rank's, with the same
    encoder settings, so its signatures are the ones Pilgrim interns:
    size ratios against Pilgrim isolate the *compression*, and
    :class:`~repro.core.verify.RoundTrip` holds a decoded Pilgrim trace
    against these streams."""

    MAGIC = b"RAWT"

    def __init__(self, *, relative_ranks: bool = True,
                 per_signature_request_pools: bool = True) -> None:
        self.relative_ranks = relative_ranks
        self.per_signature_request_pools = per_signature_request_pools
        self.nprocs = 0
        self.streams: list[list[tuple]] = []
        self.encoders: list[PerRankEncoder] = []
        self.total_calls = 0
        self.result: Optional[SimpleTraceResult] = None

    def on_run_start(self, sim) -> None:
        self.nprocs = sim.nprocs
        comm_space = CommIdSpace(sim.nprocs)
        win_space = WinIdSpace(sim.nprocs)
        self.encoders = []
        for r in range(sim.nprocs):
            enc = PerRankEncoder(
                r, comm_space, win_space=win_space,
                relative_ranks=self.relative_ranks,
                per_signature_request_pools=self.per_signature_request_pools)
            enc.set_comm_resolver(sim.comm_by_cid)
            self.encoders.append(enc)
        self.streams = [[] for _ in range(sim.nprocs)]
        self.total_calls = 0
        self.result = None

    def on_call(self, rank, fname, values, t0, t1) -> None:
        self.streams[rank].append(
            self.encoders[rank].encode_call(fname, values))
        self.total_calls += 1

    def on_mem(self, rank, fname, args, result, t) -> None:
        self.encoders[rank].memory.on_mem(fname, args, result)

    def on_run_end(self, sim) -> None:
        self.result = self.finalize()

    def finalize(self) -> SimpleTraceResult:
        if self.result is None:
            out = bytearray(self.MAGIC)
            write_uvarint(out, self.nprocs)
            for stream in self.streams:
                write_uvarint(out, len(stream))
                for sig in stream:
                    write_value(out, sig)
            self.result = SimpleTraceResult(
                trace_bytes=bytes(out), total_calls=self.total_calls,
                per_rank_calls=[len(s) for s in self.streams])
        return self.result


@register_backend("raw")
def _make_raw(opts: TracerOptions) -> TracerHooks:
    return RawTracer(**opts.extra)


@register_backend("null")
def _make_null(opts: TracerOptions) -> TracerHooks:
    if opts.extra:
        raise ValueError(f"null backend takes no options, got {opts.extra}")
    return NullTracer()
