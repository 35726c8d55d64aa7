"""What-if re-execution: replay a trace under *modified* conditions.

:func:`replay_trace` proves the fixed point — a directed replay under
recorded conditions re-issues exactly the recorded stream.  This module
answers the next question: *what changes when conditions change?*  Three
perturbation axes, composable:

* **network** — alternative alpha–beta parameters for the
  :class:`~repro.mpisim.netmodel.NetworkModel` (``--net alpha=..,beta=..``);
* **faults** — a seeded :class:`~repro.resilience.faults.FaultPlan`
  whose scheduler sites (``delay@sched``, ``drop@sched``) perturb rank
  interleaving during the replay;
* **scale** — rank-count extrapolation: a single-grammar-class trace
  (every rank compressed to the same call pattern — pure SPMD) is
  *stretched* to a different world size by replaying the recorded
  pattern on every new rank, with relative-rank encodings re-decoded
  against the new rank numbers.

Any perturbation switches the engine to **relaxed** replay: the live
simulator makes its own Wait-family completion picks and wildcard
matches (Test* outcomes stay directed so call counts are conserved and
empty polls cannot livelock).  A :class:`LockstepComparator` rides the
run as its tracer and reports the first call per rank whose observable
outcome left the record — the :class:`DivergenceReport`.

Unchanged conditions keep the replay fully **directed**, so identical-
conditions divergence runs are the fixed-point check in report form:
zero divergences, by construction.

Phases are span-instrumented (``ReplayOptions(spans=True)``) so ``repro
stats --spans`` can show where a replay spends its time: ``decode`` →
``build`` → ``execute`` → ``compare``.  ``build`` is all of set-up (the
per-signature table, segment extents, wildcard bookkeeping), ``execute``
the simulator and the compiled per-function bodies alone.
"""

from __future__ import annotations

import gc
import os
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as _dc_fields
from typing import Any, Optional, Union

from ..core.decoder import TraceDecoder
from ..core.errors import ReplayFormatError
from ..mpisim.netmodel import NetworkModel
from ..mpisim.runtime import SimMPI
from ..obs.spans import NULL_RECORDER, SpanRecorder
from ..resilience.faults import FaultInjector, FaultPlan, arm
from .comparator import DivergenceReport, LockstepComparator
from .engine import build_rank_programs, run_replay, signature_table

#: NetworkModel fields settable through ``net=`` specs
_NET_FIELDS = ("alpha", "beta", "overhead")


class ExtrapolationError(ReplayFormatError):
    """The trace cannot be stretched to the requested rank count: its
    ranks do not all share one grammar class (the call pattern differs
    across ranks, so there is no single pattern to replicate), or the
    target world size is invalid."""


def parse_net(spec: Union[None, str, dict, NetworkModel]) -> Optional[NetworkModel]:
    """Normalize a network override into a :class:`NetworkModel`.

    Accepts the model itself, a dict of field overrides, or the CLI's
    compact string form ``"alpha=1.5e-6,beta=3e-10"``.  None means
    "recorded conditions" (the simulator default).  Unknown fields and
    non-positive values raise ``ValueError`` eagerly.
    """
    if spec is None or isinstance(spec, NetworkModel):
        return spec
    if isinstance(spec, str):
        parsed: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError(
                    f"bad net spec {part!r}: expected name=value")
            parsed[key.strip()] = val.strip()
        spec = parsed
    if not isinstance(spec, dict):
        raise ValueError(
            f"net must be a NetworkModel, dict, or 'alpha=..,beta=..' "
            f"string, got {type(spec).__name__}")
    unknown = sorted(set(spec) - set(_NET_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown network parameter(s) {unknown}; "
            f"valid: {list(_NET_FIELDS)}")
    kwargs: dict[str, float] = {}
    for key, val in spec.items():
        try:
            num = float(val)
        except (TypeError, ValueError):
            raise ValueError(f"network parameter {key}={val!r} is not "
                             f"a number") from None
        if num < 0:
            raise ValueError(f"network parameter {key} must be >= 0, "
                             f"got {num}")
        kwargs[key] = num
    return NetworkModel(**kwargs)


@dataclass(frozen=True)
class ReplayOptions:
    """Everything a what-if replay can vary, validated eagerly.

    The default object means "recorded conditions": fully directed
    replay, guaranteed zero divergences.  Setting any of ``net``,
    ``fault_plan``, or ``extrapolate_ranks`` switches to relaxed
    (what-if) replay.

    ``net`` and ``fault_plan`` accept their string forms
    (``"alpha=..,beta=.."``; a :meth:`FaultPlan.parse` spec) and are
    normalized at construction, so a bad spec fails at options-building
    time, not mid-replay.
    """

    #: master seed for the replay simulator (completion-order RNG,
    #: compute noise); same seed + same options => bit-identical report
    seed: int = 0
    #: relative std-dev of compute-time noise during the replay
    noise: float = 0.0
    #: alternative alpha-beta parameters (None = simulator default)
    net: Union[None, str, dict, NetworkModel] = None
    #: seeded fault plan perturbing the replay (str | FaultPlan |
    #: pre-armed FaultInjector)
    fault_plan: Any = None
    #: seed for parsing a string fault plan (site selection)
    fault_seed: int = 0
    #: replay on this many ranks instead of the recorded count
    #: (requires a single-grammar-class trace)
    extrapolate_ranks: Optional[int] = None
    #: ranks per simulated node in the replay world
    node_size: int = 16
    #: record phase spans (``ReplayResult.spans`` / ``write_spans``)
    spans: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.noise, (int, float)) or self.noise < 0:
            raise ValueError(f"noise must be a non-negative number, "
                             f"got {self.noise!r}")
        if self.node_size <= 0:
            raise ValueError(f"node_size must be positive, "
                             f"got {self.node_size}")
        if self.extrapolate_ranks is not None and (
                not isinstance(self.extrapolate_ranks, int)
                or isinstance(self.extrapolate_ranks, bool)
                or self.extrapolate_ranks <= 0):
            raise ValueError(
                f"extrapolate_ranks must be a positive int or None, "
                f"got {self.extrapolate_ranks!r}")
        # normalize string/dict specs now so bad ones fail eagerly
        object.__setattr__(self, "net", parse_net(self.net))
        if isinstance(self.fault_plan, str):
            object.__setattr__(
                self, "fault_plan",
                FaultPlan.parse(self.fault_plan, seed=self.fault_seed))

    @property
    def what_if(self) -> bool:
        """True when any perturbation is requested (=> relaxed replay)."""
        return (self.net is not None or self.fault_plan is not None
                or self.extrapolate_ranks is not None)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able snapshot (for manifests and report headers)."""
        out: dict[str, Any] = {}
        for f in _dc_fields(self):
            val = getattr(self, f.name)
            if isinstance(val, NetworkModel):
                val = {k: getattr(val, k) for k in _NET_FIELDS}
            elif isinstance(val, (FaultPlan, FaultInjector)):
                val = str(getattr(val, "plan", val))
            out[f.name] = val
        return out


@dataclass
class ReplayResult:
    """What :func:`run_divergence` (and ``api.replay``) returns."""

    #: the fully resolved options the replay ran with
    options: ReplayOptions
    #: the lockstep comparator's verdict
    report: DivergenceReport
    #: the simulator's RunResult (virtual times, scheduler steps)
    run: Any
    #: replayed world size (== recorded unless extrapolating)
    nprocs: int
    #: world size the trace was recorded on
    recorded_nprocs: int
    #: the armed fault injector (None when no plan was given)
    injector: Optional[FaultInjector] = None
    #: wall/CPU seconds of decode+build+execute+compare
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: exported phase spans (empty unless ``ReplayOptions(spans=True)``)
    spans: list = field(default_factory=list)
    #: ``replay.plan.*``: distinct ``terminals`` planned, the ``calls``
    #: they stand for, ``grammars_shared`` (ranks served by a grammar
    #: another rank had already expanded), ``binds`` (terminals bound,
    #: summed over ranks) and ``rebinds`` (times a rank dropped them)
    counters: dict = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return self.report.diverged

    @property
    def first(self):
        """The earliest :class:`DivergencePoint` across ranks, or None."""
        return self.report.first

    @property
    def fired_faults(self) -> list:
        """Human-readable log of every fault that actually fired."""
        return list(self.injector.fired) if self.injector is not None \
            else []

    def summary(self) -> str:
        return self.report.summary()

    def report_dict(self) -> dict:
        """The report document (``--json`` form), with the options and
        fired faults stamped in — deterministic for a given seed."""
        doc = self.report.as_dict()
        doc["options"] = self.options.as_dict()
        doc["fired_faults"] = self.fired_faults
        return doc

    def write_report(self, path: Union[str, os.PathLike]) -> int:
        """Write the divergence report as canonical JSON (sorted keys,
        trailing newline); returns the byte count.  Same trace + same
        options => byte-identical file."""
        import json
        text = json.dumps(self.report_dict(), indent=2, sort_keys=True) \
            + "\n"
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    def write_spans(self, path: Union[str, os.PathLike]) -> int:
        """Dump the replay's phase spans as JSONL (what ``repro stats
        --spans`` reads); returns the line count."""
        from ..obs import write_spans_jsonl
        if not self.spans:
            raise ValueError(
                "no spans recorded — replay with ReplayOptions(spans=True)")
        counters = [{"type": "counter", "name": name, "value": value}
                    for name, value in self.counters.items()]
        return write_spans_jsonl(str(path), self.spans + counters,
                                 meta={"command": "replay",
                                       "nprocs": self.nprocs})

    def manifest(self, *, command: str = "replay",
                 outputs: Optional[dict] = None) -> Any:
        """Build the :class:`~repro.obs.RunManifest` describing this
        replay (the ``TraceResult.manifest`` idiom)."""
        from ..obs import (RunManifest, git_describe, host_environment,
                           peak_rss_kb)
        c = self.report.counts
        totals = {"calls_recorded": c.get("recorded", 0),
                  "calls_replayed": c.get("replayed", 0),
                  "calls_matched": c.get("matched", 0),
                  "divergences": len(self.report.points),
                  "spans": len(self.spans)}
        return RunManifest(
            command=command,
            workload="(replayed trace)",
            nprocs=self.nprocs,
            seed=self.options.seed,
            options=self.options.as_dict(),
            git=git_describe(), environment=host_environment(),
            wall_s=round(self.wall_s, 6), cpu_s=round(self.cpu_s, 6),
            peak_rss_kb=peak_rss_kb(),
            totals=totals, outputs=dict(outputs or {}),
            degraded=False,
            fired_faults=self.fired_faults)


def _extrapolation_sources(decoder: TraceDecoder, n: int) -> list[int]:
    """Rank-stream assignment for a stretched world, or raise.

    Stretching replicates *the* recorded call pattern onto every new
    rank, re-decoding relative-rank encodings against the new rank
    numbers — well-defined only when every recorded rank compressed to
    the same grammar class (pure SPMD; typically collective-dominated
    traces).  Multi-class traces have no principled per-rank pattern
    assignment at a different world size, so they are refused loudly.
    """
    cfg = decoder.trace.cfg
    classes = len(cfg.unique)
    if classes != 1:
        raise ExtrapolationError(
            f"cannot extrapolate to {n} ranks: the trace has {classes} "
            f"distinct per-rank call patterns (extrapolation requires "
            f"exactly 1 — a pure SPMD trace)")
    return [0] * n


@contextmanager
def _collector_paused():
    """Hold the cyclic collector off for one replay, and give the caller
    back the setting it had, however the replay ends.  Nothing a replay
    builds — decoder, signature table, replayers, comparator, simulated
    world — is a reference cycle, so a collection during it could free
    nothing and only costs time (``tests/test_replay_gc.py``)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_divergence(trace: Union[bytes, TraceDecoder],
                   options: Optional[ReplayOptions] = None) -> ReplayResult:
    """Replay *trace* under ``options`` with the lockstep comparator
    attached; returns a :class:`ReplayResult`.

    Identical conditions (the default options) run fully directed and
    report zero divergences; any perturbation runs relaxed and reports
    the first call per rank whose outcome left the record.  Malformed
    traces raise structured errors
    (:class:`~repro.core.errors.TraceFormatError` /
    :class:`~repro.core.errors.ReplayFormatError`), never simulator
    internals.  The cyclic collector is held off for the whole replay.
    """
    opts = options if options is not None else ReplayOptions()
    with _collector_paused():
        # the collector comes back only after ``_replay`` returned and
        # reference counting freed all it built
        return _replay(trace, opts)


def _replay(trace: Union[bytes, TraceDecoder],
            opts: ReplayOptions) -> ReplayResult:
    recorder = SpanRecorder() if opts.spans else NULL_RECORDER
    w0, c0 = _time.perf_counter(), _time.process_time()
    with recorder.span("replay", scope="replay", what_if=opts.what_if):
        with recorder.span("decode", scope="replay"):
            decoder = trace if isinstance(trace, TraceDecoder) \
                else TraceDecoder.from_bytes(trace)
        recorded_n = decoder.nprocs
        n = recorded_n if opts.extrapolate_ranks is None \
            else opts.extrapolate_ranks
        with recorder.span("build", scope="replay", nprocs=n):
            rank_sources = list(range(n))
            strict_ids = True
            if n != recorded_n:
                rank_sources = _extrapolation_sources(decoder, n)
                # a different world size derives different comm/win ids
                # than were recorded, by design
                strict_ids = False
            directed = not opts.what_if
            table = signature_table(decoder, rank_sources)
            comparator = LockstepComparator(decoder, nprocs=n,
                                            rank_sources=rank_sources,
                                            table=table)
            _state, replayers, program = build_rank_programs(
                decoder, nprocs=n, directed=directed,
                strict_ids=strict_ids, rank_sources=rank_sources,
                table=table)
            counters = {
                "replay.plan.terminals": len(table),
                "replay.plan.calls": sum(len(r.stream) for r in replayers),
                # ranks of one grammar share one terminal list
                "replay.plan.grammars_shared":
                    n - len({id(r.stream.terms) for r in replayers}),
            }
            injector = arm(opts.fault_plan)
            sim = SimMPI(n, seed=opts.seed, tracer=comparator,
                         noise=opts.noise, net=opts.net,
                         node_size=opts.node_size, faults=injector)
        with recorder.span("execute", scope="replay",
                           directed=directed):
            run = run_replay(sim, program)
        counters["replay.plan.binds"] = sum(r.binds for r in replayers)
        counters["replay.plan.rebinds"] = sum(r.rebinds for r in replayers)
        with recorder.span("compare", scope="replay"):
            report = comparator.finish()
    return ReplayResult(
        options=opts, report=report, run=run, nprocs=n,
        recorded_nprocs=recorded_n, injector=injector,
        wall_s=_time.perf_counter() - w0,
        cpu_s=_time.process_time() - c0,
        spans=recorder.export() if opts.spans else [],
        counters=counters)
