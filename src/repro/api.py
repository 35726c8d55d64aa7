"""The stable public facade: ``repro.api``.

Everything a downstream consumer does with this package goes through
a handful of verbs, re-exported from the ``repro`` top level:

=============  ========================================================
``trace``      run a registered workload under a tracer backend,
               optionally with fault injection; returns a
               :class:`TraceResult`
``decode``     parse a trace blob (or file) back to a
               :class:`~repro.core.decoder.TraceDecoder`; ``salvage=True``
               recovers what it can from damaged traces
``verify``     the differential lossless round-trip check on a workload
               (``allow_degraded=True`` verifies the survivors of a
               degraded trace and audits its salvage accounting)
``compare``    Pilgrim vs the ScalaTrace baseline on one configuration
               (an :class:`~repro.analysis.runner.ExperimentRow`)
``bench``      run a registered microbenchmark and return its result
               document
``serve``      start the streaming trace-ingest service on a background
               thread (a :class:`~repro.ingest.server.RunningServer`)
``push``       run a workload while streaming partial shards to an
               ingest server; the folded trace comes back byte-identical
               to the in-process run
``replay``     re-execute a trace — identical conditions (the fixed
               point) or what-if perturbations (network, faults, rank
               extrapolation) — and report first-divergence points;
               returns a :class:`~repro.replay.ReplayResult`
=============  ========================================================

The CLI (:mod:`repro.cli`), the experiment runner
(:mod:`repro.analysis.runner`) and the chaos harness
(:mod:`repro.resilience.chaos`) are all thin callers of this module;
its signatures are pinned by ``tests/test_api_surface.py`` against a
checked-in snapshot, so accidental breaks fail CI.

Tracer configuration lives in one place —
:class:`~repro.core.backends.TracerOptions`; replay configuration in
:class:`~repro.replay.ReplayOptions`.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

from .core.backends import TracerOptions, make_tracer
from .core.decoder import TraceDecoder
from .core.verify import RoundTrip, VerifyReport, verify_roundtrip
from .replay.divergence import ReplayOptions, ReplayResult, run_divergence
from .resilience.faults import FaultInjector, arm
from .workloads import make as _make_workload

__all__ = [
    "ReplayOptions", "ReplayResult", "TraceResult", "TracerOptions",
    "VerifyReport",
    "bench", "compare", "decode", "push", "replay", "serve", "store",
    "trace", "verify",
]

@dataclass
class TraceResult:
    """What :func:`trace` returns: the run plus the tracer's result.

    The commonly wanted fields are forwarded as properties so callers
    never reach into backend-specific result objects.
    """

    workload: str
    nprocs: int
    backend: str
    seed: int
    #: the constructed tracer: its result, metrics and spans, and each
    #: rank's shard, rebuilt from the trace bytes on demand
    #: (``tracer.ranks[r].freeze()``); a finished tracer keeps no CSTs,
    #: logs, encoders, shards or parsed trace (DESIGN.md §17)
    tracer: Any
    #: the simulator's RunResult (virtual times, scheduler steps)
    run: Any
    #: the fully resolved options the tracer was built with
    options: TracerOptions = field(default_factory=TracerOptions)
    #: the armed fault injector shared by run + pipeline (None when no
    #: plan was given)
    injector: Optional[FaultInjector] = None
    #: wall/CPU seconds of the whole run (simulate + finalize), measured
    #: by :func:`trace` and stamped into the run manifest
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def result(self) -> Any:
        """The backend's result object (PilgrimResult or equivalent)."""
        return self.tracer.result

    @property
    def trace_bytes(self) -> bytes:
        return self.result.trace_bytes

    @property
    def trace_size(self) -> int:
        return self.result.trace_size

    @property
    def total_calls(self) -> int:
        return self.result.total_calls

    @property
    def degraded(self) -> bool:
        """True when the resilient pipeline had to abandon data."""
        return bool(getattr(self.result, "degraded", False))

    @property
    def salvage(self):
        """The SalvageReport accounting for lost data (None if intact)."""
        return getattr(self.result, "salvage", None)

    @property
    def fired_faults(self) -> list:
        """Human-readable log of every fault that actually fired."""
        return list(getattr(self.result, "fired_faults", []))

    @property
    def spans(self) -> list:
        """Exported span dicts for the whole run (one coherent tree);
        empty when the tracer ran without a metrics registry."""
        return list(getattr(self.result, "spans", []))

    def manifest(self, *, command: str = "trace",
                 outputs: Optional[dict] = None) -> Any:
        """Build the :class:`~repro.obs.RunManifest` describing this
        run: configuration snapshot, git version, wall/CPU seconds,
        peak RSS, resilience counters, totals, and output sizes."""
        import dataclasses

        from .obs import (RunManifest, git_describe, host_environment,
                          peak_rss_kb)
        res = self.result
        counters: dict = {}
        reg = getattr(self.tracer, "metrics", None)
        if reg is not None and getattr(reg, "enabled", False):
            counters = dict(reg.snapshot()["counters"])
        totals: dict = {"calls": self.total_calls,
                        "spans": len(self.spans)}
        for name, attr in (("signatures", "n_signatures"),
                           ("unique_grammars", "n_unique_grammars")):
            val = getattr(res, attr, None)
            if val is not None:
                totals[name] = val
        out_sizes: dict = {"trace_bytes": self.trace_size}
        try:
            out_sizes["sections"] = dict(res.section_sizes())
        except (AttributeError, TypeError):
            pass
        if outputs:
            out_sizes.update(outputs)
        salvage = self.salvage
        return RunManifest(
            command=command,
            workload=self.workload, nprocs=self.nprocs,
            backend=self.backend, seed=self.seed,
            options={f.name: getattr(self.options, f.name)
                     for f in dataclasses.fields(self.options)},
            git=git_describe(), environment=host_environment(),
            wall_s=round(self.wall_s, 6), cpu_s=round(self.cpu_s, 6),
            peak_rss_kb=peak_rss_kb(),
            counters=counters, totals=totals, outputs=out_sizes,
            degraded=self.degraded,
            salvage=salvage.summary() if salvage is not None else None,
            fired_faults=self.fired_faults)

    def write(self, path: Union[str, os.PathLike], *,
              manifest: bool = True) -> int:
        """Write the trace blob to *path*; returns the byte count.  By
        default a :class:`~repro.obs.RunManifest` sidecar lands next to
        it (``<path>.manifest.json``)."""
        blob = self.trace_bytes
        with open(path, "wb") as fh:
            fh.write(blob)
        if manifest:
            from .obs import RunManifest
            self.manifest().write(RunManifest.default_path(str(path)))
        return len(blob)

    def write_timeline(self, path: Union[str, os.PathLike]) -> int:
        """Export the run's spans as a Chrome trace-event file (load it
        in Perfetto / ``chrome://tracing``); returns the event count."""
        from .obs import write_chrome_trace
        spans = self.spans
        if not spans:
            raise ValueError(
                "no spans recorded — trace with an enabled metrics "
                "registry (TracerOptions(metrics=MetricsRegistry()))")
        return write_chrome_trace(str(path), spans,
                                  meta={"workload": self.workload,
                                        "nprocs": self.nprocs,
                                        "backend": self.backend})

    def write_spans(self, path: Union[str, os.PathLike]) -> int:
        """Dump the run's spans as JSONL (the archival form ``repro
        timeline`` and ``repro stats --spans`` read back); returns the
        line count."""
        from .obs import write_spans_jsonl
        return write_spans_jsonl(str(path), self.spans,
                                 meta={"workload": self.workload,
                                       "nprocs": self.nprocs,
                                       "backend": self.backend})

    def decode(self, *, salvage: Optional[bool] = None) -> TraceDecoder:
        """Decode this result's trace (salvage defaults to degraded-ness)."""
        return decode(self.trace_bytes,
                      salvage=self.degraded if salvage is None else salvage)


def trace(workload: str, nprocs: int = 16, *,
          backend: str = "pilgrim",
          options: Optional[TracerOptions] = None,
          seed: int = 1,
          params: Optional[dict] = None,
          noise: float = 0.05,
          events: Any = None,
          fault_plan: Any = None) -> TraceResult:
    """Run registered *workload* on *nprocs* simulated ranks under the
    *backend* tracer and finalize the trace.

    ``fault_plan`` (a :class:`~repro.resilience.faults.FaultPlan`, a
    plan string for :meth:`FaultPlan.parse`, or a pre-armed injector)
    turns on deterministic fault injection: ONE injector is shared by
    the simulator's scheduler and the finalize pipeline, so a plan's
    ``times=`` budgets are global to the run.  Without a plan every
    injection point is a no-op ``None`` check.
    """
    return _run(workload, nprocs, backend, options, fault_plan, seed=seed,
                params=params, noise=noise, events=events)


def _run(workload: str, nprocs: int, backend: str,
         options: Optional[TracerOptions], fault_plan: Any, *, seed: int,
         params: Optional[dict], noise: float = 0.05, events: Any = None,
         tee: bool = False) -> TraceResult:
    """:func:`trace`; with *tee* the tracer runs under a
    :class:`~repro.core.verify.RoundTrip`, the result's ``tracer``."""
    opts = options if options is not None else TracerOptions()
    if fault_plan is not None:
        opts = replace(opts, fault_plan=fault_plan)
    if isinstance(opts.fault_plan, str):
        from .resilience.faults import FaultPlan
        opts = replace(opts, fault_plan=FaultPlan.parse(opts.fault_plan))
    injector = arm(opts.fault_plan)
    if injector is not None:
        # hand every consumer the *same* armed injector
        opts = replace(opts, fault_plan=injector)
    tracer = make_tracer(backend, opts)
    if tee:
        tracer = RoundTrip(tracer)
    wl = _make_workload(workload, nprocs, **(params or {}))
    w0, c0 = _time.perf_counter(), _time.process_time()
    run = wl.run(seed=seed, tracer=tracer, noise=noise, events=events,
                 faults=injector)
    wall_s = _time.perf_counter() - w0
    cpu_s = _time.process_time() - c0
    return TraceResult(workload=workload, nprocs=nprocs, backend=backend,
                       seed=seed, tracer=tracer, run=run, options=opts,
                       injector=injector, wall_s=wall_s, cpu_s=cpu_s)


def decode(data: Union[bytes, str, os.PathLike], *,
           salvage: bool = False) -> TraceDecoder:
    """Parse a trace blob — or read it from a path — into a decoder.

    ``salvage=True`` switches the parser to best-effort mode: damaged
    or truncated sections are dropped instead of raising, and the
    decoder's ``.salvage`` carries a
    :class:`~repro.resilience.salvage.SalvageReport` of what was lost.
    """
    if isinstance(data, (str, os.PathLike)):
        with open(data, "rb") as fh:
            data = fh.read()
    return TraceDecoder.from_bytes(data, salvage=salvage)


def verify(workload: str, nprocs: int = 16, *, seed: int = 1,
           options: Optional[TracerOptions] = None,
           allow_degraded: bool = False,
           fault_plan: Any = None,
           **params) -> VerifyReport:
    """Trace *workload* with Pilgrim beside the ``raw`` backend (a
    :class:`~repro.core.verify.RoundTrip`) and differentially verify
    the lossless round-trip (the ``repro verify`` entry point).

    Extra keywords are workload parameters; tracer configuration
    travels in *options*.  With ``fault_plan`` and
    ``allow_degraded=True`` this verifies the *survivors* of a degraded
    trace and audits the salvage report's call accounting.
    """
    tee = _run(workload, nprocs, "pilgrim", options, fault_plan, seed=seed,
               params=params, tee=True).tracer
    return verify_roundtrip(tee, allow_degraded=allow_degraded)


def compare(workload: str, nprocs: int, *, seed: int = 1,
            options: Optional[TracerOptions] = None,
            baseline: bool = True,
            params: Optional[dict] = None):
    """Pilgrim vs the ScalaTrace baseline on one (workload, nprocs):
    trace sizes, call counts, overheads.  Returns an ``ExperimentRow``."""
    from .analysis.runner import run_experiment  # heavier import, lazy
    return run_experiment(workload, nprocs, seed=seed, options=options,
                          baseline=baseline, **(params or {}))


def bench(name: str = "hotpath", *, repeats: int = 5, warmup: int = 1,
          params: Optional[dict] = None) -> dict:
    """Run one registered microbenchmark; returns its result document
    (the JSON that ``repro bench`` writes).  See
    :func:`repro.bench.available_benchmarks` for the registry."""
    from . import bench as _bench  # heavier import, lazy
    return _bench.run_benchmark(name, repeats=repeats, warmup=warmup,
                                params=params)


def store(root: Optional[str] = None, *, metrics: Any = None):
    """Open (creating on first put) the content-addressed trace store
    rooted at *root* and return a
    :class:`~repro.store.TraceStore`.

    *root* defaults to the ``REPRO_STORE`` environment variable, then
    ``.repro-store``.  The store splits every trace into its
    format-v2 sections, keeps each unique section blob once under its
    SHA-256, and records runs as manifests of hash references — so N
    runs of the same workload cost far less than N traces
    (``repro store stats`` reports the achieved ratio)."""
    from .store import DEFAULT_ROOT, TraceStore  # heavier import, lazy
    if root is None:
        root = os.environ.get("REPRO_STORE") or DEFAULT_ROOT
    return TraceStore(root, metrics=metrics)


def serve(host: str = "127.0.0.1", port: int = 0, *,
          checkpoint_dir: Optional[str] = None,
          checkpoint_every: int = 0,
          store_dir: Optional[str] = None,
          metrics: Any = None):
    """Start the streaming trace-ingest service on a background thread
    and return a :class:`~repro.ingest.server.RunningServer` (context
    manager; ``.port`` holds the bound port, ``.stop()`` shuts down).

    The blocking foreground variant is ``repro serve`` on the CLI; both
    accept pushed partial-shard streams from :func:`push` / ``repro
    push`` and fold them to traces byte-identical to in-process runs.

    With *store_dir* set, every completed fold is also archived into
    the trace store at that path as a run of workload == tenant, so
    repeated pushes dedup against each other (see :func:`store`).
    """
    from .ingest import serve_in_thread  # heavier import (sockets), lazy
    trace_store = store(store_dir, metrics=metrics) \
        if store_dir is not None else None
    return serve_in_thread(host, port, checkpoint_dir=checkpoint_dir,
                           checkpoint_every=checkpoint_every,
                           metrics=metrics, store=trace_store)


def push(workload: str, nprocs: int = 8, *,
         host: str = "127.0.0.1", port: int = 0,
         tenant: str = "default",
         seed: int = 1,
         options: Optional[TracerOptions] = None,
         chunk_calls: int = 256,
         params: Optional[dict] = None,
         noise: float = 0.05):
    """Run *workload* locally while streaming partial shards to an
    ingest server at ``host:port``; returns a
    :class:`~repro.ingest.client.PushResult` whose ``trace_bytes`` is
    the server-side fold — byte-identical to :func:`trace` with the
    same options (the ingest subsystem's core invariant)."""
    from .ingest import push as _push  # heavier import (sockets), lazy
    return _push(workload, nprocs, host=host, port=port, tenant=tenant,
                 seed=seed, options=options, chunk_calls=chunk_calls,
                 params=params, noise=noise)


def replay(trace: Union[bytes, str, os.PathLike], *,
           options: Optional[ReplayOptions] = None) -> ReplayResult:
    """Re-execute a trace blob (or file) and report divergences.

    With default :class:`~repro.replay.ReplayOptions` the replay is
    fully directed — the fixed-point check in report form, guaranteed
    ``diverged == False``.  Setting ``net=``, ``fault_plan=``, or
    ``extrapolate_ranks=`` on the options object runs the what-if
    engine: relaxed replay under the modified conditions, with the
    lockstep comparator reporting the first call per rank whose outcome
    left the record.  See :func:`repro.replay.run_divergence`.
    """
    if isinstance(trace, (str, os.PathLike)):
        with open(trace, "rb") as fh:
            trace = fh.read()
    return run_divergence(trace, options)
