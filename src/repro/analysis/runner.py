"""One-stop experiment runner used by benchmarks and examples.

Runs a workload three ways — untracted, under Pilgrim, and under the
ScalaTrace baseline — and collects the numbers the paper's figures plot:
trace sizes, call counts, unique-grammar counts, wall-clock overheads,
and Pilgrim's overhead decomposition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.backends import TracerOptions
from ..workloads import make


@dataclass
class ExperimentRow:
    """One (workload, nprocs) measurement."""

    workload: str
    nprocs: int
    mpi_calls: int = 0
    app_seconds: float = 0.0          # wall time, no tracing
    pilgrim_seconds: float = 0.0      # wall time with Pilgrim attached
    scalatrace_seconds: float = 0.0   # wall time with the baseline
    pilgrim_size: int = 0
    scalatrace_size: int = 0
    n_signatures: int = 0
    n_unique_grammars: int = 0
    n_unique_scalatrace: int = 0
    time_intra: float = 0.0
    time_cst_merge: float = 0.0
    time_cfg_merge: float = 0.0
    #: Pilgrim's phase -> wall seconds (``PilgrimResult.phases``)
    phases: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @property
    def pilgrim_overhead(self) -> float:
        """Fractional slowdown of the run with Pilgrim attached."""
        if self.app_seconds <= 0:
            return 0.0
        return (self.pilgrim_seconds - self.app_seconds) / self.app_seconds

    @property
    def scalatrace_overhead(self) -> float:
        if self.app_seconds <= 0:
            return 0.0
        return (self.scalatrace_seconds - self.app_seconds) / self.app_seconds


def run_experiment(workload: str, nprocs: int, *, seed: int = 1,
                   pilgrim: bool = True, scalatrace: bool = True,
                   baseline: bool = True,
                   options: Optional[TracerOptions] = None,
                   pilgrim_kwargs: Optional[dict] = None,
                   scalatrace_kwargs: Optional[dict] = None,
                   **params) -> ExperimentRow:
    """Run one configuration under all requested tracers, each built and
    driven through :func:`repro.api.trace`.

    Tracer configuration travels in *options* (one
    :class:`TracerOptions` shared by both tracers):
    Pilgrim's phase decomposition (Fig 8) lands in ``row.phases`` with
    or without a registry; an enabled ``options.metrics`` registry is
    shared by both tracers and accumulates across rows.  Extra keywords
    are workload parameters."""
    from .. import api  # late import: repro.api sits above repro.analysis
    opts = options if options is not None else TracerOptions()
    row = ExperimentRow(workload=workload, nprocs=nprocs, params=params)

    if baseline:
        t0 = time.perf_counter()
        make(workload, nprocs, **params).run(seed=seed)
        row.app_seconds = time.perf_counter() - t0

    if pilgrim:
        t0 = time.perf_counter()
        tr = api.trace(workload, nprocs, backend="pilgrim", seed=seed,
                       params=params,
                       options=replace(opts,
                                       extra=dict(pilgrim_kwargs or {})))
        row.pilgrim_seconds = time.perf_counter() - t0
        r = tr.result
        row.mpi_calls = r.total_calls
        row.pilgrim_size = r.trace_size
        row.n_signatures = r.n_signatures
        row.n_unique_grammars = r.n_unique_grammars
        row.time_intra = r.time_intra
        row.time_cst_merge = r.time_cst_merge
        row.time_cfg_merge = r.time_cfg_merge
        row.phases = dict(r.phases)

    if scalatrace:
        t0 = time.perf_counter()
        tr = api.trace(workload, nprocs, backend="scalatrace", seed=seed,
                       params=params,
                       options=replace(opts,
                                       extra=dict(scalatrace_kwargs or {})))
        row.scalatrace_seconds = time.perf_counter() - t0
        row.scalatrace_size = tr.result.trace_size
        row.n_unique_scalatrace = tr.result.n_unique_traces
        if not row.mpi_calls:
            row.mpi_calls = tr.result.total_calls

    return row
