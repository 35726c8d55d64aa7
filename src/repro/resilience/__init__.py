"""Resilience subsystem: fault injection, retry, and salvage.

Three cooperating layers make the tracer degrade gracefully instead of
crashing:

- :mod:`repro.resilience.faults` — a deterministic, seeded
  fault-injection harness (:class:`FaultPlan` / :class:`FaultInjector`)
  consulted at named injection points in the pipeline, the tracer, and
  the simulated-MPI scheduler.
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` and
  :class:`TaskSupervisor`: bounded exponential backoff with seeded
  jitter, recomputing the failed task on every retry.
- :mod:`repro.resilience.salvage` — :class:`SalvageReport`, the precise
  accounting (lost ranks, lost sections, call deficit) attached to any
  degraded result, plus the salvage read modes on
  ``TraceFile.from_bytes`` / ``RankShard.from_bytes``.

:mod:`repro.resilience.chaos` closes the loop: it runs workloads under
random seeded plans and asserts the chaos property — byte-identical
recovery or an explicit, conservation-checked degraded result, never an
unhandled exception.

Everything except :mod:`~repro.resilience.chaos` is stdlib-only so
``repro.core`` can import it without cycles.
"""

from .faults import (FOREVER, FaultError, FaultInjector, FaultPlan,
                     FaultSpec, InjectedMemoryError, InjectedOSError,
                     WorkerDiedError, WorkerStallError, arm)
from .retry import RetryPolicy, SupervisorStats, TaskSupervisor
from .salvage import SalvageReport

__all__ = [
    "FOREVER",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedMemoryError",
    "InjectedOSError",
    "RetryPolicy",
    "SalvageReport",
    "SupervisorStats",
    "TaskSupervisor",
    "WorkerDiedError",
    "WorkerStallError",
    "arm",
]
