"""Retry and backoff machinery.

The compression pipeline treats every freeze/merge/serialize task as a
*supervised* unit of work: run it, and on a retryable failure back off
(bounded exponential with jitter from a seeded RNG — deterministic per
run) and try again up to a budget.  The streaming ingest client runs its
reconnects under the same supervisor.

Nothing here imports ``repro.core`` — callers pass in the exception
classes they consider retryable — so the core pipeline can depend on
this module without an import cycle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

from .faults import WorkerDiedError


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving a task up."""

    #: attempts beyond the first (0 disables retry entirely)
    max_retries: int = 4
    #: first backoff sleep, seconds; doubles each retry up to the cap
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    #: seed for backoff jitter (determinism: same run, same sleeps)
    seed: int = 0

    def __post_init__(self) -> None:
        # a negative sleep would surface only at the first retry, as
        # time.sleep's bare "sleep length must be non-negative"
        for name in ("max_retries", "backoff_base", "backoff_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"RetryPolicy.{name} must be >= 0, "
                                 f"got {getattr(self, name)}")


@dataclass
class SupervisorStats:
    """Counters a supervisor accumulates over one pipeline run."""

    retries: int = 0
    worker_deaths: int = 0
    gave_up: int = 0
    failures: list = field(default_factory=list)

    def record_failure(self, site: str, exc: BaseException) -> None:
        self.failures.append(f"{site}: {type(exc).__name__}: {exc}")


class TaskSupervisor:
    """Runs thunks under a :class:`RetryPolicy`.

    ``retryable`` is the tuple of exception classes worth retrying;
    anything else propagates immediately (a real bug should never be
    swallowed by resilience machinery).  An optional ``scope`` (an
    ``repro.obs`` metrics scope, duck-typed) mirrors the counters into
    the run's metrics registry, and an optional ``recorder`` (an
    ``repro.obs`` span recorder, also duck-typed) gets one
    ``retry.backoff`` span per retry sleep and a ``retry.exhausted``
    marker when a task's budget runs out, so recovery shows up on the
    run timeline.
    """

    def __init__(self, policy: RetryPolicy,
                 retryable: Tuple[Type[BaseException], ...],
                 scope=None,
                 sleep: Callable[[float], None] = time.sleep,
                 recorder=None):
        self.policy = policy
        self.retryable = retryable
        self.scope = scope
        self.sleep = sleep
        self.recorder = recorder
        self.rng = random.Random(policy.seed ^ 0x5EED5EED)
        self.stats = SupervisorStats()

    # -- counters ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.scope is not None:
            self.scope.counter(name).inc()

    def backoff(self, attempt: int) -> float:
        """Sleep duration before retry *attempt* (1-based), jittered."""
        raw = min(self.policy.backoff_cap,
                  self.policy.backoff_base * (2 ** (attempt - 1)))
        return raw * (0.5 + 0.5 * self.rng.random())

    # -- the supervision loop ------------------------------------------------------

    def run(self, thunk: Callable[[int], object], *, site: str,
            on_exhausted: Optional[Callable[[BaseException], object]]
            = None):
        """Run ``thunk(attempt)`` until it succeeds or the retry budget
        is spent.

        ``thunk`` receives the attempt number (0-based), which callers
        stamp on the telemetry of the attempt that succeeded.

        When the budget is exhausted: if ``on_exhausted`` is given, its
        return value becomes the task's result (degraded path);
        otherwise the last exception propagates.
        """
        last: Optional[BaseException] = None
        rec = self.recorder
        for attempt in range(self.policy.max_retries + 1):
            if attempt:
                self.stats.retries += 1
                self._count("retries")
                delay = self.backoff(attempt)
                self.sleep(delay)
                if rec is not None and rec.enabled:
                    rec.record("retry.backoff", dur_s=delay,
                               scope="resilience", site=site,
                               attempt=attempt,
                               error=type(last).__name__ if last else None)
            try:
                result = thunk(attempt)
            except self.retryable as exc:
                last = exc
                self.stats.record_failure(site, exc)
                if isinstance(exc, WorkerDiedError):
                    self.stats.worker_deaths += 1
                    self._count("worker_deaths")
                continue
            return result
        self.stats.gave_up += 1
        self._count("gave_up")
        if rec is not None and rec.enabled:
            rec.record("retry.exhausted", dur_s=0.0, scope="resilience",
                       site=site,
                       error=type(last).__name__ if last else None)
        if on_exhausted is not None:
            return on_exhausted(last)  # type: ignore[arg-type]
        assert last is not None
        raise last
