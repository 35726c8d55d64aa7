"""Pipeline phase profiler.

A :class:`PhaseProfiler` accumulates wall time per named *phase* of a
pipeline — for Pilgrim, Fig 8's decomposition: ``intra`` (the per-call
hot path) and ``sequitur`` (each rank's deferred compression), then the
finalize stages ``shard``, ``cst_merge``, ``cfg_merge``,
``timing_merge`` and ``serialize`` — and publishes the totals into a
registry scope as timers named ``phase.<name>``.

The profiler is also the bridge into the run's
:class:`~repro.obs.spans.SpanRecorder`: every ``with
profiler.phase(...)`` block opens a span (nesting follows the ``with``
nesting), and every externally measured :meth:`add` records a *synthetic*
span of the given duration.

The profiler itself always measures (two clock reads per ``with`` block,
negligible at run-level granularity), so accounting fields like
``PilgrimResult.time_cst_merge`` stay populated even when the registry
is disabled.  Only the registry/recorder publication is gated.  Per-call
hot paths do not open a ``with`` block per call; they accumulate their
own seconds and :meth:`add` them once at finalize.
"""

from __future__ import annotations

import time as _time
from typing import Optional

from .registry import Scope
from .spans import NULL_RECORDER, SpanRecorder


class _PhaseBlock:
    """One timed phase; exposes the measured wall seconds on exit."""

    __slots__ = ("_prof", "_name", "_w0", "_span", "wall")

    def __init__(self, prof: "PhaseProfiler", name: str):
        self._prof = prof
        self._name = name
        self.wall = 0.0

    def __enter__(self) -> "_PhaseBlock":
        self._span = self._prof.recorder.span(self._name, scope="phase")
        self._span.__enter__()
        self._w0 = _time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = _time.perf_counter() - self._w0
        self._span.__exit__(*exc)
        self._prof._accumulate(self._name, self.wall)


class PhaseProfiler:
    """Named-phase wall-time accumulator, optionally backed by a registry
    scope and a span recorder."""

    def __init__(self, scope: Optional[Scope] = None,
                 recorder: Optional[SpanRecorder] = None):
        self._scope = scope
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._wall: dict[str, float] = {}

    def phase(self, name: str) -> _PhaseBlock:
        """``with profiler.phase("cst_merge") as ph: ...`` — measures the
        block (and records a span) and accumulates it; ``ph.wall`` holds
        the result."""
        return _PhaseBlock(self, name)

    def add(self, name: str, wall: float, count: int = 1) -> None:
        """Accumulate an externally measured phase contribution; also
        recorded as a synthetic span when a recorder is attached."""
        if self.recorder.enabled:
            self.recorder.record(name, dur_s=wall, scope="phase",
                                 count=count)
        self._accumulate(name, wall, count=count)

    def _accumulate(self, name: str, wall: float, count: int = 1) -> None:
        self._wall[name] = self._wall.get(name, 0.0) + wall
        if self._scope is not None and self._scope.enabled:
            self._scope.timer(f"phase.{name}").add(wall, count)

    def wall(self, name: str) -> float:
        return self._wall.get(name, 0.0)

    def phases(self) -> dict[str, float]:
        """Phase -> accumulated wall seconds, insertion-ordered."""
        return dict(self._wall)
