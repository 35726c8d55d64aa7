"""Tracer hook protocol.

A tracer attached to the simulator plays the role PMPI interposition plays
for the real Pilgrim: it observes every MPI call (with all inputs and
outputs and virtual entry/exit timestamps) and every memory-management
call.  Hooks are synchronous — time the tracer spends inside a hook is
exactly the "intra-process compression" overhead of Fig 7/8, and the
harness measures it with real CPU timers.
"""

from __future__ import annotations

from typing import Any


class TracerHooks:
    """No-op base class; tracers override what they need."""

    def on_run_start(self, sim) -> None:
        """Called once before any rank executes (MPI_Init time)."""

    def on_call(self, rank: int, fname: str, values: tuple,
                t0: float, t1: float) -> None:
        """One MPI call on one rank: *values* holds every parameter
        (inputs and outputs), positionally, in the order of
        ``repro.mpisim.funcs.FUNCS[fname].params`` — names, directions
        and kinds live there (``FuncSpec.pos`` maps a name to its
        position).  The values are *live*: requests, statuses and request
        arrays keep mutating after the hook returns, so take what you
        need before returning."""

    def on_mem(self, rank: int, fname: str, args: dict[str, Any],
               result: Any, t: float) -> None:
        """A memory-management interception (malloc/free/cudaMalloc/...)."""

    def on_run_end(self, sim) -> None:
        """Called after every rank finished (MPI_Finalize time); tracers
        perform their inter-process compression here."""
