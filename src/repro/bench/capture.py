"""Workload capture/replay for microbenchmarks.

Timing the tracer inside a live simulation conflates tracer time with
simulator time.  Instead each workload runs once under a recording hook
that keeps every ``on_call`` / ``on_mem`` event in order (plus the
finished simulator, whose communicator table the encoder resolves
against), and the benchmarks replay that stream into fresh tracers.

Replay must reproduce what the tracer *saw at hook time*, and two
things keep mutating after the hook returns: request/status objects
(a request is ``consumed`` by its completion call; a reused status is
refilled by the next receive) and the user's request arrays (completed
entries become ``None``).  So the recorder copies every list among a
call's values and snapshots the mutable request/status fields per
event, by position; replay restores each snapshot before dispatching.
With that, a replayed tracer produces a trace byte-identical to the
live run's.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ..mpisim.hooks import TracerHooks
from ..mpisim.request import Request
from ..mpisim.status import Status
from ..workloads import make

_CALL, _MEM = 0, 1

#: snapshot tags
_REQ, _ST = 0, 1


def _snap_obj(obj: Any, out: list) -> None:
    if isinstance(obj, Request):
        out.append((_REQ, obj, obj.consumed, obj.freed))
    elif isinstance(obj, Status):
        out.append((_ST, obj, obj.count, obj.cancelled, obj.MPI_SOURCE,
                    obj.MPI_TAG, obj.MPI_ERROR))


def _capture_values(values: tuple) -> tuple[tuple, tuple]:
    """Copy the lists among *values* (so later ``arr[i] = None`` nulling
    is invisible) and snapshot every request/status in it."""
    copied: list = []
    snaps: list = []
    for v in values:
        if isinstance(v, list):
            v = list(v)
            for item in v:
                _snap_obj(item, snaps)
        elif isinstance(v, tuple):
            for item in v:
                _snap_obj(item, snaps)
        else:
            _snap_obj(v, snaps)
        copied.append(v)
    return tuple(copied), tuple(snaps)


def _restore(snaps: tuple) -> None:
    for s in snaps:
        if s[0] == _REQ:
            obj = s[1]
            obj.consumed, obj.freed = s[2], s[3]
        else:
            obj = s[1]
            (obj.count, obj.cancelled, obj.MPI_SOURCE,
             obj.MPI_TAG, obj.MPI_ERROR) = s[2:]


class _RecordingHooks(TracerHooks):
    """Stores the raw hook stream; does no encoding at all."""

    def __init__(self) -> None:
        self.sim = None
        self.events: list[tuple] = []

    def on_run_start(self, sim) -> None:
        self.sim = sim

    def on_call(self, rank, fname, values, t0, t1) -> None:
        copied, snaps = _capture_values(values)
        self.events.append((_CALL, rank, fname, copied, t0, t1, snaps))

    def on_mem(self, rank, fname, args, result, t) -> None:
        self.events.append((_MEM, rank, fname, dict(args), result, t, ()))


@dataclass
class CapturedRun:
    """One workload's hook-event stream plus the simulator it ran on."""

    family: str
    nprocs: int
    sim: Any
    events: list[tuple]
    n_calls: int

    @classmethod
    def record(cls, family: str, nprocs: int, *, seed: int = 1,
               **params) -> "CapturedRun":
        rec = _RecordingHooks()
        make(family, nprocs, **params).run(seed=seed, tracer=rec)
        n_calls = sum(1 for ev in rec.events if ev[0] == _CALL)
        return cls(family=family, nprocs=nprocs, sim=rec.sim,
                   events=rec.events, n_calls=n_calls)

    def replay(self, tracer: TracerHooks, *, finish: bool = False) -> None:
        """Feed the captured stream into a fresh *tracer*; with *finish*
        also run ``on_run_end`` (the finalize stage)."""
        tracer.on_run_start(self.sim)
        for ev in self.events:
            if ev[6]:
                _restore(ev[6])
            if ev[0] == _CALL:
                tracer.on_call(ev[1], ev[2], ev[3], ev[4], ev[5])
            else:
                tracer.on_mem(ev[1], ev[2], ev[3], ev[4], ev[5])
        if finish:
            tracer.on_run_end(self.sim)

    def timed_replay(self, tracer: TracerHooks) -> float:
        """Replay and return wall seconds spent in the hook loop only
        (``on_run_start`` setup and snapshot restores excluded) — the
        intra-process tracing time of Fig 7/8, with the simulator out
        of the picture."""
        tracer.on_run_start(self.sim)
        on_call, on_mem = tracer.on_call, tracer.on_mem
        total = 0.0
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for ev in self.events:
                if ev[6]:
                    _restore(ev[6])
                start = perf_counter()
                if ev[0] == _CALL:
                    on_call(ev[1], ev[2], ev[3], ev[4], ev[5])
                else:
                    on_mem(ev[1], ev[2], ev[3], ev[4], ev[5])
                total += perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        return total
