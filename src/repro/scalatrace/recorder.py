"""Recorder-style baseline tracer (paper §5, related work).

Recorder 2.0 (Wang et al., IPDPSW'20) compresses by matching each new
event against a **sliding window** of recent events: a repeat is stored
as a back-reference, anything else verbatim.  The paper's critique,
reproduced here mechanically:

* "it can not detect loop structures nor repetitions at long ranges" —
  a back-reference only reaches ``window`` events back, and repeats are
  stored per occurrence (O(N) tokens for a loop of N iterations, vs
  Pilgrim's O(1) grammar);
* "do[es] not perform inter-process compression" — per-rank streams are
  written side by side, so trace size is linear in P even for identical
  ranks.

Coverage is Pilgrim-like (Recorder traces every call it wraps), so the
interesting comparison is purely the compression scheme.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..core.packing import write_uvarint, write_value
from ..mpisim.hooks import TracerHooks
from .tracer import ScalaTraceTracer


@dataclass
class RecorderResult:
    trace_bytes: bytes
    total_calls: int
    time_intra: float
    per_rank_tokens: list[int] = field(default_factory=list)

    @property
    def trace_size(self) -> int:
        return len(self.trace_bytes)


class RecorderTracer(TracerHooks):
    """Sliding-window backreference compression, per rank, no merging."""

    def __init__(self, *, window: int = 128):
        self.window = window
        self.nprocs = 0
        self._windows: list[deque] = []
        #: per-rank token stream: ("ref", distance) or ("lit", sig)
        self._tokens: list[list[tuple]] = []
        self._encoder: Optional[ScalaTraceTracer] = None
        self.total_calls = 0
        self.time_intra = 0.0
        self.result: Optional[RecorderResult] = None

    def on_run_start(self, sim) -> None:
        self.nprocs = sim.nprocs
        self.total_calls = 0
        self.time_intra = 0.0
        self._windows = [deque(maxlen=self.window)
                         for _ in range(sim.nprocs)]
        self._tokens = [[] for _ in range(sim.nprocs)]
        # borrow the baseline's argument encoding (full coverage variant)
        self._encoder = ScalaTraceTracer()
        self._encoder.on_run_start(sim)

    def on_call(self, rank: int, fname: str, values: tuple,
                t0: float, t1: float) -> None:
        self.total_calls += 1
        tick = _time.perf_counter()
        sig = self._encoder._encode(rank, fname, values)
        if fname in self._encoder._WAIT_FNAMES:
            self._encoder._release_consumed(rank, fname, values)
        win = self._windows[rank]
        try:
            # most-recent-first search, as Recorder's window match does
            distance = None
            for i in range(len(win) - 1, -1, -1):
                if win[i] == sig:
                    distance = len(win) - i
                    break
        except TypeError:
            distance = None
        if distance is not None:
            self._tokens[rank].append(("ref", distance))
        else:
            self._tokens[rank].append(("lit", sig))
        win.append(sig)
        self.time_intra += _time.perf_counter() - tick

    def on_run_end(self, sim) -> None:
        out = bytearray(b"RCDR")
        write_uvarint(out, self.nprocs)
        for rank in range(self.nprocs):
            write_uvarint(out, len(self._tokens[rank]))
            for kind, payload in self._tokens[rank]:
                if kind == "ref":
                    out.append(1)
                    write_uvarint(out, payload)
                else:
                    out.append(0)
                    write_value(out, payload)
        self.result = RecorderResult(
            trace_bytes=bytes(out),
            total_calls=self.total_calls,
            time_intra=self.time_intra,
            per_rank_tokens=[len(t) for t in self._tokens],
        )
