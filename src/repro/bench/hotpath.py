"""Per-call hot-path microbenchmark (the intra-process axis of Fig 7/8).

Replays captured workload event streams into fresh Pilgrim tracers and
times the intra-process path — encode → CST intern → log per call,
Sequitur once per distinct logged stream — once with aggregate timing
(the default) and once with lossy timing (``TracerOptions.lossy_timing``:
two more bin streams per rank, one more stage per call).  Deferred work
is still tracing time: every rank's compression (``compress_ranks``) is
inside the timed region.  Per sample, on the same runner, each family is
also run once under the ``null`` backend, so two kinds of metric come
out per family:

* ``<family>.us_per_call`` / ``lossy_us_per_call`` — absolute times,
  for humans (``BENCH_hotpath.json``), with ``<family>.null_us_per_call``,
  the denominator of the ratio below, beside them: when a ratio moves
  the JSON says which side did; and ``<family>.encode_us_per_call``, the
  same stream through the encode stage alone (the per-function closures
  of ``repro.core.encoder``), the largest stage of ``us_per_call``;
* ``<family>.hot_over_null`` — per-call tracing time over the untraced
  run that produced the calls, and ``<family>.lossy_over_percall`` —
  the two timing modes against each other.  Machine-independent, so these
  are what CI gates.
"""

from __future__ import annotations

from time import perf_counter

from ..core.backends import TracerOptions, make_tracer
from ..core.tracer import PilgrimTracer
from ..workloads import make
from . import register
from .capture import CapturedRun

DEFAULT_FAMILIES = ("stencil2d", "osu_latency", "npb_mg",
                    "flash_sedov", "milc_su3_rmd")


class _EncodeOnly(PilgrimTracer):
    """The Pilgrim hooks with everything after encode cut off."""

    def on_call(self, rank, fname, values, t0, t1) -> None:
        self.encoders[rank].encode_call(fname, values)


def timed_trace(cap: CapturedRun, options: TracerOptions):
    """Replay *cap* into a fresh Pilgrim tracer built from *options*;
    returns ``(seconds, tracer)``: the time inside the hooks plus
    ``compress_ranks``, so every call has been through CST and Sequitur
    when the clock stops."""
    tracer = make_tracer("pilgrim", options)
    seconds = cap.timed_replay(tracer)
    start = perf_counter()
    tracer.compress_ranks()
    return seconds + (perf_counter() - start), tracer


@register("hotpath",
          "per-call tracing time over a null-backend run, aggregate vs "
          "lossy timing")
def _hotpath(params: dict):
    families = list(params.setdefault("families", list(DEFAULT_FAMILIES)))
    nprocs = int(params.setdefault("nprocs", 8))
    seed = int(params.setdefault("seed", 1))
    captures = [CapturedRun.record(f, nprocs, seed=seed) for f in families]

    def sample() -> dict:
        out: dict = {}
        for cap in captures:
            fam = cap.family
            per_call_us = 1e6 / max(cap.n_calls, 1)
            t_percall, _ = timed_trace(cap, TracerOptions())
            t_lossy, _ = timed_trace(cap, TracerOptions(lossy_timing=True))
            start = perf_counter()
            make(fam, nprocs).run(seed=seed, tracer=make_tracer("null"))
            t_null = perf_counter() - start
            out[f"{fam}.us_per_call"] = t_percall * per_call_us
            out[f"{fam}.encode_us_per_call"] = \
                cap.timed_replay(_EncodeOnly()) * per_call_us
            out[f"{fam}.null_us_per_call"] = t_null * per_call_us
            out[f"{fam}.lossy_us_per_call"] = t_lossy * per_call_us
            out[f"{fam}.hot_over_null"] = t_percall / t_null
            out[f"{fam}.lossy_over_percall"] = t_lossy / t_percall
        return out

    return sample
