"""Replay microbenchmark.

Times the re-execution side: a directed replay with the lockstep
comparator attached (exactly what ``repro replay`` / ``api.replay``
runs on the identical-conditions path).  Trace blobs are captured once
at setup; per sample every family is replayed and, on the same runner,
the same workload is run once under the ``null`` backend (the
simulator's own cost with nothing recorded), so two kinds of metric
come out:

* ``<family>.replay_ms`` / ``replay_ms_per_call`` — absolute times, for
  humans (``BENCH_replay.json``); per recorded call so the headline
  stays comparable as family call counts evolve — and
  ``null_us_per_call``, the denominator of the ratio below per recorded
  call: when the ratio moves the JSON says which side did;
* ``<family>.replay_over_null`` / ``replay_over_null`` — replay time over
  the untraced run of the same family (and summed over families): what
  re-execution costs on top of the simulation it has to do anyway.
  Machine-independent, so this is what CI gates.
"""

from __future__ import annotations

from time import perf_counter

from ..core.backends import TracerOptions, make_tracer
from ..core.decoder import TraceDecoder
from ..workloads import make
from . import register
from .hotpath import DEFAULT_FAMILIES


@register("replay", "directed replay + lockstep divergence check time")
def _replay(params: dict):
    from ..replay.divergence import run_divergence
    families = list(params.setdefault("families", list(DEFAULT_FAMILIES)))
    nprocs = int(params.setdefault("nprocs", 8))
    seed = int(params.setdefault("seed", 1))
    blobs = []
    total_calls = 0
    for fam in families:
        tracer = make_tracer("pilgrim", TracerOptions())
        make(fam, nprocs).run(seed=seed, tracer=tracer)
        blob = tracer.result.trace_bytes
        calls = TraceDecoder.from_bytes(blob).call_count()
        total_calls += calls
        blobs.append((fam, blob))

    def sample() -> dict:
        out: dict = {}
        total_ms = total_null_ms = 0.0
        for fam, blob in blobs:
            start = perf_counter()
            res = run_divergence(blob)
            ms = (perf_counter() - start) * 1e3
            if res.diverged:  # a diverged fixed point is a broken bench
                raise RuntimeError(
                    f"identical-conditions replay of {fam} diverged: "
                    f"{res.summary()}")
            start = perf_counter()
            make(fam, nprocs).run(seed=seed, tracer=make_tracer("null"))
            null_ms = (perf_counter() - start) * 1e3
            out[f"{fam}.replay_ms"] = ms
            out[f"{fam}.replay_over_null"] = ms / null_ms
            total_ms += ms
            total_null_ms += null_ms
        out["replay_ms_per_call"] = total_ms / max(total_calls, 1)
        out["null_us_per_call"] = 1e3 * total_null_ms / max(total_calls, 1)
        out["replay_over_null"] = total_ms / total_null_ms
        return out

    return sample
