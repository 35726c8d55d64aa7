"""Decode microbenchmark.

Times the consumer side: parsing a serialized trace (``parse_ms``: the
section CRCs, inflate and the packing codec under ``from_bytes``) and
expanding every rank's grammar back to its full terminal stream
(``expand_ms``: "recursive rule application", §3.6), plus the
trace-store read path — reassembling and integrity-verifying a stored
run (``store.get``).  Trace blobs are produced and stored once at setup;
per sample, on the same runner, each family is also run once under the
``null`` backend, so two kinds of metric come out:

* ``<family>.parse_ms`` / ``expand_ms`` / ``decode_ms`` (their sum) /
  ``store_get_ms`` — absolute times, for humans (``BENCH_decode.json``),
  and ``null_us_per_call``, the denominator of the ratio below per
  decoded call: when the ratio moves the JSON says which side did;
* ``<family>.decode_over_null`` / ``decode_over_null`` — decode time over
  the untraced run that produced the calls (and summed over families) —
  and ``<family>.trace_bytes``, the size of the blob being parsed, an
  exact count.  Machine-independent, so these are what CI gates;
* ``<family>.retained_kib`` — what a finished tracer keeps alive — and
  ``<family>.parsed_kib`` — what one :class:`TraceDecoder` holds after
  ``all_terminals()`` — both counted once at setup by ``tracemalloc``
  (exact counts, IQR 0; not gated).

The regular :data:`~repro.bench.hotpath.DEFAULT_FAMILIES` compress to a
few hundred bytes and decode in about a millisecond whatever the codec
costs; ``flash_cellular`` with lossy timing (irregular AMR drift: one
grammar per rank, a CST of hundreds of signatures, timing sections) is
the family whose decode time is parsing.
"""

from __future__ import annotations

import gc
import tempfile
from time import perf_counter

from ..core.backends import TracerOptions, make_tracer
from ..core.decoder import TraceDecoder
from ..workloads import make
from . import register
from .hotpath import DEFAULT_FAMILIES

#: families traced with ``lossy_timing=True`` (timing sections to parse)
LOSSY_FAMILIES = ("flash_cellular",)


def _kib_held(build) -> float:
    """KiB still allocated once *build*'s result is made and the garbage
    collected, the result itself alive (``tracemalloc``)."""
    import tracemalloc  # only here: importing the package loads none of it
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build()
        gc.collect()
        kib = (tracemalloc.get_traced_memory()[0] - before) / 1024
    finally:
        tracemalloc.stop()
    del held
    return kib


def _finished_tracer(fam: str, nprocs: int, seed: int):
    tracer = make_tracer("pilgrim", TracerOptions(
        lossy_timing=fam in LOSSY_FAMILIES))
    make(fam, nprocs).run(seed=seed, tracer=tracer)
    return tracer


def _parsed(blob: bytes) -> TraceDecoder:
    decoder = TraceDecoder.from_bytes(blob)
    decoder.all_terminals()
    return decoder


@register("decode", "trace parse + full grammar expansion time over a "
                    "null-backend run, plus the trace-store read path")
def _decode(params: dict):
    from ..store import TraceStore
    families = list(params.setdefault(
        "families", list(DEFAULT_FAMILIES + LOSSY_FAMILIES)))
    nprocs = int(params.setdefault("nprocs", 8))
    seed = int(params.setdefault("seed", 1))
    blobs = []
    total_calls = 0
    for fam in families:
        tracer = _finished_tracer(fam, nprocs, seed)
        blobs.append((fam, tracer.result.trace_bytes))
        total_calls += tracer.result.total_calls
    # the first run of each family above made its lazily built tables
    # (encoder plans and the like): these count what one more run keeps
    held = {}
    for fam, blob in blobs:
        held[f"{fam}.retained_kib"] = _kib_held(
            lambda fam=fam: _finished_tracer(fam, nprocs, seed))
        held[f"{fam}.parsed_kib"] = _kib_held(lambda blob=blob: _parsed(blob))
    # held in the sample closure so the store outlives setup; cleaned
    # up by the TemporaryDirectory finalizer on release
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
    store = TraceStore(tmp.name)
    runs = {fam: store.put(blob, fam).run_id for fam, blob in blobs}

    def sample(_tmp=tmp) -> dict:
        out: dict = dict(held)
        total_ms = total_null_ms = 0.0
        for fam, blob in blobs:
            start = perf_counter()
            decoder = TraceDecoder.from_bytes(blob)
            parsed = perf_counter()
            decoder.all_terminals()
            done = perf_counter()
            store.get(runs[fam])
            got = perf_counter()
            make(fam, nprocs).run(seed=seed, tracer=make_tracer("null"))
            null_ms = (perf_counter() - got) * 1e3
            ms = (done - start) * 1e3
            out[f"{fam}.trace_bytes"] = len(blob)
            out[f"{fam}.parse_ms"] = (parsed - start) * 1e3
            out[f"{fam}.expand_ms"] = (done - parsed) * 1e3
            out[f"{fam}.decode_ms"] = ms
            out[f"{fam}.store_get_ms"] = (got - done) * 1e3
            out[f"{fam}.decode_over_null"] = ms / null_ms
            total_ms += ms
            total_null_ms += null_ms
        out["decode_over_null"] = total_ms / total_null_ms
        out["null_us_per_call"] = 1e3 * total_null_ms / max(total_calls, 1)
        return out

    return sample
