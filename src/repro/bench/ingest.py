"""Ingest microbenchmark.

Times the shipping side: a workload traced by a
:class:`~repro.ingest.client.ChunkingTracer` whose flushes go through an
:class:`~repro.ingest.client.IngestClient` to an ingest server running on
a thread of the same process — what ``repro push`` / ``api.push`` does —
and, on the same runner right after it, ``api.trace`` of the same
workload in-process.  The pushed trace must equal the in-process one
byte for byte, or the sample raises.  Five kinds of metric come out:

* ``<family>.push_ms`` / ``trace_ms`` — absolute times, for humans
  (``BENCH_ingest.json``), and ``trace_us_per_call``, the denominator of
  the ratio below per traced call: when the ratio moves the JSON says
  which side did;
* ``<family>.push_over_trace`` / ``push_over_trace`` — push time over
  the in-process trace of the same family (and summed over families):
  what streaming the trace out costs on top of producing it.
  Machine-independent, so this is what CI gates;
* ``wire_bytes_per_call`` / ``sendalls_per_kcall`` — what the client
  wrote to its socket (every frame: HELLO, CHUNKs, FIN) per traced call
  and socket writes per thousand calls.  Exact counts, not timings: they
  repeat on every sample and move only when the wire shape does;
* ``codec_write_us_per_partial`` / ``codec_read_us_per_partial`` — the
  flush record's writer and reader alone, over every flush of every
  family (captured once, outside the timing), per partial carried: the
  phase of ``push - trace`` that is the codec, once on each side;
* ``fold_us_per_call.short`` / ``.long`` and ``fold_long_over_short`` —
  absorb plus finish of a local fold (an :class:`~repro.ingest.Aggregator`
  with no socket) of ``stencil2d``/4, lossy, flushed every 16 calls, at
  ``iters`` 75 and 600 (past ``LOG_LIMIT`` per rank); a fold that slows
  as its stream grows reads above 1.

``chunk_calls=256`` (the ``repro push`` default) over the 8 ranks
``repro bench`` passes (``-n``; 16 when ``run_benchmark`` is called
without ``nprocs``) makes a flush cover many ranks, which is the case
the one-CHUNK-per-flush wire unit exists for.
"""

from __future__ import annotations

import weakref
from time import perf_counter

from .. import api
from ..workloads import make
from . import register

#: regular stencil, AMR-style irregular exchange, collectives-heavy QCD
FAMILIES = ("stencil2d", "flash_sedov", "milc_su3_rmd")


@register("ingest", "push to an in-thread ingest server over an "
                    "in-process trace of the same workload, plus wire "
                    "bytes and socket writes per call")
def _ingest(params: dict):
    from ..core.shard import write_flush
    from ..ingest import ChunkingTracer, IngestClient, serve_in_thread
    from ..ingest.aggregator import Aggregator, read_partials
    families = list(params.setdefault("families", list(FAMILIES)))
    nprocs = int(params.setdefault("nprocs", 16))
    seed = int(params.setdefault("seed", 1))
    chunk_calls = int(params.setdefault("chunk_calls", 256))
    flushes: list = []
    for fam in families:
        make(fam, nprocs).run(seed=seed, noise=0.05, tracer=ChunkingTracer(
            emit_flush=flushes.append, chunk_calls=chunk_calls))
    n_partials = sum(map(len, flushes))
    arms = {}
    for arm, iters in (("short", 75), ("long", 600)):
        tracer = ChunkingTracer(emit_flush=(flushed := []).append,
                                chunk_calls=16, timing_mode="lossy")
        make("stencil2d", 4, iters=iters).run(
            seed=seed, noise=0.05, tracer=tracer)
        arms[arm] = [write_flush(f) for f in flushed], tracer
    folds = Aggregator()
    server = serve_in_thread()

    def push(fam: str) -> tuple[bytes, int, IngestClient]:
        client = IngestClient(server.host, server.port, f"bench-{fam}")
        tracer = ChunkingTracer(emit_flush=client.send_partials,
                                chunk_calls=chunk_calls)
        client.connect(nprocs, tracer.config())
        try:
            make(fam, nprocs).run(seed=seed, tracer=tracer, noise=0.05)
            per_rank = [rc.streamed_calls for rc in tracer.ranks]
            return client.finish(per_rank), sum(per_rank), client
        finally:
            client.close()

    def sample() -> dict:
        out: dict = {}
        push_s = trace_s = 0.0
        calls = wire = writes = 0
        for fam in families:
            start = perf_counter()
            blob, n, client = push(fam)
            pushed = perf_counter()
            ref = api.trace(fam, nprocs, seed=seed).trace_bytes
            traced = perf_counter()
            if blob != ref:  # a fold that drifted is a broken bench
                raise RuntimeError(
                    f"pushed trace of {fam} differs from the in-process "
                    f"trace ({len(blob)} vs {len(ref)} bytes)")
            out[f"{fam}.push_ms"] = (pushed - start) * 1e3
            out[f"{fam}.trace_ms"] = (traced - pushed) * 1e3
            out[f"{fam}.push_over_trace"] = \
                (pushed - start) / (traced - pushed)
            push_s += pushed - start
            trace_s += traced - pushed
            calls += n
            wire += client.bytes_sent
            writes += client.sendalls
        out["push_over_trace"] = push_s / trace_s
        out["trace_us_per_call"] = 1e6 * trace_s / calls
        out["wire_bytes_per_call"] = wire / calls
        out["sendalls_per_kcall"] = 1e3 * writes / calls
        start = perf_counter()
        records = [write_flush(flush, compress=False) for flush in flushes]
        written = perf_counter()
        for record in records:
            read_partials(record)
        out["codec_write_us_per_partial"] = \
            1e6 * (written - start) / n_partials
        out["codec_read_us_per_partial"] = \
            1e6 * (perf_counter() - written) / n_partials
        for arm, (records, tracer) in arms.items():
            fin = [rc.streamed_calls for rc in tracer.ranks]
            start = perf_counter()
            folds.start(arm, len(fin), tracer.config())
            for record in records:
                folds.absorb(arm, record)
            folds.finish(arm, fin)
            out[f"fold_us_per_call.{arm}"] = \
                1e6 * (perf_counter() - start) / sum(fin)
        out["fold_long_over_short"] = \
            out["fold_us_per_call.long"] / out["fold_us_per_call.short"]
        return out

    weakref.finalize(sample, server.stop)
    return sample
