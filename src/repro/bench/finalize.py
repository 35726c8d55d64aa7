"""Finalize-stage microbenchmark.

Times the inter-process half of the pipeline (§3.5): shard freeze →
ceil(log2 P) tree reduction of CSTs and grammars → trace-file
serialization — plus the trace-store write path, a cold ``store.put``
(section split + hashing + CAS writes + manifest) of the serialized
result.  The per-call stream is replayed untimed into a fresh tracer
each repeat (finalize is destructive of tracer state and idempotently
cached, so it cannot be timed twice on one instance); likewise each
put lands in a fresh store root so dedup never flatters the timing.
"""

from __future__ import annotations

import shutil
import tempfile
from time import perf_counter

from ..core.backends import TracerOptions, make_tracer
from . import register
from .capture import CapturedRun
from .hotpath import DEFAULT_FAMILIES


@register("finalize",
          "shard freeze + tree reduction + serialization time, "
          "plus a cold trace-store put")
def _finalize(params: dict):
    from ..store import TraceStore
    families = list(params.setdefault("families", list(DEFAULT_FAMILIES)))
    nprocs = int(params.setdefault("nprocs", 8))
    seed = int(params.setdefault("seed", 1))
    captures = [CapturedRun.record(f, nprocs, seed=seed) for f in families]

    def sample() -> dict:
        out: dict = {}
        for cap in captures:
            tracer = make_tracer("pilgrim", TracerOptions())
            cap.replay(tracer)
            start = perf_counter()
            tracer.finalize()
            out[f"{cap.family}.finalize_ms"] = \
                (perf_counter() - start) * 1e3
            blob = tracer.result.trace_bytes
            root = tempfile.mkdtemp(prefix="repro-bench-store-")
            try:
                start = perf_counter()
                TraceStore(root).put(blob, cap.family)
                out[f"{cap.family}.store_put_ms"] = \
                    (perf_counter() - start) * 1e3
            finally:
                shutil.rmtree(root, ignore_errors=True)
        return out

    return sample
