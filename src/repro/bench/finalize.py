"""Finalize-stage microbenchmark.

Times ``PilgrimTracer.finalize`` — each distinct rank stream's Sequitur,
shard freeze, ceil(log2 P) tree reduction (§3.5), serialization — plus
a cold trace-store ``put`` of the result.  The per-call stream is
replayed untimed into a fresh tracer each repeat (finalize is
destructive of tracer state and idempotently cached); each put lands in
a fresh store root so dedup never flatters the timing.  Beside the
absolute ``<family>.finalize_ms`` / ``store_put_ms``, each family runs
once under the ``null`` backend (``null_ms``): ``finalize_over_null``
and ``store_put_over_null`` are the same-runner ratios CI gates.
"""

from __future__ import annotations

import shutil
import tempfile
from time import perf_counter

from ..core.backends import TracerOptions, make_tracer
from ..workloads import make
from . import register
from .capture import CapturedRun
from .hotpath import DEFAULT_FAMILIES


@register("finalize",
          "finalize time over a null-backend run, plus a cold "
          "trace-store put")
def _finalize(params: dict):
    from ..store import TraceStore
    families = list(params.setdefault("families", list(DEFAULT_FAMILIES)))
    nprocs = int(params.setdefault("nprocs", 8))
    seed = int(params.setdefault("seed", 1))
    captures = [CapturedRun.record(f, nprocs, seed=seed) for f in families]

    def sample() -> dict:
        out: dict = {}
        for cap in captures:
            fam = cap.family
            start = perf_counter()
            make(fam, nprocs).run(seed=seed, tracer=make_tracer("null"))
            out[f"{fam}.null_ms"] = (perf_counter() - start) * 1e3
            tracer = make_tracer("pilgrim", TracerOptions())
            cap.replay(tracer)
            start = perf_counter()
            tracer.finalize()
            out[f"{fam}.finalize_ms"] = (perf_counter() - start) * 1e3
            root = tempfile.mkdtemp(prefix="repro-bench-store-")
            try:
                start = perf_counter()
                TraceStore(root).put(tracer.result.trace_bytes, fam)
                out[f"{fam}.store_put_ms"] = (perf_counter() - start) * 1e3
            finally:
                shutil.rmtree(root, ignore_errors=True)
            for stage in ("finalize", "store_put"):
                out[f"{fam}.{stage}_over_null"] = \
                    out[f"{fam}.{stage}_ms"] / out[f"{fam}.null_ms"]
        return out

    return sample
