"""Finalize-stage microbenchmark.

Times ``PilgrimTracer.finalize`` — each distinct rank stream's Sequitur,
shard freeze, the one-pass reduce (§3.5's merge), serialization — plus
a cold trace-store ``put`` of the result.  The per-call stream is
replayed untimed into a fresh tracer each repeat (finalize is
destructive of tracer state and idempotently cached); each put lands in
a fresh store root so dedup never flatters the timing.  Beside the
absolute ``<family>.finalize_ms`` / ``store_put_ms``, each family runs
once under the ``null`` backend (``null_ms``): ``finalize_over_null``
and ``store_put_over_null`` are the same-runner ratios CI gates.

Per family and rank count it also reports ``finalize_us_per_rank``, the
finalize phases the result records (``<phase>_ms``: ``shard``,
``cst_merge`` — the reduce — ``cfg_merge``, ``serialize``), the exact
``trace_bytes``, and ``tree_critical_ms``: the log P pair-merge tree
(the reduce's oracle) run over the same shards, its slowest pair merge
per level summed — the time Pilgrim's parallel merge would take, the
number comparable to the paper's.  A family may carry workload
parameters (``stencil2d:iters=3``).  With several rank counts every key
is ``<family>@<P>.<metric>``, and ``<family>.finalize_slope_4p`` is the
largest t(4P) / t(P) over the rank counts given.
"""

from __future__ import annotations

import shutil
import tempfile
from time import perf_counter

from ..core.backends import TracerOptions, make_tracer
from ..core.pipeline import tree_reduce
from ..core.shard import merge_shards
from ..workloads import make
from . import register
from .capture import CapturedRun
from .hotpath import DEFAULT_FAMILIES

#: the finalize phases reported per family (``PilgrimResult.phases``)
PHASES = ("shard", "cst_merge", "cfg_merge", "timing_merge", "serialize")


def _family(spec: str) -> tuple[str, dict]:
    """``name[:key=value,...]`` → the family and its workload params."""
    name, _, opts = spec.partition(":")
    params = {}
    for pair in filter(None, opts.split(",")):
        key, _, value = pair.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return name, params


def tree_critical_ms(shards) -> float:
    """The oracle tree over *shards*, its slowest pair merge per level
    summed (a level's merges are independent, so P processes run them
    at once)."""
    times = []

    def timed(a, b):
        start = perf_counter()
        out = merge_shards(a, b)
        times.append(perf_counter() - start)
        return out

    tree_reduce(shards, timed)
    total, n, at = 0.0, len(shards), 0
    while n > 1:
        pairs = n // 2
        total += max(times[at:at + pairs])
        at += pairs
        n -= pairs
    return total * 1e3


@register("finalize",
          "finalize time and phases over a null-backend run, the tree "
          "oracle's critical path, plus a cold trace-store put")
def _finalize(params: dict):
    from ..store import TraceStore
    specs = list(params.setdefault("families", list(DEFAULT_FAMILIES)))
    nprocs = params.setdefault("nprocs", 8)
    ranks = [int(p) for p in nprocs] if isinstance(nprocs, list) \
        else [int(nprocs)]
    seed = int(params.setdefault("seed", 1))
    runs = []
    for spec in specs:
        fam, wl = _family(spec)
        for p in ranks:
            key = fam if len(ranks) == 1 else f"{fam}@{p}"
            runs.append((key, fam, p, wl,
                         CapturedRun.record(fam, p, seed=seed, **wl)))

    def sample() -> dict:
        out: dict = {}
        for key, fam, p, wl, cap in runs:
            start = perf_counter()
            make(fam, p, **wl).run(seed=seed, tracer=make_tracer("null"))
            out[f"{key}.null_ms"] = (perf_counter() - start) * 1e3
            tracer = make_tracer("pilgrim", TracerOptions())
            cap.replay(tracer)
            start = perf_counter()
            tracer.finalize()
            ms = out[f"{key}.finalize_ms"] = (perf_counter() - start) * 1e3
            out[f"{key}.finalize_us_per_rank"] = ms * 1e3 / p
            result = tracer.result
            for phase in PHASES:
                if phase in result.phases:
                    out[f"{key}.{phase}_ms"] = result.phases[phase] * 1e3
            out[f"{key}.trace_bytes"] = result.trace_size
            root = tempfile.mkdtemp(prefix="repro-bench-store-")
            try:
                start = perf_counter()
                TraceStore(root).put(result.trace_bytes, fam)
                out[f"{key}.store_put_ms"] = (perf_counter() - start) * 1e3
            finally:
                shutil.rmtree(root, ignore_errors=True)
            out[f"{key}.tree_critical_ms"] = tree_critical_ms(
                [rc.freeze() for rc in tracer.ranks])
            for stage in ("finalize", "store_put"):
                out[f"{key}.{stage}_over_null"] = \
                    out[f"{key}.{stage}_ms"] / out[f"{key}.null_ms"]
        for _, fam, p, _, _ in runs:
            big = out.get(f"{fam}@{4 * p}.finalize_ms")
            if big is not None:
                slope = big / out[f"{fam}@{p}.finalize_ms"]
                name = f"{fam}.finalize_slope_4p"
                out[name] = max(out.get(name, 0.0), slope)
        return out

    return sample
