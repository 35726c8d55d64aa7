"""What the whole-chain benchmark measures: the four workloads and every
metric by name, unit, direction and regression bound.

This module is data only.  ``BENCHMARK.json`` at the repository root
repeats the names, units, directions and bounds for the driver;
``test_bench_e2e.py`` pins that the two agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    #: allowed worsening (share of the median) before a change counts as
    #: a regression; None on layer metrics, which carry no bound
    bound: Optional[float] = None
    #: a count made by the program: must repeat exactly for one seed
    exact: bool = False


#: what a user of the system sees, measured on runs with no spans
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("chain_s", "s", "lower", 0.20),
    Metric("tracer_us_per_call", "us", "lower", 0.25),
    Metric("trace_bytes", "bytes", "lower", 0.05, exact=True),
    Metric("decode_calls_per_s", "calls/s", "higher", 0.20),
    Metric("replay_calls_per_s", "calls/s", "higher", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: the chain's layers, outside in; ``share.<layer>`` is the layer's self
#: time as a fraction of the traced chain pass
LAYERS = ("mpisim", "core_hot", "core_finalize", "decoder", "store",
          "ingest", "replay", "harness")


def _layer(name: str, unit: str, better: str = "lower",
           exact: bool = False) -> Metric:
    return Metric(name, unit, better, None, exact)


#: one traced pass of the same chain yields these
PER_LAYER = (
    # mpisim + workloads: the untraced "application"
    _layer("mpisim.run_s", "s"),
    _layer("mpisim.us_per_call", "us"),
    _layer("mpisim.sched_steps", "count", exact=True),
    # core hot path (encode -> CST -> Sequitur -> timing), proxy-timed
    _layer("core.hot_us_per_call", "us"),
    _layer("core.calls", "count", exact=True),
    _layer("core.signatures", "count", exact=True),
    _layer("core.unique_grammars", "count", exact=True),
    _layer("core.overhead_ratio", "ratio"),
    # core finalize (freeze + tree-reduce + serialize)
    _layer("core.finalize_ms", "ms"),
    _layer("core.freeze_ms", "ms"),
    _layer("core.reduce_ms", "ms"),
    _layer("core.serialize_ms", "ms"),
    _layer("core.cst_bytes", "bytes", exact=True),
    _layer("core.cfg_bytes", "bytes", exact=True),
    _layer("core.timing_bytes", "bytes", exact=True),
    # core.decoder
    _layer("decode.parse_ms", "ms"),
    _layer("decode.expand_ms", "ms"),
    # store
    _layer("store.archive_ms", "ms"),
    _layer("store.put_cold_ms", "ms"),
    _layer("store.put_warm_ms", "ms"),
    _layer("store.get_ms", "ms"),
    _layer("store.reused_fraction", "ratio", "higher", exact=True),
    _layer("store.disk_bytes_per_trace_byte", "ratio", exact=True),
    _layer("store.gc_ms", "ms"),
    # ingest (all zero outside ingest_stream)
    _layer("ingest.push_calls_per_s", "calls/s", "higher"),
    _layer("ingest.ack_p50_ms", "ms"),
    _layer("ingest.ack_p99_ms", "ms"),
    _layer("ingest.frame_us_per_chunk", "us"),
    _layer("ingest.fold_us_per_chunk", "us"),
    _layer("ingest.fold_finish_ms", "ms"),
    _layer("ingest.chunks", "count", exact=True),
    _layer("ingest.bytes_sent", "bytes", exact=True),
    _layer("ingest.reconnects", "count"),
    # replay
    _layer("replay.directed_s", "s"),
    _layer("replay.over_mpisim", "ratio"),
    _layer("replay.whatif_s", "s"),
    # obs
    _layer("obs.on_over_off", "ratio"),
    _layer("obs.spans", "count", exact=True),
    # harness: the layers must sum to the chain
    *(_layer(f"share.{layer}", "ratio") for layer in LAYERS),
    _layer("unattributed_fraction", "ratio"),
    _layer("tracing_overhead_fraction", "ratio"),
    _layer("harness.calibration_ms", "ms"),
    _layer("failed_fraction", "ratio"),
)

#: unattributed time above this share of the traced chain fails the run
MAX_UNATTRIBUTED = 0.05


@dataclass(frozen=True)
class Unit:
    """One trace of a workload: a registered family at fixed size, run
    under one derived seed, archived under one store name."""
    family: str
    nprocs: int
    seed: int
    name: str
    params: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (family, nprocs, params) — sizes are constants, never adaptive
    families: tuple
    seeds_per_family: int = 1
    lossy_timing: bool = False
    batch_size: int = 1
    #: produce by ``api.push`` to a live ``api.serve`` instead of
    #: ``api.trace``
    push: bool = False
    #: fixed number of extra decodes of every trace after each chain pass
    k_decode: int = 1

    def units(self, seed: int) -> list[Unit]:
        """Every trace of one pass.  ``--seed`` derives each unit's seed
        (a string-seeded generator, so ``PYTHONHASHSEED`` has no say);
        the program only ever receives these generated inputs."""
        rng = random.Random(f"e2e/{self.name}/{seed}")
        out = []
        for family, nprocs, params in self.families:
            for i in range(self.seeds_per_family):
                out.append(Unit(family, nprocs, rng.getrandbits(31),
                                f"{family}-{i}", tuple(params.items())))
        return out


_FLEET = ("osu_allreduce", "osu_alltoall", "osu_bcast", "osu_bw",
          "osu_put_latency", "mw_sweep", "npb_cg", "npb_is", "npb_lu",
          "milc_su3_rmd", "stencil2d_rma", "stencil3d", "flash_stirturb")

#: the fleet family the what-if replay probe runs on
WHATIF_FAMILY = "mw_sweep"
WHATIF_NET = "alpha=4e-6,beta=8e-10"

#: ``api.push(chunk_calls=...)``: traced calls between partial flushes
INGEST_CHUNK_CALLS = 256

WORKLOADS = (
    Workload(
        "steady_p2p",
        "Perfectly regular stencil, per-call path: one tiny trace, so the "
        "hot path and the simulator do nearly all the work; finalize, "
        "decode and store changes should move nothing here.",
        (("stencil2d", 16, {"iters": 30}),),
        seeds_per_family=4, k_decode=15),
    Workload(
        "amr_lossy",
        "Irregular AMR drift with lossy timing through the batched entry: "
        "27 distinct grammars and a large CST, so finalize, timing "
        "compression and decode do real work.",
        (("flash_cellular", 27, {"iters": 12}),),
        seeds_per_family=3, lossy_timing=True, batch_size=256,
        k_decode=1),
    Workload(
        "ingest_stream",
        "Four tenants pushed chunk by chunk to a live ingest server: the "
        "only workload with protocol framing, the incremental fold and "
        "the server-side archive on the path.",
        (("flash_sedov", 16, {"iters": 20}),),
        seeds_per_family=4, push=True, k_decode=15),
    Workload(
        "fleet_small",
        "26 small traces of 13 families into one store: per-trace fixed "
        "cost (construction, manifests, dedup, parse, replay start-up) "
        "dominates per-call cost.",
        tuple((fam, 4, {}) for fam in _FLEET),
        seeds_per_family=2, k_decode=3),
)

BY_NAME = {w.name: w for w in WORKLOADS}
