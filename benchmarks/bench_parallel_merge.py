"""Parallel tree-reduction merge — serial vs ``jobs=2`` vs ``jobs=4``.

The paper's inter-process CST/CFG compression is a ceil(log2 P) tree
reduction run *on the application's own processes* (§3.5, Fig 4), so its
wall time shrinks as P grows.  The repo's finalize runs on one machine;
the sharded pipeline recovers the parallelism with a process pool over
:func:`repro.core.shard.merge_shards`.  This benchmark measures the
finalize reduction at nprocs ∈ {64, 256, 1024} for jobs ∈ {1, 2, 4} and
asserts the property that makes ``--jobs`` safe: every jobs setting
produces **byte-identical** final traces.

At repo scale the shards are small, so pickling + process startup can
eat the win — the numbers recorded into ``benchmarks/results/`` are the
honest account of where the pool starts paying off, not an assertion
that it always does.
"""

from __future__ import annotations

import time

from conftest import once, save_results
from repro.analysis import fmt_time, print_table
from repro.core import TracePipeline
from repro.core.shard import RankCompressor
from repro.core.encoder import CommIdSpace
from repro.mpisim.comm import Comm, Group

PROCS = (64, 256, 1024)
JOBS = (1, 2, 4)
#: per-rank synthetic stream length: long enough that each shard carries
#: a real grammar, short enough that 1024 ranks stay benchmark-friendly
CALLS_PER_RANK = 120


def _synthetic_shards(nprocs: int) -> list:
    """Freeze one shard per rank from a synthetic SPMD-ish stream: a
    common iteration pattern plus a rank-class-dependent tail, so the
    reduction meets both duplicate and novel signatures at every level
    (the regime Fig 4's dedup argument is about)."""
    comm_space = CommIdSpace(nprocs)
    world = Comm(cid=0, group=Group(range(nprocs)), name="MPI_COMM_WORLD")
    shards = []
    for rank in range(nprocs):
        rc = RankCompressor(rank, comm_space)
        t = 0.0
        for i in range(CALLS_PER_RANK):
            peer = (rank + 1 + (i % (1 + rank % 4))) % nprocs
            # buf, count, datatype, dest, tag, comm
            values = (None, 64 + 8 * (i % 3), None, peer, i % 5, world)
            rc.observe("MPI_Send", values, t, t + 1e-6)
            t += 2e-6
        shards.append(rc.freeze())
    return shards


def test_parallel_merge_scaling(benchmark):
    def run():
        rows = []
        for nprocs in PROCS:
            shards = _synthetic_shards(nprocs)
            traces = {}
            timings = {}
            for jobs in JOBS:
                pipe = TracePipeline(jobs=jobs)
                t0 = time.perf_counter()
                final = pipe.reduce(list(shards))
                timings[jobs] = time.perf_counter() - t0
                traces[jobs] = pipe.serialize(final).trace_bytes
            rows.append((nprocs, timings, traces))
        return rows

    rows = once(benchmark, run)
    print_table(
        "parallel tree-reduction merge: finalize reduce wall time",
        ["nprocs", "shards", *(f"jobs={j}" for j in JOBS), "speedup x4"],
        [(nprocs, nprocs, *(fmt_time(t[j]) for j in JOBS),
          f"{t[1] / t[4]:.2f}x") for nprocs, t, _ in rows],
        note="byte-identical traces asserted across all jobs settings; "
             "pool pays off only once shards outweigh pickling costs")
    save_results("parallel_merge", [
        {"nprocs": nprocs, "calls_per_rank": CALLS_PER_RANK,
         "reduce_seconds": {str(j): t[j] for j in JOBS},
         "speedup_vs_serial": {str(j): t[1] / t[j] for j in JOBS},
         "trace_size": len(traces[1])}
        for nprocs, t, traces in rows])

    for nprocs, _, traces in rows:
        reference = traces[1]
        assert reference, nprocs
        for jobs in JOBS[1:]:
            assert traces[jobs] == reference, (nprocs, jobs)
