"""End-to-end Pilgrim tracer tests: lossless round trips on real
workloads, decoder output, ablation toggles, timing mode."""

import pytest

from repro.core import (PilgrimTracer, RoundTrip, TIMING_LOSSY,
                        TraceDecoder, verify_roundtrip)
from repro.mpisim import SimMPI, constants as C, datatypes as dt
from repro.workloads import make


def run_traced(workload, nprocs, seed=1, tracer_kw=None, **params):
    tee = RoundTrip(PilgrimTracer(**(tracer_kw or {})))
    make(workload, nprocs, **params).run(seed=seed, tracer=tee)
    return tee


WORKLOAD_MATRIX = [
    ("stencil2d", 9, {"iters": 10}),
    ("stencil3d", 8, {"iters": 6}),
    ("osu_latency", 2, {"iters": 4}),
    ("osu_bw", 2, {"iters": 3}),
    ("osu_allreduce", 4, {"iters": 3}),
    ("npb_is", 4, {"iters": 4}),
    ("npb_mg", 8, {"iters": 3}),
    ("npb_cg", 8, {"iters": 4}),
    ("npb_lu", 4, {"iters": 4}),
    ("npb_bt", 4, {"iters": 4}),
    ("npb_sp", 9, {"iters": 4}),
    ("flash_stirturb", 8, {"iters": 6}),
    ("flash_sedov", 8, {"iters": 10}),
    ("flash_cellular", 8, {"iters": 12}),
    ("milc_su3_rmd", 16, {"steps": 2, "cg_iters": 3}),
]


class TestLosslessRoundtrip:
    @pytest.mark.parametrize("workload,nprocs,params", WORKLOAD_MATRIX)
    def test_roundtrip(self, workload, nprocs, params):
        tracer = run_traced(workload, nprocs, **params)
        report = verify_roundtrip(tracer)
        assert report.ok, report.mismatches[:5]
        assert report.total_calls == tracer.result.total_calls

    def test_roundtrip_with_lossy_timing(self):
        tracer = run_traced("flash_sedov", 8, iters=8,
                            tracer_kw={"timing_mode": TIMING_LOSSY})
        assert verify_roundtrip(tracer).ok
        sizes = tracer.result.section_sizes()
        assert sizes["timing_duration"] > 0
        assert sizes["timing_interval"] > 0

    def test_roundtrip_under_nondeterminism(self):
        """Waitsome completion orders differ per seed but every run must
        round-trip exactly."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(512)
            for _ in range(10):
                reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                        for t in range(4)]
                for t in range(4):
                    yield from m.send(buf + 256, 1, dt.DOUBLE, dest=peer,
                                      tag=t)
                done = 0
                while done < 4:
                    idxs, _ = yield from m.waitsome(reqs)
                    done += len(idxs)

        for seed in range(5):
            tee = RoundTrip(PilgrimTracer())
            SimMPI(2, seed=seed, tracer=tee).run(prog)
            assert verify_roundtrip(tee).ok

    def test_verify_detects_corruption(self):
        tee = run_traced("stencil2d", 4, iters=5)
        # tamper with the raw stream: verification must fail
        stream = tee.raw.streams[1]
        stream[3] = next(sig for sig in stream if sig != stream[3])
        report = verify_roundtrip(tee)
        assert not report.ok


class TestDecoder:
    def test_function_histogram_matches_call_count(self):
        tracer = run_traced("stencil2d", 4, iters=7)
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        hist = dec.function_histogram()
        assert sum(hist.values()) == tracer.result.total_calls
        assert hist["MPI_Waitall"] == 4 * 7
        assert hist["MPI_Init"] == 4
        assert hist["MPI_Finalize"] == 4

    def test_rank_calls_named_records(self):
        tracer = run_traced("osu_latency", 2, iters=2)
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        calls = list(dec.rank_calls(0))
        assert calls[0].fname == "MPI_Init"
        assert calls[-1].fname == "MPI_Finalize"
        sends = [c for c in calls if c.fname == "MPI_Send"]
        assert sends and all("dest" in c.params for c in sends)

    def test_call_count_per_rank(self):
        tracer = run_traced("npb_lu", 4, iters=3)
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        total = sum(dec.call_count(r) for r in range(4))
        assert total == dec.call_count() == tracer.result.total_calls

    def test_avg_duration_positive(self):
        tracer = run_traced("osu_allreduce", 4, iters=2)
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        allreduce = [c for c in dec.rank_calls(0)
                     if c.fname == "MPI_Allreduce"]
        assert allreduce
        assert all(c.avg_duration >= 0 for c in allreduce)

    def test_materialized_relative_ranks(self):
        def prog(m):
            buf = m.malloc(8)
            me = m.comm_rank()
            n = m.comm_size()
            dest = me + 1 if me < n - 1 else C.PROC_NULL
            src = me - 1 if me > 0 else C.PROC_NULL
            yield from m.send(buf, 1, dt.DOUBLE, dest=dest, tag=1)
            _ = yield from m.recv(buf, 1, dt.DOUBLE, source=src, tag=1)

        tracer = PilgrimTracer()
        SimMPI(4, seed=0, tracer=tracer).run(prog)
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        for rank in range(4):
            sends = [c for c in dec.rank_calls(rank)
                     if c.fname == "MPI_Send"]
            dest = sends[0].materialized()["dest"]
            assert dest == (rank + 1 if rank < 3 else C.PROC_NULL)


class TestAblations:
    def test_relative_ranks_shrink_trace(self):
        with_rel = run_traced("stencil2d", 16, iters=10)
        without = run_traced("stencil2d", 16, iters=10,
                             tracer_kw={"relative_ranks": False})
        assert with_rel.result.n_signatures < without.result.n_signatures
        assert with_rel.result.trace_size < without.result.trace_size
        assert verify_roundtrip(without).ok  # still lossless

    def test_relative_ranks_bound_unique_grammars(self):
        with_rel = run_traced("stencil2d", 16, iters=10)
        without = run_traced("stencil2d", 16, iters=10,
                             tracer_kw={"relative_ranks": False})
        assert with_rel.result.n_unique_grammars == 9
        assert without.result.n_unique_grammars == 16

    def test_cfg_dedup_shrinks_trace(self):
        # 16 ranks but only 9 grammar classes: dedup must pay off
        base = run_traced("stencil2d", 16, iters=10)
        nodedup = run_traced("stencil2d", 16, iters=10,
                             tracer_kw={"cfg_dedup": False})
        assert base.result.n_unique_grammars == 9
        assert nodedup.result.n_unique_grammars == 16
        assert base.result.trace_size < nodedup.result.trace_size
        assert verify_roundtrip(nodedup).ok

    def test_loop_detection_same_sizes(self):
        fast = run_traced("npb_lu", 4, iters=6)
        slow = run_traced("npb_lu", 4, iters=6,
                          tracer_kw={"loop_detection": False})
        assert verify_roundtrip(slow).ok
        # identical final grammars => identical trace bytes
        assert fast.result.trace_bytes == slow.result.trace_bytes


class TestOverheadAccounting:
    def test_timers_populated(self):
        tracer = run_traced("npb_mg", 8, iters=3)
        r = tracer.result
        assert r.time_intra > 0
        assert r.time_cst_merge > 0
        assert r.time_cfg_merge > 0
        breakdown = r.overhead_breakdown()
        assert abs(sum(breakdown.values()) - 1.0) < 1e-9

    def test_per_rank_call_counts(self):
        tracer = run_traced("osu_barrier", 4, iters=2)
        r = tracer.result
        assert len(r.per_rank_calls) == 4
        assert sum(r.per_rank_calls) == r.total_calls
