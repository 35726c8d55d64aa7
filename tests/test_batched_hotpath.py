"""``TracerOptions.batch_size`` selects nothing.

Every call takes ``RankCompressor.observe``: the columnar batched entry
(``observe_batched`` / ``flush_batch``, with ``CST.intern_batch`` and
``TimingCompressor.record_batch``) is gone.  The field is still accepted
and checked, and read by nothing, because the e2e benchmark's workloads
set it.  These tests, named for the entry they used to hold, pin that
it is inert: any batch size traces the default's bytes across families,
process counts and timing modes, and no rank keeps a call buffer behind
for finalize to drain.  Plus the plumbing of
the hot-path bench.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import run_benchmark
from repro.bench.capture import CapturedRun
from repro.bench.hotpath import timed_trace
from repro.core.backends import TracerOptions, make_tracer
from repro.workloads import make

FAMILIES = ("stencil2d", "osu_latency", "npb_mg", "flash_sedov",
            "milc_su3_rmd")


def _trace_bytes(family: str, nprocs: int, seed: int, *,
                 batch_size: int = 1, lossy: bool = False) -> bytes:
    tracer = make_tracer("pilgrim", TracerOptions(
        lossy_timing=lossy, batch_size=batch_size))
    make(family, nprocs).run(seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


def _no_buffer(tracer, n_calls: int) -> bool:
    """Every call is already in its rank's log."""
    return all(not hasattr(rc, "_batch_n") for rc in tracer.ranks) \
        and sum(rc.observed_calls for rc in tracer.ranks) == n_calls


class TestBatchedByteIdentity:
    @settings(max_examples=8, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           nprocs=st.sampled_from([2, 4]),
           seed=st.integers(0, 2**16),
           lossy=st.booleans(),
           batch_size=st.sampled_from([3, 64, 256]))
    def test_batched_trace_is_byte_identical(self, family, nprocs, seed,
                                             lossy, batch_size):
        a = _trace_bytes(family, nprocs, seed, batch_size=batch_size,
                         lossy=lossy)
        b = _trace_bytes(family, nprocs, seed, lossy=lossy)
        assert a == b

    @pytest.mark.parametrize("family", ["stencil2d", "milc_su3_rmd"])
    def test_identical_under_parallel_finalize(self, family):
        # the parallel finalize is gone too: one serial tree either way
        assert _trace_bytes(family, 4, 7, batch_size=256) == \
            _trace_bytes(family, 4, 7)

    def test_batch_size_one_matches_default(self):
        assert _trace_bytes("osu_latency", 2, 1, batch_size=1) == \
            _trace_bytes("osu_latency", 2, 1)


class TestRecordBatchEntry:
    """The captured-stream replay the hot-path bench times."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_replay_batched_matches_replay(self, family):
        cap = CapturedRun.record(family, 4, seed=2)
        scalar = make_tracer("pilgrim", TracerOptions())
        cap.replay(scalar)
        batched = make_tracer("pilgrim", TracerOptions(batch_size=256))
        cap.replay(batched)
        assert batched.finalize().trace_bytes == \
            scalar.finalize().trace_bytes

    def test_partial_tail_flushed_by_finalize(self):
        # fewer calls than batch_size: there is no tail, every call is
        # logged before finalize runs
        cap = CapturedRun.record("osu_latency", 2, seed=3)
        tracer = make_tracer("pilgrim", TracerOptions(
            batch_size=1 << 20))
        cap.replay(tracer)
        assert _no_buffer(tracer, cap.n_calls)
        plain = make_tracer("pilgrim", TracerOptions())
        cap.replay(plain)
        assert tracer.finalize().trace_bytes == \
            plain.finalize().trace_bytes
        assert tracer.total_calls == cap.n_calls


class TestBenchPlumbing:
    def test_hotpath_bench_emits_lossy_metrics(self):
        doc = run_benchmark("hotpath", repeats=1, warmup=0, params={
            "families": ["osu_latency"], "nprocs": 2})
        assert set(doc["metrics"]) == {
            f"osu_latency.{m}" for m in (
                "us_per_call", "encode_us_per_call", "lossy_us_per_call",
                "null_us_per_call", "hot_over_null",
                "lossy_over_percall")}
        assert all(v > 0 for v in doc["metrics"].values())
        assert "batch_size" not in doc["params"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bench_batched_replay_drains_the_tail(self, family):
        # the timed region covers every call's CST/Sequitur work: each
        # rank's compression of exactly the calls it saw is done
        cap = CapturedRun.record(family, 8, seed=1)
        _, tracer = timed_trace(cap, TracerOptions(batch_size=256))
        assert _no_buffer(tracer, cap.n_calls)
        assert all(rc._frozen[0] == rc.observed_calls
                   for rc in tracer.ranks)
