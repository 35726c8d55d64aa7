"""The hot-path caches are pure accelerators.

The encoder signature cache and the CST identity fast path must be
invisible everywhere except the clock: byte-identical traces against
the uncached walk (the oracle of ``test_encoder_oracle.py``) across
workload families, timing modes and the parallel finalize, reset at
shard-freeze time, and never serialized.  Plus the regression gate of
``repro bench --compare``.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import bench
from repro.bench import Benchmark, compare_results, run_benchmark
from repro.bench.capture import CapturedRun
from repro.cli import main as cli_main
from repro.core.backends import TracerOptions, make_tracer
from repro.core.tracer import TIMING_AGGREGATE, TIMING_LOSSY
from repro.workloads import make
from test_encoder_oracle import OracleTracer

FAMILIES = ("stencil2d", "osu_latency", "npb_mg", "flash_sedov",
            "milc_su3_rmd")


def _trace_bytes(family: str, nprocs: int, seed: int, *,
                 cached: bool, lossy: bool = False) -> bytes:
    if cached:
        tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=lossy))
    else:
        tracer = OracleTracer(
            timing_mode=TIMING_LOSSY if lossy else TIMING_AGGREGATE)
    make(family, nprocs).run(seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


class TestCacheIsInvisible:
    @settings(max_examples=8, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           nprocs=st.sampled_from([2, 4]),
           seed=st.integers(0, 2**16),
           lossy=st.booleans())
    def test_cached_trace_is_byte_identical(self, family, nprocs, seed,
                                            lossy):
        a = _trace_bytes(family, nprocs, seed, cached=True, lossy=lossy)
        b = _trace_bytes(family, nprocs, seed, cached=False, lossy=lossy)
        assert a == b

    @pytest.mark.parametrize("family", ["stencil2d", "milc_su3_rmd"])
    def test_identical_under_parallel_finalize(self, family):
        a = _trace_bytes(family, 4, 7, cached=True)
        b = _trace_bytes(family, 4, 7, cached=False)
        assert a == b


class TestCacheLifecycle:
    @pytest.fixture()
    def warm_compressor(self):
        """A rank compressor mid-run, caches populated, not yet frozen."""
        cap = CapturedRun.record("stencil2d", 4, seed=3)
        tracer = make_tracer("pilgrim", TracerOptions())
        cap.replay(tracer)
        return tracer.ranks[0]

    def test_freeze_resets_caches(self, warm_compressor):
        rc = warm_compressor
        assert rc.encoder.cache_size > 0
        assert rc.cst._last_sig is not None or rc.cst._by_id
        rc.freeze()
        assert rc.encoder.cache_size == 0
        assert rc.cst._last_sig is None
        assert not rc.cst._by_id

    def test_encoder_never_pickles_cache(self, warm_compressor):
        enc = warm_compressor.encoder
        assert enc.cache_size > 0
        state = enc.__getstate__()
        assert state["_sig_cache"] == {}
        # forces an epoch resync on first encode after unpickling
        assert state["_mem_epoch"] == -1

    def test_cst_never_pickles_fast_path(self, warm_compressor):
        cst = warm_compressor.cst
        clone = pickle.loads(pickle.dumps(cst))
        assert clone._last_sig is None
        assert clone._by_id == {}
        assert clone.sigs == cst.sigs
        assert clone.counts == cst.counts
        # the clone still interns correctly after losing the fast path
        sig = cst.sigs[0]
        term = clone.intern(sig, 0.0)
        assert term == cst._table[sig]


class TestReplayHarness:
    def test_replay_matches_live_run(self):
        live = make_tracer("pilgrim", TracerOptions())
        make("osu_latency", 4).run(seed=5, tracer=live)
        cap = CapturedRun.record("osu_latency", 4, seed=5)
        replayed = make_tracer("pilgrim", TracerOptions())
        cap.replay(replayed, finish=True)
        assert replayed.result.trace_bytes == live.result.trace_bytes


class TestBenchHarness:
    @pytest.fixture()
    def dummy_bench(self):
        state = {"value": 1.0}

        def factory(params):
            def sample():
                return {"dummy.time_ms": state["value"]}
            return sample

        assert "dummy" not in bench.REGISTRY
        bench.REGISTRY["dummy"] = Benchmark("dummy", "test-only", factory)
        try:
            yield state
        finally:
            del bench.REGISTRY["dummy"]

    def test_run_benchmark_document(self, dummy_bench):
        doc = run_benchmark("dummy", repeats=3, warmup=0)
        assert doc["benchmark"] == "dummy"
        assert doc["metrics"] == {"dummy.time_ms": 1.0}
        assert doc["stats"]["dummy.time_ms"]["samples"] == [1.0] * 3
        assert doc["repeats"] == 3

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            run_benchmark("no-such-bench")

    def test_compare_flags_regressions_and_missing(self):
        baseline = {"metrics": {"a.ms": 10.0, "b.ms": 5.0, "gone.ms": 1.0}}
        current = {"metrics": {"a.ms": 13.0, "b.ms": 5.5}}
        regressions, missing = compare_results(current, baseline, 25.0)
        assert [r.metric for r in regressions] == ["a.ms"]
        assert regressions[0].limit == pytest.approx(12.5)
        assert missing == ["gone.ms"]
        regressions, _ = compare_results(current, baseline, 50.0)
        assert regressions == []

    def _write_baseline(self, path, metrics):
        path.write_text(json.dumps({"benchmark": "dummy",
                                    "metrics": metrics}))

    def test_cli_gate_passes_within_budget(self, dummy_bench, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        dummy_bench["value"] = 1.05
        self._write_baseline(tmp_path / "base.json", {"dummy.time_ms": 1.0})
        rc = cli_main(["bench", "dummy", "--repeats", "2", "--warmup", "0",
                       "--compare", "base.json", "--max-regression", "10"])
        assert rc == 0
        assert (tmp_path / "BENCH_dummy.json").exists()
        assert (tmp_path / "benchmarks/results/dummy.json").exists()

    def test_cli_gate_fails_on_regression(self, dummy_bench, tmp_path,
                                          monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        dummy_bench["value"] = 1.5
        self._write_baseline(tmp_path / "base.json", {"dummy.time_ms": 1.0})
        rc = cli_main(["bench", "dummy", "--repeats", "2", "--warmup", "0",
                       "--compare", "base.json", "--max-regression", "10"])
        assert rc == 1
        assert "REGRESSION dummy.time_ms" in capsys.readouterr().out

    def test_cli_gate_fails_on_missing_metric(self, dummy_bench, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._write_baseline(tmp_path / "base.json", {"renamed.ms": 1.0})
        rc = cli_main(["bench", "dummy", "--repeats", "1", "--warmup", "0",
                       "--compare", "base.json", "--max-regression", "10"])
        assert rc == 1
        assert "MISSING" in capsys.readouterr().out

    def test_cli_list(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("hotpath", "finalize", "decode"):
            assert name in out
