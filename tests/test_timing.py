"""Tests for lossy timing compression (§3.2, Fig 10)."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.timing import (TimingCompressor, bin_value, reconstruct_times,
                               unbin_value)


class TestBinning:
    def test_relative_error_bound(self):
        b = 1.2
        for x in (1e-7, 3.3e-5, 0.5, 7.0, 123.456):
            rep = unbin_value(bin_value(x, b), b)
            assert x <= rep < x * b * (1 + 1e-12)

    def test_monotone(self):
        b = 1.2
        assert bin_value(1.0, b) <= bin_value(1.3, b) <= bin_value(10.0, b)

    def test_tiny_values_clamped(self):
        assert bin_value(0.0, 1.2) == bin_value(1e-30, 1.2)

    def test_base_affects_precision(self):
        x = 1.234
        fine = unbin_value(bin_value(x, 1.05), 1.05)
        coarse = unbin_value(bin_value(x, 2.0), 2.0)
        assert abs(fine - x) <= abs(coarse - x)

    @given(st.floats(min_value=1e-9, max_value=1e6),
           st.sampled_from([1.05, 1.2, 1.5, 2.0]))
    def test_error_bound_property(self, x, base):
        rep = unbin_value(bin_value(x, base), base)
        assert rep / x >= 1 - 1e-9          # never under-estimates
        assert rep / x <= base * (1 + 1e-9)  # at most a factor of base


class TestCompressorInvalid:
    def test_base_must_exceed_one(self):
        with pytest.raises(ValueError):
            TimingCompressor(base=1.0)


class TestReconstruction:
    def _drive(self, events, base=1.2):
        """events: list of (term, t0, duration)."""
        tc = TimingCompressor(base=base)
        tc.keep_raw = True
        for term, t0, d in events:
            tc.record(term, "MPI_Send", t0, t0 + d)
        dg, ig = tc.freeze()
        recon = reconstruct_times(dg.expand(), ig.expand(),
                                  [t for t, _, _ in events], base)
        return tc, recon

    def test_tstart_error_bounded(self):
        base = 1.2
        events = []
        t = 0.0
        for i in range(200):
            t += 1e-5 * (1 + 0.1 * ((i * 7) % 5))
            events.append((i % 3, t, 2e-6))
        _, recon = self._drive(events, base)
        for (ts, te), (_, true_t0, true_d) in zip(recon, events):
            assert abs(ts - true_t0) / true_t0 <= (base - 1) + 1e-9
            assert te > ts

    def test_duration_error_bounded(self):
        base = 1.3
        events = [(0, 1e-3 * (i + 1), 5e-6 * (1 + (i % 4))) for i in range(50)]
        _, recon = self._drive(events, base)
        for (ts, te), (_, _, true_d) in zip(recon, events):
            d = te - ts
            assert true_d * (1 - 1e-9) <= d <= true_d * base * (1 + 1e-9)

    def test_interval_adjustment_prevents_drift(self):
        """The §3.2 scheme: errors must NOT accumulate over many calls."""
        base = 1.2
        events = [(0, 1e-4 * (i + 1), 1e-6) for i in range(2000)]
        _, recon = self._drive(events, base)
        ts_last = recon[-1][0]
        true_last = events[-1][1]
        assert abs(ts_last - true_last) / true_last <= (base - 1) + 1e-9

    def test_per_signature_clocks_independent(self):
        base = 1.2
        events = []
        for i in range(100):
            events.append((0, 1e-3 + i * 1e-5, 1e-6))
            events.append((1, 5e-1 + i * 1e-4, 2e-6))
        _, recon = self._drive(events, base)
        for (ts, _), (_, true_t0, _) in zip(recon, events):
            assert abs(ts - true_t0) / true_t0 <= (base - 1) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.floats(min_value=1e-7, max_value=1e-3),
                              st.floats(min_value=1e-8, max_value=1e-4)),
                    min_size=1, max_size=60))
    def test_reconstruction_property(self, steps):
        base = 1.2
        events = []
        t = 0.0
        for term, gap, d in steps:
            t += gap
            events.append((term, t, d))
        _, recon = self._drive(events, base)
        for (ts, te), (_, true_t0, true_d) in zip(recon, events):
            assert abs(ts - true_t0) / true_t0 <= (base - 1) + 1e-9


class TestCompressionBehaviour:
    def test_regular_durations_compress_well(self):
        tc = TimingCompressor(base=1.2)
        for i in range(1000):
            tc.record(0, "MPI_Send", i * 1e-4, i * 1e-4 + 1e-6)
        dg, ig = tc.freeze()
        assert dg.n_tokens <= 4    # identical durations: one run
        assert ig.n_tokens <= 16   # regular intervals: tiny grammar

    def test_noisy_durations_larger_grammar(self):
        import random
        rng = random.Random(1)
        tc = TimingCompressor(base=1.2)
        t = 0.0
        for _ in range(500):
            t += rng.uniform(1e-5, 1e-2)
            tc.record(0, "MPI_Send", t, t + rng.uniform(1e-7, 1e-3))
        dg, _ = tc.freeze()
        assert dg.n_tokens > 50  # intrinsic non-determinism, as in §4.4

    def test_per_function_base_override(self):
        tc = TimingCompressor(base=1.2,
                              per_function_base={"MPI_Barrier": 2.0})
        tc.record(0, "MPI_Barrier", 1.0, 1.5)
        tc.record(1, "MPI_Send", 1.0, 1.5)
        dg, _ = tc.freeze()
        bins = dg.expand()
        # coarser base -> different (smaller-magnitude) bin for the barrier
        assert bins[0] != bins[1]


class TestClampDetection:
    """Out-of-range bins are clamped with a warning and counted."""

    BASE = 1.005  # base**4096 ~ 7.5e8, reachable with finite doubles

    def test_boundary_bins_do_not_warn(self):
        import warnings as w
        from repro.core.timing import BIN_OFFSET
        with w.catch_warnings():
            w.simplefilter("error")
            hi = bin_value(self.BASE ** BIN_OFFSET, self.BASE)
            lo = bin_value(self.BASE ** -BIN_OFFSET, self.BASE)
        assert hi == BIN_OFFSET
        assert lo == -BIN_OFFSET

    def test_overflow_clamps_and_warns(self):
        from repro.core.timing import BIN_OFFSET, BinClampWarning
        with pytest.warns(BinClampWarning):
            b = bin_value(self.BASE ** BIN_OFFSET * 10, self.BASE)
        assert b == BIN_OFFSET

    def test_underflow_clamps_and_warns(self):
        from repro.core.timing import BIN_OFFSET, BinClampWarning
        with pytest.warns(BinClampWarning):
            b = bin_value(self.BASE ** -BIN_OFFSET / 10, self.BASE)
        assert b == -BIN_OFFSET

    def test_infinity_clamps_instead_of_raising(self):
        from repro.core.timing import BIN_OFFSET, BinClampWarning
        with pytest.warns(BinClampWarning):
            assert bin_value(float("inf"), 1.2) == BIN_OFFSET

    def test_compressor_counts_clamps(self):
        import warnings as w
        tc = TimingCompressor(base=self.BASE)
        with w.catch_warnings():
            w.simplefilter("ignore")
            tc.record(0, "MPI_Send", 1.0, 1e12)   # duration overflow
            tc.record(0, "MPI_Send", 2e12, 2e12 + 1e-3)  # interval too
            tc.record(1, "MPI_Send", 1.0, 1.5)    # in range: no count
        assert tc.n_clamped == 2

    def test_clamped_values_never_memoized(self):
        import warnings as w
        tc = TimingCompressor(base=self.BASE)
        with w.catch_warnings():
            w.simplefilter("ignore")
            tc._bin(1e12, self.BASE)
            tc._bin(1e12, self.BASE)
        assert tc.n_clamped == 2  # both clamps observed: nothing is memoized
        assert not hasattr(tc, "_bin_memo")


class TestNonFiniteTimes:
    """Regression: at the default base 1.2 the top clamp bin unbins to
    ``1.2 ** 4096``, past the largest float.  An infinite or NaN time
    raised a bare ``OverflowError`` in the reconstructed clock (or, for
    an infinite duration, in the decoder's) and an infinite duration
    died converting the CST's duration sum to nanoseconds.  The bin now
    unbins to ``inf``, and the sum saturates."""

    INF, NAN = float("inf"), float("nan")
    #: (t0, t1, calls whose bins clamp)
    CASES = [(INF, INF, 2), (NAN, 1.0, 2), (1.0, INF, 1)]

    def test_top_bin_unbins_to_inf(self):
        from repro.core.timing import BIN_OFFSET
        assert unbin_value(BIN_OFFSET, 1.2) == self.INF
        assert unbin_value(-BIN_OFFSET, 1.2) == 0.0
        assert reconstruct_times([2 * BIN_OFFSET], [BIN_OFFSET], [0]) \
            == [(1.0, self.INF)]

    @pytest.mark.parametrize("t0,t1,clamped", CASES)
    def test_compressor_clamps_counts_and_reconstructs(self, t0, t1,
                                                       clamped):
        from repro.core.timing import BinClampWarning
        tc = TimingCompressor()
        with pytest.warns(BinClampWarning):
            tc.record(0, "MPI_Send", t0, t1)
        tc.record(1, "MPI_Send", 2.0, 2.5)
        assert tc.n_clamped == clamped
        dg, ig = tc.freeze()
        (ts, te), (ts1, te1) = reconstruct_times(dg.expand(), ig.expand(),
                                                 [0, 1])
        assert te == self.INF and ts == (1.0 if t0 == 1.0 else self.INF)
        assert 2.0 <= ts1 < 2.0 * 1.2 and 0.5 <= te1 - ts1 < 0.5 * 1.2

    @pytest.mark.parametrize("t0,t1,clamped", CASES)
    def test_lossy_tracer_reaches_rank_times(self, t0, t1, clamped):
        import warnings as w
        from repro.bench.capture import CapturedRun
        from repro.core.backends import TracerOptions, make_tracer
        from repro.core.decoder import TraceDecoder
        cap = CapturedRun.record("osu_latency", 2, seed=4)
        calls = [i for i, ev in enumerate(cap.events)
                 if ev[0] == 0 and ev[1] == 0]
        k = calls[5]
        cap.events[k] = (*cap.events[k][:4], t0, t1, *cap.events[k][6:])
        tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=True))
        with w.catch_warnings():
            w.simplefilter("ignore")
            cap.replay(tracer)
        assert tracer.ranks[0].timing.n_clamped == clamped
        times = TraceDecoder.from_bytes(
            tracer.finalize().trace_bytes).rank_times(0)
        assert len(times) == len(calls)
        assert times[5][1] == self.INF
        assert all(te < self.INF for _, te in times[:5])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(), st.floats(), st.sampled_from([1.005, 1.2, 2.0]))
    def test_record_bins_like_bin_value(self, t0, t1, base):
        import warnings as w
        from repro.core.timing import BIN_OFFSET
        tc = TimingCompressor(base=base)
        with w.catch_warnings():
            w.simplefilter("ignore")
            tc.record(0, "MPI_Send", t0, t1)
            want = (bin_value(t1 - t0, base), bin_value(t0, base))
        got = (tc.duration_grammar[0] - BIN_OFFSET,
               tc.interval_grammar[0] - BIN_OFFSET)
        assert got == want


class TestPerFunctionBaseValidation:
    """Regression: only the global base was checked.  An override of 0.9
    traced a file its own reader refused ("malformed per-function base"),
    1.0 died mid-run dividing by ``log(1.0)``, and -2.0 died mid-run in
    ``math.log``; all three are refused when the tracer is built."""

    @staticmethod
    def _tracer(pfb):
        from repro.core.tracer import PilgrimTracer
        return PilgrimTracer(timing_mode="lossy", per_function_base=pfb)

    @pytest.mark.parametrize("bad", [0.9, 1.0, -2.0])
    def test_a_base_not_above_one_is_refused_by_name(self, bad):
        with pytest.raises(ValueError, match="MPI_Barrier"):
            self._tracer({"MPI_Send": 2.0, "MPI_Barrier": bad})
        with pytest.raises(ValueError, match="MPI_Barrier"):
            TimingCompressor(per_function_base={"MPI_Barrier": bad})

    def test_a_valid_override_round_trips(self):
        from repro.core.trace_format import TraceFile
        from repro.workloads import make
        blobs = []
        for pfb in ({"MPI_Waitall": 1.5, "MPI_Isend": 3.0}, {}):
            tracer = self._tracer(pfb)
            make("stencil2d", 4).run(seed=3, tracer=tracer)
            blobs.append(tracer.result.trace_bytes)
            meta = TraceFile.from_bytes(blobs[-1]).timing_meta
            assert meta.per_function_base == pfb
        assert blobs[0] != blobs[1]     # the overrides binned those calls


class TestTimingMeta:
    def test_roundtrip(self):
        from repro.core.packing import Reader
        from repro.core.timing import TimingMeta
        meta = TimingMeta(base=1.3, per_function_base={
            "MPI_Barrier": 2.0, "MPI_Allreduce": 1.1})
        out = bytearray()
        meta.write_to(out)
        got = TimingMeta.read_from(Reader(bytes(out)))
        assert got == meta
        assert got.base_for("MPI_Barrier") == 2.0
        assert got.base_for("MPI_Send") == 1.3

    @pytest.mark.parametrize("payload", [
        42, (1.2,), ("x", ()), (0.9, ()), (1.2, (("f", 1.0),)),
        (1.2, ((3, 2.0),))])
    def test_malformed_rejected(self, payload):
        from repro.core.errors import CorruptTraceError
        from repro.core.packing import Reader, write_value
        from repro.core.timing import TimingMeta
        out = bytearray()
        write_value(out, payload)
        with pytest.raises(CorruptTraceError):
            TimingMeta.read_from(Reader(bytes(out)))

    def test_compressor_meta_snapshot(self):
        from repro.core.timing import timing_meta
        tc = TimingCompressor(base=1.4,
                              per_function_base={"MPI_Wait": 3.0})
        assert timing_meta(False, tc.base, tc.per_function_base) is None
        meta = timing_meta(True, tc.base, tc.per_function_base)
        assert meta.base == 1.4
        assert meta.per_function_base == {"MPI_Wait": 3.0}
        meta.per_function_base["MPI_Wait"] = 9.9  # a copy, not a view
        assert tc.per_function_base["MPI_Wait"] == 3.0


class TestPerFunctionBaseEndToEnd:
    """A lossy trace recorded with per-function base overrides must
    reconstruct every call within that function's ``base - 1`` relative
    error — the meta section threads the bases through the decoder."""

    def test_reconstruction_uses_persisted_bases(self):
        from repro.bench.capture import CapturedRun
        from repro.core.backends import TracerOptions, make_tracer
        from repro.core.decoder import TraceDecoder

        pfb = {"MPI_Barrier": 2.0, "MPI_Allreduce": 1.05}
        base = 1.2
        cap = CapturedRun.record("npb_mg", 4, seed=9)
        tracer = make_tracer("pilgrim", TracerOptions(
            lossy_timing=True,
            extra={"timing_base": base, "per_function_base": pfb}))
        cap.replay(tracer)
        blob = tracer.finalize().trace_bytes
        dec = TraceDecoder.from_bytes(blob)
        meta = dec.trace.timing_meta
        assert meta is not None and meta.per_function_base == pfb

        overridden = 0
        for rank in range(4):
            truth = [(ev[2], ev[4], ev[5]) for ev in cap.events
                     if ev[0] == 0 and ev[1] == rank]
            recon = dec.rank_times(rank)
            assert len(recon) == len(truth)
            for (fname, t0, t1), (rs, re_) in zip(truth, recon):
                b = pfb.get(fname, base)
                if fname in pfb:
                    overridden += 1
                if t0 > 1e-9:  # t0~0 is below the binning floor
                    assert abs(rs - t0) / t0 <= (b - 1) + 1e-9
                d = t1 - t0
                assert d * (1 - 1e-9) <= re_ - rs <= d * b * (1 + 1e-9)
        assert overridden > 0  # the workload did hit overridden functions

    def test_default_base_trace_still_reconstructs(self):
        from repro.bench.capture import CapturedRun
        from repro.core.backends import TracerOptions, make_tracer
        from repro.core.decoder import TraceDecoder

        cap = CapturedRun.record("osu_latency", 2, seed=4)
        tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=True))
        cap.replay(tracer)
        dec = TraceDecoder.from_bytes(tracer.finalize().trace_bytes)
        truth = [(ev[4], ev[5]) for ev in cap.events
                 if ev[0] == 0 and ev[1] == 0]
        for (t0, _), (rs, _) in zip(truth, dec.rank_times(0)):
            if t0 > 1e-9:  # t0~0 is below the binning floor
                assert abs(rs - t0) / t0 <= 0.2 + 1e-9
