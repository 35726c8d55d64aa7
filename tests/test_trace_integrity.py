"""Trace-integrity subsystem tests: structured errors, exhaustive
corruption (every truncation point, every byte flipped), the seeded
fuzzer, the grown differential verifier, and decoder edge cases."""

import pytest

from repro import fuzz
from repro.core import (ChecksumError, CorruptTraceError, PilgrimTracer,
                        RoundTrip, TraceDecoder, TraceFile, TraceFormatError,
                        TruncatedTraceError, UnsupportedVersionError,
                        verify_roundtrip, verify_workload)
from repro.core.backends import TracerOptions, make_tracer
from repro.core.trace_format import TRACE
from repro.core.grammar import Grammar
from repro.workloads import REGISTRY, make


def trace_blob(name="stencil2d", nprocs=4, seed=1, **params):
    tracer = PilgrimTracer()
    make(name, nprocs, **params).run(seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


@pytest.fixture(scope="module")
def small_blob():
    return trace_blob("stencil2d", 4, iters=4)


def deep_decode(blob):
    dec = TraceDecoder.from_bytes(blob)
    dec.call_count()
    for rank in range(dec.nprocs):
        list(dec.rank_calls(rank))
    return dec


class TestErrorHierarchy:
    def test_subclasses(self):
        for cls in (TruncatedTraceError, ChecksumError,
                    UnsupportedVersionError, CorruptTraceError):
            assert issubclass(cls, TraceFormatError)

    def test_base_is_value_error(self):
        # pre-existing callers catch ValueError; that must keep working
        assert issubclass(TraceFormatError, ValueError)

    def test_checksum_error_carries_details(self):
        e = ChecksumError("CST", 1, 2)
        assert e.section == "CST" and e.stored == 1 and e.computed == 2
        assert "CST" in str(e)


class TestExhaustiveCorruption:
    """The decoder contract, proven over the *entire* byte range of a
    real trace: every truncation and every flipped byte must raise a
    structured TraceFormatError — never anything rawer, never silence."""

    def test_every_truncation_point(self, small_blob):
        for cut in range(len(small_blob)):
            with pytest.raises(TraceFormatError):
                deep_decode(small_blob[:cut])

    def test_every_byte_flipped(self, small_blob):
        for off in range(len(small_blob)):
            mut = bytearray(small_blob)
            mut[off] ^= 1 << (off % 8)
            with pytest.raises(TraceFormatError):
                deep_decode(bytes(mut))

    def test_every_byte_flipped_uncompressed(self):
        blob = TraceFile.from_bytes(
            trace_blob("osu_latency", 4)).to_bytes(compress=False)
        for off in range(len(blob)):
            mut = bytearray(blob)
            mut[off] ^= 0x80
            with pytest.raises(TraceFormatError):
                deep_decode(bytes(mut))


class TestFuzzer:
    def test_fuzz_report_clean(self, small_blob):
        report = fuzz.run(fuzz.trace_target(small_blob), seed=0,
                          n_random=500)
        assert report.total >= 500
        assert report.ok, [str(f) for f in report.failures[:5]]
        assert report.structured == report.total
        # several distinct failure modes must actually be exercised
        assert {"ChecksumError", "TruncatedTraceError"} <= set(
            report.by_error)

    def test_fuzz_is_deterministic(self, small_blob):
        a, b = (fuzz.run(fuzz.trace_target(small_blob), seed=7,
                         n_random=120) for _ in range(2))
        assert a.by_error == b.by_error and a.total == b.total

    def test_a_target_runs_its_whole_corpus_every_time(self, small_blob):
        target = fuzz.trace_target(small_blob)
        a, b = (fuzz.run(target, n_random=0) for _ in range(2))
        assert a.total == b.total > len(target.corpus) > 0
        assert a.by_error == b.by_error

    def test_mutations_differ_from_original(self, small_blob):
        for _desc, mut in fuzz.iter_blob_mutations(
                small_blob, TRACE.spans(small_blob), seed=3, n_random=60):
            assert mut != small_blob or len(mut) == len(small_blob)

    def test_fuzz_with_timing_sections(self):
        tracer = PilgrimTracer(timing_mode="lossy")
        make("npb_is", 4).run(seed=1, tracer=tracer)
        report = fuzz.run(fuzz.trace_target(tracer.result.trace_bytes),
                          seed=2, n_random=200)
        assert report.ok, [str(f) for f in report.failures[:5]]


class TestVerifier:
    @pytest.mark.parametrize("name,params", [
        ("stencil2d", {"iters": 6}),
        ("osu_allreduce", {}),
        ("npb_mg", {}),
        ("flash_sedov", {}),
        ("milc_su3_rmd", {}),
    ])
    def test_verify_workload_families(self, name, params):
        report = verify_workload(name, 8, **params)
        assert report.ok, report.mismatches[:3]
        assert all(report.checks.values())
        assert set(report.checks) == {"terminal_streams", "records",
                                      "call_counts", "reencode"}
        assert sum(report.per_rank_calls) == report.total_calls

    def test_verify_lossy_timing(self):
        report = verify_workload("stencil2d", 4, iters=4,
                                 options=TracerOptions(lossy_timing=True))
        assert report.ok, report.mismatches[:3]

    def test_verify_catches_dropped_call(self):
        tee = RoundTrip(PilgrimTracer())
        make("stencil2d", 4, iters=4).run(seed=1, tracer=tee)
        tee.raw.streams[2].append(tee.raw.streams[2][-1])  # desync
        report = verify_roundtrip(tee)
        assert not report.ok
        assert not report.checks["call_counts"]
        assert any("rank 2" in m for m in report.mismatches)

    def test_verify_requires_a_tee(self):
        # a finished tracer alone has no independent reference to check
        tracer = PilgrimTracer()
        make("osu_barrier", 2).run(seed=1, tracer=tracer)
        with pytest.raises(TypeError, match="RoundTrip"):
            verify_roundtrip(tracer)

    def test_verify_requires_finalize(self):
        with pytest.raises(ValueError):
            verify_roundtrip(RoundTrip(PilgrimTracer()))

    def test_verify_sees_a_misfiling_cst(self, monkeypatch):
        """A CST that files every ``MPI_Barrier`` under the previous
        terminal loses every barrier from the trace; the raw reference
        never went through the CST, so the check fails."""
        from repro.core.cst import CST
        from repro.mpisim.funcs import FUNCS
        barrier, intern = FUNCS["MPI_Barrier"].fid, CST.intern

        def misfiling(self, sig, duration):
            if sig[0] == barrier and self._last_term >= 0:
                term = self._last_term
                self.counts[term] += 1
                self.dur_sums[term] += duration
                return term
            return intern(self, sig, duration)

        monkeypatch.setattr(CST, "intern", misfiling)
        tee = RoundTrip(PilgrimTracer())
        make("osu_barrier", 4).run(seed=1, tracer=tee)
        dec = TraceDecoder.from_bytes(tee.result.trace_bytes)
        assert "MPI_Barrier" not in dec.function_histogram()
        report = verify_roundtrip(tee)
        assert not report.ok
        assert not (report.checks["records"]
                    and report.checks["terminal_streams"])


class TestDecoderEdgeCases:
    def test_empty_trace_zero_calls(self):
        # a tracer whose run never started still finalizes to a valid,
        # decodable, zero-call trace (win_space declared in __init__)
        tracer = PilgrimTracer()
        assert tracer.win_space is None
        result = tracer.finalize()
        dec = TraceDecoder.from_bytes(result.trace_bytes)
        assert dec.nprocs == 0
        assert dec.call_count() == 0
        assert dec.all_terminals() == []
        assert dec.function_histogram() == {}

    def test_single_rank_run(self):
        tee = RoundTrip(PilgrimTracer())
        make("osu_barrier", 1).run(seed=1, tracer=tee)
        report = verify_roundtrip(tee)
        assert report.ok, report.mismatches[:3]
        dec = TraceDecoder.from_bytes(tee.result.trace_bytes)
        assert dec.nprocs == 1
        assert dec.call_count(rank=0) == dec.call_count()
        assert len(dec.rank_terminals(0)) == dec.call_count()

    def test_rank_out_of_range(self, small_blob):
        dec = TraceDecoder.from_bytes(small_blob)
        for bad in (-1, dec.nprocs, dec.nprocs + 5):
            with pytest.raises(IndexError):
                dec.rank_terminals(bad)
            with pytest.raises(IndexError):
                dec.call_count(rank=bad)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_rank_terminals_every_workload(self, name):
        tee = RoundTrip(PilgrimTracer())
        make(name, 4).run(seed=0, tracer=tee)
        dec = TraceDecoder.from_bytes(tee.result.trace_bytes)
        sig_index = {s: t for t, s in enumerate(dec.trace.cst.sigs)}
        for rank in range(4):
            expected = [sig_index[sig] for sig in tee.raw.streams[rank]]
            assert dec.rank_terminals(rank) == expected
            assert dec.call_count(rank=rank) == len(expected)

    @pytest.mark.parametrize("lossy", [False, True],
                             ids=["aggregate", "lossy"])
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_raw_streams_are_the_decoded_signatures(self, name, lossy):
        """The ``raw`` backend is the verifier's reference: its streams
        (own encoders, fed the same call and memory hooks) equal the
        decoded Pilgrim signature streams on every family."""
        nprocs = 9 if name in ("npb_bt", "npb_sp") else 4
        tee = RoundTrip(make_tracer("pilgrim",
                                    TracerOptions(lossy_timing=lossy)))
        make(name, nprocs).run(seed=3, tracer=tee)
        dec = TraceDecoder.from_bytes(tee.result.trace_bytes)
        sigs = dec.trace.cst.sigs
        for rank in range(nprocs):
            assert [sigs[t] for t in dec.rank_terminals(rank)] == \
                tee.raw.streams[rank], (name, rank)


class TestTimingRankMaps:
    """A timing rank map must cover exactly the ranks the trace (or
    shard) declares: one entry too many shifts every later rank's bins
    onto the wrong calls, silently (lossy ``stencil2d``/4 used to
    decode with every ``rank_times`` from rank 2 on off by one)."""

    @pytest.fixture(scope="class")
    def lossy(self):
        tracer = PilgrimTracer(timing_mode="lossy")
        make("stencil2d", 4, iters=4).run(seed=1, tracer=tracer)
        return tracer

    def test_trace_with_a_long_timing_rank_map_is_refused(self, lossy):
        from repro.core import (GrammarSet, TracePipeline, merge_shards,
                                tree_reduce)
        shards = [rc.freeze() for rc in lossy.ranks]
        td = shards[1].timing_duration
        shards[1].timing_duration = GrammarSet(td.unique, td.uid * 2)
        blob = TracePipeline().serialize(
            tree_reduce(shards, merge_shards)).trace_bytes
        # every section's CRC is valid; the duration map covers 5 ranks
        with pytest.raises(CorruptTraceError,
                           match=r"rank maps .* \[4, 5, 4\] ranks"):
            TraceFile.from_bytes(blob)
        salvaged = TraceFile.from_bytes(blob, salvage=True)
        assert salvaged.timing_duration is None
        assert salvaged.timing_interval is None
        assert salvaged.salvage.lost_sections == ["timing"]
        want = TraceFile.from_bytes(lossy.result.trace_bytes)
        assert salvaged.cfg == want.cfg  # the calls are all there

    def test_shard_with_a_long_timing_rank_map_is_refused(self, lossy):
        from repro.core import GrammarSet, RankShard
        shard = lossy.ranks[0].freeze()
        td = shard.timing_duration
        shard.timing_duration = GrammarSet(td.unique, td.uid * 2)
        with pytest.raises(CorruptTraceError,
                           match=r"rank maps .* of \[1, 2, 1\]"):
            RankShard.from_bytes(shard.to_bytes())

    def test_rank_times_checks_bins_against_calls(self, lossy):
        dec = TraceDecoder.from_bytes(lossy.result.trace_bytes)
        for rank in range(4):
            assert len(dec.rank_times(rank)) == dec.call_count(rank)
        td = dec.trace.timing_duration
        td.unique = [Grammar((((0, 1),),))] + td.unique[1:]
        td.rank_uid = [0] * 4
        with pytest.raises(CorruptTraceError, match="bins"):
            dec.rank_times(0)


class TestCLI:
    def test_verify_subcommand(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["verify", "stencil2d", "osu_latency", "-n", "4",
                         "--param", "iters=4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "FAILED" not in out

    def test_fuzz_subcommand(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["fuzz", "stencil2d", "-n", "4",
                         "--param", "iters=4", "--mutations", "120"]) == 0
        out = capsys.readouterr().out
        # every reader, each with no crash and no silent decode
        assert out.count("0 failures") == len(fuzz.TARGETS)
        assert "FAILED" not in out

    def test_corrupt_file_is_diagnosed_not_traceback(self, tmp_path,
                                                     capsys, small_blob):
        from repro.cli import main as cli_main
        bad = bytearray(small_blob)
        bad[len(bad) // 2] ^= 0x08
        path = tmp_path / "bad.pilgrim"
        path.write_bytes(bytes(bad))
        assert cli_main(["info", str(path)]) == 1
        err = capsys.readouterr().err
        assert "repro:" in err and "checksum" in err.lower()

    def test_missing_file_is_diagnosed(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["info", str(tmp_path / "nope.pilgrim")]) == 1
        assert "cannot open" in capsys.readouterr().err


class TestCallCountScoping:
    def test_rank_query_expands_one_grammar(self, monkeypatch):
        # two distinct unique grammars; asking for one rank's count must
        # not price in the other ranks' grammars
        tracer = PilgrimTracer()
        make("npb_is", 4).run(seed=1, tracer=tracer)
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        assert dec.trace.cfg.n_unique >= 2
        calls = []
        orig = Grammar.expanded_length

        def counting(self):
            calls.append(self)
            return orig(self)

        monkeypatch.setattr(Grammar, "expanded_length", counting)
        dec.call_count(rank=0)
        assert len(calls) == 1
        assert calls[0] is dec.trace.cfg.unique[dec.trace.cfg.rank_uid[0]]

    def test_rank_counts_sum_to_total(self, small_blob):
        dec = TraceDecoder.from_bytes(small_blob)
        assert sum(dec.call_count(rank=r)
                   for r in range(dec.nprocs)) == dec.call_count()
