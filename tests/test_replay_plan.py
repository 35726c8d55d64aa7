"""Replay per signature, not per call (``repro.replay`` + ``TraceDecoder``).

The product builds one table entry per CST terminal and walks terminals;
the per-call walks it replaced live on *here* as differential oracles:

* :func:`oracle_prescan` — the call-by-call segment/wildcard prescan;
* :class:`OracleComparator` — a comparator that materialises every
  rank's stream and probes every call's outcome.

Across every workload family the two must agree on the materialised
segments, the wildcard bookkeeping and, byte for byte, the divergence
report.  A counting test pins the work bound itself: one grammar
expansion per unique grammar, at most one decode per CST terminal.
"""

import copy
import json

import pytest

import repro
from repro.core import TraceDecoder, corpus_mutations
from repro.core import decoder as decoder_mod
from repro.core.decoder import RankStream
from repro.core.encoder import PTR_DEVICE, PTR_HEAP
from repro.core.errors import CorruptTraceError, ReplayFormatError
from repro.core.grammar import Grammar
from repro.core.records import DecodedCall, sig_to_params
from repro.mpisim import SimMPI, constants as C, funcs as F
from repro.mpisim.hooks import TracerHooks
from repro.replay import ReplayOptions, divergence, run_replay_fuzz
from repro.replay.comparator import (NOT_REISSUED, DivergencePoint,
                                     LockstepComparator, _RankCursor)
from repro.replay.engine import (RankReplayer, ReplayState,
                                 build_rank_programs, run_replay)
from repro.workloads import REGISTRY

ANY_SOURCE_ENC = (0, C.ANY_SOURCE)  # (MARK_SPECIAL, ANY_SOURCE)


def trace_of(workload, nprocs=4, seed=1, **params) -> bytes:
    return repro.trace(workload, nprocs, seed=seed,
                       params=params).trace_bytes


# -- oracles: the per-call walks, kept verbatim ------------------------------------


def oracle_prescan(calls):
    """One pass over every call: (a) every memory segment with its max
    displacement and (b) the recorded completion source of every
    wildcard irecv, keyed by request id and occurrence."""
    need = {}  # sid -> (device, max_off)
    occ_next, occ_active, any_sources = {}, {}, {}
    skip_sids = set()

    def note_completion(syms, statuses, idxs=None):
        if statuses is None:
            return
        pairs = zip(idxs, statuses) if idxs is not None \
            else enumerate(statuses)
        for i, st in pairs:
            if i is None or i < 0 or i >= len(syms):
                continue
            sym = syms[i]
            if sym is None:
                continue
            key = tuple(sym)
            occ = occ_active.pop(key, None)
            if occ is not None and st is not None:
                any_sources[(key, occ)] = st[0]

    for call in calls:
        p = call.params
        for v in p.values():
            if not (isinstance(v, tuple) and v):
                continue
            if v[0] == PTR_HEAP and len(v) == 3:
                _k, sid, off = v
                dev, prev = need.get(sid, (-1, 0))
                need[sid] = (-1, max(prev, off))
            elif v[0] == PTR_DEVICE and len(v) == 4:
                _k, dev, sid, off = v
                _d, prev = need.get(sid, (dev, 0))
                need[sid] = (dev, max(prev, off))
        if call.fname == "MPI_Win_allocate":
            bp = p.get("baseptr")
            if isinstance(bp, tuple) and bp and bp[0] == PTR_HEAP:
                skip_sids.add(bp[1])
        if call.fname == "MPI_Irecv" and p.get("source") == ANY_SOURCE_ENC:
            key = tuple(p["request"])
            occ = occ_next.get(key, 0)
            occ_next[key] = occ + 1
            occ_active[key] = occ
        elif call.fname == "MPI_Wait" \
                or call.fname == "MPI_Test" and p.get("flag"):
            sym = p.get("request")
            if sym is not None:
                note_completion([sym], [p.get("status")], [0])
        elif call.fname in ("MPI_Waitall", "MPI_Testall"):
            note_completion(p.get("array_of_requests") or (),
                            p.get("array_of_statuses"))
        elif call.fname in ("MPI_Waitany", "MPI_Testany"):
            idx = p.get("index")
            if isinstance(idx, int) and idx >= 0:
                note_completion(p.get("array_of_requests") or (),
                                [p.get("status")], [idx])
        elif call.fname in ("MPI_Waitsome", "MPI_Testsome"):
            idxs = p.get("array_of_indices")
            if idxs:
                note_completion(p.get("array_of_requests") or (),
                                p.get("array_of_statuses"), list(idxs))
    segments = [(sid, dev, off) for sid, (dev, off) in sorted(need.items())
                if sid not in skip_sids]
    return segments, any_sources


class OracleComparator(LockstepComparator):
    """The per-call comparator: private per-rank lists of records,
    ``NOT_REISSUED`` membership and the full outcome probe on every
    call.  Only ``finish`` and ``_compare_outcome`` are the product's."""

    def __init__(self, decoder, *, nprocs=None, rank_sources=None):
        n = decoder.nprocs if nprocs is None else nprocs
        if rank_sources is None:
            rank_sources = list(range(n))
        streams = {}
        for src in rank_sources:
            if src not in streams:
                streams[src] = list(decoder.rank_calls(src))
        self.recorded_nprocs = decoder.nprocs
        self.nprocs = n
        self._cursors = [_RankCursor(recorded=streams[rank_sources[r]])
                         for r in range(n)]

    def on_call(self, rank, fname, values, t0, t1):
        cur = self._cursors[rank]
        cur.replayed += 1
        if cur.point is not None:
            return
        rec = self._advance(cur, fname)
        if rec is None:
            cur.extra += 1
            cur.point = DivergencePoint(
                rank=rank, call_index=len(cur.recorded), function=fname,
                recorded_function="", field="stream", live=fname)
            return
        if rec.fname != fname:
            cur.point = DivergencePoint(
                rank=rank, call_index=cur.ptr, function=fname,
                recorded_function=rec.fname, field="function",
                recorded=rec.fname, live=fname,
                timing_delta_s=(t1 - t0) - rec.avg_duration)
            cur.ptr += 1
            return
        delta = (t1 - t0) - rec.avg_duration
        cur.timing_abs += abs(delta)
        cur.timing_max = max(cur.timing_max, abs(delta))
        mismatch = self._compare_outcome(rank, rec, values)
        if mismatch is not None:
            field_name, rec_v, live_v = mismatch
            cur.point = DivergencePoint(
                rank=rank, call_index=cur.ptr, function=fname,
                recorded_function=rec.fname, field=field_name,
                recorded=rec_v, live=live_v, timing_delta_s=delta)
        else:
            cur.matched += 1
        cur.ptr += 1

    def _advance(self, cur, fname):
        rec_list = cur.recorded
        while cur.ptr < len(rec_list):
            rec = rec_list[cur.ptr]
            if rec.fname in NOT_REISSUED and rec.fname != fname:
                cur.skipped += 1
                cur.ptr += 1
                continue
            return rec
        return None


class _RecordingAllocator:
    """Stands in for the RankAPI during segment materialisation."""

    def __init__(self):
        self.log = []

    def malloc(self, size):
        self.log.append((-1, size))
        return len(self.log) << 24

    def cuda_malloc(self, size, device):
        self.log.append((device, size))
        return len(self.log) << 24


def assert_setup_matches_oracle(decoder, **build_kw):
    _state, replayers, _program = build_rank_programs(decoder, **build_kw)
    sources = build_kw.get("rank_sources") or range(len(replayers))
    for replayer, src in zip(replayers, sources):
        segments, any_sources = oracle_prescan(
            list(decoder.rank_calls(src)))
        alloc = _RecordingAllocator()
        replayer._materialize_segments(alloc)
        assert alloc.log == [(dev, off + RankReplayer._SEG_PAD)
                             for _sid, dev, off in segments]
        materialised = sorted(
            [(sid, -1, size) for sid, (_a, size)
             in replayer.seg_map.items()]
            + [(sid, dev, size) for (dev, sid), (_a, size)
               in replayer.dev_seg_map.items()])
        assert materialised == [(sid, dev, off + RankReplayer._SEG_PAD)
                                for sid, dev, off in segments]
        assert replayer._any_sources == any_sources


def report_json(blob, options, monkeypatch, comparator) -> str:
    monkeypatch.setattr(divergence, "LockstepComparator", comparator)
    res = repro.replay(blob, options=options)
    return json.dumps(res.report_dict(), indent=2, sort_keys=True)


def assert_reports_identical(blob, options, monkeypatch) -> dict:
    got = report_json(blob, options, monkeypatch, LockstepComparator)
    want = report_json(blob, options, monkeypatch, OracleComparator)
    assert got == want
    return json.loads(got)


# -- differential: product vs per-call oracle ---------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("family", sorted(REGISTRY))
    def test_every_family_matches_the_per_call_walk(self, family,
                                                    monkeypatch):
        blob = trace_of(family)
        assert_setup_matches_oracle(TraceDecoder.from_bytes(blob))
        doc = assert_reports_identical(blob, ReplayOptions(seed=3),
                                       monkeypatch)
        assert not doc["diverged"]
        assert doc["counts"]["unchecked"] == 0

    def test_fault_injected_farm_diverges_identically(self, monkeypatch):
        blob = trace_of("mw_sweep", seed=2)
        assert_setup_matches_oracle(TraceDecoder.from_bytes(blob),
                                    directed=False)
        doc = assert_reports_identical(
            blob, ReplayOptions(fault_plan="delay@sched*4:rank=2"),
            monkeypatch)
        assert doc["diverged"] and doc["points"]

    def test_extrapolated_run_matches(self, monkeypatch):
        blob = trace_of("osu_allreduce")
        assert_setup_matches_oracle(
            TraceDecoder.from_bytes(blob), nprocs=8, directed=False,
            strict_ids=False, rank_sources=[0] * 8)
        doc = assert_reports_identical(
            blob, ReplayOptions(extrapolate_ranks=8), monkeypatch)
        assert doc["nprocs"] == 8 and not doc["diverged"]

    def test_sid_reused_across_devices_keeps_the_last_mention(self):
        """A freed heap segment's id re-issued to a device allocation
        and back: the call-by-call walk keeps the device of the *last*
        mention, so folding unique terminals must too."""
        spec = F.FUNCS["MPI_Send"]

        def send(term_buf):
            params = {p.name: 0 for p in spec.params}
            params["buf"] = term_buf
            return DecodedCall(0, "MPI_Send", params)

        table = {0: send((PTR_HEAP, 3, 8)), 1: send((PTR_DEVICE, 1, 3, 64))}
        for terms in ([0, 1, 0], [0, 1], [1, 0, 1, 1]):
            stream = RankStream(terms, table)
            replayer = RankReplayer(0, ReplayState(1), stream)
            assert replayer._segments == oracle_prescan(list(stream))[0]


# -- the work bound ------------------------------------------------------------------


class TestWorkCounts:
    def test_one_expansion_per_grammar_one_decode_per_terminal(
            self, monkeypatch):
        blob = trace_of("stencil2d", 16, iters=6)
        trace = TraceDecoder.from_bytes(blob).trace
        expansions = []
        decoded = []
        real_expand = Grammar.expand

        def counting_expand(self, *a, **kw):
            expansions.append(self)
            return real_expand(self, *a, **kw)

        def counting_sig_to_params(sig):
            fname, params = sig_to_params(sig)
            decoded.append((sig, params, copy.deepcopy(params)))
            return fname, params

        monkeypatch.setattr(Grammar, "expand", counting_expand)
        monkeypatch.setattr(decoder_mod, "sig_to_params",
                            counting_sig_to_params)
        res = repro.replay(blob)
        assert not res.diverged

        assert len(expansions) == len(trace.cfg.unique) < 16
        sigs = [sig for sig, _p, _c in decoded]
        assert len(sigs) == len(set(sigs)) <= len(trace.cst.sigs)
        # params dicts are shared by every rank and every call of the
        # signature: nothing in replay may write to one
        for _sig, params, snapshot in decoded:
            assert params == snapshot

    def test_streams_are_shared_not_copied(self):
        dec = TraceDecoder.from_bytes(trace_of("osu_allreduce"))
        assert len(dec.trace.cfg.unique) == 1
        assert dec.rank_terminals(0) is dec.rank_terminals(3)
        stream = dec.rank_calls(1)
        assert stream is dec.rank_calls(1)
        assert stream[0] is stream.table[stream.terms[0]]
        assert stream[0].rank == 1
        assert list(stream) == [stream[i] for i in range(len(stream))]
        assert len(stream.table) == len(set(stream.terms))
        # first-occurrence order
        assert list(stream.table) == list(dict.fromkeys(stream.terms))

    def test_plan_counters_size_the_table(self, tmp_path):
        blob = trace_of("stencil2d", 16, iters=6)
        dec = TraceDecoder.from_bytes(blob)
        res = repro.replay(blob, options=ReplayOptions(spans=True))
        assert res.counters == {
            "replay.plan.terminals": len(dec.trace.cst.sigs),
            "replay.plan.calls": dec.call_count(),
            "replay.plan.grammars_shared": 16 - len(dec.trace.cfg.unique),
        }
        path = tmp_path / "spans.jsonl"
        res.write_spans(path)
        from repro.analysis import summarize_metrics
        from repro.obs import read_metrics_jsonl
        summary = summarize_metrics(read_metrics_jsonl(str(path)))
        assert summary.counters == res.counters
        assert {sp["name"] for sp in summary.spans} >= {"build", "execute"}


# -- same errors, same places ---------------------------------------------------------


class _CallLog(TracerHooks):
    def __init__(self):
        self.calls = []

    def on_call(self, rank, fname, values, t0, t1):
        self.calls.append(fname)


class TestErrors:
    def test_unhandled_function_fails_where_the_call_is_reached(self):
        def call(fname):
            return DecodedCall(0, fname, {
                p.name: 0 for p in F.FUNCS[fname].params})

        table = {0: call("MPI_Init"), 1: call("MPI_Barrier"),
                 2: call("MPI_Abort")}
        stream = RankStream([0, 1, 1, 2, 1], table)
        replayer = RankReplayer(0, ReplayState(1), stream)  # plans fine
        log = _CallLog()
        with pytest.raises(ReplayFormatError,
                           match="no handler for MPI_Abort"):
            run_replay(SimMPI(1, tracer=log), replayer.program)
        assert log.calls.count("MPI_Barrier") == 2

    def test_undecodable_terminals_raise_structured_errors(self):
        blob = trace_of("stencil2d", iters=3)
        cases = {desc: mut for desc, mut in corpus_mutations(blob)
                 if "CST" in desc}
        assert len(cases) == 4
        reasons = {
            "CST entry 0 names an unknown function id":
                "unknown function id",
            "CST entry 0 carries one value too many": "arity mismatch",
            "CST entry 0 is an empty signature": "empty signature",
            "the grammars reference a terminal past the end of the CST":
                "outside the",
        }
        for desc, mut in cases.items():
            dec = TraceDecoder.from_bytes(mut)  # every CRC is valid
            with pytest.raises(CorruptTraceError,
                               match=r"rank \d+: terminal \d+") as exc:
                for rank in range(dec.nprocs):
                    dec.rank_calls(rank)
            assert reasons[desc] in str(exc.value)
            with pytest.raises(CorruptTraceError, match=r"terminal \d+"):
                repro.replay(mut)

    def test_fuzzers_cover_the_cst_corpus(self):
        blob = trace_of("stencil2d", iters=3)
        decode = repro.core.run_fuzz(blob, n_random=0)
        assert decode.ok, decode.failures
        assert decode.by_error.get("CorruptTraceError", 0) >= 4
        replay = run_replay_fuzz(blob, n_random=0)
        assert replay.ok, replay.failures
        assert replay.by_error.get("CorruptTraceError", 0) >= 4


# -- the bench gate ---------------------------------------------------------------------


class TestReplayBench:
    def test_replay_bench_reports_the_same_runner_ratio(self):
        from pathlib import Path
        from repro.bench import run_benchmark
        doc = run_benchmark("replay", repeats=1, warmup=0, params={
            "families": ["osu_latency", "stencil2d"], "nprocs": 4})
        metrics = doc["metrics"]
        ratios = [metrics[f"{fam}.replay_over_null"]
                  for fam in ("osu_latency", "stencil2d")]
        # replay does the simulation plus its own work, and the overall
        # ratio is a weighted mean of the per-family ones
        assert min(ratios) > 0.5
        assert min(ratios) <= metrics["replay_over_null"] <= max(ratios)
        # CI gates ratios only: no absolute-millisecond metric in the
        # checked-in baseline, and every gated metric is one we emit
        baseline = json.loads(
            (Path(__file__).parent.parent / "benchmarks" / "baselines"
             / "replay-ci.json").read_text())["metrics"]
        assert baseline and all(name.endswith("replay_over_null")
                                for name in baseline)
        full = run_benchmark("replay", repeats=1, warmup=0,
                             params={"nprocs": 2})["metrics"]
        assert set(baseline) <= set(full)
