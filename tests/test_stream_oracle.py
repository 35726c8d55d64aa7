"""Differential tests: the streaming produce path against the one it
replaced, and unit tests for the pieces the replacement is made of.

Until PR 16 every flush froze the rank's live Sequitur into a grammar
part, started a fresh one, and scanned the whole CST for the entries
that had moved.  That producer left ``src/`` when streaming ranks became
encode + CST only (:class:`~repro.core.shard.StreamingRankCompressor`);
it lives on here, verbatim, as the oracle.  Flush by flush the product
must report the same calls, signatures and sparse deltas, its parts must
expand to the oracle's terminals, and both streams must fold to the
one-shot bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import pytest

from repro.core.backends import TracerOptions, make_tracer
from repro.core.grammar import Grammar, TermLog
from repro.core.packing import Reader
from repro.core.sequitur import Sequitur
from repro.core.shard import (RankCompressor, ShardPartial,
                              StreamingRankCompressor, _dur_to_ns,
                              write_flush)
from repro.core.timing import TimingCompressor
from repro.core.trace_format import TraceFile
from repro.core.encoder import CommIdSpace
from repro.core.errors import UnsupportedVersionError
from repro.ingest import ChunkingTracer, protocol as proto
from repro.ingest.aggregator import (CONSOLIDATE_AFTER, TenantFold,
                                     read_partials)
from repro.ingest.session import TenantState
from repro.obs import MetricsRegistry
from repro.workloads import make

from test_cst_table_oracle import read_v2_trace
from test_flush_record_oracle import v1_read_partials, v1_restore

# -- the oracle: the freeze-a-Sequitur-per-flush producer, kept verbatim ----------------


def o_rotate(timing: TimingCompressor, loop_detection: bool
             ) -> Optional[tuple[Grammar, Grammar]]:
    """The parent's ``TimingCompressor.rotate``: freeze the two live bin
    grammars and restart them."""
    if timing.duration_grammar.n_input == 0:
        return None
    parts = (Grammar.freeze(timing.duration_grammar),
             Grammar.freeze(timing.interval_grammar))
    timing.duration_grammar = Sequitur(loop_detection=loop_detection)
    timing.interval_grammar = Sequitur(loop_detection=loop_detection)
    return parts


class OracleRank(RankCompressor):
    """A one-shot rank (live Sequitur, Sequitur timing grammars) with the
    parent's ``flush_partial`` on it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.streamed_calls = 0
        self._sent_sigs_n = 0
        self._sent_counts: list[int] = []
        self._sent_dur_ns: list[int] = []

    def flush_partial(self) -> Optional[ShardPartial]:
        self.flush_batch()
        if self.grammar.n_input:
            # same rotation as spill(), but not a *watermark* event
            self._spill_parts.append(Grammar.freeze(self.grammar))
            self._spill_input += self.grammar.n_input
            self.grammar = Sequitur(loop_detection=self.loop_detection)
        n_calls = self._spill_input - self.streamed_calls
        if n_calls == 0:
            return None
        parts = self._spill_parts
        self._spill_parts = []
        self.streamed_calls = self._spill_input

        cst = self.cst
        sigs = cst.sigs
        new_sigs = list(sigs[self._sent_sigs_n:])
        counts_now = list(cst.counts)
        ns_now = [_dur_to_ns(d) for d in cst.dur_sums]
        sent_c, sent_ns = self._sent_counts, self._sent_dur_ns
        n_sent = len(sent_c)
        idx: list[int] = []
        d_counts: list[int] = []
        d_dur_ns: list[int] = []
        for i in range(len(sigs)):
            pc = sent_c[i] if i < n_sent else 0
            pns = sent_ns[i] if i < n_sent else 0
            c = counts_now[i]
            ns = ns_now[i]
            if c != pc or ns != pns:
                idx.append(i)
                d_counts.append(c - pc)
                d_dur_ns.append(ns - pns)
        self._sent_sigs_n = len(sigs)
        self._sent_counts = counts_now
        self._sent_dur_ns = ns_now

        td = ti = None
        if self.timing is not None:
            rotated = o_rotate(self.timing, self.loop_detection)
            if rotated is not None:
                td, ti = rotated
        return ShardPartial(rank=self.rank, n_calls=n_calls,
                            new_sigs=new_sigs, idx=idx, d_counts=d_counts,
                            d_dur_ns=d_dur_ns, parts=parts,
                            timing_duration=td, timing_interval=ti)


class OracleTracer(ChunkingTracer):
    rank_class = OracleRank


# -- helpers ----------------------------------------------------------------------------

#: family -> parameters that keep a run at a few hundred calls (the
#: matrix below traces each cell ten times over)
FAMILIES = {"stencil2d": {"iters": 10}, "osu_latency": {"iters": 6},
            "npb_mg": {"iters": 3},
            "flash_sedov": {"iters": 12, "drift_every": 5},
            "milc_su3_rmd": {"steps": 2, "cg_iters": 6}}
NPROCS, SEED = 4, 11


def _run(family: str, tracer):
    make(family, NPROCS, **FAMILIES[family]).run(
        seed=SEED, tracer=tracer, noise=0.05)
    return tracer


def _stream(tracer_cls, family: str, *, chunk_calls: int = 64,
            lossy: bool = False, watermark=None, batch_size: int = 1,
            **kwargs):
    """One run's flushes, its config, its FIN call counts, its tracer."""
    flushes: list[list[ShardPartial]] = []
    tracer = _run(family, tracer_cls(
        emit_flush=flushes.append, chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy else "aggregate",
        memory_watermark=watermark, batch_size=batch_size, **kwargs))
    return (flushes, tracer.config(),
            [rc.streamed_calls for rc in tracer.ranks], tracer)


def _fold(flushes, config, fin) -> bytes:
    fold = TenantFold("t", NPROCS, config)
    for flush in flushes:
        fold.absorb_blob(write_flush(flush))
    return fold.finish(fin)


def _one_shot(family: str, *, lossy: bool = False, watermark=None):
    return _run(family, make_tracer("pilgrim", TracerOptions(
        lossy_timing=lossy, memory_watermark=watermark)))


def _expansions(parts) -> list[list[int]]:
    return [g.expand() for g in parts]


# -- the differential matrix ------------------------------------------------------------


class TestAgainstTheOracle:

    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("watermark", [None, 7, 23])
    @pytest.mark.parametrize("lossy", [False, True],
                             ids=["aggregate", "lossy"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_flush_by_flush(self, family, lossy, watermark, batch_size):
        ref = _one_shot(family, lossy=lossy).result.trace_bytes
        for chunk_calls in (1, 9, 64, 256, 10 ** 9):
            kw = dict(chunk_calls=chunk_calls, lossy=lossy,
                      watermark=watermark, batch_size=batch_size)
            got, config, fin, _ = _stream(ChunkingTracer, family, **kw)
            want, o_config, o_fin, _ = _stream(OracleTracer, family, **kw)
            assert (config, fin) == (o_config, o_fin)
            assert len(got) == len(want), chunk_calls
            for flush, o_flush in zip(got, want):
                assert [p.rank for p in flush] == [p.rank for p in o_flush]
                for p, o in zip(flush, o_flush):
                    assert (p.n_calls, p.new_sigs, p.idx, p.d_counts,
                            p.d_dur_ns) == \
                        (o.n_calls, o.new_sigs, o.idx, o.d_counts,
                         o.d_dur_ns), (chunk_calls, p.rank)
                    assert _expansions(p.parts) == _expansions(o.parts)
                    assert sum(map(len, _expansions(p.parts))) == p.n_calls
                    if lossy:
                        assert p.timing_duration.expand() == \
                            o.timing_duration.expand()
                        assert p.timing_interval.expand() == \
                            o.timing_interval.expand()
                    else:
                        assert p.timing_duration is o.timing_duration is None
            assert _fold(got, config, fin) == ref, chunk_calls
            assert _fold(want, config, fin) == ref, chunk_calls

    def test_parts_are_flat_unless_the_watermark_compressed_them(self):
        flushes, *_ = _stream(ChunkingTracer, "stencil2d", chunk_calls=64,
                              lossy=True)
        for p in (p for flush in flushes for p in flush):
            assert len(p.parts) == 1
            for g in (*p.parts, p.timing_duration, p.timing_interval):
                assert g == Grammar.flat(g.expand())
        flushes, _, _, tracer = _stream(
            ChunkingTracer, "stencil2d", chunk_calls=10 ** 9, watermark=7)
        assert any(rc.watermark_spills for rc in tracer.ranks)
        (flush,) = flushes
        for p, rc in zip(flush, tracer.ranks):
            assert len(p.parts) == rc.watermark_spills + 1
            # a whole-run chunk with a watermark never held more than
            # the watermark's worth of raw terminals
            assert all(g.expanded_length() == 7 for g in p.parts[:-1])
            assert all(g == Grammar.refeed([g]) for g in p.parts[:-1])
            assert p.parts[-1] == Grammar.flat(p.parts[-1].expand())


class TestProfiledStreaming:
    """Regression: the profiled per-call branch appended through a
    ``tracer.grammars`` alias list captured at run start; the first
    flush rotated ``rc.grammar`` and every later call of the run went
    into a Sequitur nobody would ever read — no error, calls lost."""

    @pytest.mark.parametrize("lossy", [False, True])
    def test_a_metrics_registry_loses_no_calls(self, lossy):
        got, config, fin, tracer = _stream(
            ChunkingTracer, "stencil2d", chunk_calls=64, lossy=lossy,
            metrics=MetricsRegistry())
        assert tracer._fine
        ref = _one_shot("stencil2d", lossy=lossy)
        assert sum(fin) == tracer.total_calls == ref.result.total_calls
        assert fin == ref.result.per_rank_calls
        assert sum(p.n_calls for flush in got for p in flush) == sum(fin)
        assert _fold(got, config, fin) == ref.result.trace_bytes

    def test_the_one_shot_profiled_path_reads_the_live_rank(self):
        tracer = _run("stencil2d", make_tracer(
            "pilgrim", TracerOptions(metrics=MetricsRegistry())))
        assert tracer._fine and not hasattr(tracer, "grammars")
        assert tracer.result.trace_bytes == \
            _one_shot("stencil2d").result.trace_bytes


# -- unit tests: the flat grammar and the terminal log ----------------------------------


LOGS = {"empty": [], "single": [5], "all-equal": [3] * 40,
        "alternating": [1, 2] * 20, "runs": [0, 0, 0, 9, 9, 4, 0, 0]}


class TestFlatGrammar:

    @pytest.mark.parametrize("name", LOGS)
    def test_round_trips(self, name):
        log = LOGS[name]
        g = Grammar.flat(log)
        assert g.n_rules == 1
        assert g.expand() == log
        assert g.expanded_length() == len(log)
        out = bytearray()
        g.write_to(out)
        r = Reader(bytes(out))
        assert Grammar.from_reader(r) == g and r.exhausted
        assert Grammar.refeed([g]).expand() == log

    def test_adjacent_equal_terminals_share_a_token(self):
        assert Grammar.flat([3] * 40).rules == (((3, 40),),)
        assert Grammar.flat(LOGS["runs"]).rules == \
            (((0, 3), (9, 2), (4, 1), (0, 2)),)
        assert Grammar.flat(LOGS["alternating"]).n_tokens == 40
        assert Grammar.flat(iter([7, 7, 8])) == Grammar.flat([7, 7, 8])

    def test_negative_terminals_are_refused_like_sequitur_refuses_them(self):
        with pytest.raises(ValueError, match="non-negative"):
            Grammar.flat([1, -2])
        with pytest.raises(ValueError, match="non-negative"):
            Sequitur().append(-2)

    def test_term_log_has_the_feed_surface(self):
        log, seq = TermLog(), Sequitur()
        for feed in (log, seq):
            feed.append(4)
            feed.append_array([4, 5, 4])
        assert log.n_input == seq.n_input == 4
        assert list(log) == seq.expand()
        assert Grammar.flat(log).expand() == Grammar.freeze(seq).expand()


# -- unit tests: the O(delta) flush -----------------------------------------------------


def _rank(**kwargs) -> StreamingRankCompressor:
    return StreamingRankCompressor(0, CommIdSpace(1), **kwargs)


def _feed(rc: RankCompressor, terms, dur: float = 1e-6) -> None:
    """Drive the CST and the feed as ``observe`` does, minus the encode."""
    for t in terms:
        assert rc.cst.intern(("MPI_Fake", t), dur) == t
        rc.grammar.append(t)


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"the CST was touched ({name})")


class TestFlushCostsWhatChanged:

    def test_an_idle_rank_returns_none_without_touching_the_cst(self):
        rc = _rank()
        assert rc.flush_partial() is None
        _feed(rc, [0, 1, 0])
        assert rc.flush_partial().n_calls == 3
        live, rc.cst = rc.cst, _Untouchable()
        assert rc.flush_partial() is None
        assert rc.flush_partial() is None
        rc.cst = live
        _feed(rc, [1])
        assert rc.flush_partial().idx == [1]

    def test_one_call_into_a_thousand_signatures_is_one_delta(self):
        rc = _rank()
        _feed(rc, range(1000))
        first = rc.flush_partial()
        assert len(first.new_sigs) == len(first.idx) == 1000
        _feed(rc, [617], dur=2.5e-6)
        p = rc.flush_partial()
        assert (p.n_calls, p.new_sigs, p.idx, p.d_counts, p.d_dur_ns) == \
            (1, [], [617], [1], [2500])
        assert p.parts == [Grammar.flat([617])]
        assert rc.streamed_calls == 1001
        assert rc._sent_counts[617] == 2 and len(rc._sent_counts) == 1000

    def test_duration_deltas_telescope_over_rounded_totals(self):
        rc = _rank()
        sent = 0
        for _ in range(7):
            _feed(rc, [0], dur=0.4e-9)     # rounds to 0 ns on its own
            sent += rc.flush_partial().d_dur_ns[0]
        assert sent == _dur_to_ns(rc.cst.dur_sums[0]) == 3

    def test_a_watermark_crossing_is_the_only_sequitur(self, monkeypatch):
        built = []
        real = Sequitur.__init__

        def counting(self, **kw):
            built.append(1)
            real(self, **kw)

        monkeypatch.setattr(Sequitur, "__init__", counting)
        rc = _rank(memory_watermark=6)
        _feed(rc, [0, 1, 0, 1, 0, 1])
        assert isinstance(rc.grammar, TermLog) and not built
        rc.spill()                  # what observe does at n_input == 6
        assert built == [1] and rc.watermark_spills == 1
        assert not rc.grammar and rc.observed_calls == 6
        _feed(rc, [2])
        p = rc.flush_partial()
        assert built == [1]
        assert _expansions(p.parts) == [[0, 1, 0, 1, 0, 1], [2]]
        assert p.parts[0].n_rules > 1 and p.idx == [0, 1, 2]
        with pytest.raises(RuntimeError, match="flush_partial"):
            rc.freeze()


# -- unit tests: one refeed routine, three former call sites ----------------------------


def o_refeed(parts, loop_detection: bool = True) -> Grammar:
    """``RankFold._refeed`` as the parent had it (and, with the live
    grammar's terminals as a last part, ``RankCompressor.freeze``'s
    splice)."""
    seq = Sequitur(loop_detection=loop_detection)
    for part in parts:
        seq.append_array(part.expand())
    return Grammar.freeze(seq)


class TestOneRefeedRoutine:

    @pytest.mark.parametrize("loop_detection", [True, False])
    def test_spilled_one_shot_runs_freeze_to_the_unspilled_grammar(
            self, loop_detection):
        stream = ([0, 1, 2] * 9 + [3]) * 4 + [4, 4, 4, 0, 1]
        plain = RankCompressor(0, CommIdSpace(1),
                               loop_detection=loop_detection)
        spilled = RankCompressor(0, CommIdSpace(1), memory_watermark=7,
                                 loop_detection=loop_detection)
        for rc in (plain, spilled):
            for t in stream:
                rc.cst.intern(("MPI_Fake", t), 1e-6)
                rc.grammar.append(t)
                if rc.memory_watermark and rc.grammar.n_input >= 7:
                    rc.spill()
        assert spilled.watermark_spills == len(stream) // 7
        parts = [*spilled._spill_parts, Grammar.freeze(spilled.grammar)]
        shard = spilled.freeze()
        assert shard.cfg == plain.freeze().cfg
        assert shard.calls == [len(stream)]
        (g,) = shard.cfg.unique
        assert g == o_refeed(parts, loop_detection) \
            == Grammar.refeed(parts, loop_detection)

    @pytest.mark.parametrize("family", ["stencil2d", "milc_su3_rmd"])
    def test_spilled_workload_runs_are_byte_identical(self, family):
        spilled = _one_shot(family, lossy=True, watermark=7)
        assert any(rc.watermark_spills for rc in spilled.ranks)
        assert spilled.result.trace_bytes == \
            _one_shot(family, lossy=True).result.trace_bytes

    def test_consolidated_folds(self):
        flushes, config, fin, _ = _stream(
            ChunkingTracer, "stencil2d", chunk_calls=1, lossy=True)
        fold = TenantFold("t", NPROCS, config)
        shadow: dict[int, list[list[Grammar]]] = {}
        for flush in flushes:
            for p in flush:
                main, dur, ivl = shadow.setdefault(p.rank, [[], [], []])
                main.extend(p.parts)
                dur.append(p.timing_duration)
                ivl.append(p.timing_interval)
            fold.absorb_blob(write_flush(flush))
        assert any(f.consolidations for f in fold.ranks.values())
        for rank, f in fold.ranks.items():
            assert len(f.parts) <= CONSOLIDATE_AFTER
            shard = f.to_shard(config)
            for got, parts in zip((shard.cfg, shard.timing_duration,
                                   shard.timing_interval), shadow[rank]):
                assert got.unique == [o_refeed(parts)]
        assert fold.finish(fin) == \
            _one_shot("stencil2d", lossy=True).result.trace_bytes

    def test_checkpoint_restore(self):
        flushes, config, fin, _ = _stream(
            ChunkingTracer, "flash_sedov", chunk_calls=32, lossy=True)
        ref = _fold(flushes, config, fin)
        cut = len(flushes) // 2
        fold = TenantFold("t", NPROCS, config)
        for flush in flushes[:cut]:
            fold.absorb_blob(write_flush(flush))
        for f in fold.ranks.values():
            p = f.to_partial()
            assert p.timing_duration == o_refeed(f.timing_dur_parts)
            assert p.timing_interval == o_refeed(f.timing_int_parts)
            assert _expansions(p.parts) == _expansions(f.parts)
        state = TenantState(tenant="t", nprocs=NPROCS, config=config,
                            next_seq=cut)
        restored, got_state = TenantFold.from_bytes(fold.to_bytes(state))
        assert got_state.next_seq == cut
        for flush in flushes[cut:]:
            restored.absorb_blob(write_flush(flush))
        assert restored.finish(fin) == ref == \
            _one_shot("flash_sedov", lossy=True).result.trace_bytes


# -- wire and checkpoint compatibility with the parent commit ---------------------------

FIXTURE = Path(__file__).parent / "data" / "stream_xversion.json"


class TestCrossVersion:
    """``tests/data/stream_xversion.json`` pins one stream each way
    (stencil2d, 4 ranks, seed 11, lossy timing, watermark 23, 97 calls a
    chunk).  ``parent_*`` was recorded by the commit before PR 16 — its
    CHUNK payloads, a checkpoint taken after half of them, and the trace
    its own server folded them to — in ``PARTIAL_VERSION`` 1 and
    ``CHECKPOINT_VERSION`` 1: the product refuses both by version, and
    the reader that left ``src/`` with them
    (``tests/test_flush_record_oracle.py``) still takes them to that
    trace through today's fold.  ``new_chunks`` is what this producer
    emits for the same run, one flush record a CHUNK, and
    ``new_checkpoint`` the fold of the first half of them (re-recorded
    at each format revision since; the file's ``note`` says how each
    was checked against the recording it replaces).

    The pinned trace is a format-v2 blob and stays one: what the streams
    fold to is compared as *tables* — signatures, counts, nanoseconds,
    CFG, timing — with the v2 blob as the oracle's reader
    (``tests/test_cst_table_oracle.py``) parses it."""

    @pytest.fixture(scope="class")
    def pinned(self):
        doc = json.loads(FIXTURE.read_text())
        doc["config"] = proto.IngestConfig.from_tuple(
            _tuplify(doc["config"]))
        for key in ("parent_chunks", "new_chunks"):
            doc[key] = [bytes.fromhex(h) for h in doc[key]]
        for key in ("parent_checkpoint", "new_checkpoint", "trace"):
            doc[key] = bytes.fromhex(doc[key])
        doc["tables"] = read_v2_trace(doc["trace"])
        assert len(doc["tables"].cst) > 10 and doc["tables"].timing_meta
        return doc

    def test_parent_chunks_fold_to_the_parent_trace(self, pinned):
        fold = TenantFold("xv", NPROCS, pinned["config"])
        parts = []
        for blob in pinned["parent_chunks"]:
            with pytest.raises(UnsupportedVersionError):
                fold.absorb_blob(blob)
            for p in v1_read_partials(blob):
                fold.absorb(p)
                parts += p.parts
        # the parent shipped every part as a frozen Sequitur
        assert sum(g.n_rules > 1 for g in parts) > len(parts) // 2
        assert TraceFile.from_bytes(
            fold.finish(pinned["fin"])) == pinned["tables"]

    def test_parent_checkpoint_resumes_to_the_parent_trace(self, pinned):
        with pytest.raises(UnsupportedVersionError):
            TenantFold.from_bytes(pinned["parent_checkpoint"])
        fold, state = v1_restore(pinned["parent_checkpoint"])
        assert state.next_seq == pinned["checkpoint_after"]
        for blob in pinned["parent_chunks"][state.next_seq:]:
            for p in v1_read_partials(blob):
                fold.absorb(p)
        assert TraceFile.from_bytes(
            fold.finish(pinned["fin"])) == pinned["tables"]

    def test_todays_producer_emits_what_the_parent_parsed(self, pinned):
        flushes, config, fin, _ = _stream(
            ChunkingTracer, "stencil2d", chunk_calls=97, lossy=True,
            watermark=23)
        assert (config, fin) == (pinned["config"], pinned["fin"])
        assert flushes == [read_partials(b) for b in pinned["new_chunks"]]
        # the wire: the recorded CHUNK payloads, byte for byte
        assert [write_flush(flush, compress=False)
                for flush in flushes] == pinned["new_chunks"]
        folded = _fold(flushes, config, fin)
        assert folded == _one_shot("stencil2d", lossy=True).result.trace_bytes
        assert TraceFile.from_bytes(folded) == pinned["tables"]

    def test_todays_checkpoint_resumes_to_the_parent_trace(self, pinned):
        cut = pinned["checkpoint_after"]
        fold = TenantFold("xv", NPROCS, pinned["config"])
        for blob in pinned["new_chunks"][:cut]:
            fold.absorb_blob(blob)
        state = TenantState(tenant="xv", nprocs=NPROCS,
                            config=pinned["config"], next_seq=cut)
        # section for section (its bytes are zlib's), the recorded one
        for blob in fold.to_bytes(state), pinned["new_checkpoint"]:
            resumed, got = TenantFold.from_bytes(blob)
            assert got.next_seq == cut
            assert [f.to_partial() for f in resumed.ranks.values()] == \
                [f.to_partial() for f in fold.ranks.values()]
            for chunk in pinned["new_chunks"][cut:]:
                resumed.absorb_blob(chunk)
            assert TraceFile.from_bytes(
                resumed.finish(pinned["fin"])) == pinned["tables"]


def _tuplify(x):
    return tuple(map(_tuplify, x)) if isinstance(x, list) else x
