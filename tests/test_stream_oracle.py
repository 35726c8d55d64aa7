"""Differential tests: the streaming produce path against the one it
replaced, and unit tests for the pieces the replacement is made of.

Until PR 16 every flush froze the rank's live Sequitur into a grammar
part, started a fresh one, and scanned the whole CST for the entries
that had moved.  That producer left ``src/`` when streaming ranks became
encode + CST only (:class:`~repro.core.shard.StreamingRankCompressor`);
it lives on here as the oracle.  Since every product rank only logs its
terminals, the oracle owns the per-call Sequitur the parent's rank had
instead of borrowing the rank's column.  Flush by flush the product
must report the same calls, signatures and sparse deltas, its parts must
expand to the oracle's terminals, and both streams must fold to the
one-shot bytes.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest

from repro.core import shard
from repro.core.backends import TracerOptions, make_tracer
from repro.core.grammar import Grammar, TermLog
from repro.core.packing import Reader
from repro.core.sequitur import Sequitur
from repro.core.shard import (RankCompressor, ShardPartial,
                              StreamingRankCompressor, _dur_to_ns,
                              write_flush)
from repro.core.timing import TimingCompressor
from repro.core.trace_format import TraceFile, read_grammars
from repro.core.encoder import CommIdSpace
from repro.core.errors import UnsupportedVersionError
from repro.ingest import ChunkingTracer, protocol as proto
from repro.ingest.aggregator import (CHECKPOINT, TenantFold,
                                     read_partials)
from repro.ingest.session import TenantState
from repro.obs import MetricsRegistry
from repro.workloads import make

from test_cst_table_oracle import read_v2_trace
from test_flush_record_oracle import v1_read_partials, v1_restore

# -- the oracle: the freeze-a-Sequitur-per-flush producer, kept verbatim ----------------


def o_restart(timing: TimingCompressor, loop_detection: bool) -> None:
    """Give *timing* the parent's two live bin grammars: ``record``
    feeds them per call."""
    timing.duration_grammar = Sequitur(loop_detection=loop_detection)
    timing.interval_grammar = Sequitur(loop_detection=loop_detection)


def o_rotate(timing: TimingCompressor, loop_detection: bool
             ) -> Optional[tuple[Grammar, Grammar]]:
    """The parent's ``TimingCompressor.rotate``: freeze the two live bin
    grammars and restart them."""
    if timing.duration_grammar.n_input == 0:
        return None
    parts = (Grammar.freeze(timing.duration_grammar),
             Grammar.freeze(timing.interval_grammar))
    o_restart(timing, loop_detection)
    return parts


class OracleRank(RankCompressor):
    """The parent's one-shot rank with its ``flush_partial`` on it: its
    own live Sequitur fed per call, Sequitur timing grammars, and both
    frozen into parts and restarted at each flush.  With ``cut`` set
    the call Sequitur is also frozen and restarted every ``cut`` calls,
    as the memory watermark once cut a streaming rank's column, so its
    flushes carry multi-rule parts.  The product's terminal log is never
    written."""

    #: calls between the call Sequitur's extra cuts (None: no cuts)
    cut: Optional[int] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seq = Sequitur(loop_detection=self.loop_detection)
        if self.timing is not None:
            o_restart(self.timing, self.loop_detection)
        self.o_parts: list[Grammar] = []
        self.o_input = 0
        self.streamed_calls = 0
        self._sent_sigs_n = 0
        self._sent_counts: list[int] = []
        self._sent_dur_ns: list[int] = []

    def observe(self, fname, values, t0, t1):
        term = self.cst.intern(self.encoder.encode_call(fname, values),
                               t1 - t0)
        self.seq.append(term)
        if self.timing is not None:
            self.timing.record(term, fname, t0, t1)
        if self.cut is not None and self.seq.n_input >= self.cut:
            self._o_rotate()
        return term

    def _o_rotate(self) -> None:
        self.o_parts.append(Grammar.freeze(self.seq))
        self.o_input += self.seq.n_input
        self.seq = Sequitur(loop_detection=self.loop_detection)

    def flush_partial(self) -> Optional[ShardPartial]:
        if self.seq.n_input:
            self._o_rotate()
        n_calls = self.o_input - self.streamed_calls
        if n_calls == 0:
            return None
        parts = self.o_parts
        self.o_parts = []
        self.streamed_calls = self.o_input

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

    def __init__(self, *args, cut: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.cut = cut

    def on_run_start(self, sim) -> None:
        super().on_run_start(sim)
        for rc in self.ranks:
            rc.cut = self.cut


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
            lossy: bool = False, **kwargs):
    """One run's flushes, its config, its FIN call counts, its tracer."""
    flushes: list[list[ShardPartial]] = []
    tracer = _run(family, tracer_cls(
        emit_flush=flushes.append, chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy else "aggregate", **kwargs))
    return (flushes, tracer.config(),
            [rc.streamed_calls for rc in tracer.ranks], tracer)


def _fold(flushes, config, fin) -> bytes:
    fold = TenantFold("t", NPROCS, config)
    for flush in flushes:
        fold.absorb_blob(write_flush(flush))
    return fold.finish(fin)


def _one_shot(family: str, *, lossy: bool = False,
              log_limit: int = shard.LOG_LIMIT, loop_detection: bool = True):
    with mock.patch.object(shard, "LOG_LIMIT", log_limit):
        return _run(family, make_tracer("pilgrim", TracerOptions(
            lossy_timing=lossy, extra=dict(loop_detection=loop_detection))))


def _terminals(parts) -> list[int]:
    """Every part expanded, in order, as one terminal stream."""
    return [t for g in parts for t in g.expand()]


# -- the differential matrix ------------------------------------------------------------


class TestAgainstTheOracle:

    # the one-shot reference's ranks drain their logs into Sequitur
    # after every call (1) or never (256: more calls than any rank here
    # makes); the streams must fold to its bytes either way.  The oracle
    # also cuts its call Sequitur every 7 or 23 calls (or only at
    # flushes): its multi-rule parts are what producers shipped before
    # every part went flat, and they must fold to the same bytes
    @pytest.mark.parametrize("log_limit", [1, 256])
    @pytest.mark.parametrize("cut", [None, 7, 23])
    @pytest.mark.parametrize("lossy", [False, True],
                             ids=["aggregate", "lossy"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_flush_by_flush(self, family, lossy, cut, log_limit):
        ref = _one_shot(family, lossy=lossy,
                        log_limit=log_limit).result.trace_bytes
        for chunk_calls in (1, 9, 64, 256, 10 ** 9):
            kw = dict(chunk_calls=chunk_calls, lossy=lossy)
            got, config, fin, _ = _stream(ChunkingTracer, family, **kw)
            want, o_config, o_fin, _ = _stream(OracleTracer, family,
                                               cut=cut, **kw)
            assert (config, fin) == (o_config, o_fin)
            assert len(got) == len(want), chunk_calls
            for flush, o_flush in zip(got, want):
                assert [p.rank for p in flush] == [p.rank for p in o_flush]
                for p, o in zip(flush, o_flush):
                    assert (p.n_calls, p.new_sigs, p.idx, p.d_counts,
                            p.d_dur_ns) == \
                        (o.n_calls, o.new_sigs, o.idx, o.d_counts,
                         o.d_dur_ns), (chunk_calls, p.rank)
                    assert len(p.parts) == 1
                    assert _terminals(p.parts) == _terminals(o.parts)
                    assert len(_terminals(p.parts)) == p.n_calls
                    if lossy:
                        assert p.timing_duration.expand() == \
                            o.timing_duration.expand()
                        assert p.timing_interval.expand() == \
                            o.timing_interval.expand()
                    else:
                        assert p.timing_duration is o.timing_duration is None
            assert _fold(got, config, fin) == ref, chunk_calls
            assert _fold(want, config, fin) == ref, chunk_calls

    def test_parts_are_flat(self):
        for chunk_calls in (64, 10 ** 9):
            flushes, *_ = _stream(ChunkingTracer, "stencil2d",
                                  chunk_calls=chunk_calls, lossy=True)
            for p in (p for flush in flushes for p in flush):
                assert len(p.parts) == 1
                for g in (*p.parts, p.timing_duration, p.timing_interval):
                    assert g == Grammar.flat(g.expand())
        # the oracle's cuts do leave multi-rule parts for the fold to take
        want, *_ = _stream(OracleTracer, "stencil2d", cut=23)
        assert any(g.n_rules > 1 for flush in want for p in flush
                   for g in p.parts)


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
        assert read_grammars(r, 1, "flat") == [g] and r.exhausted
        assert Grammar.compress(g.expand()).expand() == log

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

    @pytest.mark.parametrize("terms", [[-1], [-1, -1, 3], [3, -2]])
    def test_a_leading_minus_one_is_no_run_of_the_sentinel(self, terms):
        # the run sentinel was -1, so a leading -1 "extended" it into the
        # self-referencing ((-1, 1),), whose expand() died as cyclic
        with pytest.raises(ValueError, match="non-negative"):
            Grammar.flat(terms)

    def test_term_log_has_the_feed_surface(self):
        log, seq = TermLog(), Sequitur()
        for feed in (log, seq):
            for t in (4, 4, 5, 4):
                feed.append(t)
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

    def test_a_streaming_rank_builds_no_sequitur(self, monkeypatch):
        built = []
        real = Sequitur.__init__

        def counting(self, **kw):
            built.append(1)
            real(self, **kw)

        monkeypatch.setattr(Sequitur, "__init__", counting)
        rc = _rank()
        _feed(rc, [0, 1, 0, 1, 0, 1])
        assert isinstance(rc.grammar, TermLog) and rc.observed_calls == 6
        p = rc.flush_partial()
        _feed(rc, [2])
        assert rc.observed_calls == 7
        q = rc.flush_partial()
        assert (p.parts, q.parts) == ([Grammar.flat([0, 1] * 3)],
                                      [Grammar.flat([2])])
        assert q.idx == [2] and rc.streamed_calls == rc.observed_calls
        with pytest.raises(RuntimeError, match="flush_partial"):
            rc.freeze()
        # a whole-run chunk far past LOG_LIMIT: the log never drains
        with mock.patch.object(shard, "LOG_LIMIT", 4):
            (flush,), *_ = _stream(ChunkingTracer, "stencil2d",
                                   chunk_calls=10 ** 9, lossy=True)
        assert min(p.n_calls for p in flush) > 4
        assert not built


# -- unit tests: the fold against one fresh Sequitur per stream -------------------------


def o_refeed(parts, loop_detection: bool = True) -> Grammar:
    """Every part expanded, in order, through one fresh Sequitur: what
    the fold's refeed and consolidation once were."""
    seq = Sequitur(loop_detection=loop_detection)
    for part in parts:
        seq.append_array(part.expand())
    return Grammar.freeze(seq)


class TestOneRefeedRoutine:

    def test_drained_folds(self):
        """Streams past ``LOG_LIMIT`` drain into the fold's live
        Sequiturs, and still freeze to the grammar of every part
        received, fed to one fresh Sequitur."""
        for lossy, loop_detection in product([False, True], repeat=2):
            self._drained_fold(lossy, loop_detection)

    @staticmethod
    def _drained_fold(lossy: bool, loop_detection: bool) -> None:
        with mock.patch.object(shard, "LOG_LIMIT", 16):
            flushes, config, fin, _ = _stream(
                ChunkingTracer, "stencil2d", chunk_calls=1, lossy=lossy,
                loop_detection=loop_detection)
            fold = TenantFold("t", NPROCS, config)
            shadow: dict[int, list[list[Grammar]]] = {}
            for flush in flushes:
                for p in flush:
                    main, dur, ivl = shadow.setdefault(p.rank, [[], [], []])
                    main.extend(p.parts)
                    if lossy:
                        dur.append(p.timing_duration)
                        ivl.append(p.timing_interval)
                fold.absorb_blob(write_flush(flush))
        for rank, f in fold.ranks.items():
            assert len(f.logs) == (3 if lossy else 1)
            got = f.freeze()
            for log, gs, parts in zip(f.logs, (got.cfg, got.timing_duration,
                                               got.timing_interval),
                                      shadow[rank]):
                assert log.seq is not None      # it drained
                assert gs.unique == [o_refeed(parts, loop_detection)]
        assert fold.finish(fin) == _one_shot(
            "stencil2d", lossy=lossy,
            loop_detection=loop_detection).result.trace_bytes

    def test_checkpoint_restore(self):
        """A checkpoint, before or after the fold's streams drained,
        holds each stream as one flat part, resumes to the one-shot
        bytes, and costs the live fold nothing: it goes on without a
        Sequitur the fold would not have built unchecked."""
        for case in product([shard.LOG_LIMIT, 48], [False, True],
                            [False, True]):
            self._checkpoint_restore(*case)

    @staticmethod
    def _checkpoint_restore(log_limit: int, lossy: bool,
                            loop_detection: bool) -> None:
        built = []

        class Counting(Sequitur):
            def __init__(self, **kw):
                built.append(1)
                super().__init__(**kw)

        flushes, config, fin, _ = _stream(
            ChunkingTracer, "flash_sedov", chunk_calls=32, lossy=lossy,
            loop_detection=loop_detection)
        want = _one_shot("flash_sedov", lossy=lossy,
                         loop_detection=loop_detection).result.trace_bytes
        cut = len(flushes) // 2
        with mock.patch.object(shard, "LOG_LIMIT", log_limit), \
                mock.patch("repro.core.grammar.Sequitur", Counting):
            assert _fold(flushes, config, fin) == want
            unchecked = len(built)
            fold = TenantFold("t", NPROCS, config)
            for flush in flushes[:cut]:
                fold.absorb_blob(write_flush(flush))
            drained = any(f.logs[0].seq for f in fold.ranks.values())
            state = TenantState(tenant="t", nprocs=NPROCS, config=config,
                                next_seq=cut)
            blob = fold.to_bytes(state)
            for flush in flushes[cut:]:
                fold.absorb_blob(write_flush(flush))
            assert fold.finish(fin) == want
            assert len(built) == 2 * unchecked
            restored, got_state = TenantFold.from_bytes(blob)
            for flush in flushes[cut:]:
                restored.absorb_blob(write_flush(flush))
            assert restored.finish(fin) == want
        assert drained == (log_limit != shard.LOG_LIMIT)
        assert got_state.next_seq == cut
        for p in read_partials(CHECKPOINT.read(blob).values[1]):
            calls, durs, ivls = _sent(flushes[:cut], p.rank)
            assert p.parts == [Grammar.flat(calls)]
            assert (p.timing_duration, p.timing_interval) == (
                (Grammar.flat(durs), Grammar.flat(ivls)) if lossy
                else (None, None))


def _sent(flushes, rank: int) -> list[list[int]]:
    """The call, duration-bin and interval-bin terminals *flushes* sent
    for *rank*, in order."""
    out: list[list[int]] = [[], [], []]
    for p in (p for flush in flushes for p in flush if p.rank == rank):
        for terms, parts in zip(out, (p.parts, [p.timing_duration],
                                      [p.timing_interval])):
            terms.extend(t for g in parts if g is not None
                         for t in g.expand())
    return out


# -- wire and checkpoint compatibility with the parent commit ---------------------------

FIXTURE = Path(__file__).parent / "data" / "stream_xversion.json"


class TestCrossVersion:
    """``tests/data/stream_xversion.json`` pins one stream each way
    (stencil2d, 4 ranks, seed 11, lossy timing, 97 calls a chunk).
    ``parent_*`` was recorded by the commit before PR 16 — its CHUNK
    payloads, a checkpoint taken after half of them, and the trace its
    own server folded them to — in ``PARTIAL_VERSION`` 1 and
    ``CHECKPOINT_VERSION`` 1: the product refuses both by version, and
    the reader that left ``src/`` with them
    (``tests/test_flush_record_oracle.py``) still takes them to that
    trace through today's fold.  ``new_chunks`` is one flush record a
    CHUNK for the same run, and ``new_checkpoint`` the fold of the first
    half of them (re-recorded at each format revision since; the file's
    ``note`` says how each was checked against the recording it
    replaces).  They were recorded while the producer still cut each
    rank's call stream at a memory watermark of 23 calls, so their parts
    are multi-rule grammars: today's producer ships the same streams as
    one flat part a partial, and the fold must take both.

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
            ChunkingTracer, "stencil2d", chunk_calls=97, lossy=True)
        assert (config, fin) == (pinned["config"], pinned["fin"])
        recorded = [read_partials(b) for b in pinned["new_chunks"]]
        assert any(g.n_rules > 1 for flush in recorded for p in flush
                   for g in p.parts)
        assert len(flushes) == len(recorded)
        for flush, pinned_flush in zip(flushes, recorded):
            assert [_stream_of(p) for p in flush] == \
                [_stream_of(p) for p in pinned_flush]
            assert all(len(p.parts) == 1 for p in flush)
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


def _stream_of(p: ShardPartial) -> tuple:
    """A partial field for field, each grammar as the terminal stream it
    expands to."""
    return (p.rank, p.n_calls, p.new_sigs, p.idx, p.d_counts, p.d_dur_ns,
            _terminals(p.parts),
            *(g.expand() if g is not None else None
              for g in (p.timing_duration, p.timing_interval)))


def _tuplify(x):
    return tuple(map(_tuplify, x)) if isinstance(x, list) else x
