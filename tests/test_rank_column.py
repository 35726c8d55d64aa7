"""A rank's grammar column: the hot path logs terminals, Sequitur runs
once per distinct logged stream.

Every rank appends its terminals (and, under lossy timing, its two bin
streams) to :class:`~repro.core.grammar.TermLog` columns.  A column that
reaches :data:`~repro.core.shard.LOG_LIMIT` drains into its own live
Sequitur; one that never did is compressed at finalize through a memo
shared by the run's ranks (:meth:`~repro.core.grammar.Grammar.compress`).
Sequitur is online, so none of that may move a byte: the oracle here is
the rank this design replaced — one fresh Sequitur per rank, fed per
call with ``append``, no memo.
"""

from __future__ import annotations

import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import shard as shard_mod
from repro.core.grammar import Grammar, TermLog
from repro.core.sequitur import Sequitur
from repro.core.shard import LOG_LIMIT, RankCompressor
from repro.core.tracer import PilgrimTracer
from repro.ingest import ChunkingTracer, TenantFold
from repro.mpisim import ANY_SOURCE, SimMPI
from repro.obs import MetricsRegistry

#: distinct MPI_Iprobe tags, hence distinct signatures, hence terminals;
#: tags start past every rank number so none encodes as "my own rank"
ALPHABET, TAG0 = 5, 100
#: the calls a rank makes besides its stream: MPI_Init, MPI_Barrier,
#: MPI_Finalize
FRAME = 3


class SequiturRank(RankCompressor):
    """The oracle: a fresh Sequitur per rank fed per call with
    ``append``, and likewise the two timing bin grammars."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seq = Sequitur(loop_detection=self.loop_detection)
        if self.timing is not None:
            self.timing.duration_grammar = Sequitur(
                loop_detection=self.loop_detection)
            self.timing.interval_grammar = Sequitur(
                loop_detection=self.loop_detection)

    @property
    def observed_calls(self) -> int:
        return self.seq.n_input

    def observe(self, fname, values, t0, t1):
        term = self.cst.intern(self.encoder.encode_call(fname, values),
                               t1 - t0)
        self.seq.append(term)
        if self.timing is not None:
            self.timing.record(term, fname, t0, t1)
        return term

    def compress(self, memo=None):
        t = self.timing
        return Grammar.freeze(self.seq), None if t is None else (
            Grammar.freeze(t.duration_grammar),
            Grammar.freeze(t.interval_grammar))


class SequiturTracer(PilgrimTracer):
    rank_class = SequiturRank


class Unfinalized(PilgrimTracer):
    """A tracer whose run ends without a finalize, so a test can look at
    the ranks' columns as the last call left them."""

    def on_run_end(self, sim) -> None:
        pass


def _program(streams: list[list[int]]):
    def prog(m):
        for tag in streams[m.rank]:
            m.iprobe(ANY_SOURCE, tag=TAG0 + tag)
        yield from m.barrier()
    return prog


def _run(tracer, streams):
    SimMPI(len(streams), seed=1, tracer=tracer).run(_program(streams))
    return tracer


def _kwargs(lossy: bool, loop_detection: bool) -> dict:
    return dict(timing_mode="lossy" if lossy else "aggregate",
                loop_detection=loop_detection)


def _oracle(streams, lossy=False, loop_detection=True) -> bytes:
    return _run(SequiturTracer(**_kwargs(lossy, loop_detection)),
                streams).result.trace_bytes


def _long(base: list[int]) -> list[int]:
    """*base* repeated until the stream is past ``LOG_LIMIT``."""
    return base * (LOG_LIMIT // len(base) + 2)


@st.composite
def rank_streams(draw):
    """Per-rank tag streams drawn from a few bases: ranks repeat a base
    (duplicates) or repeat it with the last tag changed
    (near-duplicates); optionally rank 0 — and its twin, rank 1 — runs
    past ``LOG_LIMIT``."""
    tags = st.integers(0, ALPHABET - 1)
    bases = draw(st.lists(st.lists(tags, min_size=1, max_size=40),
                          min_size=1, max_size=3))
    streams = []
    for _ in range(draw(st.integers(2, 6))):
        s = list(draw(st.sampled_from(bases)))
        if draw(st.booleans()):
            s[-1] = (s[-1] + 1) % ALPHABET
        streams.append(s)
    if draw(st.booleans()):
        streams[0] = _long(streams[0])
        if draw(st.booleans()):
            streams[1] = list(streams[0])
    return streams


class TestAgainstAPerCallSequitur:

    @settings(max_examples=60, deadline=None)
    @given(streams=rank_streams(), lossy=st.booleans(),
           loop_detection=st.booleans(),
           log_limit=st.sampled_from([LOG_LIMIT, 1, 4, 9]))
    def test_trace_bytes(self, streams, lossy, loop_detection, log_limit):
        with mock.patch.object(shard_mod, "LOG_LIMIT", log_limit):
            got = _run(PilgrimTracer(**_kwargs(lossy, loop_detection)),
                       streams)
        assert got.result.trace_bytes == \
            _oracle(streams, lossy, loop_detection)
        assert got.result.per_rank_calls == \
            [len(s) + FRAME for s in streams]

    @pytest.mark.parametrize("lossy", [False, True])
    def test_a_rank_past_the_log_limit_drains(self, lossy):
        streams = [_long([0, 1, 2, 1]), [3, 4] * 5, [3, 4] * 5]
        live = _run(Unfinalized(**_kwargs(lossy, True)), streams)
        long_rank, short = live.ranks[0], live.ranks[1]
        assert long_rank.grammar.seq is not None
        assert len(long_rank.grammar) < LOG_LIMIT
        assert long_rank.grammar.n_input == len(streams[0]) + FRAME
        assert short.grammar.seq is None
        assert len(short.grammar) == 10 + FRAME
        if lossy:
            assert long_rank.timing.duration_grammar.seq is not None
            assert long_rank.timing.interval_grammar.seq is not None
            assert short.timing.duration_grammar.seq is None
        assert live.finalize().trace_bytes == _oracle(streams, lossy)


class TestOneSequiturPerDistinctStream:

    @staticmethod
    def _counting(monkeypatch) -> list:
        """Count the Sequiturs the columns build (not the final
        cross-rank pass, which ``repro.core.interproc`` builds)."""
        built = []

        class Counting(Sequitur):
            def __init__(self, **kw):
                built.append(1)
                super().__init__(**kw)

        monkeypatch.setattr("repro.core.grammar.Sequitur", Counting)
        return built

    STREAMS = [[0, 1, 2] * 4, [0, 1, 2] * 4, [0, 1, 2] * 3 + [0, 1, 3],
               [0, 1, 2] * 4, [4]]

    def test_the_tracer_compresses_each_distinct_log_once(self,
                                                          monkeypatch):
        tracer = _run(Unfinalized(), self.STREAMS)
        built = self._counting(monkeypatch)
        tracer.compress_ranks()
        assert len(built) == 3
        (g0, _), (g1, _), (g2, _), (g3, _), _ = \
            [rc.compress() for rc in tracer.ranks]
        assert g0 is g1 is g3 and g2 != g0
        assert len(built) == 3, "compress() after compress_ranks() is free"
        assert tracer.finalize().trace_bytes == _oracle(self.STREAMS)
        assert tracer.result.n_unique_grammars == 3

    def test_the_fold_compresses_each_distinct_stream_once(self,
                                                           monkeypatch):
        flushes = []
        client = _run(ChunkingTracer(emit_flush=flushes.append,
                                     chunk_calls=7), self.STREAMS)
        fold = TenantFold("t", len(self.STREAMS), client.config())
        for flush in flushes:
            for p in flush:
                fold.absorb(p)
        built = self._counting(monkeypatch)
        assert fold.finish([rc.streamed_calls for rc in client.ranks]) \
            == _oracle(self.STREAMS)
        assert len(built) == 3

    def test_compression_is_billed_as_intra_process_sequitur_time(
            self, monkeypatch):
        # each real compression (a memo miss) costs a known 20 ms: all of
        # it must land in time_intra and the sequitur phase, none of it in
        # the shard freeze that Fig 8 counts as inter-process work
        real = Grammar.compress.__func__

        def slow(cls, terms, loop_detection=True, memo=None):
            if memo is None:
                time.sleep(0.02)
            return real(cls, terms, loop_detection, memo)

        monkeypatch.setattr(Grammar, "compress", classmethod(slow))
        result = _run(PilgrimTracer(metrics=MetricsRegistry()),
                      self.STREAMS).result
        assert result.phases["sequitur"] >= 0.06
        assert result.time_intra >= 0.06
        assert result.phases["shard"] < 0.02


@st.composite
def loopy_streams(draw):
    """Streams of one short loop body, rotated and repeated, between
    stray tags: the shape on which a flushed loop prediction changes
    what Sequitur builds next."""
    tags = st.integers(0, ALPHABET - 1)
    body = draw(st.lists(tags, min_size=1, max_size=3))
    stream = []
    for _ in range(draw(st.integers(1, 8))):
        stream += draw(st.lists(tags, max_size=2))
        r = draw(st.integers(0, len(body) - 1))
        stream += (body[r:] + body[:r]) * draw(st.integers(1, 6))
    return stream


class CompressEvery(PilgrimTracer):
    """Rank 0 runs ``compress()`` after every *every*-th call, and goes
    on tracing."""

    def __init__(self, every: int, **kwargs):
        super().__init__(**kwargs)
        self.every = every

    def on_call(self, rank, fname, values, t0, t1):
        super().on_call(rank, fname, values, t0, t1)
        if rank == 0 and self.ranks[0].observed_calls % self.every == 0:
            self.ranks[0].compress()


class TestFreezingMidStream:
    """A column frozen before its last terminal goes on to the grammar
    of a column never frozen early.  ``Grammar.freeze`` flushes the live
    Sequitur's loop prediction, which an uncut stream keeps live, so the
    column must not go on from the flushed Sequitur."""

    @settings(max_examples=300, deadline=None)
    @given(stream=loopy_streams(), limit=st.integers(1, 4),
           every=st.integers(1, 4), loop_detection=st.booleans())
    @example(stream=[3, 3, 2, 3, 2, 3, 2, 4, 2, 3, 2, 3, 2, 3], limit=1,
             every=12, loop_detection=True)
    def test_a_frozen_column_goes_on_as_if_uncut(self, stream, limit,
                                                 every, loop_detection):
        log = TermLog(loop_detection)
        for i, t in enumerate(stream, 1):
            log.append(t)
            if len(log) >= limit:
                log.drain()
            if i % every == 0:
                assert log.freeze() == \
                    Grammar.compress(stream[:i], loop_detection)
        assert log.expand() == stream
        assert log.freeze() == Grammar.compress(stream, loop_detection)

    @settings(max_examples=100, deadline=None)
    @given(stream=loopy_streams(), limit=st.integers(1, 4),
           every=st.integers(1, 4), lossy=st.booleans(),
           loop_detection=st.booleans())
    @example(stream=[3, 3, 2, 3, 2, 3, 2, 4, 2, 3, 2, 3, 2, 3], limit=1,
             every=13, lossy=False, loop_detection=True)
    def test_compress_mid_run_is_invisible_in_the_trace(
            self, stream, limit, every, lossy, loop_detection):
        streams = [stream, stream]
        with mock.patch.object(shard_mod, "LOG_LIMIT", limit):
            got = _run(CompressEvery(every,
                                     **_kwargs(lossy, loop_detection)),
                       streams)
        assert got.result.trace_bytes == \
            _oracle(streams, lossy, loop_detection)
