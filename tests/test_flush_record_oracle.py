"""The flush record against the per-rank partial codec it replaced.

Until PR 23 a CHUNK was its flush's partials back to back, each with its
own header and three to five CRC'd sections (``PARTIAL_VERSION`` 1), and
a checkpoint was a count of length-prefixed partial blobs
(``CHECKPOINT_VERSION`` 1).  That writer and reader left ``src/`` when a
flush became one record of whole-flush columns; they live on here,
verbatim, as the oracle: both codecs must carry the same partials, the
pinned parent streams of ``tests/data/stream_xversion.json`` are read
through this one (``tests/test_stream_oracle.py``), and what the product
does with a version-1 blob is refuse it by name.
"""

from __future__ import annotations

import struct
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import (CorruptTraceError, TraceFormatError,
                               TruncatedTraceError, UnsupportedVersionError)
from repro.core.grammar import Grammar
from repro.core.packing import (Reader, read_value, read_varints, unzigzag,
                                write_uvarint, write_value, write_varints,
                                zigzag)
from repro.core.container import emit_section, take_section
from repro.core.shard import FLUSH, ShardPartial, read_flush, write_flush
from repro.ingest import ChunkingTracer, IngestClient, protocol as proto
from repro.ingest.aggregator import CHECKPOINT, TenantFold, read_partials
from repro.ingest.session import TenantState
from repro.workloads import make

# -- the oracle: PARTIAL_VERSION 1 and CHECKPOINT_VERSION 1, kept verbatim --------------

_V1_FLAG_TIMING = 1
_V1_FLAG_COMPRESSED = 2


def v1_to_bytes(self: ShardPartial, compress: bool = True) -> bytes:
    """The parent's ``ShardPartial.to_bytes``."""
    out = bytearray()
    out.extend(FLUSH.magic)
    out.append(1)
    flags = (_V1_FLAG_TIMING if self.timing_duration is not None
             else 0) | (_V1_FLAG_COMPRESSED if compress else 0)
    out.append(flags)
    write_uvarint(out, self.rank)
    write_uvarint(out, self.n_calls)

    sigs_b = bytearray()
    write_uvarint(sigs_b, len(self.new_sigs))
    for sig in self.new_sigs:
        write_value(sigs_b, sig)
    delta_b = bytearray()
    write_varints(delta_b, [len(self.idx), *chain.from_iterable(zip(
        self.idx, map(zigzag, self.d_counts),
        map(zigzag, self.d_dur_ns)))], signed=False)
    parts_b = bytearray()
    write_uvarint(parts_b, len(self.parts))
    for g in self.parts:
        g.write_to(parts_b)
    payloads = [bytes(sigs_b), bytes(delta_b), bytes(parts_b)]
    if self.timing_duration is not None:
        d = bytearray()
        self.timing_duration.write_to(d)
        i_b = bytearray()
        self.timing_interval.write_to(i_b)
        payloads.extend((bytes(d), bytes(i_b)))
    for payload in payloads:
        emit_section(out, payload, compress)
    return bytes(out)


def v1_read_from(r: Reader) -> ShardPartial:
    """The parent's ``ShardPartial.read_from``."""
    left = r.remaining()
    if left < 6:
        raise TruncatedTraceError(
            f"shard partial of {left} bytes is shorter than the header")
    head = r.read_bytes(6)
    if head[:4] != FLUSH.magic:
        raise TraceFormatError("not a Pilgrim shard partial (bad magic)")
    if head[4] != 1:
        raise UnsupportedVersionError(head[4], 1)
    flags = head[5]
    if flags & ~(_V1_FLAG_TIMING | _V1_FLAG_COMPRESSED):
        raise CorruptTraceError(
            f"unknown shard-partial flag bits in {flags:#04x}")
    compressed = bool(flags & _V1_FLAG_COMPRESSED)
    try:
        rank = r.read_uvarint()
        n_calls = r.read_uvarint()
        sr = take_section(r, compressed, "partial-sigs")
        n = sr.read_uvarint()
        if n > sr.remaining():
            raise CorruptTraceError(
                f"shard partial claims {n} new signatures but only "
                f"{sr.remaining()} bytes remain")
        new_sigs = []
        for i in range(n):
            sig = read_value(sr)
            if not isinstance(sig, tuple):
                raise CorruptTraceError(
                    f"shard-partial signature {i} is a "
                    f"{type(sig).__name__}, not a signature tuple")
            new_sigs.append(sig)
        dr = take_section(r, compressed, "partial-deltas")
        n = dr.read_uvarint()
        if n > dr.remaining():
            raise CorruptTraceError(
                f"shard partial claims {n} CST deltas but only "
                f"{dr.remaining()} bytes remain")
        delta = read_varints(dr, 3 * n, signed=False)
        idx = delta[0::3]
        d_counts = list(map(unzigzag, delta[1::3]))
        d_dur_ns = list(map(unzigzag, delta[2::3]))
        pr = take_section(r, compressed, "partial-parts")
        n = pr.read_uvarint()
        if n > pr.remaining():
            raise CorruptTraceError(
                f"shard partial claims {n} grammar parts but only "
                f"{pr.remaining()} bytes remain")
        parts = [Grammar.from_reader(pr) for _ in range(n)]
        td = ti = None
        if flags & _V1_FLAG_TIMING:
            td = Grammar.from_reader(
                take_section(r, compressed, "partial-timing-duration"))
            ti = Grammar.from_reader(
                take_section(r, compressed, "partial-timing-interval"))
    except TraceFormatError:
        raise
    except (IndexError, KeyError, ValueError, OverflowError,
            RecursionError, MemoryError, struct.error) as e:
        raise CorruptTraceError(
            f"malformed shard partial ({type(e).__name__}: {e})") from e
    return ShardPartial(rank=rank, n_calls=n_calls, new_sigs=new_sigs,
                        idx=idx, d_counts=d_counts, d_dur_ns=d_dur_ns,
                        parts=parts, timing_duration=td, timing_interval=ti)


def v1_read_partials(blob: bytes) -> list[ShardPartial]:
    """The parent's ``aggregator.read_partials``: one CHUNK's partials."""
    r = Reader(blob)
    partials = [v1_read_from(r)]
    while not r.exhausted:
        p = v1_read_from(r)
        if p.rank <= partials[-1].rank:
            raise CorruptTraceError(
                f"chunk partial {len(partials)} is for rank {p.rank} after "
                f"rank {partials[-1].rank}: a chunk holds each rank at "
                f"most once, in ascending order")
        partials.append(p)
    return partials


def v1_checkpoint(fold: TenantFold, state: TenantState) -> bytes:
    """The parent's ``TenantFold.to_bytes``."""
    out = bytearray(CHECKPOINT.magic)
    out.append(1)
    write_value(out, (fold.tenant, fold.nprocs, state.next_seq,
                      state.finished, fold.config.to_tuple()))
    live = sorted(fold.ranks)
    write_uvarint(out, len(live))
    for r in live:
        blob = v1_to_bytes(fold.ranks[r].to_partial())
        write_uvarint(out, len(blob))
        out.extend(blob)
    return bytes(out)


def v1_restore(data: bytes) -> tuple[TenantFold, TenantState]:
    """The parent's ``TenantFold.from_bytes``, less the header checks the
    product still makes on its own checkpoints."""
    assert data[:5] == CHECKPOINT.magic + b"\x01"
    r = Reader(data, 5)
    tenant, nprocs, next_seq, finished, cfg_tuple = read_value(r)
    config = proto.IngestConfig.from_tuple(cfg_tuple)
    fold = TenantFold(tenant, nprocs, config)
    for _ in range(r.read_uvarint()):
        blob = r.read_bytes(r.read_uvarint())
        pr = Reader(blob)
        fold.absorb(v1_read_from(pr))
        assert pr.exhausted
    assert r.exhausted
    return fold, TenantState(tenant=tenant, nprocs=nprocs, config=config,
                             next_seq=next_seq, finished=finished)


# -- generated flushes -------------------------------------------------------------------

#: ints on both sides of every varint width, 64-bit edges included
_ints = st.one_of(
    st.integers(-300, 300), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0, 63, 64, -64, -65, 2 ** 13, 2 ** 20, 2 ** 62,
                     2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1]))
_counts = st.one_of(st.integers(0, 300), st.integers(0, 2 ** 70))
_atoms = st.one_of(st.none(), st.booleans(), _ints, st.text(max_size=6),
                   st.floats(allow_nan=False))
_sigs = st.lists(st.recursive(
    _atoms, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6), max_size=4).map(tuple)
_rules = st.lists(st.tuples(_ints, _ints), max_size=5).map(tuple)
#: flat parts, multi-rule parts (which no producer emits any more, but
#: the record and the fold still take), and the grammar of no rules
_grammars = st.lists(_rules, max_size=3).map(lambda r: Grammar(tuple(r)))


@st.composite
def _partials(draw, rank: int, timing: bool) -> ShardPartial:
    n = draw(st.integers(0, 4))
    column = st.lists(_ints, min_size=n, max_size=n)
    return ShardPartial(
        rank=rank, n_calls=draw(_counts),
        new_sigs=draw(st.lists(_sigs, max_size=3)),
        idx=draw(st.lists(_counts, min_size=n, max_size=n)),
        d_counts=draw(column), d_dur_ns=draw(column),
        parts=draw(st.lists(_grammars, max_size=3)),
        timing_duration=draw(_grammars) if timing else None,
        timing_interval=draw(_grammars) if timing else None)


@st.composite
def flushes(draw, min_size: int = 0) -> list[ShardPartial]:
    """Partials of strictly ascending ranks that carry timing all or none
    — what the record can hold; nothing in them need add up."""
    ranks = sorted(draw(st.sets(_counts, min_size=min_size, max_size=5)))
    timing = draw(st.booleans())
    return [draw(_partials(rank, timing)) for rank in ranks]


class TestRoundTrip:

    @settings(max_examples=150, deadline=None)
    @given(ps=flushes(), compress=st.booleans())
    def test_read_flush_inverts_write_flush(self, ps, compress):
        blob = write_flush(ps, compress)
        assert read_flush(blob) == ps
        # and the oracle codec, partial by partial, says the same
        assert [v1_read_from(Reader(v1_to_bytes(p, compress)))
                for p in ps] == ps
        if ps:
            assert read_partials(blob) == ps

    @settings(max_examples=60, deadline=None)
    @given(ps=flushes(min_size=1), compress=st.booleans())
    def test_a_partial_is_the_record_of_a_flush_of_one(self, ps, compress):
        p = ps[0]
        blob = p.to_bytes(compress)
        assert blob == write_flush([p], compress)
        assert ShardPartial.from_bytes(blob) == p
        if len(ps) > 1:
            with pytest.raises(CorruptTraceError, match="exactly one"):
                ShardPartial.from_bytes(write_flush(ps, compress))

    def test_the_writer_refuses_what_the_record_cannot_hold(self):
        g = Grammar.flat([0])
        good = ShardPartial(0, 1, [("MPI_Barrier", 0)], [0], [1], [9], [g])
        timed = ShardPartial(1, 1, [], [0], [1], [9], [g], g, g)
        with pytest.raises(ValueError, match="all or none"):
            write_flush([good, timed])
        with pytest.raises(ValueError, match="all or none"):
            write_flush([ShardPartial(1, 1, [], [0], [1], [9], [g], g)])
        with pytest.raises(ValueError, match="ragged"):
            write_flush([ShardPartial(0, 1, [], [0, 1], [1], [9], [g])])
        with pytest.raises(CorruptTraceError, match="ascending"):
            read_flush(write_flush([timed, timed]))

    def test_equal_signatures_of_one_flush_travel_once(self):
        """SPMD ranks meet the same signatures in the same flush: the
        record holds each distinct one once and the reader hands every
        rank the same object.  Equal is ``==``, as in the CST's own
        intern table and ``merge_shards``: where ranks disagree only in
        type the lowest rank's object stands for all, which is the one
        the merged trace keeps anyway."""
        g = Grammar.flat([0, 1])
        sigs = [("MPI_Send", (0, 1), 7), ("MPI_Recv", (0, -1), 7)]
        ps = [ShardPartial(r, 2, [tuple(s) for s in sigs], [0, 1], [1, 1],
                           [5, 5], [g]) for r in range(16)]
        one = write_flush(ps[:1], compress=False)
        blob = write_flush(ps, compress=False)
        assert blob.count(b"MPI_Send") == one.count(b"MPI_Send") == 1
        assert len(blob) < 6 * len(one)
        got = read_flush(blob)
        assert got == ps
        assert all(p.new_sigs[i] is got[0].new_sigs[i]
                   for p in got for i in (0, 1))
        mixed = [ShardPartial(0, 1, [("f", 1)], [0], [1], [5], [g]),
                 ShardPartial(1, 1, [("f", True), ("f", 2)], [0], [1], [5],
                              [g])]
        got = read_flush(write_flush(mixed))
        assert got == mixed and got[1].new_sigs[0] is got[0].new_sigs[0]
        assert repr(got[1].new_sigs) == "[('f', 1), ('f', 2)]"

    @settings(max_examples=40, deadline=None)
    @given(ps=flushes(min_size=2), slack=st.integers(0, 40))
    def test_a_flush_past_the_frame_bound_is_halved(self, ps, slack):
        """``send_partials`` under a frame bound a little above the
        largest single partial: consecutive CHUNKs, every partial once
        and in order, and no record over the bound that could be cut."""
        bound = 10 + slack + max(len(p.to_bytes(compress=False)) for p in ps)
        client = IngestClient("127.0.0.1", 0, "t")
        sent: list[tuple[bytes, int]] = []
        client._send_chunk = lambda record, n: sent.append((record, n))
        with mock.patch.object(proto, "MAX_FRAME_PAYLOAD", bound):
            client.send_partials(ps)
        got = [read_flush(record) for record, _n in sent]
        assert [p for chunk in got for p in chunk] == ps
        assert [len(chunk) for chunk in got] == [n for _r, n in sent]
        assert all(len(record) <= bound - 10 or n == 1
                   for record, n in sent)
        whole = write_flush(ps, compress=False)
        assert (len(sent) == 1) == (len(whole) <= bound - 10)


# -- real flushes, and what a version-1 blob gets ----------------------------------------


def _recorded(family: str, nprocs: int, *, lossy: bool,
              chunk_calls: int = 48):
    out: list[list[ShardPartial]] = []
    tracer = ChunkingTracer(
        emit_flush=out.append, chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy else "aggregate")
    make(family, nprocs).run(seed=7, tracer=tracer, noise=0.05)
    return out, tracer.config(), [rc.streamed_calls for rc in tracer.ranks]


class TestAgainstVersionOne:

    @pytest.mark.parametrize("lossy", [False, True])
    @pytest.mark.parametrize("family", ["stencil2d", "flash_sedov"])
    def test_both_codecs_carry_the_same_stream(self, family, lossy):
        recorded, config, fin = _recorded(family, 4, lossy=lossy)
        assert max(map(len, recorded)) == 4
        fold, v1_fold = (TenantFold("t", 4, config) for _ in range(2))
        v2_bytes = v1_bytes = 0
        for flush in recorded:
            record = write_flush(flush, compress=False)
            chunk = b"".join(v1_to_bytes(p, compress=False) for p in flush)
            assert fold.absorb_blob(record) == v1_read_partials(chunk) \
                == flush
            for p in v1_read_partials(chunk):
                v1_fold.absorb(p)
            v2_bytes += len(record)
            v1_bytes += len(chunk)
        assert fold.finish(fin) == v1_fold.finish(fin)
        # one header and one CRC per flush, not four to six per rank
        assert v2_bytes < 0.9 * v1_bytes

    def test_a_version_one_blob_is_refused_by_name(self):
        (flush, *_), config, _fin = _recorded("stencil2d", 2, lossy=True)
        blob = v1_to_bytes(flush[0])
        assert v1_read_from(Reader(blob)) == flush[0]
        for parse in (read_flush, read_partials, ShardPartial.from_bytes,
                      TenantFold("t", 2, config).absorb_blob):
            with pytest.raises(UnsupportedVersionError) as ei:
                parse(blob)
            assert (ei.value.found, ei.value.expected) == (1, 2)
        assert FLUSH.version == 2 and blob[:4] == FLUSH.magic

    def test_a_version_one_checkpoint_is_refused_by_name(self):
        recorded, config, fin = _recorded("stencil2d", 2, lossy=True)
        fold = TenantFold("t", 2, config)
        for flush in recorded[:2]:
            fold.absorb_blob(write_flush(flush))
        state = TenantState(tenant="t", nprocs=2, config=config, next_seq=2)
        old = v1_checkpoint(fold, state)
        with pytest.raises(UnsupportedVersionError) as ei:
            TenantFold.from_bytes(old)
        assert (ei.value.found, ei.value.expected) == (1, CHECKPOINT.version)
        # the same fold, both ways: a header, then one record of every
        # live rank where there was a count of length-prefixed blobs
        new = fold.to_bytes(state)
        head, record = CHECKPOINT.read(new).values
        assert head[:3] == ("t", 2, 2)
        assert read_flush(record) == \
            [fold.ranks[k].to_partial() for k in sorted(fold.ranks)]
        for restore, blob in ((TenantFold.from_bytes, new),
                              (v1_restore, old)):
            resumed, got = restore(blob)
            assert got.next_seq == 2
            for flush in recorded[2:]:
                resumed.absorb_blob(write_flush(flush))
            assert resumed.finish(fin) == _reference(recorded, config, fin)

    def test_a_checkpoint_of_no_live_rank_round_trips(self):
        config = proto.IngestConfig()
        state = TenantState(tenant="t", nprocs=3, config=config)
        fold, got = TenantFold.from_bytes(
            TenantFold("t", 3, config).to_bytes(state))
        assert (fold.ranks, got.next_seq) == ({}, 0)
        with pytest.raises(CorruptTraceError, match="no partial"):
            read_partials(write_flush([]))


def _reference(recorded, config, fin) -> bytes:
    fold = TenantFold("ref", len(fin), config)
    for flush in recorded:
        fold.absorb_blob(write_flush(flush))
    return fold.finish(fin)
