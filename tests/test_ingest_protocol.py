"""The ingest subsystem's lower layers, sans-io.

Layer 1 (framing): every frame kind round-trips through the decoder at
any byte-split granularity; every corruption raises a structured
``TraceFormatError`` subclass (the frame fuzzer pins the exhaustive
version).  Layer 2 (sessions): the per-tenant state machine accepts
exactly the in-order stream, re-classifies duplicates, refuses gaps and
concurrent sessions, and resumes idempotently.  Layer 3 (fold
checkpoints): a checkpoint round-trip reproduces the exact final trace.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import replace

import pytest

from repro import fuzz
from repro.core.errors import (ChecksumError, CorruptTraceError,
                               FrameFormatError, TraceFormatError,
                               TruncatedTraceError, UnsupportedVersionError)
from repro.core.grammar import Grammar
from repro.core.packing import Reader
from repro.core.shard import ShardPartial, write_flush
from repro.ingest import protocol as proto
from repro.ingest.aggregator import (Aggregator, FoldError, TenantFold,
                                     read_partials)
from repro.ingest.client import ChunkingTracer
from repro.fuzz import _raw_record
from repro.ingest.session import (SEQ_DUPLICATE, SEQ_NEW, SequenceError,
                                  Session, SessionError, SessionRegistry)
from repro.workloads import make

from test_flush_record_oracle import v1_read_partials

CFG = proto.IngestConfig()


def _decode_all(blob: bytes, *, step: int = 0) -> list:
    dec = proto.FrameDecoder()
    if step:
        for i in range(0, len(blob), step):
            dec.feed(blob[i:i + step])
    else:
        dec.feed(blob)
    frames = list(dec.frames())
    dec.check_eof()
    return frames


class TestFraming:
    def all_kinds(self) -> bytes:
        return b"".join([
            proto.encode_hello("t-1", 4, CFG),
            proto.encode_hello_ack(7),
            proto.encode_chunk(3, b"partial-blob"),
            proto.encode_ack(3),
            proto.encode_fin([10, 20, 30, 40]),
            proto.encode_result(b"trace-blob"),
            proto.encode_error("FoldError", "boom"),
        ])

    @pytest.mark.parametrize("step", [0, 1, 3, 1000])
    def test_roundtrip_any_split(self, step):
        frames = _decode_all(self.all_kinds(), step=step)
        kinds = [k for k, _ in frames]
        assert kinds == [proto.HELLO, proto.HELLO_ACK, proto.CHUNK,
                         proto.ACK, proto.FIN, proto.RESULT, proto.ERROR]
        assert proto.parse_hello(frames[0][1]) == ("t-1", 4, False, CFG)
        assert proto.parse_hello_ack(frames[1][1]) == 7
        assert proto.parse_chunk(frames[2][1]) == (3, b"partial-blob")
        assert proto.parse_ack(frames[3][1]) == 3
        assert proto.parse_fin(frames[4][1]) == [10, 20, 30, 40]
        assert frames[5][1] == b"trace-blob"
        assert proto.parse_error(frames[6][1]) == ("FoldError", "boom")

    def test_compressed_frame_roundtrip(self):
        payload = b"x" * 4096
        blob = proto.encode_frame(proto.RESULT, payload, compress=True)
        assert len(blob) < len(payload)
        [(kind, got)] = _decode_all(blob)
        assert (kind, got) == (proto.RESULT, payload)

    def test_bad_magic(self):
        blob = bytearray(proto.encode_ack(0))
        blob[0] ^= 0xFF
        with pytest.raises(FrameFormatError):
            _decode_all(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(proto.encode_ack(0))
        blob[4] = 99
        with pytest.raises(UnsupportedVersionError):
            _decode_all(bytes(blob))

    def test_unknown_kind_and_flags(self):
        blob = bytearray(proto.encode_ack(0))
        blob[5] = 200
        with pytest.raises(FrameFormatError):
            _decode_all(bytes(blob))
        blob = bytearray(proto.encode_ack(0))
        blob[6] |= 0x80
        with pytest.raises(FrameFormatError):
            _decode_all(bytes(blob))

    def test_payload_corruption_fails_crc(self):
        blob = bytearray(proto.encode_chunk(1, b"partial-blob"))
        blob[-1] ^= 0x01
        with pytest.raises(ChecksumError):
            _decode_all(bytes(blob))

    def test_truncation_is_structured(self):
        blob = self.all_kinds()
        with pytest.raises(TruncatedTraceError):
            _decode_all(blob[:-3])

    def test_tenant_validation(self):
        assert proto.validate_tenant("a.B-2_c") == "a.B-2_c"
        for bad in ("", "a b", "a/b", "x" * 100, "t\n"):
            with pytest.raises(FrameFormatError):
                proto.validate_tenant(bad)

    def test_config_tuple_roundtrip(self):
        cfg = proto.IngestConfig(loop_detection=False, lossy_timing=True,
                                 timing_base=1.5,
                                 per_function_base={"MPI_Send": 1.1})
        assert proto.IngestConfig.from_tuple(cfg.to_tuple()) == cfg
        with pytest.raises(TraceFormatError):
            proto.IngestConfig.from_tuple(("nope",))

    def test_fin_rejects_negatives(self):
        from repro.core.packing import write_value
        payload = bytearray()
        write_value(payload, (1, -2))
        with pytest.raises(FrameFormatError):
            proto.parse_fin(bytes(payload))


def _partial(rank: int = 3, *, timing: bool = True) -> ShardPartial:
    return ShardPartial(
        rank=rank, n_calls=5,
        new_sigs=[("MPI_Send", 0, 1), ("MPI_Recv", -1)],
        idx=[0, 1], d_counts=[3, 2], d_dur_ns=[1500, -700],
        parts=[Grammar((((0, 3), (1, 2)),))],
        timing_duration=Grammar((((4, 5),),)) if timing else None,
        timing_interval=Grammar((((7, 5),),)) if timing else None)


class TestChunkIsAFlush:
    """A CHUNK carries one flush record of one or more partials; the
    one-partial CHUNK is the record of a flush of one."""

    #: ``encode_chunk(3, _partial().to_bytes(compress=False))`` as the
    #: parent commit (``PARTIAL_VERSION`` 1: a header and five CRC'd
    #: sections per partial) wrote it
    PARENT_CHUNK = bytes.fromhex(
        "50494746010300596256dcff0350505254010103051f6dd11eb202030302084d"
        "50495f53656e6401000102030202084d50495f526563760101094582eb8b0200"
        "06b8170104f70a07280985b20102040006020404efa0c5a00202080a0469079f"
        "f602020e0a")
    #: the same call today: one section, whole-flush columns
    CHUNK = bytes.fromhex(
        "504947460103004a114b4a13035050525402013e9a7098cb0103050202010203"
        "0302084d50495f53656e6401000102030202084d50495f526563760101000100"
        "010604b817f70a0e0204000602040202080a02020e0a")

    def test_one_partial_chunk_is_the_record_of_a_flush_of_one(self):
        blob = _partial().to_bytes(compress=False)
        assert blob == write_flush([_partial()], compress=False)
        assert proto.encode_chunk(3, blob) == self.CHUNK
        assert len(self.CHUNK) < len(self.PARENT_CHUNK)
        # with the record's default (compressed) section the bytes
        # depend on the zlib build, so pin the layout instead: magic,
        # version, kind, no flags, then one v2 section of seq + record
        blob = _partial().to_bytes()
        payload = b"\x03" + blob
        assert len(payload) < 0x80
        assert proto.encode_chunk(3, blob) == (
            b"PIGF" + bytes((proto.FRAME.version, proto.CHUNK, 0,
                             len(payload)))
            + struct.pack("<I", zlib.crc32(payload)) + payload)

    def test_parent_chunk_is_refused_by_version_and_read_by_the_oracle(self):
        for frame, parse in ((self.CHUNK, read_partials),
                             (self.PARENT_CHUNK, v1_read_partials)):
            [(kind, payload)] = _decode_all(frame)
            seq, blob = proto.parse_chunk(payload)
            assert (kind, seq) == (proto.CHUNK, 3)
            assert parse(blob) == [_partial()]
        cfg = proto.IngestConfig(lossy_timing=True)
        fold = TenantFold("t", 4, cfg)
        with pytest.raises(UnsupportedVersionError):
            fold.absorb_blob(blob)
        assert fold.partials_absorbed == 0
        assert fold.absorb_blob(_partial().to_bytes()) == [_partial()]
        assert (fold.partials_absorbed, fold.total_calls) == (1, 5)

    @pytest.mark.parametrize("compress", [False, True])
    def test_flush_roundtrip(self, compress):
        partials = [_partial(r) for r in (0, 2, 5)]
        frame = proto.encode_chunk(
            9, write_flush(partials, compress=False), compress=compress)
        [(kind, payload)] = _decode_all(frame)
        seq, blob = proto.parse_chunk(payload)
        assert (kind, seq) == (proto.CHUNK, 9)
        assert read_partials(blob) == partials

    def test_read_from_leaves_the_reader_after_the_partial(self):
        a, b = _partial(0).to_bytes(), _partial(1, timing=False).to_bytes()
        r = Reader(a + b + b"tail")
        assert ShardPartial.read_from(r) == _partial(0)
        assert r.pos == len(a)
        assert ShardPartial.read_from(r) == _partial(1, timing=False)
        assert r.remaining() == 4
        # a CHUNK is one record: a second one behind it is trailing bytes
        for parse in ShardPartial.from_bytes, read_partials:
            with pytest.raises(CorruptTraceError, match="trailing"):
                parse(a + b)

    def test_malformed_chunks_are_structured(self):
        good = write_flush([_partial(0), _partial(1)])
        with pytest.raises(TruncatedTraceError):
            read_partials(b"")
        with pytest.raises(TruncatedTraceError):
            read_partials(good[:-3])
        with pytest.raises(TraceFormatError):
            read_partials(good + b"trailing-bytes")
        with pytest.raises(CorruptTraceError, match="no partial"):
            read_partials(write_flush([]))
        for ranks in (0, 0), (2, 1):
            with pytest.raises(CorruptTraceError, match="ascending"):
                read_partials(_raw_record(ranks))

    def test_a_refused_chunk_leaves_the_fold_untouched(self):
        """Regression: ``RankFold.absorb`` used to extend the signature
        table before it validated the delta indices, so a refused
        partial left an orphan zero-count signature behind."""
        fold, state = self._fold_and_state()
        before = repr(state())
        bad = _partial(1)
        bad.new_sigs, bad.idx, bad.d_counts, bad.d_dur_ns = \
            [("MPI_Wait",)], [5], [1], [1]
        # rank 0 and rank 2 are fine; rank 1 targets a signature nobody
        # knows: nothing of the chunk may land, rank 0's share included
        with pytest.raises(FoldError, match="signature 5"):
            fold.absorb_blob(write_flush([_partial(0), bad, _partial(2)]))
        assert repr(state()) == before
        with pytest.raises(FoldError, match="signature 5"):
            fold.absorb(bad)
        assert repr(state()) == before
        with pytest.raises(FoldError, match="outside"):
            fold.absorb_blob(write_flush([_partial(0), _partial(7)]))
        with pytest.raises(FoldError, match="timing"):
            fold.absorb_blob(write_flush([_partial(0, timing=False),
                                          _partial(1, timing=False)]))
        with pytest.raises(TraceFormatError):
            fold.absorb_blob(_partial(0).to_bytes() + b"PPRT")
        assert repr(state()) == before
        fold.absorb_blob(write_flush([_partial(0), _partial(2)]))
        assert fold.partials_absorbed == 3 and sorted(fold.ranks) == [0, 2]

    @staticmethod
    def _fold_and_state():
        fold = TenantFold("t", 4, proto.IngestConfig(lossy_timing=True))
        fold.absorb(_partial(0))

        def state():
            return (fold.partials_absorbed, fold.bytes_absorbed,
                    sorted(fold.ranks),
                    [(f.sigs, f.counts, f.dur_ns, f.parts, f.calls,
                      f.timing_dur_parts)
                     for f in map(fold.ranks.get, sorted(fold.ranks))])

        return fold, state

    #: one way each for a partial to disagree with itself, and the
    #: refusal's words; ``_partial`` declares 5 calls, counts 3 + 2, a
    #: part of 3 + 2 terminals over its 2 signatures, timing logs of 5
    INCONSISTENT = {
        "the issue's: 5 calls, counts sum 2, part of 3 with one unknown":
            (dict(idx=[0], d_counts=[2], d_dur_ns=[1],
                  parts=[Grammar((((0, 2), (9, 1)),))]), "sum to 2"),
        "more calls declared than counted":
            (dict(n_calls=6), "sum to 5"),
        "a part too short": (dict(parts=[Grammar.flat([0, 0, 1, 1])]),
                             r"expand to \(4, 5, 5\)"),
        "no part at all": (dict(parts=[]), r"expand to \(0, 5, 5\)"),
        "two parts, too long together":
            (dict(parts=[Grammar.flat([0] * 3), Grammar.flat([1] * 3)]),
             r"expand to \(6, 5, 5\)"),
        "a timing log too long":
            (dict(timing_interval=Grammar.flat([7] * 6)),
             r"expand to \(5, 5, 6\)"),
        "a token repeated minus two times, made up for elsewhere":
            (dict(parts=[Grammar((((0, 7), (1, -2)),))]), "does not expand"),
        "a rule that reaches itself":
            (dict(parts=[Grammar((((-1, 5),),))]), "does not expand"),
        "a rule that is not there":
            (dict(parts=[Grammar((((-3, 5),),))]), "does not expand"),
        "delta indices out of order":
            (dict(idx=[1, 0]), "strictly ascending"),
        "a delta index twice":
            (dict(idx=[1, 1]), "strictly ascending"),
        "a multi-rule part naming a terminal the CST has not got":
            (dict(parts=[Grammar((((-2, 2), (1, 1)), ((0, 1), (2, 1))))]),
             "names terminal 2"),
        "a flat part naming one":
            (dict(parts=[Grammar.flat([0, 0, 0, 1, 4])]),
             "names terminal 4"),
    }

    @pytest.mark.parametrize("case", INCONSISTENT)
    def test_a_partial_that_does_not_add_up_is_refused(self, case):
        """Bugfix: none of these was checked; FIN compares only totals,
        which the first case (and any lie told twice) meets."""
        changes, words = self.INCONSISTENT[case]
        fold, state = self._fold_and_state()
        before = repr(state())
        bad = replace(_partial(1), **changes)
        for absorb, arg in (
                (fold.absorb, bad),
                (fold.absorb_blob,
                 write_flush([_partial(0), bad, _partial(2)]))):
            with pytest.raises(FoldError, match=words):
                absorb(arg)
            assert repr(state()) == before
        # the good stream, resent, folds to what it always did (a trace
        # holds no negative total, so its deltas run the other way)
        good = [replace(_partial(r), d_dur_ns=[1500, 700])
                for r in (0, 1, 2)]
        fold.absorb_blob(write_flush(good))
        ref = TenantFold("t", 4, fold.config)
        for p in (_partial(0), *good):
            ref.absorb(p)
        fin = [10, 5, 5, 0]
        assert fold.finish(fin) == ref.finish(fin)


class TestFrameFuzz:
    """Satellite: corrupt/truncated frames through the shared fuzz
    harness — structured errors only, never a crash, never a silently
    different decode."""

    def test_recorded_stream_survives_fuzz(self):
        blob = fuzz.frame_stream(*fuzz.record_stream(
            "osu_latency", 2, seed=11, chunk_calls=32))
        report = fuzz.run(fuzz.frames_target(blob), seed=1, n_random=150)
        assert report.ok, report.summary() + "".join(
            f"\n  {f}" for f in report.failures[:10])
        # the boundary attack must actually exercise the CRC and
        # truncation paths, not just bounce off the magic check
        assert report.by_error.get("ChecksumError", 0) > 0
        assert report.by_error.get("TruncatedTraceError", 0) > 0

    def test_corpus_records_flushes_and_hostile_chunks(self):
        blob = fuzz.frame_stream(*fuzz.record_stream(
            "stencil2d", 4, seed=3, chunk_calls=64))
        chunks = [f for k, f in fuzz.decode_stream(blob)
                  if k == proto.CHUNK]
        # (seq, partial, partial, ...): a flush of 64 calls over 4 ranks
        assert max(len(c) - 1 for c in chunks) == 4
        assert [c[0] for c in chunks] == list(range(len(chunks)))
        hostile = dict(fuzz.frame_corpus(blob))
        for needle, count in (
                ("count bomb", 7), ("ranks descend", 1), ("rank 0 twice", 1),
                ("names a signature the record has not", 1),
                ("a signature no partial names", 1),
                ("one value short", 1), ("ends inside", 1),
                ("one grammar too many", 1), ("trail", 2),
                ("only its first partial has the timing pair", 1),
                ("holds no partial", 1),
                ("second partial: a value nests", 1)):
            assert sum(needle in d for d in hostile) == count, needle
        for desc, stream in hostile.items():
            with pytest.raises(TraceFormatError):
                fuzz.decode_stream(stream)


class TestSession:
    def test_happy_path(self):
        reg = SessionRegistry()
        s = Session(reg)
        assert s.on_hello("t", 2, CFG) == 0
        assert s.on_chunk(0) == SEQ_NEW
        s.absorbed(0)
        assert s.on_chunk(1) == SEQ_NEW
        s.absorbed(1)
        s.on_fin([3, 4])
        assert s.tenant_state.fin_calls == [3, 4]
        s.finish()
        assert s.state == Session.CLOSED
        assert reg.active_sessions == 0

    def test_duplicate_and_gap(self):
        s = Session(SessionRegistry())
        s.on_hello("t", 1, CFG)
        assert s.on_chunk(0) == SEQ_NEW
        assert s.on_chunk(0) == SEQ_DUPLICATE
        with pytest.raises(SequenceError):
            s.on_chunk(5)

    def test_frames_out_of_state(self):
        reg = SessionRegistry()
        s = Session(reg)
        with pytest.raises(SessionError):
            s.on_chunk(0)
        s.on_hello("t", 1, CFG)
        with pytest.raises(SessionError):
            s.on_hello("t", 1, CFG)
        with pytest.raises(SessionError):
            s.on_fin([1, 2])  # wrong rank count
        s.on_fin([1])
        with pytest.raises(SessionError):
            s.on_chunk(1)  # FINISHING, not ACTIVE

    def test_concurrent_sessions_refused(self):
        reg = SessionRegistry()
        Session(reg).on_hello("t", 2, CFG)
        with pytest.raises(SessionError):
            Session(reg).on_hello("t", 2, CFG)
        # a different tenant is fine
        Session(reg).on_hello("u", 2, CFG)

    def test_resume_keeps_watermark(self):
        reg = SessionRegistry()
        s1 = Session(reg)
        s1.on_hello("t", 2, CFG)
        assert s1.on_chunk(0) == SEQ_NEW
        s1.absorbed(0)
        s1.close()  # connection dropped; durable state survives
        s2 = Session(reg)
        assert s2.on_hello("t", 2, CFG, resume=True) == 1
        # the resent chunk 0 is recognized as a duplicate
        assert s2.on_chunk(0) == SEQ_DUPLICATE
        assert s2.on_chunk(1) == SEQ_NEW

    def test_resume_mismatch_refused(self):
        reg = SessionRegistry()
        s1 = Session(reg)
        s1.on_hello("t", 2, CFG)
        s1.close()
        with pytest.raises(SessionError):
            Session(reg).on_hello("t", 4, CFG, resume=True)

    def test_fresh_hello_resets_finished_tenant(self):
        reg = SessionRegistry()
        s1 = Session(reg)
        s1.on_hello("t", 2, CFG)
        s1.on_fin([0, 0])
        s1.finish()
        with pytest.raises(SessionError):
            Session(reg).on_hello("t", 2, CFG, resume=True)
        assert Session(reg).on_hello("t", 2, CFG) == 0

    def test_absorb_out_of_order_refused(self):
        s = Session(SessionRegistry())
        s.on_hello("t", 1, CFG)
        s.on_chunk(0)
        s.on_chunk(1)
        with pytest.raises(SessionError):
            s.absorbed(1)  # 0 not yet absorbed


def _stream_partials(family: str, nprocs: int, seed: int,
                     chunk_calls: int = 32) -> tuple[list, list]:
    """Trace a run with the chunking tracer; return (partials, fin)."""
    out: list[ShardPartial] = []
    tracer = ChunkingTracer(out.append, chunk_calls=chunk_calls)
    make(family, nprocs).run(seed=seed, tracer=tracer, noise=0.05)
    return out, [rc.streamed_calls for rc in tracer.ranks]


class TestCheckpoint:
    def test_fold_checkpoint_roundtrip_is_byte_identical(self):
        from repro.ingest.session import TenantState
        partials, fin = _stream_partials("stencil2d", 2, seed=9)
        assert len(partials) > 4
        cut = len(partials) // 2

        ref = TenantFold("t", 2, CFG)
        for p in partials:
            ref.absorb(p)

        half = TenantFold("t", 2, CFG)
        for p in partials[:cut]:
            half.absorb(p)
        st = TenantState(tenant="t", nprocs=2, config=CFG, next_seq=cut)
        restored, st2 = TenantFold.from_bytes(half.to_bytes(st))
        assert (st2.tenant, st2.nprocs, st2.next_seq) == ("t", 2, cut)
        for p in partials[cut:]:
            restored.absorb(p)
        assert restored.finish(fin) == ref.finish(fin)

    def test_aggregator_checkpoint_restore(self, tmp_path):
        from repro.ingest.session import TenantState
        partials, fin = _stream_partials("osu_latency", 2, seed=4)
        ckdir = str(tmp_path / "ck")

        a1 = Aggregator(checkpoint_dir=ckdir)
        a1.start("t", 2, CFG)
        for i, p in enumerate(partials):
            a1.absorb("t", p.to_bytes())
        path = a1.checkpoint("t", TenantState(
            tenant="t", nprocs=2, config=CFG, next_seq=len(partials)))
        assert path is not None and path.endswith("t.ckpt")
        expected = a1.finish("t", fin)

        a2 = Aggregator(checkpoint_dir=ckdir)
        [state] = a2.restore()
        assert state.tenant == "t" and state.next_seq == len(partials)
        assert a2.finish("t", fin) == expected

    def test_corrupt_checkpoint_is_structured(self):
        with pytest.raises(TraceFormatError):
            TenantFold.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_every_header_bit_flip_is_refused_or_restores_identically(self):
        """Bugfix: the header tuple (tenant, nprocs, next sequence number,
        finished, config) sat outside every CRC, so most single-bit flips
        in it restored a different session without complaint (tenant
        ``t`` -> ``u``, ``next_seq`` 57 -> -58, ``finished`` flipped) and
        a few escaped as a bare ``FoldError``."""
        from repro.ingest.session import TenantState
        partials, _fin = _stream_partials("stencil2d", 2, seed=1)
        fold = TenantFold("t", 2, CFG)
        for p in partials[:len(partials) // 2]:
            fold.absorb(p)
        blob = fold.to_bytes(TenantState(tenant="t", nprocs=2, config=CFG,
                                         next_seq=57))

        def restored(data):
            f, s = TenantFold.from_bytes(data)
            return (repr(s), f.tenant, f.nprocs, f.config,
                    [f.ranks[r].to_partial() for r in sorted(f.ranks)])

        reference = restored(blob)
        silent = []
        for off in range(blob.index(b"PPRT")):
            for bit in range(8):
                mut = bytearray(blob)
                mut[off] ^= 1 << bit
                try:
                    got = restored(bytes(mut))
                except TraceFormatError:
                    continue
                if got != reference:
                    silent.append((off, bit))
        assert silent == []
