"""Binary trace format round-trip tests (writer <-> reader)."""

import pytest

from repro.core.cst import CST, merge_csts
from repro.core.errors import (ChecksumError, CorruptTraceError,
                               TruncatedTraceError, UnsupportedVersionError)
from repro.core.grammar import Grammar
from repro.core.interproc import merge_grammars
from repro.core.sequitur import Sequitur
from repro.core.trace_format import TRACE, TraceFile


def _freeze(seq):
    s = Sequitur()
    for v in seq:
        s.append(v)
    return Grammar.freeze(s)


def _trace(rank_seqs, with_timing=False):
    csts = []
    grams = []
    for seq in rank_seqs:
        c = CST()
        terms = [c.intern((v, "sig"), 0.5) for v in seq]
        csts.append(c)
        grams.append(_freeze(terms))
    merged = merge_csts(csts)
    remapped = [g.remap_terminals(lambda t, m=merged.remaps[i]: m[t])
                for i, g in enumerate(grams)]
    cfg = merge_grammars(remapped)
    td = ti = None
    if with_timing:
        td = merge_grammars([_freeze([3, 3, 4]) for _ in rank_seqs])
        ti = merge_grammars([_freeze([5, 6, 5]) for _ in rank_seqs])
    return TraceFile(nprocs=len(rank_seqs), cst=merged, cfg=cfg,
                     timing_duration=td, timing_interval=ti)


class TestRoundTrip:
    def test_magic_and_version(self):
        blob = _trace([[0, 1, 0]]).to_bytes()
        assert blob[:4] == TRACE.magic

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            TraceFile.from_bytes(b"XXXX\x01\x00")

    def test_bad_version_rejected(self):
        blob = bytearray(_trace([[0]]).to_bytes())
        blob[4] = 99
        with pytest.raises(UnsupportedVersionError) as ei:
            TraceFile.from_bytes(bytes(blob))
        assert ei.value.found == 99
        assert ei.value.expected == TRACE.version

    def test_v1_traces_rejected(self):
        # pre-checksum traces (version 1) are not silently misparsed
        blob = bytearray(_trace([[0, 1]]).to_bytes())
        blob[4] = 1
        with pytest.raises(UnsupportedVersionError):
            TraceFile.from_bytes(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(TruncatedTraceError):
            TraceFile.from_bytes(b"PILG\x02")

    def test_unknown_flag_bits_rejected(self):
        blob = bytearray(_trace([[0]]).to_bytes())
        blob[5] |= 0x40
        with pytest.raises(CorruptTraceError):
            TraceFile.from_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = _trace([[0, 1, 0]]).to_bytes()
        with pytest.raises(CorruptTraceError):
            TraceFile.from_bytes(blob + b"\x00")

    @pytest.mark.parametrize("rank_seqs", [
        [[0]],
        [[0, 1, 0, 1]],
        [[0, 1] * 5, [0, 1] * 5],
        [[0, 1] * 5, [2, 3] * 4, [0, 1] * 5],
        [[i % 3 for i in range(20)] for _ in range(7)],
    ])
    def test_cfg_roundtrip(self, rank_seqs):
        t = _trace(rank_seqs)
        back = TraceFile.from_bytes(t.to_bytes())
        assert back.nprocs == t.nprocs
        assert back.cst.sigs == t.cst.sigs
        assert back.cfg.rank_uid == t.cfg.rank_uid
        assert back.cfg.final.expand() == t.cfg.final.expand()
        for uid, g in enumerate(back.cfg.unique):
            assert g.expand() == t.cfg.unique[uid].expand()

    def test_timing_sections_roundtrip(self):
        t = _trace([[0, 1], [0, 1]], with_timing=True)
        back = TraceFile.from_bytes(t.to_bytes())
        assert back.timing_duration is not None
        assert back.timing_duration.final.expand() == \
            t.timing_duration.final.expand()
        assert back.timing_interval.rank_uid == t.timing_interval.rank_uid

    def test_no_timing_flag(self):
        back = TraceFile.from_bytes(_trace([[0]]).to_bytes())
        assert back.timing_duration is None


class TestChecksums:
    @pytest.mark.parametrize("compress", [True, False])
    def test_payload_flip_raises_checksum_error(self, compress):
        t = _trace([[0, 1] * 6, [2] * 4])
        blob = bytearray(t.to_bytes(compress=compress))
        start, _end = TRACE.spans(bytes(blob))["cst.payload"]
        blob[start] ^= 0x10
        with pytest.raises(ChecksumError) as ei:
            TraceFile.from_bytes(bytes(blob))
        assert ei.value.section == "CST"
        assert ei.value.stored != ei.value.computed

    def test_crc_field_flip_raises_checksum_error(self):
        blob = bytearray(_trace([[0, 1, 0]]).to_bytes())
        start, _end = TRACE.spans(bytes(blob))["cfg.crc"]
        blob[start] ^= 0x01
        with pytest.raises(ChecksumError):
            TraceFile.from_bytes(bytes(blob))

    def test_section_spans_tile_the_blob(self):
        blob = _trace([[0, 1] * 3, [0, 1] * 3], with_timing=True).to_bytes()
        spans = sorted(TRACE.spans(blob).values())
        assert spans[0][0] == 0
        assert spans[-1][1] == len(blob)
        for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end == b_start

    def test_uncompressed_roundtrip(self):
        t = _trace([[0, 1] * 4])
        back = TraceFile.from_bytes(t.to_bytes(compress=False))
        assert back.cfg.final.expand() == t.cfg.final.expand()


class TestSectionSizes:
    def test_sections_sum_to_total(self):
        t = _trace([[0, 1] * 10, [2] * 5], with_timing=True)
        sizes = t.section_sizes()
        parts = sum(v for k, v in sizes.items() if k != "total")
        assert sizes["total"] == parts
        assert sizes["total"] == pytest.approx(len(t.to_bytes()), abs=2)

    def test_cst_and_cfg_nonzero(self):
        sizes = _trace([[0, 1, 2]]).section_sizes()
        assert sizes["cst"] > 0 and sizes["cfg"] > 0


class TestTimingMetaSection:
    def _meta_trace(self):
        from repro.core.timing import TimingMeta
        t = _trace([[0, 1], [0, 1]], with_timing=True)
        t.timing_meta = TimingMeta(
            base=1.3, per_function_base={"MPI_Barrier": 2.0})
        return t

    def test_roundtrip(self):
        t = self._meta_trace()
        back = TraceFile.from_bytes(t.to_bytes())
        assert back.timing_meta == t.timing_meta

    def test_timing_trace_without_explicit_meta_gets_default(self):
        from repro.core.timing import TimingMeta
        t = _trace([[0, 1]], with_timing=True)
        back = TraceFile.from_bytes(t.to_bytes())
        assert back.timing_meta == TimingMeta()

    def test_untimed_trace_has_no_meta(self):
        back = TraceFile.from_bytes(_trace([[0]]).to_bytes())
        assert back.timing_meta is None

    def test_meta_flag_without_timing_rejected(self):
        from repro.core.trace_format import FLAG_TIMING, FLAG_TIMING_META
        blob = bytearray(_trace([[0, 1]], with_timing=True).to_bytes())
        blob[5] = (blob[5] | FLAG_TIMING_META) & ~FLAG_TIMING
        with pytest.raises(CorruptTraceError):
            TraceFile.from_bytes(bytes(blob))

    def test_meta_survives_salvage(self):
        t = self._meta_trace()
        back = TraceFile.from_bytes(t.to_bytes(), salvage=True)
        assert back.timing_meta == t.timing_meta

    def test_corrupt_meta_salvaged_to_default(self):
        from repro.core.timing import TimingMeta
        t = self._meta_trace()
        blob = bytearray(t.to_bytes())
        start, end = TRACE.spans(bytes(blob))["timing_meta.payload"]
        blob[start] ^= 0x10
        back = TraceFile.from_bytes(bytes(blob), salvage=True)
        # the timing sections themselves survive; the lost meta falls
        # back to the defaults and the loss is reported
        assert back.timing_duration is not None
        assert back.timing_meta in (None, TimingMeta())
        assert back.salvage is not None
        assert "timing-meta" in " ".join(back.salvage.lost_sections)

    def test_meta_section_spans_present(self):
        blob = self._meta_trace().to_bytes()
        spans = TRACE.spans(blob)
        assert "timing_meta.payload" in spans
