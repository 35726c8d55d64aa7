"""Pilgrim's binary trace format (writer + reader).

Layout (all integers are varints, see :mod:`repro.core.packing`)::

    magic  b"PILG"            4 bytes
    version                   1 byte   (currently 3)
    flags                     1 byte   (bit0: lossy timing sections present;
                                        bit1: sections are zlib-compressed)
    nprocs
    -- per section: --
    payload length            varint
    crc32 of the payload      4 bytes little-endian
    payload
    -- section order --
    CST:  the signature table, by columns (below)
    CFG:  n_top_rules          (rules [0, n_top) are the merged top level)
          n_unique_grammars, then per grammar: its rule count
          final grammar        (rule array, see Grammar.write_to; the rank ->
                                sub-grammar assignment is the start rule)
    -- optional timing sections (flags bit0) --
    duration: same layout as the CFG section
    interval: same layout as the CFG section
    -- optional timing-meta section (flags bit2, written with bit0) --
    meta: the binning bases the trace was recorded with (default base
          plus the per-function overrides), see TimingMeta — without
          them reconstruction cannot honour per-function bases

The CST section (:meth:`MergedCST.write_to`) is a table of ``n``
entries, terminal ``t`` being row ``t``::

    n
    counts        n uvarints: calls per signature
    dur_ns        n uvarints: summed duration per signature, in integer
                  nanoseconds (seconds are derived, ``ns / 1e9``)
    group*        until every terminal has its signature
    group  := width fid m gap*m column*(width-1)   width >= 1: the m
                  signatures ``(fid, p1, .., p[width-1])`` of one function
                  (fid zigzag-coded), one column per parameter position
            | 0 m gap*m column                     signatures with no int
                  at their head (malformed tables only), whole, as one
                  column of tuples
    gap*m        the group's terminals, ascending: the first, then each
                  one's distance from the one before
    column := 0 value*m          INT: signed varints
            | 1 k column*k       TUPLE: row i is (c0[i], .., c[k-1][i])
            | 2 length*m column  LIST: row i is the next length[i] values
                                 of the one sub-column
            | 3 tagged value*m   VALUES: see packing.write_value
            | 4 j                SAME: equal to parameter column j of this
                                 group, j below this column's own position
                                 (a group's own columns only, not nested
                                 ones: Alltoallv's send and receive counts)

Groups appear in order of their first terminal, so equal tables have
equal bytes.  The reader's bounds are part of the format: ``n``, ``m``,
``k`` and every column's value count are checked against the bytes left
before anything is allocated (every value of every shape but SAME costs
at least one byte), a group's ``m * width`` fields may not outnumber the
section's bytes (so SAME cannot make rows larger than the input; the
writer repeats a column rather than break this), columns nest at most
``MAX_VALUE_DEPTH`` deep, a terminal is below ``n`` and belongs to
exactly one group, and nothing follows the last group —
:class:`CorruptTraceError` or :class:`TruncatedTraceError` otherwise.

Sections are individually deflate-compressed by default (length-prefixed),
mirroring the generic final-compression pass real trace formats apply —
without it, the per-rank Alltoallv count arrays of IS alone would dwarf
the paper's reported sizes (58KB at 1024 ranks).  All size figures the
benchmarks report are ``len()`` of these bytes — honest on-disk sizes,
including the checksum overhead (4 bytes per section).

Since version 2 "lossless" is a *checked* property: every section
carries a CRC32 over its stored bytes, the reader verifies it before
parsing, and every failure mode raises a structured
:class:`TraceFormatError` subclass (see :mod:`repro.core.errors`) —
never a raw ``IndexError`` and never a silently wrong record.  Version 3
changed the CST section from a list of tagged values to the table
above; a version 2 blob is an :class:`UnsupportedVersionError`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..resilience.salvage import SalvageReport
from .cst import MergedCST
from .errors import (ChecksumError, CorruptTraceError, TraceFormatError,
                     TruncatedTraceError, UnsupportedVersionError)
from .grammar import Grammar
from .interproc import CFGMergeResult
from .packing import Reader, read_varints, write_uvarint, write_varints
from .timing import TimingMeta

MAGIC = b"PILG"
VERSION = 3
HEADER_FIXED = 6  # magic + version + flags; nprocs follows as a varint

FLAG_TIMING = 1
FLAG_COMPRESSED = 2
#: a timing-meta section follows the timing pair; newly written lossy
#: traces always set it, older blobs without it reconstruct with the
#: default base (the pre-fix behaviour)
FLAG_TIMING_META = 4
_KNOWN_FLAGS = FLAG_TIMING | FLAG_COMPRESSED | FLAG_TIMING_META

#: zlib level used for section compression (balanced, like zstd defaults)
ZLIB_LEVEL = 6

#: bytes each section spends on its CRC32 (accounted in section_sizes)
CRC_BYTES = 4


def emit_section(out: bytearray, payload: bytes, compress: bool) -> None:
    if compress:
        payload = zlib.compress(payload, ZLIB_LEVEL)
    write_uvarint(out, len(payload))
    out.extend(struct.pack("<I", zlib.crc32(payload)))
    out.extend(payload)


def take_section(r: Reader, compressed: bool, name: str) -> Reader:
    n = r.read_uvarint()
    (stored,) = struct.unpack("<I", r.read_bytes(CRC_BYTES))
    blob = r.read_bytes(n)
    computed = zlib.crc32(blob)
    if computed != stored:
        raise ChecksumError(name, stored, computed)
    if compressed:
        try:
            blob = zlib.decompress(blob)
        except zlib.error as e:
            raise CorruptTraceError(
                f"{name} section passed its checksum but is not valid "
                f"zlib data ({e})") from None
    return Reader(blob)


def _write_cfg_section(out: bytearray, merge: CFGMergeResult) -> None:
    n_top = len(merge.final.rules) - sum(len(g.rules) for g in merge.unique)
    write_varints(out, [n_top, len(merge.unique),
                        *(len(g.rules) for g in merge.unique)], signed=False)
    merge.final.write_to(out)
    # NB: no separate rank map — the rank -> sub-grammar assignment lives
    # in the merged start rule (as in the paper's S -> S1 S2 ... form,
    # compressed by the final Sequitur pass) and is re-derived on read.


def _read_cfg_section(r: Reader, name: str = "CFG") -> CFGMergeResult:
    n_top = r.read_uvarint()
    n_unique = r.read_uvarint()
    if n_unique > r.remaining():
        raise CorruptTraceError(
            f"{name} section claims {n_unique} unique grammars but only "
            f"{r.remaining()} bytes remain")
    rule_counts = read_varints(r, n_unique, signed=False)
    final = Grammar.from_reader(r)
    if n_top + sum(rule_counts) != len(final.rules):
        raise CorruptTraceError(
            f"{name} section rule accounting is inconsistent: "
            f"{n_top} top + {sum(rule_counts)} sub-grammar rules != "
            f"{len(final.rules)} total")
    # recover the per-unique sub-grammars from the spliced rule space
    unique: list[Grammar] = []
    bases: list[int] = []
    base = n_top
    for count in rule_counts:
        bases.append(base)
        rules = []
        for rule in final.rules[base:base + count]:
            rules.append(tuple(
                (v + base if v < 0 else v, e) for v, e in rule))
        unique.append(Grammar(tuple(rules)))
        base += count
    # derive the rank -> uid sequence by expanding the top-level rules,
    # treating references to sub-grammar start rules as uid terminals
    base_to_uid = {b: uid for uid, b in enumerate(bases)}
    memo: dict[int, list[int]] = {}

    def expand_top(idx: int, active: frozenset) -> list[int]:
        got = memo.get(idx)
        if got is not None:
            return got
        if idx in active:
            raise CorruptTraceError(
                f"{name} section top rule {idx} is cyclic")
        out: list[int] = []
        for v, e in final.rules[idx]:
            ref = -v - 1
            if v >= 0:
                raise CorruptTraceError(
                    f"{name} section top rule {idx} holds a raw terminal "
                    f"{v}; corrupt CFG")
            if ref in base_to_uid:
                out.extend([base_to_uid[ref]] * e)
            elif ref >= len(final.rules):
                raise CorruptTraceError(
                    f"{name} section top rule {idx} references missing "
                    f"rule {ref}")
            else:
                sub = expand_top(ref, active | {idx})
                out.extend(sub if e == 1 else sub * e)
        memo[idx] = out
        return out

    rank_uid = expand_top(0, frozenset()) if n_top else []
    return CFGMergeResult(final=final, rank_uid=rank_uid, unique=unique)


@dataclass
class TraceFile:
    """A fully parsed Pilgrim trace."""

    nprocs: int
    cst: MergedCST
    cfg: CFGMergeResult
    timing_duration: Optional[CFGMergeResult] = None
    timing_interval: Optional[CFGMergeResult] = None
    #: binning bases of the timing sections; None on traces predating
    #: the meta section (readers then fall back to the default base)
    timing_meta: Optional[TimingMeta] = None
    #: set by ``from_bytes(salvage=True)`` when anything was dropped;
    #: excluded from equality so a cleanly-salvaged trace compares equal
    salvage: Optional[SalvageReport] = field(default=None, compare=False,
                                             repr=False)

    # -- writing ---------------------------------------------------------------------

    def to_bytes(self, compress: bool = True) -> bytes:
        out = bytearray()
        out.extend(MAGIC)
        out.append(VERSION)
        flags = (FLAG_COMPRESSED if compress else 0)
        if self.timing_duration is not None:
            flags |= FLAG_TIMING | FLAG_TIMING_META
        out.append(flags)
        write_uvarint(out, self.nprocs)
        for payload in self._section_payloads():
            emit_section(out, payload, compress)
        return bytes(out)

    def _section_payloads(self) -> list[bytes]:
        cst_b = bytearray()
        self.cst.write_to(cst_b)
        cfg_b = bytearray()
        _write_cfg_section(cfg_b, self.cfg)
        payloads = [bytes(cst_b), bytes(cfg_b)]
        if self.timing_duration is not None:
            d = bytearray()
            _write_cfg_section(d, self.timing_duration)
            i = bytearray()
            _write_cfg_section(i, self.timing_interval)
            m = bytearray()
            (self.timing_meta or TimingMeta()).write_to(m)
            payloads.extend((bytes(d), bytes(i), bytes(m)))
        return payloads

    @classmethod
    def from_bytes(cls, data: bytes, salvage: bool = False) -> "TraceFile":
        """Parse a trace blob.

        ``salvage=True`` switches from all-or-nothing to best-effort:
        every section that passes its CRC and parses is recovered, every
        section that does not is dropped and recorded in the result's
        ``salvage`` :class:`~repro.resilience.salvage.SalvageReport`
        (a lost CFG or CST loses every rank; a lost timing pair only
        loses timing; a rank map shorter than ``nprocs`` loses the
        missing ranks).  The header must still be intact — without it
        there is nothing to salvage.
        """
        if salvage:
            return cls._salvage_from_bytes(data)
        if len(data) < HEADER_FIXED:
            raise TruncatedTraceError(
                f"trace of {len(data)} bytes is shorter than the "
                f"{HEADER_FIXED}-byte header")
        if data[:4] != MAGIC:
            raise TraceFormatError("not a Pilgrim trace (bad magic)")
        if data[4] != VERSION:
            raise UnsupportedVersionError(data[4], VERSION)
        flags = data[5]
        if flags & ~_KNOWN_FLAGS:
            raise CorruptTraceError(
                f"unknown flag bits in {flags:#04x} "
                f"(known mask {_KNOWN_FLAGS:#04x})")
        compressed = bool(flags & FLAG_COMPRESSED)
        try:
            r = Reader(data, HEADER_FIXED)
            nprocs = r.read_uvarint()
            cst = MergedCST.read_from(take_section(r, compressed, "CST"))
            cfg = _read_cfg_section(take_section(r, compressed, "CFG"))
            td = ti = tm = None
            if flags & FLAG_TIMING_META and not flags & FLAG_TIMING:
                raise CorruptTraceError(
                    "timing-meta flag set without timing sections")
            if flags & FLAG_TIMING:
                td = _read_cfg_section(
                    take_section(r, compressed, "timing-duration"),
                    "timing-duration")
                ti = _read_cfg_section(
                    take_section(r, compressed, "timing-interval"),
                    "timing-interval")
                if flags & FLAG_TIMING_META:
                    tm = TimingMeta.read_from(
                        take_section(r, compressed, "timing-meta"))
            if not r.exhausted:
                raise CorruptTraceError(
                    f"{len(data) - r.pos} trailing bytes after the last "
                    f"section")
        except TraceFormatError:
            raise
        except (IndexError, KeyError, ValueError, OverflowError,
                RecursionError, MemoryError, struct.error,
                zlib.error) as e:
            # safety net: no parsing accident may escape as a raw
            # exception — the decoder's contract is structured errors only
            raise CorruptTraceError(
                f"malformed trace ({type(e).__name__}: {e})") from e
        if len(cfg.rank_uid) != nprocs:
            raise CorruptTraceError(
                f"CFG rank map covers {len(cfg.rank_uid)} ranks but the "
                f"header declares {nprocs}")
        return cls(nprocs=nprocs, cst=cst, cfg=cfg,
                   timing_duration=td, timing_interval=ti, timing_meta=tm)

    @classmethod
    def _salvage_from_bytes(cls, data: bytes) -> "TraceFile":
        report = SalvageReport()
        if len(data) < HEADER_FIXED:
            raise TruncatedTraceError(
                f"trace of {len(data)} bytes is shorter than the "
                f"{HEADER_FIXED}-byte header — nothing to salvage")
        if data[:4] != MAGIC:
            raise TraceFormatError("not a Pilgrim trace (bad magic)")
        if data[4] != VERSION:
            raise UnsupportedVersionError(data[4], VERSION)
        flags = data[5]
        if flags & ~_KNOWN_FLAGS:
            raise CorruptTraceError(
                f"unknown flag bits in {flags:#04x} "
                f"(known mask {_KNOWN_FLAGS:#04x})")
        compressed = bool(flags & FLAG_COMPRESSED)
        r = Reader(data, HEADER_FIXED)
        try:
            nprocs = r.read_uvarint()
        except TraceFormatError:
            raise
        except (IndexError, ValueError) as e:
            raise CorruptTraceError(
                f"unreadable nprocs ({e}) — nothing to salvage") from e

        truncated = False

        def read_sec(name: str, parse: Callable[[Reader], object]):
            nonlocal truncated
            if truncated:
                report.lose_section(name, "unreachable past truncation")
                return None
            try:
                return parse(take_section(r, compressed, name))
            except TruncatedTraceError as e:
                truncated = True
                report.lose_section(name, str(e))
                return None
            except (TraceFormatError, IndexError, KeyError, ValueError,
                    OverflowError, RecursionError, MemoryError,
                    struct.error, zlib.error) as e:
                report.lose_section(name, f"{type(e).__name__}: {e}")
                return None

        cst = read_sec("CST", MergedCST.read_from)
        cfg = read_sec("CFG", _read_cfg_section)
        td = ti = tm = None
        if flags & FLAG_TIMING:
            td = read_sec("timing-duration",
                          lambda rr: _read_cfg_section(rr, "timing-duration"))
            ti = read_sec("timing-interval",
                          lambda rr: _read_cfg_section(rr, "timing-interval"))
            if flags & FLAG_TIMING_META:
                tm = read_sec("timing-meta", TimingMeta.read_from)
                if tm is None and (td is not None or ti is not None):
                    # grammars survive; reconstruction falls back to the
                    # default base (already reported by read_sec)
                    report.note("timing-meta lost; reconstruction will "
                                "use the default base")
            if td is None or ti is None:
                # the pair is only meaningful together
                if td is not None or ti is not None:
                    report.lose_section("timing", "half of the pair lost")
                td = ti = None
        if not truncated and not r.exhausted:
            report.note(f"{len(data) - r.pos} trailing bytes ignored")

        if cst is None:
            # CFG terminals index the CST: without it nothing decodes
            cst = MergedCST(sigs=[], counts=[], dur_sums=[], remaps=[])
            cfg = None
        if cfg is None:
            cfg = CFGMergeResult(final=Grammar(((),)), rank_uid=[],
                                 unique=[])
            for rank in range(nprocs):
                report.lose_rank(rank)
        if len(cfg.rank_uid) > nprocs:
            report.note(
                f"rank map covers {len(cfg.rank_uid)} ranks, header "
                f"declares {nprocs}; extra entries dropped")
            cfg.rank_uid = cfg.rank_uid[:nprocs]
        elif len(cfg.rank_uid) < nprocs:
            for rank in range(len(cfg.rank_uid), nprocs):
                report.lose_rank(rank, reason="absent from rank map")
        if not (report.degraded or report.notes):
            report = None
        return cls(nprocs=nprocs, cst=cst, cfg=cfg, timing_duration=td,
                   timing_interval=ti, timing_meta=tm, salvage=report)

    # -- size accounting ----------------------------------------------------------------

    def section_sizes(self, compress: bool = True) -> dict[str, int]:
        """On-disk byte size per section (what the figures plot).

        Section sizes include each section's length prefix and 4-byte
        CRC32; ``header`` is the magic/version/flags/nprocs preamble.
        """
        payloads = self._section_payloads()
        names = ["cst", "cfg"]
        if self.timing_duration is not None:
            names.extend(("timing_duration", "timing_interval",
                          "timing_meta"))
        sizes = {"header": HEADER_FIXED + len(_uvarint_bytes(self.nprocs))}
        for name, payload in zip(names, payloads):
            section = bytearray()
            emit_section(section, payload, compress)
            sizes[name] = len(section)
        sizes["total"] = sum(sizes.values())
        return sizes

    def section_hashes(self, compress: bool = True) -> dict[str, str]:
        """SHA-256 per serialized section — what the trace store would
        address this trace's sections under (see :func:`section_hashes`
        for the blob-level equivalent)."""
        return section_hashes(self.to_bytes(compress))


def section_spans(data: bytes) -> dict[str, tuple[int, int]]:
    """Byte spans ``name -> (start, end)`` of every region in a valid
    trace blob (header fields, then per section its length prefix, CRC,
    and payload).  The corruption fuzzer aims its mutations at these
    boundaries; ``repro info`` could render them too."""
    if len(data) < HEADER_FIXED or data[:4] != MAGIC:
        raise TraceFormatError("not a Pilgrim trace (bad magic)")
    flags = data[5]
    spans: dict[str, tuple[int, int]] = {
        "magic": (0, 4), "version": (4, 5), "flags": (5, 6)}
    r = Reader(data, HEADER_FIXED)
    r.read_uvarint()
    spans["nprocs"] = (HEADER_FIXED, r.pos)
    names = ["cst", "cfg"]
    if flags & FLAG_TIMING:
        names.extend(("timing_duration", "timing_interval"))
    if flags & FLAG_TIMING_META:
        names.append("timing_meta")
    for name in names:
        start = r.pos
        n = r.read_uvarint()
        spans[f"{name}.len"] = (start, r.pos)
        spans[f"{name}.crc"] = (r.pos, r.pos + CRC_BYTES)
        r.read_bytes(CRC_BYTES)
        spans[f"{name}.payload"] = (r.pos, r.pos + n)
        r.read_bytes(n)
    return spans


def split_sections(data: bytes) -> tuple[bytes, list[tuple[str, bytes]]]:
    """Split a trace blob into ``(header_bytes, [(name, section_bytes)])``
    where each section's bytes cover its length prefix, CRC, and
    payload — concatenating the header with the sections reproduces
    *data* exactly (the trace store's reassembly invariant).

    Only the framing is walked (no payload parsing); damage inside a
    section surfaces later through its CRC.  Trailing bytes are
    rejected so a reassembled blob can never silently grow.
    """
    spans = section_spans(data)
    names = [n[:-len(".len")] for n in spans if n.endswith(".len")]
    sections = []
    end = HEADER_FIXED
    for name in names:
        start = spans[f"{name}.len"][0]
        end = spans[f"{name}.payload"][1]
        sections.append((name, data[start:end]))
    if end != len(data):
        raise CorruptTraceError(
            f"{len(data) - end} trailing bytes after the last section")
    header_end = spans[f"{names[0]}.len"][0] if names else len(data)
    return data[:header_end], sections


def section_hashes(data: bytes) -> dict[str, str]:
    """SHA-256 content hash per section of a valid trace blob — the free
    content addresses the trace store keys its blobs on (section bytes
    are deterministic, so identical runs hash identically)."""
    import hashlib
    _, sections = split_sections(data)
    return {name: hashlib.sha256(blob).hexdigest()
            for name, blob in sections}


def _uvarint_bytes(n: int) -> bytes:
    out = bytearray()
    write_uvarint(out, n)
    return bytes(out)
