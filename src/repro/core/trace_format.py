"""Pilgrim's binary trace format (writer + reader).

The framing is the :data:`TRACE` declaration (:mod:`repro.core.container`,
DESIGN.md § "Containers"): magic ``PILG``, version 3, a flags byte
(bit0: lossy timing sections present; bit1: sections are
zlib-compressed; bit2: a timing-meta section follows the pair), the
``nprocs`` varint, then CRC'd sections (all integers are varints, see
:mod:`repro.core.packing`)::

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

Sections are deflated by default, mirroring the generic final
compression pass real trace formats apply — without it, the per-rank
Alltoallv count arrays of IS alone would dwarf the paper's reported
sizes (58KB at 1024 ranks).  All size figures the benchmarks report are
``len()`` of these bytes, CRCs included.  Version 3 changed the CST
section from a list of tagged values to the table above; a version 2
blob is an :class:`UnsupportedVersionError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from ..resilience.salvage import SalvageReport
from .container import Container, Section
from .cst import MergedCST
from .errors import CorruptTraceError, TruncatedTraceError
from .grammar import Grammar
from .interproc import CFGMergeResult
from .packing import MAX_VARINT_BYTES, Reader, read_varints, write_varints
from .timing import TimingMeta

FLAG_TIMING = 1
FLAG_COMPRESSED = 2
#: a timing-meta section follows the timing pair; newly written lossy
#: traces always set it, older blobs without it reconstruct with the
#: default base (the pre-fix behaviour)
FLAG_TIMING_META = 4

#: ranks a salvaged trace may report lost on its header's word alone
#: (``nprocs`` is the one header field no CRC covers, and every lost
#: rank costs the report an entry): a header claiming more ranks than
#: its rank map by this much is refused, not enumerated
MAX_ABSENT_RANKS = 1 << 20


def _write_cfg_section(out: bytearray, merge: CFGMergeResult) -> None:
    n_top = len(merge.final.rules) - sum(len(g.rules) for g in merge.unique)
    write_varints(out, [n_top, len(merge.unique),
                        *(len(g.rules) for g in merge.unique)], signed=False)
    merge.final.write_to(out)
    # NB: no separate rank map — the rank -> sub-grammar assignment lives
    # in the merged start rule (as in the paper's S -> S1 S2 ... form,
    # compressed by the final Sequitur pass) and is re-derived on read.


def _expand_top(rules, base_to_uid: dict, name: str, idx: int,
                memo: dict, active: frozenset) -> list[int]:
    """Top rule *idx* of a CFG section expanded to unique-grammar ids:
    a reference to a sub-grammar's start rule is that grammar's uid."""
    got = memo.get(idx)
    if got is not None:
        return got
    if idx in active:
        raise CorruptTraceError(f"{name} section top rule {idx} is cyclic")
    out: list[int] = []
    for v, e in rules[idx]:
        ref = -v - 1
        if v >= 0:
            raise CorruptTraceError(
                f"{name} section top rule {idx} holds a raw terminal "
                f"{v}; corrupt CFG")
        if ref in base_to_uid:
            out.extend([base_to_uid[ref]] * e)
        elif ref >= len(rules):
            raise CorruptTraceError(
                f"{name} section top rule {idx} references missing "
                f"rule {ref}")
        else:
            sub = _expand_top(rules, base_to_uid, name, ref, memo,
                              active | {idx})
            out.extend(sub if e == 1 else sub * e)
    memo[idx] = out
    return out


def _read_cfg_section(r: Reader, name: str = "CFG") -> CFGMergeResult:
    n_top = r.read_uvarint()
    n_unique = r.read_uvarint()
    if n_unique > r.remaining():
        raise CorruptTraceError(
            f"{name} section claims {n_unique} unique grammars but only "
            f"{r.remaining()} bytes remain")
    rule_counts = read_varints(r, n_unique, signed=False)
    final = _read_last_grammar(r, name)
    if n_top + sum(rule_counts) != len(final.rules):
        raise CorruptTraceError(
            f"{name} section rule accounting is inconsistent: "
            f"{n_top} top + {sum(rule_counts)} sub-grammar rules != "
            f"{len(final.rules)} total")
    # recover the per-unique sub-grammars from the spliced rule space:
    # a rule that references no other is the final grammar's own tuple
    unique: list[Grammar] = []
    bases: list[int] = []
    base = n_top
    for count in rule_counts:
        bases.append(base)
        unique.append(Grammar(tuple(
            rule if not rule or min(rule)[0] >= 0 else
            tuple([t if t[0] >= 0 else (t[0] + base, t[1]) for t in rule])
            for rule in final.rules[base:base + count])))
        base += count
    # derive the rank -> uid sequence by expanding the top-level rules,
    # treating references to sub-grammar start rules as uid terminals
    base_to_uid = {b: uid for uid, b in enumerate(bases)}
    rank_uid = _expand_top(final.rules, base_to_uid, name, 0, {},
                           frozenset()) if n_top else []
    return CFGMergeResult(final=final, rank_uid=rank_uid, unique=unique)


#: the bytes that continue a varint; every other byte ends one
_CONTINUED = bytes(range(0x80, 0x100))


def _read_last_grammar(r: Reader, name: str) -> Grammar:
    """The grammar that fills the rest of the section: every varint left,
    counted by their last bytes, in one call, then cut into rules.  A
    grammar that needs more ints than there are fails as reading them
    one by one would: truncated, unless what is left is a varint longer
    than the format allows."""
    ints = read_varints(r, len(bytes(r.data[r.pos:]).translate(None,
                                                                _CONTINUED)))
    try:
        final, used = Grammar._read_ints(ints, 0)
    except TruncatedTraceError:
        if r.remaining() > MAX_VARINT_BYTES:
            raise CorruptTraceError(
                f"{name} section ends in a varint longer than "
                f"{MAX_VARINT_BYTES} bytes") from None
        raise
    if used < len(ints):
        raise CorruptTraceError(
            f"{len(ints) - used} ints left over after the {name} "
            f"section's grammar")
    return final


def _timing(name: str) -> Section:
    return Section(name, partial(_read_cfg_section, name=name), FLAG_TIMING)


#: every section is a salvage unit: a lost CST or CFG loses every rank,
#: a lost timing section loses timing
TRACE = Container(
    b"PILG", 3, FLAG_TIMING | FLAG_COMPRESSED | FLAG_TIMING_META,
    (Section("CST", MergedCST.read_from),
     Section("CFG", _read_cfg_section),
     _timing("timing-duration"), _timing("timing-interval"),
     Section("timing-meta", TimingMeta.read_from,
             FLAG_TIMING | FLAG_TIMING_META)),
    what="Pilgrim trace", head=("nprocs",), compressed=FLAG_COMPRESSED)


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
        flags = (FLAG_COMPRESSED if compress else 0)
        if self.timing_duration is not None:
            flags |= FLAG_TIMING | FLAG_TIMING_META
        return TRACE.write(self._section_payloads(), flags=flags,
                           head=(self.nprocs,))

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
        missing ranks, up to :data:`MAX_ABSENT_RANKS` of them).  The
        header must still be intact — without it there is nothing to
        salvage.
        """
        report = SalvageReport() if salvage else None
        parsed = TRACE.read(data, salvage=report)
        if parsed.flags & FLAG_TIMING_META and not parsed.flags & FLAG_TIMING:
            raise CorruptTraceError(
                "timing-meta flag set without timing sections")
        (nprocs,) = parsed.head
        cst, cfg, td, ti, tm = parsed.values
        maps = [len(m.rank_uid) for m in (cfg, td, ti) if m is not None]
        if report is None:
            if any(n != nprocs for n in maps):
                raise CorruptTraceError(
                    f"rank maps (CFG, then timing) cover {maps} ranks but "
                    f"the header declares {nprocs}")
            return cls(nprocs=nprocs, cst=cst, cfg=cfg, timing_duration=td,
                       timing_interval=ti, timing_meta=tm)
        if tm is None and parsed.flags & FLAG_TIMING_META \
                and (td is not None or ti is not None):
            # grammars survive; reconstruction falls back to the default
            # base (the lost section is already reported)
            report.note("timing-meta lost; reconstruction will use the "
                        "default base")
        if td is None or ti is None:
            # the pair is only meaningful together
            if td is not None or ti is not None:
                report.lose_section("timing", "half of the pair lost")
            td = ti = None
        elif cfg is not None and len(set(maps)) > 1:
            # bins would be read against another rank's calls
            report.lose_section("timing", f"rank maps (CFG, then timing) "
                                f"cover {maps} ranks")
            td = ti = None
        if cst is None:
            # CFG terminals index the CST: without it nothing decodes
            cst = MergedCST(sigs=[], counts=[], dur_sums=[], remaps=[])
            cfg = None
        if cfg is None:     # every rank is then absent from the rank map
            cfg = CFGMergeResult(final=Grammar(((),)), rank_uid=[],
                                 unique=[])
        if len(cfg.rank_uid) > nprocs:
            report.note(
                f"rank map covers {len(cfg.rank_uid)} ranks, header "
                f"declares {nprocs}; extra entries dropped")
            cfg.rank_uid = cfg.rank_uid[:nprocs]
        elif len(cfg.rank_uid) < nprocs:
            absent = nprocs - len(cfg.rank_uid)
            if absent > MAX_ABSENT_RANKS:
                raise CorruptTraceError(
                    f"header declares {nprocs} ranks, {absent} of them "
                    f"absent from the rank map; salvage reports at most "
                    f"{MAX_ABSENT_RANKS} lost ranks")
            report.lose_span(len(cfg.rank_uid), absent,
                             reason="absent from rank map")
        if not (report.degraded or report.notes):
            report = None
        return cls(nprocs=nprocs, cst=cst, cfg=cfg, timing_duration=td,
                   timing_interval=ti, timing_meta=tm, salvage=report)

    # -- size accounting ----------------------------------------------------------------

    def section_sizes(self, compress: bool = True) -> dict[str, int]:
        """On-disk byte size per section of this trace serialized (see
        :func:`section_sizes`; a caller holding the blob asks that)."""
        return section_sizes(self.to_bytes(compress))


def section_sizes(data: bytes) -> dict[str, int]:
    """On-disk byte size per section of the trace blob *data* (what the
    figures plot), from its framing alone.

    Section sizes include each section's length prefix and 4-byte
    CRC32; ``header`` is the magic/version/flags/nprocs preamble.
    """
    spans = TRACE.spans(data)
    sizes = {"header": spans["cst.len"][0]}
    for key, start, end in _section_bounds(spans):
        sizes[key] = end - start
    sizes["total"] = sum(sizes.values())
    return sizes


def _section_bounds(spans: dict) -> list[tuple[str, int, int]]:
    """``(key, start, end)`` of each whole section (length prefix, CRC
    and payload) in the spans of a trace."""
    return [(s.key, spans[f"{s.key}.len"][0], spans[f"{s.key}.payload"][1])
            for s in TRACE.sections if f"{s.key}.len" in spans]


def split_sections(data: bytes) -> tuple[bytes, list[tuple[str, bytes]]]:
    """Split a trace blob into ``(header_bytes, [(name, section_bytes)])``
    where each section's bytes cover its length prefix, CRC, and
    payload — concatenating the header with the sections reproduces
    *data* exactly (the trace store's reassembly invariant).

    Only the framing is walked (no payload parsing); damage inside a
    section surfaces later through its CRC.  Trailing bytes are
    rejected so a reassembled blob can never silently grow.
    """
    bounds = _section_bounds(TRACE.spans(data))
    if bounds[-1][2] != len(data):
        raise CorruptTraceError(
            f"{len(data) - bounds[-1][2]} trailing bytes after the last "
            f"section")
    return (data[:bounds[0][1]],
            [(key, data[start:end]) for key, start, end in bounds])


def section_hashes(data: bytes) -> dict[str, str]:
    """SHA-256 content hash per section of a valid trace blob — the free
    content addresses the trace store keys its blobs on (section bytes
    are deterministic, so identical runs hash identically)."""
    _, sections = split_sections(data)
    return {name: hashlib.sha256(blob).hexdigest()
            for name, blob in sections}
