"""Deterministic trace-corruption fuzzer.

The decoder's contract (see :mod:`repro.core.errors`) is that a damaged
trace **always** raises a structured :class:`TraceFormatError` subclass —
never a raw ``IndexError``/``KeyError``, never a hang, and never a
silently wrong decode.  This module attacks a known-good blob with a
seeded, reproducible mutation set and classifies every outcome:

* **bit flips** at every section boundary (length prefixes, CRC fields,
  first/last payload bytes, each header field) plus seeded random
  offsets;
* **truncations** at every boundary, one byte either side of it, and at
  seeded random lengths.

Because every section is checksummed (since format v2), any surviving
mutation is a bug in either the format or the fuzzer — the CI smoke job
and the tier-1 tests assert zero crashes and zero silent successes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from .decoder import TraceDecoder
from .errors import TraceFormatError
from .trace_format import (FLAG_COMPRESSED, HEADER_FIXED, TraceFile,
                           emit_section, section_spans, split_sections)

#: outcome kinds
STRUCTURED = "structured"   # raised a TraceFormatError subclass: correct
CRASH = "crash"             # raised anything else: decoder bug
SILENT = "silent"           # decoded without complaint: integrity bug
SALVAGED = "salvaged"       # salvage mode recovered a partial decode

#: tagged values the one-pass codec must refuse in bounded time: a tuple
#: nest past ``MAX_VALUE_DEPTH`` and an int whose varint runs past
#: ``MAX_VARINT_BYTES``.  Each fuzzer re-seals them behind valid CRCs in
#: its own container (trace CST, run manifest, CHUNK frame).
CODEC_BOMBS = (
    ("a value nests 5000 tuples deep", b"\x03\x01" * 5000 + b"\x00"),
    ("an int's varint runs to 320 KB of continuation bytes",
     b"\x01" + b"\xff" * 320_000 + b"\x00"),
)


@dataclass
class FuzzOutcome:
    mutation: str
    kind: str
    error: str = ""

    def __str__(self) -> str:
        return f"[{self.kind}] {self.mutation}" + \
            (f" -> {self.error}" if self.error else "")


@dataclass
class FuzzReport:
    total: int = 0
    structured: int = 0
    #: mutations the salvage parser recovered a partial decode from
    #: (only nonzero when fuzzing with ``salvage=True``)
    salvaged: int = 0
    #: every non-structured outcome, for diagnosis
    failures: list[FuzzOutcome] = field(default_factory=list)
    #: histogram of raised error class names
    by_error: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.total > 0 and not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        errs = ", ".join(f"{k}×{v}" for k, v in sorted(self.by_error.items()))
        return (f"corruption fuzz: {status} ({self.total} mutations, "
                f"{self.structured} structured errors, "
                + (f"{self.salvaged} salvaged, " if self.salvaged else "")
                + f"{len(self.failures)} failures; {errs})")


def _flip(blob: bytes, offset: int, bit: int) -> bytes:
    mut = bytearray(blob)
    mut[offset] ^= 1 << bit
    return bytes(mut)


def iter_blob_mutations(blob: bytes, spans: dict[str, tuple[int, int]],
                        seed: int = 0,
                        n_random: int = 400) -> Iterator[tuple[str, bytes]]:
    """Format-agnostic mutation generator: boundary-targeted
    flips/truncations around the given ``{name: (start, end)}`` *spans*,
    then ``n_random`` seeded random mutations.  The trace fuzzer feeds
    it :func:`~repro.core.trace_format.section_spans`; the ingest-frame
    fuzzer (:mod:`repro.ingest.fuzz`) feeds it frame boundaries — same
    attack, different victim.
    """
    n = len(blob)
    boundaries = sorted({off for a, b in spans.values() for off in (a, b)})
    names = {a: name for name, (a, b) in spans.items()}

    for off in boundaries:
        for cut in (off - 1, off, off + 1):
            if 0 <= cut < n:
                where = names.get(off, "?")
                yield (f"truncate to {cut} bytes (near {where})",
                       blob[:cut])
        for probe in (off, off - 1):
            if 0 <= probe < n:
                yield (f"flip bit 0 of byte {probe} "
                       f"(near {names.get(off, '?')})",
                       _flip(blob, probe, 0))

    rng = random.Random(seed)
    for i in range(n_random):
        if rng.random() < 0.5:
            off = rng.randrange(n)
            bit = rng.randrange(8)
            yield (f"flip bit {bit} of byte {off} (random #{i})",
                   _flip(blob, off, bit))
        else:
            cut = rng.randrange(n)
            yield f"truncate to {cut} bytes (random #{i})", blob[:cut]


def iter_mutations(blob: bytes, seed: int = 0,
                   n_random: int = 400) -> Iterator[tuple[str, bytes]]:
    """Yield ``(description, mutated_blob)`` pairs for a trace blob:
    boundary-targeted flips/truncations at every section boundary first,
    then ``n_random`` seeded random mutations.  Identity mutations (e.g.
    truncation at the full length) are skipped by the caller's
    ``mut == blob`` check.
    """
    return iter_blob_mutations(blob, section_spans(blob), seed=seed,
                               n_random=n_random)


def _cst_mutations(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """CST entries the grammars reference but no reader can decode,
    re-sealed so every section CRC is valid: the damage only shows when
    a terminal is decoded, where it must surface as a structured
    :class:`~repro.core.errors.CorruptTraceError` naming the terminal."""

    trace = TraceFile.from_bytes(blob)
    cst = trace.cst
    if not cst.sigs:
        return
    compress = bool(blob[5] & FLAG_COMPRESSED)
    first = cst.sigs[0]
    for desc, sig in (
            ("CST entry 0 names an unknown function id",
             (1 << 30,) + first[1:]),
            ("CST entry 0 carries one value too many", first + (0,)),
            ("CST entry 0 is an empty signature", ())):
        cst.sigs[0] = sig
        yield desc, trace.to_bytes(compress)
    cst.sigs[0] = first
    for column in (cst.sigs, cst.counts, cst.dur_sums, cst.dur_ns):
        column.pop()
    yield ("the grammars reference a terminal past the end of the CST",
           trace.to_bytes(compress))


def _table(groups: bytes, n: int = 2) -> bytes:
    """A CST payload of *n* entries (each counted once, zero
    nanoseconds) whose signatures *groups* is to supply."""
    return bytes([n]) + b"\x01" * n + b"\x00" * n + groups


def _group(column: bytes, gaps: bytes = b"\x00\x01") -> bytes:
    """Function 0's two one-parameter signatures: the group's width,
    function id and member count, the members' terminal *gaps*, and the
    parameter *column*."""
    return b"\x02\x00\x02" + gaps + column


_INTS = b"\x00\x02\x04"         # an INT column: 1, 2
_ONE = b"\x02\x00\x01\x00\x00\x02"  # terminal 0 alone in a group, column: 1
_HUGE = b"\x80\x80\x80\x80\x80\x20"  # the uvarint 2**40

#: CST payloads only the columnar layout (format v3) makes possible:
#: each a two-entry table with one defect the reader must refuse in
#: bounded time, before allocating what a count merely claims
HOSTILE_TABLES = (
    ("a group names terminal 2 of a 2-entry table",
     _table(_group(_INTS, gaps=b"\x00\x02"))),
    ("terminal 0 is assigned twice", _table(_ONE + _ONE)),
    ("terminal 1 is never assigned", _table(_ONE)),
    ("a group's terminals do not ascend",
     _table(_group(_INTS, gaps=b"\x01\x00"))),
    ("unknown column tag", _table(_group(b"\x09\x02\x04"))),
    ("TUPLE column of width 0", _table(_group(b"\x01\x00" + _INTS))),
    ("LIST lengths sum past the buffer",
     _table(_group(b"\x02\x7f\x7f" + _INTS))),
    ("columns nest 65 deep", _table(_group(b"\x01\x01" * 65 + _INTS))),
    ("a column is the SAME as itself", _table(_group(b"\x04\x00"))),
    ("a nested column is the SAME as a column of its group",
     _table(b"\x03\x00\x02\x00\x01" + _INTS + b"\x01\x01\x04\x00")),
    ("the table claims 2**40 entries", _HUGE + b"\x01\x00"),
    ("a group claims 2**40 parameter columns",
     _table(_HUGE + b"\x00\x02\x00\x01" + _INTS)),
    ("a group claims more fields than the section has bytes",
     # four rows, twelve wide: one real column and ten references to it
     _table(b"\x0c\x00\x04\x00\x01\x01\x01" + b"\x00\x02\x04\x06\x08"
            + b"\x04\x00" * 10, n=4)),
    ("a group claims 2**40 members", _table(b"\x02\x00" + _HUGE + _INTS)),
    ("a TUPLE column claims 2**40 positions",
     _table(_group(b"\x01" + _HUGE + _INTS))),
    ("a LIST row claims 2**40 elements",
     _table(_group(b"\x02\x00" + _HUGE + _INTS))),
)


def _table_mutations(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Hand-built CST sections in an otherwise intact trace, every CRC
    valid: each of :data:`CODEC_BOMBS` as the one signature of a
    one-entry table, then each of :data:`HOSTILE_TABLES`."""
    header, sections = split_sections(blob)
    tables = [(f"codec bomb in the signature table: {desc}",
               # the whole-signature group: width 0, terminal 0, VALUES
               _table(b"\x00\x01\x00\x03" + value, n=1))
              for desc, value in CODEC_BOMBS]
    tables += [(f"hostile table: {desc}", payload)
               for desc, payload in HOSTILE_TABLES]
    for desc, payload in tables:
        out = bytearray(header)
        emit_section(out, payload, bool(blob[5] & FLAG_COMPRESSED))
        out += b"".join(sec for _, sec in sections[1:])
        yield desc, bytes(out)


def corpus_mutations(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Semantically-targeted corpus: mutations every section checksum
    still accepts.  Random bit flips essentially never survive the
    CRCs, so the missing-rank regressions are built deliberately by
    editing the (unprotected) header's ``nprocs`` varint — the trace
    then declares more or fewer ranks than its CFG rank map covers.
    Strict parsing must reject the mismatch with a structured error;
    salvage parsing must recover the covered ranks and answer requests
    for the others with :class:`~repro.core.errors.MissingRankError`,
    never a bare ``IndexError``/``KeyError``.  The CST cases
    (:func:`_cst_mutations`) and the hand-built tables
    (:func:`_table_mutations`) ride the same corpus."""
    if len(blob) <= HEADER_FIXED:
        return
    yield from _cst_mutations(blob)
    yield from _table_mutations(blob)
    nprocs = blob[HEADER_FIXED]
    if nprocs >= 0x7f:  # multi-byte varint; the single-byte edits below
        return          # would change its meaning, not its value
    rest = blob[HEADER_FIXED + 1:]

    def with_nprocs(n: int) -> bytes:
        return blob[:HEADER_FIXED] + bytes([n]) + rest

    yield ("header declares one more rank than the rank map covers",
           with_nprocs(nprocs + 1))
    if nprocs + 16 < 0x80:
        yield ("header declares 16 phantom ranks past the rank map",
               with_nprocs(nprocs + 16))
    if nprocs >= 2:
        yield ("header declares one fewer rank than the rank map covers",
               with_nprocs(nprocs - 1))
    yield "header declares zero ranks", with_nprocs(0)


def _deep_decode(blob: bytes, *, salvage: bool = False) -> None:
    """Parse and then *fully* decode, so lazily-materialized corruption
    (bad rule references, broken CST entries) cannot hide.  In salvage
    mode, ranks the salvage report declares lost are skipped — decoding
    the survivors must still never crash."""
    dec = TraceDecoder.from_bytes(blob, salvage=salvage)
    lost = (set(dec.salvage.lost_ranks)
            if salvage and dec.salvage is not None else set())
    dec.call_count()
    for rank in range(dec.nprocs):
        if rank in lost:
            continue
        for _ in dec.rank_calls(rank):
            pass
    dec.function_histogram()


def run_fuzz(blob: bytes, seed: int = 0, n_random: int = 400, *,
             salvage: bool = False) -> FuzzReport:
    """Attack *blob* with the deterministic mutation set (semantic
    corpus first, then boundary and random mutations).

    Strict mode (the default): every mutation must make the decoder
    raise a :class:`TraceFormatError` subclass — a silent decode is an
    integrity bug.  Salvage mode (``salvage=True``): every mutation
    must either raise a structured error (header-level damage) or
    produce a partial decode whose surviving ranks decode cleanly —
    a crash is a salvage-parser bug either way."""
    report = FuzzReport()
    mutations = itertools.chain(
        corpus_mutations(blob),
        iter_mutations(blob, seed=seed, n_random=n_random))
    for desc, mut in mutations:
        if mut == blob:
            continue
        report.total += 1
        try:
            _deep_decode(mut, salvage=salvage)
        except TraceFormatError as e:
            report.structured += 1
            cls = type(e).__name__
            report.by_error[cls] = report.by_error.get(cls, 0) + 1
        except Exception as e:  # noqa: BLE001 — the point of the fuzzer
            report.failures.append(FuzzOutcome(
                desc, CRASH, f"{type(e).__name__}: {e}"))
        else:
            if salvage:
                report.salvaged += 1
            else:
                report.failures.append(FuzzOutcome(desc, SILENT))
    return report
