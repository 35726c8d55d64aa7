"""One declaration per binary container: header, sections, failures.

Every artifact this system writes to disk or to the wire — the trace, a
rank shard, a flush record, an ingest frame, a checkpoint, a run
manifest, the run index — has one shape::

    magic            4 bytes
    version          1 byte
    kind             1 byte   (ingest frames only)
    flags            1 byte   (where the format has flags)
    head fields      uvarints (a trace's nprocs, a shard's rank span)
    -- per section, in declared order: --
    payload length   uvarint
    crc32            4 bytes, little-endian, over the stored bytes
    payload          zlib-deflated when the format's compression flag is set

A :class:`Container` declares one format — its magic, version, known
flags and named :class:`Section` s — and everything else comes from the
declaration: the writer (:meth:`Container.write`), the reader
(:meth:`Container.read`), the byte spans a fuzzer aims at
(:meth:`Container.spans`) and a valid blob around hostile bytes
(:meth:`Container.seal`).  DESIGN.md § "Containers" tabulates the seven
declarations.

The reader's contract: a blob that is not exactly what the writer wrote
raises an error of the container's family — never a raw ``IndexError``,
``struct.error`` or ``zlib.error``, and never a silently different
value.  It checks the magic (on however many bytes there are), the
version, unknown flag bits and kinds, every section's length, CRC and
zlib stream, that each section's parser consumed its payload exactly,
and that nothing follows the last section.  Under salvage (a
:class:`~repro.resilience.salvage.SalvageReport` passed in) a failing
section is dropped and recorded instead, sections past a truncation are
recorded as unreachable, and trailing bytes become a note; the header
must still be intact.  What a dropped section costs is the format's to
say (the trace's policy is in DESIGN.md § "Containers").
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from ..resilience.salvage import SalvageReport
from .errors import (ChecksumError, CorruptTraceError, StoreFormatError,
                     TraceFormatError, TruncatedTraceError,
                     UnsupportedVersionError)
from .packing import Reader, write_uvarint

#: zlib level of compressed sections (balanced, like zstd defaults)
ZLIB_LEVEL = 6

#: bytes each section spends on its CRC32
CRC_BYTES = 4

#: what a parser may leak on hostile bytes; the reader maps each into
#: the container's family
_RAW = (LookupError, ValueError, ArithmeticError, RecursionError,
        MemoryError, TypeError, struct.error, zlib.error)


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


@dataclass(frozen=True)
class Section:
    """One CRC'd section: its *name* (what a checksum error or a salvage
    report says), how to *parse* its payload (None: the payload bytes
    themselves), and the header *flag* bits that must all be set for it
    to be present (0: always)."""

    name: str
    parse: Optional[Callable[[Reader], Any]] = None
    flag: int = 0

    @property
    def key(self) -> str:
        """The section's name in :meth:`Container.spans`."""
        return self.name.lower().replace("-", "_")


class Parsed(NamedTuple):
    kind: int
    flags: int
    #: the uvarint header fields, in declared order
    head: tuple
    #: per declared section, its parsed value — None when its flag is
    #: clear or salvage dropped it
    values: tuple


@dataclass(frozen=True)
class Container:
    """One binary format, declared once.

    *error* is the family every failure is raised in: a violation the
    reader names itself (bad magic, unknown flags, trailing bytes, a raw
    parser exception) is *error* — :class:`CorruptTraceError` for the
    trace family — and the store's family, whose callers catch
    :class:`StoreFormatError` alone, re-raises the structural errors
    (truncation, checksum, version) as one."""

    magic: bytes
    version: int
    #: None: the format has no flags byte
    known_flags: Optional[int]
    sections: tuple
    error: type = TraceFormatError
    #: what the format is called in messages
    what: str = "container"
    #: names of the uvarint header fields after the fixed bytes
    head: tuple = ()
    #: valid kind bytes (a kind byte precedes the flags), or None
    kinds: Optional[Mapping[int, str]] = None
    #: the flag bit that means sections are deflated (0: never)
    compressed: int = 0

    @property
    def violation(self) -> type:
        return CorruptTraceError if self.error is TraceFormatError \
            else self.error

    @property
    def fixed(self) -> int:
        """Bytes before the uvarint header fields."""
        return 5 + (self.kinds is not None) + (self.known_flags is not None)

    # -- writing -----------------------------------------------------------------------

    def write(self, payloads: Sequence[bytes], *, flags: int = 0,
              kind: int = 0, head: Sequence[int] = ()) -> bytes:
        """The header, then each payload as a section (deflated when
        *flags* carries the compression bit).  The writer trusts its
        caller: :meth:`seal` and the fuzz corpora use it to put hostile
        bytes behind valid CRCs."""
        out = bytearray(self.magic)
        out.append(self.version)
        if self.kinds is not None:
            out.append(kind)
        if self.known_flags is not None:
            out.append(flags)
        for value in head:
            write_uvarint(out, value)
        compress = bool(flags & self.compressed)
        for payload in payloads:
            emit_section(out, payload, compress)
        return bytes(out)

    def seal(self, blob: bytes, name: str, payload: bytes) -> bytes:
        """*blob* with section *name*'s payload replaced by *payload*,
        every CRC valid: damage only the parser behind the checksum can
        catch."""
        spans = self.spans(blob)
        key = next(s.key for s in self.sections if s.name == name)
        flags = self.header(blob, 0, check=False)[1]
        out = bytearray(blob[:spans[f"{key}.len"][0]])
        emit_section(out, payload, bool(flags & self.compressed))
        return bytes(out) + blob[spans[f"{key}.payload"][1]:]

    # -- reading -----------------------------------------------------------------------

    def header(self, data, pos: int = 0, check: bool = True
               ) -> tuple[int, int, tuple, int]:
        """Check the header at *pos*: ``(kind, flags, head fields,
        position after them)``.  The magic is compared on however much
        of it *data* holds, so garbage is named as such before it is
        called short (an incremental reader takes a
        :class:`TruncatedTraceError` as "wait for more bytes")."""
        have = data[pos:pos + 4]
        if have != self.magic[:len(have)]:
            raise self.violation(f"not a {self.what} (bad magic)")
        fixed = self.fixed
        if len(data) - pos < fixed:
            raise TruncatedTraceError(
                f"{self.what} of {len(data) - pos} bytes is shorter than "
                f"its {fixed}-byte header")
        version = data[pos + 4]
        if check and version != self.version:
            raise UnsupportedVersionError(version, self.version)
        i = pos + 5
        kind = flags = 0
        if self.kinds is not None:
            kind = data[i]
            i += 1
            if check and kind not in self.kinds:
                raise self.violation(f"unknown {self.what} kind {kind}")
        if self.known_flags is not None:
            flags = data[i]
            i += 1
            if check and flags & ~self.known_flags:
                raise self.violation(
                    f"unknown {self.what} flag bits in {flags:#04x} "
                    f"(known mask {self.known_flags:#04x})")
        r = Reader(data, i)
        head = tuple(r.read_uvarint() for _ in self.head)
        return kind, flags, head, r.pos

    def read(self, data, *, salvage: Optional[SalvageReport] = None,
             then: Optional[Callable[[Parsed], Any]] = None) -> Any:
        """Parse *data*, one container and nothing after it.  *then*,
        given the :class:`Parsed` result, finishes a parse that needs the
        header (a flush record's columns depend on its flags) under the
        same failure mapping, and its value is returned instead."""
        try:
            parsed = self._read(data, salvage)
            return parsed if then is None else then(parsed)
        except TraceFormatError as e:
            if isinstance(e, self.error) \
                    or not issubclass(self.error, StoreFormatError):
                raise
            raise self.error(f"corrupt {self.what} ({e})") from e
        except _RAW as e:
            raise self.violation(
                f"malformed {self.what} ({type(e).__name__}: {e})") from e

    def _read(self, data, salvage) -> Parsed:
        kind, flags, head, pos = self.header(data)
        compressed = bool(flags & self.compressed)
        r = Reader(data, pos)
        values = []
        truncated = False
        for sec in self.sections:
            value = None
            if flags & sec.flag != sec.flag:
                pass
            elif truncated:
                salvage.lose_section(sec.name, "unreachable past truncation")
            else:
                try:
                    sub = take_section(r, compressed, sec.name)
                    if sec.parse is None:
                        value = sub.data
                    else:
                        value = sec.parse(sub)
                        if sub.pos < len(sub.data):
                            raise CorruptTraceError(
                                f"{sub.remaining()} bytes left over in the "
                                f"{sec.name} section")
                except (TraceFormatError, *_RAW) as e:
                    if salvage is None:
                        raise
                    truncated = isinstance(e, TruncatedTraceError)
                    salvage.lose_section(
                        sec.name,
                        str(e) if truncated else f"{type(e).__name__}: {e}")
            values.append(value)
        if not r.exhausted and not truncated:
            if salvage is None:
                raise self.violation(
                    f"{len(data) - r.pos} trailing bytes after the last "
                    f"{self.what} section")
            salvage.note(f"{len(data) - r.pos} trailing bytes ignored")
        return Parsed(kind, flags, head, tuple(values))

    def spans(self, blob, pos: int = 0) -> dict[str, tuple[int, int]]:
        """Byte spans ``name -> (start, end)`` of every region of the
        valid container at *pos* — header fields, then per section its
        length prefix, CRC and payload; the last span ends where the
        container does.  Only the framing is walked (the version is not
        checked), so a blob of another version splits too."""
        _kind, flags, _head, _end = self.header(blob, pos, check=False)
        spans = {"magic": (pos, pos + 4), "version": (pos + 4, pos + 5)}
        i = pos + 5
        for field, present in (("kind", self.kinds is not None),
                               ("flags", self.known_flags is not None)):
            if present:
                spans[field] = (i, i + 1)
                i += 1
        r = Reader(blob, i)
        for name in self.head:
            start = r.pos
            r.read_uvarint()
            spans[name] = (start, r.pos)
        for sec in self.sections:
            if flags & sec.flag != sec.flag:
                continue
            start = r.pos
            n = r.read_uvarint()
            spans[f"{sec.key}.len"] = (start, r.pos)
            spans[f"{sec.key}.crc"] = (r.pos, r.pos + CRC_BYTES)
            r.read_bytes(CRC_BYTES)
            spans[f"{sec.key}.payload"] = (r.pos, r.pos + n)
            r.read_bytes(n)
        return spans
