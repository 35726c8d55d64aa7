"""Ingest wire protocol — layer 1 (framing), no upward imports.

One frame is::

    [0:4]  magic  b"PIGF"
    [4]    version (1)
    [5]    kind   (HELLO..ERROR below)
    [6]    flags  (bit 0: payload zlib-compressed)
    [7:]   one trace-format v2 section: uvarint payload length,
           CRC32 (LE), payload bytes

The payload section reuses :func:`repro.core.trace_format.emit_section`
verbatim, so every frame's content is integrity-checked exactly like a
trace section on disk, and the corruption fuzzer
(:mod:`repro.ingest.fuzz`) can aim the same boundary attacks at it.

A CHUNK is one *flush* of the client's tracer, not one rank's share of
it: its payload is ``uvarint seq`` followed by one flush record
(:func:`repro.core.shard.write_flush`: every rank's
:class:`~repro.core.shard.ShardPartial`, in strictly ascending rank
order, as whole-flush columns).  The producing client writes the record
uncompressed and compresses the whole frame once (flag bit 0), so a
flush costs one record, one ``zlib`` call, one write and one ACK however
many ranks it covers.  The server absorbs a CHUNK all-or-nothing
(:func:`repro.ingest.aggregator.read_partials`).

The decoder is sans-io: :class:`FrameDecoder` is fed raw bytes from
whatever transport and yields complete ``(kind, payload)`` frames.  Any
wire-format violation raises a structured
:class:`~repro.core.errors.TraceFormatError` subclass — the layers above
(session, server) rely on never seeing a raw ``IndexError`` from here.

Layering (see DESIGN.md): this module imports only ``repro.core``
primitives.  ``session`` imports this; ``aggregator`` imports core;
``server``/``client`` import all three.  Dependencies flow upward only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..core.errors import (FrameFormatError, TraceFormatError,
                           TruncatedTraceError, UnsupportedVersionError)
from ..core.packing import Reader, read_value, write_uvarint, write_value
from ..core.trace_format import emit_section, take_section

FRAME_MAGIC = b"PIGF"
FRAME_VERSION = 1
_FLAG_COMPRESSED = 1

#: frame kinds
HELLO = 1        # client -> server: open/resume a tenant session
HELLO_ACK = 2    # server -> client: session accepted, next expected seq
CHUNK = 3        # client -> server: uvarint seq + one flush record
#                  (>= 1 ShardPartial, ascending ranks)
ACK = 4          # server -> client: uvarint seq absorbed into the fold
FIN = 5          # client -> server: stream complete + per-rank call counts
RESULT = 6       # server -> client: the folded trace blob
ERROR = 7        # server -> client: structured failure, session dropped

KIND_NAMES = {HELLO: "HELLO", HELLO_ACK: "HELLO_ACK", CHUNK: "CHUNK",
              ACK: "ACK", FIN: "FIN", RESULT: "RESULT", ERROR: "ERROR"}

#: sanity bound on a single frame's payload; a length prefix beyond this
#: is treated as corruption rather than an allocation request
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024

#: tenant names travel in paths (checkpoints) and logs; constrain them
_TENANT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
MAX_TENANT_LEN = 64


def encode_frame(kind: int, payload: bytes, *, compress: bool = False) -> bytes:
    """One complete frame as bytes (the only frame writer)."""
    if kind not in KIND_NAMES:
        raise ValueError(f"unknown frame kind {kind}")
    out = bytearray(FRAME_MAGIC)
    out.append(FRAME_VERSION)
    out.append(kind)
    out.append(_FLAG_COMPRESSED if compress else 0)
    emit_section(out, payload, compress)
    return bytes(out)


class FrameDecoder:
    """Incremental, transport-agnostic frame parser.

    ``feed()`` buffers raw bytes; ``frames()`` yields every complete
    ``(kind, payload)`` pair and leaves any trailing partial frame
    buffered for the next feed.  Structural violations raise
    :class:`FrameFormatError` (or another ``TraceFormatError`` subclass
    from the shared section reader) — after which the decoder is dead
    and the connection must be dropped.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.frames_decoded = 0
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes that do not yet form a complete frame."""
        return len(self._buf)

    def _try_parse(self) -> Optional[tuple[int, bytes, int]]:
        """``(kind, payload, total_frame_len)`` if the buffer holds a
        complete frame, None if more bytes are needed."""
        buf = self._buf
        have = len(buf)
        head = bytes(buf[:4])
        if head != FRAME_MAGIC[:len(head)]:
            raise FrameFormatError(
                f"not an ingest frame (bad magic {head!r})")
        if have < 7:
            return None
        if buf[4] != FRAME_VERSION:
            raise UnsupportedVersionError(buf[4], FRAME_VERSION)
        kind = buf[5]
        if kind not in KIND_NAMES:
            raise FrameFormatError(f"unknown frame kind {kind}")
        flags = buf[6]
        if flags & ~_FLAG_COMPRESSED:
            raise FrameFormatError(
                f"unknown frame flag bits in {flags:#04x}")
        # the payload-length varint, read without consuming: the buffer
        # may end inside it, but no honest length needs more than 10 bytes
        r = Reader(buf, 7)
        try:
            n = r.read_uvarint()
        except TruncatedTraceError:
            if have - 7 <= 10:
                return None
            raise FrameFormatError(
                "frame length varint is overlong") from None
        if n > MAX_FRAME_PAYLOAD:
            raise FrameFormatError(
                f"frame payload of {n} bytes exceeds the "
                f"{MAX_FRAME_PAYLOAD}-byte bound")
        end = r.pos + 4 + n
        if have < end:
            return None
        name = f"frame-{KIND_NAMES[kind]}"
        pr = take_section(Reader(bytes(buf[:end]), 7),
                          bool(flags & _FLAG_COMPRESSED), name)
        return kind, pr.read_bytes(pr.remaining()), end

    def frames(self) -> Iterator[tuple[int, bytes]]:
        """Yield every complete buffered frame."""
        while True:
            parsed = self._try_parse()
            if parsed is None:
                return
            kind, payload, end = parsed
            del self._buf[:end]
            self.frames_decoded += 1
            self.bytes_consumed += end
            yield kind, payload

    def check_eof(self) -> None:
        """Call at end of stream: leftover bytes mean the peer died
        mid-frame (or the stream was truncated by corruption)."""
        if self._buf:
            raise TruncatedTraceError(
                f"{len(self._buf)} trailing bytes form no complete "
                f"ingest frame")


def frame_spans(blob: bytes) -> dict[str, tuple[int, int]]:
    """Byte spans of every region of a valid frame stream, for the
    boundary fuzzer — the frame-stream analogue of
    :func:`repro.core.trace_format.section_spans`."""
    spans: dict[str, tuple[int, int]] = {}
    r = Reader(blob)
    i = 0
    while r.remaining():
        base = r.pos
        hdr = r.read_bytes(7)
        if hdr[:4] != FRAME_MAGIC:
            raise FrameFormatError("not an ingest frame (bad magic)")
        name = f"frame{i}.{KIND_NAMES.get(hdr[5], '?')}"
        spans[f"{name}.header"] = (base, base + 7)
        start = r.pos
        n = r.read_uvarint()
        spans[f"{name}.len"] = (start, r.pos)
        spans[f"{name}.crc"] = (r.pos, r.pos + 4)
        r.read_bytes(4)
        spans[f"{name}.payload"] = (r.pos, r.pos + n)
        r.read_bytes(n)
        i += 1
    return spans


# -- per-kind payload codecs ---------------------------------------------------------


@dataclass(frozen=True)
class IngestConfig:
    """The tracer configuration a tenant's fold must replicate — shipped
    in the HELLO frame so the server-side fold produces exactly the
    bytes the equivalent in-process run would."""

    loop_detection: bool = True
    cfg_dedup: bool = True
    lossy_timing: bool = False
    timing_base: float = 1.2
    per_function_base: dict = field(default_factory=dict)

    def to_tuple(self) -> tuple:
        return (self.loop_detection, self.cfg_dedup, self.lossy_timing,
                float(self.timing_base),
                tuple(sorted(self.per_function_base.items())))

    @classmethod
    def from_tuple(cls, val) -> "IngestConfig":
        if (not isinstance(val, tuple) or len(val) != 5
                or not all(isinstance(v, bool) for v in val[:3])
                or isinstance(val[3], bool)
                or not isinstance(val[3], (int, float))
                or not isinstance(val[4], tuple)):
            raise FrameFormatError("malformed ingest config tuple")
        pfb = {}
        for item in val[4]:
            if (not isinstance(item, tuple) or len(item) != 2
                    or not isinstance(item[0], str)
                    or isinstance(item[1], bool)
                    or not isinstance(item[1], (int, float))):
                raise FrameFormatError(
                    "malformed per-function base in ingest config")
            pfb[item[0]] = float(item[1])
        return cls(loop_detection=val[0], cfg_dedup=val[1],
                   lossy_timing=val[2], timing_base=float(val[3]),
                   per_function_base=pfb)


def validate_tenant(tenant: str) -> str:
    if (not tenant or len(tenant) > MAX_TENANT_LEN
            or not set(tenant) <= _TENANT_OK):
        raise FrameFormatError(
            f"bad tenant name {tenant!r}: 1-{MAX_TENANT_LEN} chars "
            f"from [A-Za-z0-9._-]")
    return tenant


def encode_hello(tenant: str, nprocs: int, config: IngestConfig, *,
                 resume: bool = False) -> bytes:
    validate_tenant(tenant)
    out = bytearray()
    write_value(out, (tenant, int(nprocs), bool(resume),
                      config.to_tuple()))
    return encode_frame(HELLO, bytes(out))


def parse_hello(payload: bytes) -> tuple[str, int, bool, IngestConfig]:
    val = _read_tuple(payload, "HELLO", 4)
    tenant, nprocs, resume, cfg = val
    if (not isinstance(tenant, str) or isinstance(nprocs, bool)
            or not isinstance(nprocs, int) or not isinstance(resume, bool)):
        raise FrameFormatError("malformed HELLO payload")
    if nprocs < 1:
        raise FrameFormatError(f"HELLO declares nprocs {nprocs} < 1")
    validate_tenant(tenant)
    return tenant, nprocs, resume, IngestConfig.from_tuple(cfg)


def encode_hello_ack(next_seq: int) -> bytes:
    out = bytearray()
    write_uvarint(out, next_seq)
    return encode_frame(HELLO_ACK, bytes(out))


def parse_hello_ack(payload: bytes) -> int:
    return _read_uvarint_payload(payload, "HELLO_ACK")


def encode_chunk(seq: int, partials_blob: bytes, *,
                 compress: bool = False) -> bytes:
    """The only CHUNK writer: *partials_blob* is one flush record (one
    partial's ``to_bytes()`` is the record of a flush of one).  *compress*
    is the frame-level flag — worth it when the record's own section was
    written uncompressed."""
    out = bytearray()
    write_uvarint(out, seq)
    out.extend(partials_blob)
    return encode_frame(CHUNK, bytes(out), compress=compress)


def parse_chunk(payload: bytes) -> tuple[int, bytes]:
    """``(seq, partials_blob)``; the blob is *not* parsed here — the
    aggregation layer owns the partial reader
    (:func:`repro.ingest.aggregator.read_partials`) so a corrupt partial
    fails inside the tenant's fold, not the shared reader."""
    try:
        r = Reader(payload)
        seq = r.read_uvarint()
        return seq, r.read_bytes(r.remaining())
    except TraceFormatError:
        raise
    except (IndexError, ValueError, struct.error) as e:
        raise FrameFormatError(
            f"malformed CHUNK payload ({type(e).__name__}: {e})") from e


def encode_ack(seq: int) -> bytes:
    out = bytearray()
    write_uvarint(out, seq)
    return encode_frame(ACK, bytes(out))


def parse_ack(payload: bytes) -> int:
    return _read_uvarint_payload(payload, "ACK")


def encode_fin(per_rank_calls: list[int]) -> bytes:
    out = bytearray()
    write_value(out, tuple(int(c) for c in per_rank_calls))
    return encode_frame(FIN, bytes(out))


def parse_fin(payload: bytes) -> list[int]:
    val = _read_tuple(payload, "FIN")
    calls = []
    for c in val:
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise FrameFormatError(
                f"FIN call count {c!r} is not a non-negative int")
        calls.append(c)
    return calls


def encode_result(trace_blob: bytes) -> bytes:
    # trace blobs carry their own per-section CRCs; the frame adds one
    # more over the whole payload, which is fine and cheap
    return encode_frame(RESULT, trace_blob)


def encode_error(code: str, detail: str) -> bytes:
    out = bytearray()
    write_value(out, (code, detail))
    return encode_frame(ERROR, bytes(out))


def parse_error(payload: bytes) -> tuple[str, str]:
    val = _read_tuple(payload, "ERROR", 2)
    if not all(isinstance(v, str) for v in val):
        raise FrameFormatError("malformed ERROR payload")
    return val[0], val[1]


def _read_tuple(payload: bytes, kind: str,
                length: Optional[int] = None) -> tuple:
    try:
        r = Reader(payload)
        val = read_value(r)
        if not r.exhausted:
            raise FrameFormatError(
                f"trailing bytes after {kind} payload value")
    except TraceFormatError:
        raise
    except (IndexError, KeyError, ValueError, OverflowError,
            struct.error) as e:
        raise FrameFormatError(
            f"malformed {kind} payload ({type(e).__name__}: {e})") from e
    if not isinstance(val, tuple) or \
            (length is not None and len(val) != length):
        raise FrameFormatError(f"malformed {kind} payload structure")
    return val


def _read_uvarint_payload(payload: bytes, kind: str) -> int:
    try:
        r = Reader(payload)
        n = r.read_uvarint()
        if not r.exhausted:
            raise FrameFormatError(
                f"trailing bytes after {kind} sequence number")
        return n
    except TraceFormatError:
        raise
    except (IndexError, ValueError, struct.error) as e:
        raise FrameFormatError(
            f"malformed {kind} payload ({type(e).__name__}: {e})") from e
