"""Frame-stream corruption fuzzer (the ingest twin of
:mod:`repro.core.fuzz`).

The server's robustness contract: a corrupt or truncated client byte
stream **always** surfaces as a structured
:class:`~repro.core.errors.TraceFormatError` subclass — never a raw
``IndexError``/``KeyError``/``zlib.error``, never a hang, and never a
silently different decode (every frame's payload is CRC-checked and
every header byte is validated, so any byte change must be caught).
The server turns exactly these errors into ERROR frames and drops only
the offending connection; this module proves the "always" part by
attacking a real recorded session byte stream with the shared
:func:`~repro.core.fuzz.iter_blob_mutations` mutation engine, pointed
at frame boundaries via :func:`~repro.ingest.protocol.frame_spans`.

Deep decode goes all the way down: frame framing → per-kind payload
parse → :func:`~repro.ingest.aggregator.read_partials` for every CHUNK
(every partial of the flush it carries, and the ascending-rank rule
between them) → EOF check, so lazily-materialized corruption inside a
partial cannot hide behind an intact frame header.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional

from ..core.errors import TraceFormatError
from ..core.fuzz import (CODEC_BOMBS, CRASH, SILENT, STRUCTURED, FuzzOutcome,
                         FuzzReport, iter_blob_mutations)
from ..core.packing import pack_value
from ..core.shard import PARTIAL_MAGIC, PARTIAL_VERSION, ShardPartial
from ..core.trace_format import emit_section
from . import protocol as proto
from .aggregator import read_partials


def build_frame_corpus(workload: str = "stencil2d", nprocs: int = 2, *,
                       seed: int = 3, chunk_calls: int = 16,
                       lossy_timing: bool = True) -> bytes:
    """Record a real client session as one contiguous byte stream:
    HELLO, every CHUNK a small traced run produces — one per flush, every
    rank's partial inside, framed as the client frames it — FIN.  This
    is the known-good blob the fuzzer mutates — real partials, real
    grammars, real CRCs."""
    from ..workloads import make as make_workload
    from .client import ChunkingTracer

    frames = bytearray()
    seq = [0]

    def emit_flush(partials: list[ShardPartial]) -> None:
        frames.extend(proto.encode_chunk(
            seq[0], b"".join(p.to_bytes(compress=False) for p in partials),
            compress=True))
        seq[0] += 1

    tracer = ChunkingTracer(
        emit_flush=emit_flush, chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy_timing else "aggregate")
    wl = make_workload(workload, nprocs)
    hello = proto.encode_hello("fuzz-corpus", nprocs, tracer.config())
    wl.run(seed=seed, tracer=tracer, noise=0.05)
    fin = proto.encode_fin([rc.streamed_calls for rc in tracer.ranks])
    return hello + bytes(frames) + fin


#: the packed signature of a well-formed minimal partial
_PLAIN_SIG = pack_value(("MPI_Barrier", 0))


def _raw_partial(rank: int, sig: bytes = _PLAIN_SIG) -> bytes:
    """A minimal partial for *rank* — one call, no deltas, no grammar
    parts, sections uncompressed — whose one new signature is the packed
    value *sig*, taken as raw bytes so it can be a codec bomb."""
    partial = bytearray(PARTIAL_MAGIC + bytes((PARTIAL_VERSION, 0, rank, 1)))
    for section in (b"\x01" + sig, b"\x00", b"\x00"):
        emit_section(partial, section, compress=False)
    return bytes(partial)


def corpus_frame_mutations(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Sessions a hostile client could send that every CRC accepts: the
    recorded HELLO, then one CHUNK that is wrong *inside* — a codec bomb
    as the frame's own sequence number or as a partial's one new
    signature (first partial of the chunk, and second), and the ways a
    multi-partial chunk can be malformed: its second partial cut short,
    bytes left over after its last, one rank in it twice."""
    hello = blob[:proto.frame_spans(blob)["frame0.HELLO.payload"][1]]
    yield ("CHUNK sequence number is 320 KB of continuation bytes",
           hello + proto.encode_frame(proto.CHUNK, b"\xff" * 320_000 + b"\x00"))
    for desc, value in CODEC_BOMBS:
        yield (f"codec bomb as CHUNK 0's new signature: {desc}",
               hello + proto.encode_chunk(0, _raw_partial(0, value)))
        yield (f"codec bomb as the new signature of CHUNK 0's second "
               f"partial: {desc}",
               hello + proto.encode_chunk(
                   0, _raw_partial(0) + _raw_partial(1, value)))
    for desc, partials in (
            ("CHUNK 0's second partial is truncated mid-section",
             _raw_partial(0) + _raw_partial(1)[:-2]),
            ("three bytes trail CHUNK 0's last partial",
             _raw_partial(0) + _raw_partial(1) + b"\x00\x01\x02"),
            ("CHUNK 0 carries rank 0 twice",
             _raw_partial(0) + _raw_partial(0))):
        yield desc, hello + proto.encode_chunk(0, partials)


def decode_stream(blob: bytes) -> list[tuple[int, tuple]]:
    """Fully decode a client byte stream, the way the server would —
    framing, per-kind payload parsing, deep :class:`ShardPartial`
    decode of every partial of every CHUNK, and an EOF check for
    trailing partial frames.
    Returns the parsed frames (used for the identical-decode check);
    raises a :class:`TraceFormatError` subclass on any corruption."""
    dec = proto.FrameDecoder()
    dec.feed(blob)
    out: list[tuple[int, tuple]] = []
    for kind, payload in dec.frames():
        if kind == proto.HELLO:
            out.append((kind, proto.parse_hello(payload)))
        elif kind == proto.HELLO_ACK:
            out.append((kind, (proto.parse_hello_ack(payload),)))
        elif kind == proto.CHUNK:
            chunk_seq, partials_blob = proto.parse_chunk(payload)
            # canonical re-serialization pins the deep decode
            out.append((kind, (chunk_seq, *(
                p.to_bytes() for p in read_partials(partials_blob)))))
        elif kind == proto.ACK:
            out.append((kind, (proto.parse_ack(payload),)))
        elif kind == proto.FIN:
            out.append((kind, tuple(proto.parse_fin(payload))))
        elif kind == proto.ERROR:
            out.append((kind, proto.parse_error(payload)))
        else:  # RESULT: payload is an opaque trace blob
            out.append((kind, (payload,)))
    dec.check_eof()
    return out


def run_frame_fuzz(blob: Optional[bytes] = None, seed: int = 0,
                   n_random: int = 400) -> FuzzReport:
    """Attack a recorded session stream with boundary-targeted and
    seeded random mutations.

    Every mutation must either raise a structured
    :class:`TraceFormatError` subclass or — vanishingly rare, but legal
    — decode to *exactly* the frames of the pristine stream.  A decode
    that silently yields different frames is an integrity bug; any
    other exception is a parser bug.  Mirrors
    :func:`repro.core.fuzz.run_fuzz` so ``repro fuzz --frames`` reports
    with the same :class:`FuzzReport`."""
    if blob is None:
        blob = build_frame_corpus()
    reference = decode_stream(blob)
    report = FuzzReport()
    spans = proto.frame_spans(blob)
    for desc, mut in chain(corpus_frame_mutations(blob),
                           iter_blob_mutations(blob, spans, seed=seed,
                                               n_random=n_random)):
        if mut == blob:
            continue
        report.total += 1
        try:
            frames = decode_stream(mut)
        except TraceFormatError as e:
            report.structured += 1
            name = type(e).__name__
            report.by_error[name] = report.by_error.get(name, 0) + 1
        except Exception as e:  # noqa: BLE001 — the whole point
            report.failures.append(FuzzOutcome(
                desc, CRASH, f"{type(e).__name__}: {e}"))
        else:
            if frames == reference:
                # the mutation round-tripped to the same parse (possible
                # only for non-load-bearing encodings); count it as
                # covered, not as a silent integrity failure
                report.structured += 1
                report.by_error["identical-decode"] = \
                    report.by_error.get("identical-decode", 0) + 1
            elif frames == reference[:len(frames)]:
                # truncation at an exact frame boundary: a byte stream
                # has no global length, so the framing layer *cannot*
                # flag this — the session layer does (no FIN, or the
                # FIN conservation check).  Covered, one layer up.
                report.structured += 1
                report.by_error["clean-prefix"] = \
                    report.by_error.get("clean-prefix", 0) + 1
            else:
                report.failures.append(FuzzOutcome(
                    desc, SILENT, "decoded to different frames"))
    return report


__all__ = ["STRUCTURED", "CRASH", "SILENT", "FuzzReport", "FuzzOutcome",
           "build_frame_corpus", "corpus_frame_mutations", "decode_stream",
           "run_frame_fuzz"]
