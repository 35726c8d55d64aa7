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
(every column of the flush record it carries, and the ascending-rank
rule between its partials) → EOF check, so lazily-materialized corruption
inside a record cannot hide behind an intact frame header.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional

from ..core.errors import TraceFormatError
from ..core.fuzz import (CODEC_BOMBS, CRASH, SILENT, STRUCTURED, FuzzOutcome,
                         FuzzReport, iter_blob_mutations)
from ..core.packing import pack_value, write_varints
from ..core.shard import (PARTIAL_MAGIC, PARTIAL_VERSION, ShardPartial,
                          write_flush)
from ..core.trace_format import emit_section
from . import protocol as proto
from .aggregator import read_partials


def build_frame_corpus(workload: str = "stencil2d", nprocs: int = 2, *,
                       seed: int = 3, chunk_calls: int = 16,
                       lossy_timing: bool = True) -> bytes:
    """Record a real client session as one contiguous byte stream:
    HELLO, every CHUNK a small traced run produces — one per flush, every
    rank's partial in its record, framed as the client frames it — FIN.
    This is the known-good blob the fuzzer mutates — real partials, real
    grammars, real CRCs."""
    from ..workloads import make as make_workload
    from .client import ChunkingTracer

    frames = bytearray()
    seq = [0]

    def emit_flush(partials: list[ShardPartial]) -> None:
        frames.extend(proto.encode_chunk(
            seq[0], write_flush(partials, compress=False), compress=True))
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
#: ``Grammar.flat([0])`` as the signed ints of the grammar column
_ONE_CALL = b"\x02\x02\x00\x02"
_HUGE = 2 ** 60


def _raw_record(ranks=(0, 1), *, head=None, sigs=None, idx=None,
                d_counts=None, d_dur_ns=None, grammars=None,
                inside: bytes = b"", flags: int = 0) -> bytes:
    """A flush record put together column by column — section
    uncompressed, CRC honest — so that each column can be wrong on its
    own.  Left alone it is well formed: one call per rank of *ranks*,
    one new signature (the same for all), one delta, one flat part."""
    n = len(ranks)
    body = bytearray()
    write_varints(body, [n, *chain.from_iterable(
        (r, 1, 1, 1, 1) for r in ranks)] if head is None else head,
        signed=False)
    for column, default in ((sigs, b"\x01" + _PLAIN_SIG + b"\x00" * n),
                            (idx, b"\x00" * n),
                            (d_counts, b"\x02" * n), (d_dur_ns, b"\x00" * n),
                            (grammars, bytes((4 * n,)) + _ONE_CALL * n)):
        body += default if column is None else column
    record = bytearray(PARTIAL_MAGIC + bytes((PARTIAL_VERSION, flags)))
    emit_section(record, bytes(body + inside), compress=False)
    return bytes(record)


def corpus_frame_mutations(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Sessions a hostile client could send that every CRC accepts: the
    recorded HELLO, then one CHUNK that is wrong *inside* — a codec bomb
    as the frame's own sequence number or as a new signature (first
    partial of the record, and second), a count bomb in the head column
    and in each column's length, and the ways a record of several
    partials can be malformed: ranks out of order or repeated, a
    signature nobody names or a name for none, a column cut short, bytes
    left over inside the section or after it, timing grammars for one
    partial and not the next."""
    hello = blob[:proto.frame_spans(blob)["frame0.HELLO.payload"][1]]
    yield ("CHUNK sequence number is 320 KB of continuation bytes",
           hello + proto.encode_frame(proto.CHUNK, b"\xff" * 320_000 + b"\x00"))
    records = []
    for desc, value in CODEC_BOMBS:
        records += [
            (f"codec bomb as CHUNK 0's new signature: {desc}",
             _raw_record((0,), sigs=b"\x01" + value + b"\x00")),
            (f"codec bomb as the new signature of CHUNK 0's second "
             f"partial: {desc}",
             _raw_record(sigs=b"\x02" + _PLAIN_SIG + value + b"\x00\x01"))]
    records += [
        (f"count bomb: CHUNK 0's record claims 2**60 {what}",
         _raw_record((0,), **column))
        for what, column in (
            ("partials", {"head": [_HUGE]}),
            ("new signatures", {"head": [1, 0, 1, _HUGE, 1, 1]}),
            ("distinct signatures", {"sigs": b"\x80" * 8 + b"\x10"}),
            ("CST deltas", {"head": [1, 0, 1, 1, _HUGE, 1]}),
            ("grammar parts", {"head": [1, 0, 1, 1, 1, _HUGE]}),
            ("grammar ints", {"grammars": b"\x80" * 8 + b"\x10"}),
            ("rules in one grammar",
             {"grammars": b"\x01" + b"\x80" * 8 + b"\x20"}))]
    records += [
        ("CHUNK 0's ranks descend", _raw_record((1, 0))),
        ("CHUNK 0 carries rank 0 twice", _raw_record((0, 0))),
        ("CHUNK 0's second partial names a signature the record has not",
         _raw_record(sigs=b"\x01" + _PLAIN_SIG + b"\x00\x05")),
        ("CHUNK 0's record holds a signature no partial names",
         _raw_record(sigs=b"\x02" + _PLAIN_SIG * 2 + b"\x00\x00")),
        ("CHUNK 0's d_dur_ns column is one value short",
         _raw_record(d_dur_ns=b"\x00")),
        ("CHUNK 0's grammar column ends inside its second partial's part",
         _raw_record(grammars=b"\x06" + _ONE_CALL + b"\x02\x02")),
        ("CHUNK 0's grammar column holds one grammar too many",
         _raw_record(grammars=b"\x0c" + _ONE_CALL * 3)),
        ("three bytes trail the last column of CHUNK 0's record",
         _raw_record(inside=b"\x00\x01\x02")),
        ("three bytes trail CHUNK 0's record",
         _raw_record() + b"\x00\x01\x02"),
        ("CHUNK 0 is flagged timing but only its first partial has the "
         "timing pair", _raw_record(
             flags=1, grammars=b"\x10" + _ONE_CALL * 4)),
        ("CHUNK 0's record holds no partial",
         _raw_record((), sigs=b"\x00"))]
    for desc, record in records:
        yield desc, hello + proto.encode_chunk(0, record)


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
