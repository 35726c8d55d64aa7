"""One corruption fuzzer for every container.

The readers' contract (:mod:`repro.core.container`) is that a damaged
blob **always** raises a structured
:class:`~repro.core.errors.TraceFormatError` subclass — never a raw
``IndexError``, never a hang, never a silently different value.  A
:class:`Target` names one read path: a known-good blob, the *exercise*
that reads it all the way down, the byte spans of its container, and a
corpus of hostile bytes behind valid CRCs.  :func:`run` attacks it with
the corpus, then with bit flips and truncations at every span boundary
(one byte either side) and seeded random ones, and classifies each
outcome:

* ``structured`` — raised a ``TraceFormatError`` subclass: correct;
* ``salvaged`` — the salvage reader recovered a partial decode;
* ``accepted`` — a non-raising outcome the target allows: a frame
  stream that decodes to the same frames or a clean prefix of them
  (a byte stream has no global length; the session layer catches a
  stream cut at a frame boundary), or a trace that replays cleanly
  (the decode target polices silent decodes);
* ``crash`` — raised anything else: a reader bug;
* ``silent`` — read without complaint into something else: an
  integrity bug.

:data:`TARGETS` builds every target from one traced workload
(``repro fuzz WORKLOAD [--target NAME]...``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional

from . import api
from .core.backends import TracerOptions
from .core.decoder import TraceDecoder
from .core.errors import TraceFormatError
from .core.packing import pack_value, write_uvarint, write_varints
from .core.shard import (FLUSH, SHARD, GrammarSet, RankShard, ShardPartial,
                         reduce_shards, write_flush)
from .core.trace_format import FLAG_COMPRESSED, TRACE, TraceFile
from .ingest import protocol as proto
from .ingest.aggregator import CHECKPOINT, TenantFold, read_partials
from .ingest.client import ChunkingTracer
from .ingest.session import TenantState
from .replay.engine import replay_trace
from .store import TraceStore
from .store.index import INDEX
from .store.manifest import MANIFEST, RunRecord
from .workloads import make as make_workload

#: outcome kinds besides a structured error
SALVAGED = "salvaged"
ACCEPTED = "accepted"
CRASH = "crash"
SILENT = "silent"

#: tagged values the one-pass codec must refuse in bounded time: a tuple
#: nest past ``MAX_VALUE_DEPTH`` and an int whose varint runs past
#: ``MAX_VARINT_BYTES`` — corpus entries of every target whose sections
#: hold tagged values
CODEC_BOMBS = (
    ("a value nests 5000 tuples deep", b"\x03\x01" * 5000 + b"\x00"),
    ("an int's varint runs to 320 KB of continuation bytes",
     b"\x01" + b"\xff" * 320_000 + b"\x00"),
)


@dataclass
class FuzzReport:
    target: str = ""
    total: int = 0
    structured: int = 0
    salvaged: int = 0
    accepted: int = 0
    #: every crash and silent outcome, as ``[kind] mutation -> error``
    failures: list[str] = field(default_factory=list)
    #: histogram of raised error class names
    by_error: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.total > 0 and not self.failures

    def summary(self) -> str:
        errs = ", ".join(f"{k}×{v}" for k, v in sorted(self.by_error.items()))
        return (f"{self.target} fuzz: {'OK' if self.ok else 'FAILED'} "
                f"({self.total} mutations, {self.structured} structured "
                f"errors, {self.salvaged} salvaged, {self.accepted} "
                f"accepted, {len(self.failures)} failures; {errs})")


@dataclass
class Target:
    """One read path under attack."""

    name: str
    blob: bytes
    #: reads a (mutated) blob all the way down; raises on damage
    exercise: Callable[[bytes], Any]
    spans: dict
    #: kept as a list, so that every :func:`run` sees all of it
    corpus: Iterable[tuple[str, bytes]] = ()
    #: the outcome kind of a mutation *exercise* took without raising
    judge: Callable[[Any], str] = lambda _result: SILENT

    def __post_init__(self) -> None:
        self.corpus = list(self.corpus)


def _flip(blob: bytes, offset: int, bit: int) -> bytes:
    mut = bytearray(blob)
    mut[offset] ^= 1 << bit
    return bytes(mut)


def iter_blob_mutations(blob: bytes, spans: dict[str, tuple[int, int]],
                        seed: int = 0,
                        n_random: int = 400) -> Iterator[tuple[str, bytes]]:
    """Boundary-targeted flips and truncations around the given
    ``{name: (start, end)}`` *spans*, then ``n_random`` seeded random
    mutations."""
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


def run(target: Target, seed: int = 0, n_random: int = 400) -> FuzzReport:
    """Attack *target*: its corpus, then boundary and random mutations of
    its blob.  A mutation equal to the blob is skipped."""
    report = FuzzReport(target.name)
    for desc, mut in chain(target.corpus, iter_blob_mutations(
            target.blob, target.spans, seed=seed, n_random=n_random)):
        if mut == target.blob:
            continue
        report.total += 1
        try:
            result = target.exercise(mut)
        except TraceFormatError as e:
            report.structured += 1
            name = type(e).__name__
            report.by_error[name] = report.by_error.get(name, 0) + 1
        except Exception as e:  # noqa: BLE001 — the point of the fuzzer
            report.failures.append(
                f"[{CRASH}] {desc} -> {type(e).__name__}: {e}")
        else:
            kind = target.judge(result)
            if kind == SALVAGED:
                report.salvaged += 1
            elif kind == ACCEPTED:
                report.accepted += 1
            else:
                report.failures.append(f"[{SILENT}] {desc}")
    return report


# -- the trace: strict decode, salvage decode, replay ----------------------------------


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


def trace_corpus(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Trace blobs every section checksum accepts.

    CST entries the grammars reference but no reader can decode (the
    damage shows when a terminal is decoded, as a structured error
    naming it); each of :data:`CODEC_BOMBS` as the one signature of a
    one-entry table and each of :data:`HOSTILE_TABLES`, sealed as the
    CST section; and edits of the header's ``nprocs`` varint, which no
    CRC covers — the trace then declares more or fewer ranks than its
    CFG rank map, which strict reading must refuse and salvage must
    answer with :class:`~repro.core.errors.MissingRankError` for the
    ranks it lacks, or refuse when they are past
    :data:`~repro.core.trace_format.MAX_ABSENT_RANKS` (2**40 ranks)."""
    trace = TraceFile.from_bytes(blob)
    cst = trace.cst
    compress = bool(blob[5] & FLAG_COMPRESSED)
    if cst.sigs:
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
    tables = [(f"codec bomb in the signature table: {desc}",
               # the whole-signature group: width 0, terminal 0, VALUES
               _table(b"\x00\x01\x00\x03" + value, n=1))
              for desc, value in CODEC_BOMBS]
    tables += [(f"hostile table: {desc}", payload)
               for desc, payload in HOSTILE_TABLES]
    for desc, payload in tables:
        yield desc, TRACE.seal(blob, "CST", payload)
    nprocs = trace.nprocs
    start, end = TRACE.spans(blob)["nprocs"]

    def with_nprocs(n: int) -> bytes:
        out = bytearray(blob[:start])
        write_uvarint(out, n)
        return bytes(out) + blob[end:]

    yield ("header declares one more rank than the rank map covers",
           with_nprocs(nprocs + 1))
    yield ("header declares 16 phantom ranks past the rank map",
           with_nprocs(nprocs + 16))
    if nprocs >= 2:
        yield ("header declares one fewer rank than the rank map covers",
               with_nprocs(nprocs - 1))
    yield "header declares zero ranks", with_nprocs(0)
    yield "header declares 2**40 ranks", with_nprocs(1 << 40)


def _deep_decode(blob: bytes, *, salvage: bool = False) -> None:
    """Parse and then *fully* decode, so lazily-materialized corruption
    (bad rule references, broken CST entries) cannot hide.  Under
    salvage, ranks the report declares lost are skipped — decoding the
    survivors must still never crash."""
    dec = TraceDecoder.from_bytes(blob, salvage=salvage)
    lost = set(dec.salvage.lost_ranks) if dec.salvage is not None else set()
    dec.call_count()
    for rank in range(dec.nprocs):
        if rank not in lost:
            for _ in dec.rank_calls(rank):
                pass
    dec.function_histogram()


def trace_target(blob: bytes) -> Target:
    return Target("trace", blob, _deep_decode, TRACE.spans(blob),
                  trace_corpus(blob))


def salvage_target(blob: bytes) -> Target:
    """Refused (header damage) or salvaged, survivors decoding clean."""
    return Target("salvage", blob, lambda b: _deep_decode(b, salvage=True),
                  TRACE.spans(blob), trace_corpus(blob),
                  lambda _result: SALVAGED)


def replay_target(blob: bytes) -> Target:
    """Refused at decode or mid-replay (a
    :class:`~repro.core.errors.ReplayFormatError`), or replayed cleanly:
    the damage landed where replay never reads."""
    return Target("replay", blob, replay_trace, TRACE.spans(blob),
                  trace_corpus(blob), lambda _result: ACCEPTED)


# -- the ingest frame stream -----------------------------------------------------------


def record_stream(workload: str = "stencil2d", nprocs: int = 2, *,
                  seed: int = 3, chunk_calls: int = 16,
                  lossy_timing: bool = True, params: Optional[dict] = None
                  ) -> tuple[list[list[ShardPartial]], Any, list[int]]:
    """A real client's flushes, its config and its per-rank call counts."""
    flushes: list[list[ShardPartial]] = []
    tracer = ChunkingTracer(
        emit_flush=flushes.append, chunk_calls=chunk_calls,
        timing_mode="lossy" if lossy_timing else "aggregate")
    make_workload(workload, nprocs, **(params or {})).run(
        seed=seed, tracer=tracer, noise=0.05)
    return flushes, tracer.config(), [rc.streamed_calls for rc in tracer.ranks]


def frame_stream(flushes: list[list[ShardPartial]], config,
                 fin: list[int]) -> bytes:
    """A client session as one byte stream — HELLO, one CHUNK per flush
    framed as the client frames it, FIN: real partials, real grammars,
    real CRCs."""
    return proto.encode_hello("fuzz-corpus", len(fin), config) + b"".join(
        proto.encode_chunk(seq, write_flush(flush, compress=False),
                           compress=True)
        for seq, flush in enumerate(flushes)) + proto.encode_fin(fin)


#: the packed signature of a well-formed minimal partial
_PLAIN_SIG = pack_value(("MPI_Barrier", 0))
#: ``Grammar.flat([0])`` as the signed ints of the grammar column
_ONE_CALL = b"\x02\x02\x00\x02"
_HUGE_COUNT = 2 ** 60


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
    return FLUSH.write((bytes(body + inside),), flags=flags)


def frame_corpus(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Sessions a hostile client could send that every CRC accepts: the
    recorded HELLO, then one CHUNK that is wrong *inside* — a codec bomb
    as the frame's own sequence number or as a new signature (first
    partial of the record, and second), a count bomb in the head column
    and in each column's length, and the ways a record of several
    partials can be malformed: ranks out of order or repeated, a
    signature nobody names or a name for none, a column cut short, bytes
    left over inside the section or after it, timing grammars for one
    partial and not the next."""
    hello = blob[:max(end for _, end in proto.FRAME.spans(blob).values())]
    yield ("CHUNK sequence number is 320 KB of continuation bytes",
           hello + proto.encode_frame(proto.CHUNK,
                                      b"\xff" * 320_000 + b"\x00"))
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
            ("partials", {"head": [_HUGE_COUNT]}),
            ("new signatures", {"head": [1, 0, 1, _HUGE_COUNT, 1, 1]}),
            ("distinct signatures", {"sigs": b"\x80" * 8 + b"\x10"}),
            ("CST deltas", {"head": [1, 0, 1, 1, _HUGE_COUNT, 1]}),
            ("grammar parts", {"head": [1, 0, 1, 1, 1, _HUGE_COUNT]}),
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
    """Fully decode a client byte stream the way the server would —
    framing, per-kind payload parsing, every partial of every CHUNK
    (canonically re-serialized), and an EOF check for a trailing partial
    frame."""
    def chunk(payload: bytes) -> tuple:
        seq, record = proto.parse_chunk(payload)
        return (seq, *(p.to_bytes() for p in read_partials(record)))

    parse = {proto.HELLO: proto.parse_hello, proto.CHUNK: chunk,
             proto.HELLO_ACK: lambda p: (proto.parse_hello_ack(p),),
             proto.ACK: lambda p: (proto.parse_ack(p),),
             proto.FIN: lambda p: tuple(proto.parse_fin(p)),
             proto.ERROR: proto.parse_error}
    dec = proto.FrameDecoder()
    dec.feed(blob)
    # a RESULT's payload is an opaque trace blob
    out = [(kind, parse.get(kind, lambda p: (p,))(payload))
           for kind, payload in dec.frames()]
    dec.check_eof()
    return out


def frames_target(blob: bytes) -> Target:
    reference = decode_stream(blob)
    spans, pos, i = {}, 0, 0
    while pos < len(blob):
        one = proto.FRAME.spans(blob, pos)
        kind = proto.KIND_NAMES[blob[pos + 5]]
        spans.update((f"frame{i}.{kind}.{name}", span)
                     for name, span in one.items())
        pos, i = max(end for _, end in one.values()), i + 1

    def judge(frames) -> str:
        return ACCEPTED if frames == reference[:len(frames)] else SILENT

    return Target("frames", blob, decode_stream, spans, frame_corpus(blob),
                  judge)


# -- the store: run manifest and run index ---------------------------------------------


def _at(value: tuple, i: int, new) -> tuple:
    return value[:i] + (new,) + value[i + 1:]


def manifest_corpus(record: RunRecord) -> Iterator[tuple[str, bytes]]:
    """Manifests every CRC accepts, each wrong in one field, and the
    codec bombs as the whole body."""
    body = (record.run_id, record.workload, record.tenant,
            record.nprocs, record.created_ms, record.parent,
            record.header.hex(),
            tuple((s.name, s.digest, s.size, s.reused)
                  for s in record.sections))
    (name, digest, size, reused), *rest = body[7]
    absent = ("f" if digest[0] != "f" else "0") + digest[1:]
    for desc, value in (
            ("hash ref points at an absent object",
             _at(body, 7, ((name, absent, size, reused), *rest))),
            ("hash ref truncated to 12 chars",
             _at(body, 7, ((name, digest[:12], size, reused), *rest))),
            ("hash ref holds non-hex characters",
             _at(body, 7, ((name, "z" * 64, size, reused), *rest))),
            ("section size is negative",
             _at(body, 7, ((name, digest, -1, reused), *rest))),
            ("section ref tuple has wrong arity",
             _at(body, 7, ((name, digest, size), *rest))),
            ("section ref is not a tuple", _at(body, 7, (name, *rest))),
            ("empty section list", _at(body, 7, ())),
            ("run id malformed", _at(body, 0, "nope")),
            ("workload escapes as a path", _at(body, 1, "../evil")),
            ("nprocs is zero", _at(body, 3, 0)),
            ("nprocs is a bool", _at(body, 3, True)),
            ("created_ms is negative", _at(body, 4, -5)),
            ("parent run id malformed", _at(body, 5, "deadbeef")),
            ("header is not hex", _at(body, 6, "xyzzy")),
            ("body is not a tuple", ("x",)),
            ("body has wrong arity", body[:5])):
        yield desc, MANIFEST.write((pack_value(value),))
    for desc, bomb in CODEC_BOMBS:
        yield f"codec bomb as the body: {desc}", MANIFEST.write((bomb,))


def store_target(store: TraceStore, run_id: str) -> Target:
    """A stored run's manifest read the whole way: parsed, every hash ref
    resolved against the live store — a corrupt ref is a
    :class:`~repro.core.errors.MissingObjectError`, never a
    ``FileNotFoundError``."""
    record = store.read_record(run_id)
    blob = record.to_bytes()

    def exercise(mut: bytes) -> bytes:
        parsed = RunRecord.from_bytes(mut)
        return b"".join([parsed.header, *(store.objects.get(s.digest)
                                          for s in parsed.sections)])

    return Target("store", blob, exercise, MANIFEST.spans(blob),
                  manifest_corpus(record))


def index_target(blob: bytes) -> Target:
    """The run index: a counter, and per workload its runs and golden."""
    next_id, lineages = INDEX.read(blob).values[0]
    workload, lin = min(lineages.items())
    entry = (workload, lin.golden, tuple(lin.runs))
    corpus = [(desc, INDEX.seal(blob, "index", pack_value(value)))
              for desc, value in (
                  ("index counter is zero", (0, (entry,))),
                  ("a run id is malformed",
                   (next_id, (_at(entry, 2, ("r1",)),))),
                  ("golden pins a run outside its lineage",
                   (next_id, (_at(entry, 1, "r999999"),))))]
    corpus += [(f"codec bomb as the body: {desc}",
                INDEX.seal(blob, "index", bomb)) for desc, bomb in CODEC_BOMBS]
    return Target("index", blob, INDEX.read, INDEX.spans(blob), corpus)


# -- the pipeline's shard and the ingest checkpoint ------------------------------------


def shard_target(blob: bytes) -> Target:
    """A shard read the way the fault-tolerant pipeline reads one back:
    held to the rank span it was sent for."""
    shard = RankShard.from_bytes(blob)
    span = (shard.base_rank, shard.nranks)
    corpus = [(f"codec bomb as shard signature 0: {desc}",
               SHARD.seal(blob, "shard-CST", b"\x01" + bomb + b"\x00\x00"))
              for desc, bomb in CODEC_BOMBS]
    corpus += [
        ("the shard carries a call count for one rank too many",
         SHARD.seal(blob, "shard-calls", _counted([*shard.calls, 0]))),
        ("three bytes trail the shard's call counts",
         SHARD.seal(blob, "shard-calls",
                    _counted(shard.calls) + b"\x00\x01\x02")),
        ("a rank is assigned a grammar the shard has not",
         SHARD.seal(blob, "shard-CFG", _grammar_set(GrammarSet(
             shard.cfg.unique,
             [len(shard.cfg.unique)] + shard.cfg.uid[1:]))))]

    return Target("shard", blob, lambda b: RankShard.from_bytes(b, span),
                  SHARD.spans(blob), corpus)


def _counted(values: list[int]) -> bytes:
    out = bytearray()
    write_varints(out, [len(values), *values], signed=False)
    return bytes(out)


def _grammar_set(gs: GrammarSet) -> bytes:
    out = bytearray()
    gs.write_to(out)
    return bytes(out)


def checkpoint_corpus(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """Checkpoints every CRC accepts: a header wrong in one field, the
    codec bombs as the header, and a flush section whose record names a
    rank outside the tenant, or holds two records."""
    fold, state = TenantFold.from_bytes(blob)
    head = (fold.tenant, fold.nprocs, state.next_seq, state.finished,
            fold.config.to_tuple())
    for desc, value in (
            ("header is not a tuple", "x"),
            ("header has wrong arity", head[:4]),
            ("tenant is not a string", _at(head, 0, 7)),
            ("tenant escapes as a path", _at(head, 0, "../evil")),
            ("nprocs is zero", _at(head, 1, 0)),
            ("nprocs is a bool", _at(head, 1, True)),
            ("next sequence number is negative", _at(head, 2, -58)),
            ("finished is not a bool", _at(head, 3, 1)),
            ("config is malformed", _at(head, 4, ("nope",)))):
        yield desc, CHECKPOINT.seal(blob, "header", pack_value(value))
    for desc, bomb in CODEC_BOMBS:
        yield (f"codec bomb as the header: {desc}",
               CHECKPOINT.seal(blob, "header", bomb))
    partials = [fold.ranks[r].to_partial() for r in sorted(fold.ranks)]
    if partials:
        stray = [*partials[:-1], replace(partials[-1], rank=fold.nprocs + 5)]
        yield ("the flush record holds a rank outside the tenant",
               CHECKPOINT.seal(blob, "flush", write_flush(stray)))
    record = write_flush(partials)
    yield ("the flush section holds two records",
           CHECKPOINT.seal(blob, "flush", record + record))


def checkpoint_target(blob: bytes) -> Target:
    return Target("checkpoint", blob, TenantFold.from_bytes,
                  CHECKPOINT.spans(blob), checkpoint_corpus(blob))


# -- every target from one traced workload --------------------------------------------

#: what ``repro fuzz`` attacks, in order
TARGETS = ("trace", "salvage", "replay", "frames", "store", "shard",
           "checkpoint", "index")


def build_targets(workload: str, nprocs: int, root: str, *, seed: int = 1,
                  lossy: bool = False,
                  params: Optional[dict] = None) -> dict[str, Target]:
    """Every target of :data:`TARGETS`, from one traced run of
    *workload* and one streamed run; the store lives under *root*."""
    result = api.trace(workload, nprocs, seed=seed, params=params,
                       options=TracerOptions(lossy_timing=lossy))
    trace = result.trace_bytes
    flushes, config, fin = record_stream(workload, nprocs, seed=seed,
                                         lossy_timing=lossy, params=params)
    cut = len(flushes) // 2
    fold = TenantFold("fuzz-corpus", nprocs, config)
    for p in chain.from_iterable(flushes[:cut]):
        fold.absorb(p)
    store = TraceStore(root)
    run_id = store.put(trace, workload).run_id
    with open(store.index.path, "rb") as fh:
        index = fh.read()
    return {
        "trace": trace_target(trace),
        "salvage": salvage_target(trace),
        "replay": replay_target(trace),
        "frames": frames_target(frame_stream(flushes, config, fin)),
        "store": store_target(store, run_id),
        # every rank's frozen shard, reduced: a multi-rank shard
        "shard": shard_target(reduce_shards(
            rc.freeze() for rc in result.tracer.ranks).to_bytes()),
        "checkpoint": checkpoint_target(fold.to_bytes(TenantState(
            tenant="fuzz-corpus", nprocs=nprocs, config=config,
            next_seq=cut))),
        "index": index_target(index),
    }
