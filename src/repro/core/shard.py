"""Per-rank shard artifacts: the unit of the sharded compression pipeline.

Pilgrim's inter-process compression (§3.5) is a ceil(log2 P) tree
reduction over per-rank partial results.  This module makes those
partials first-class:

* :class:`RankCompressor` owns one rank's intra-process state (encoder,
  CST, Sequitur grammar, optional timing compressor) and freezes it into
* :class:`RankShard` — a self-contained, picklable, byte-serializable
  artifact covering a contiguous rank range ``[base_rank, base_rank +
  nranks)``: the merged signature table, the per-rank grammars (dedup'd
  into a :class:`GrammarSet`), and the timing partials; and
* :func:`merge_shards` — the **associative** pairwise reduction step.

Associativity is what lets any reduction tree (left fold, balanced,
parallel) produce byte-identical final traces.  It holds because

* the merged signature order is the *ordered union* "left order, then
  novel right signatures in right order", and ordered union is
  associative (``(c \\ b) \\ a == c \\ (a ∪ b)`` as subsequences of c);
* duration sums are accumulated as **integer nanoseconds** (float
  addition is not associative; integer addition is), converted back to
  seconds exactly once at serialization time;
* grammar dedup order is first appearance in rank order — the same
  ordered-union argument.

Shard bytes are the :data:`SHARD` container (length prefix + CRC32 per
section, :mod:`repro.core.container`), so a shard on the wire enjoys the
same integrity checking as a finished trace.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from .container import Container, Parsed, Section
from .cst import CST, MergedCST, _dur_to_ns
from .encoder import PLANS, PerRankEncoder
from .errors import CorruptTraceError
from .grammar import Grammar, TermLog
from .packing import (Reader, read_value, read_varints, write_uvarint,
                      write_value, write_varints)
from .sequitur import Sequitur
from .timing import TimingCompressor
from .trace_format import FLAG_COMPRESSED, FLAG_TIMING


@dataclass
class GrammarSet:
    """Per-rank grammars deduplicated into first-appearance order.

    ``uid[i]`` names the grammar of the i-th covered rank; ``unique``
    holds each distinct grammar once.  In SPMD codes most ranks build
    identical grammars (§3.5.2), so a merged shard covering thousands of
    ranks typically stores a handful of grammars plus an int list.
    """

    unique: list[Grammar]
    uid: list[int]

    @classmethod
    def single(cls, g: Grammar) -> "GrammarSet":
        return cls(unique=[g], uid=[0])

    def per_rank(self) -> list[Grammar]:
        """The covered ranks' grammars, in rank order."""
        return [self.unique[u] for u in self.uid]

    def merge(self, other: "GrammarSet") -> "GrammarSet":
        """Ordered-union dedup merge (associative, not commutative)."""
        unique = list(self.unique)
        index = {g: i for i, g in enumerate(unique)}
        remap = []
        for g in other.unique:
            i = index.get(g)
            if i is None:
                i = len(unique)
                index[g] = i
                unique.append(g)
            remap.append(i)
        return GrammarSet(unique=unique,
                          uid=list(self.uid) + [remap[u] for u in other.uid])

    # -- serialization (one v2 section payload) ----------------------------------

    def write_to(self, out: bytearray) -> None:
        write_varints(out, [len(self.unique), len(self.uid), *self.uid],
                      signed=False)
        for g in self.unique:
            g.write_to(out)

    @classmethod
    def read_from(cls, r: Reader, name: str = "grammar-set") -> "GrammarSet":
        n_unique = r.read_uvarint()
        n_uid = r.read_uvarint()
        if max(n_unique, n_uid) > r.remaining():
            raise CorruptTraceError(
                f"{name} section claims {n_unique} grammars over {n_uid} "
                f"ranks but only {r.remaining()} bytes remain")
        uid = read_varints(r, n_uid, signed=False)
        bad = [u for u in uid if u >= n_unique]
        if bad:
            raise CorruptTraceError(
                f"{name} section rank map references grammar {bad[0]} "
                f"but only {n_unique} exist")
        unique = [Grammar.from_reader(r) for _ in range(n_unique)]
        return cls(unique=unique, uid=uid)


@dataclass
class RankShard:
    """Self-contained partial result covering ranks
    ``[base_rank, base_rank + nranks)``.

    ``sigs`` is the shard-local merged CST (ordered union across the
    covered ranks); every grammar in ``cfg`` uses *this* numbering for
    its terminals.  ``dur_ns`` holds per-signature duration sums in
    integer nanoseconds (see module docstring).
    """

    base_rank: int
    nranks: int
    sigs: list[tuple]
    counts: list[int]
    dur_ns: list[int]
    cfg: GrammarSet
    #: per covered rank, the number of traced calls (conservation checks)
    calls: list[int] = field(default_factory=list)
    timing_duration: Optional[GrammarSet] = None
    timing_interval: Optional[GrammarSet] = None

    @property
    def n_signatures(self) -> int:
        return len(self.sigs)

    @property
    def total_calls(self) -> int:
        return sum(self.calls)

    @classmethod
    def empty(cls, base_rank: int, nranks: int, *,
              timing: bool = False) -> "RankShard":
        """A placeholder shard covering *nranks* ranks with no data —
        what the resilient pipeline substitutes for a subtree it had to
        abandon.  Every covered rank gets the empty grammar (expands to
        zero calls), so downstream stages and the decoder handle the
        span without special cases."""
        g = Grammar(((),))
        shard = cls(base_rank=base_rank, nranks=nranks, sigs=[],
                    counts=[], dur_ns=[],
                    cfg=GrammarSet(unique=[g], uid=[0] * nranks),
                    calls=[0] * nranks)
        if timing:
            shard.timing_duration = GrammarSet(unique=[g],
                                               uid=[0] * nranks)
            shard.timing_interval = GrammarSet(unique=[g],
                                               uid=[0] * nranks)
        return shard

    def merged_cst(self) -> MergedCST:
        """The shard's CST as a :class:`MergedCST`: its own integer
        nanoseconds are what the trace stores, so the serialized bytes
        do not depend on the reduction tree."""
        return MergedCST.from_ns(list(self.sigs), list(self.counts),
                                 list(self.dur_ns))

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self, compress: bool = True) -> bytes:
        cst_b = bytearray()
        write_uvarint(cst_b, len(self.sigs))
        for sig, count, ns in zip(self.sigs, self.counts, self.dur_ns):
            write_value(cst_b, sig)
            write_uvarint(cst_b, count)
            write_uvarint(cst_b, ns)
        calls_b = bytearray()
        write_varints(calls_b, [len(self.calls), *self.calls], signed=False)
        cfg_b = bytearray()
        self.cfg.write_to(cfg_b)
        payloads = [bytes(cst_b), bytes(calls_b), bytes(cfg_b)]
        flags = FLAG_COMPRESSED if compress else 0
        if self.timing_duration is not None:
            flags |= FLAG_TIMING
            d = bytearray()
            self.timing_duration.write_to(d)
            i = bytearray()
            self.timing_interval.write_to(i)
            payloads.extend((bytes(d), bytes(i)))
        return SHARD.write(payloads, flags=flags,
                           head=(self.base_rank, self.nranks))

    @classmethod
    def from_bytes(cls, data: bytes,
                   span: Optional[tuple[int, int]] = None) -> "RankShard":
        """Parse a shard; with *span* ``(base_rank, nranks)``, one that
        covers other ranks is refused too — a shard sent for those
        ranks that comes back claiming others is damaged, not moved."""
        parsed = SHARD.read(data)
        base_rank, nranks = parsed.head
        if span is not None and (base_rank, nranks) != span:
            raise CorruptTraceError(
                f"shard claims ranks [{base_rank}, {base_rank + nranks}) "
                f"but was sent for [{span[0]}, {span[0] + span[1]})")
        (sigs, counts, dur_ns), calls, cfg, td, ti = parsed.values
        if len(calls) != nranks or len(cfg.uid) != nranks:
            raise CorruptTraceError(
                f"shard covers {nranks} ranks but carries {len(calls)} "
                f"call counts and {len(cfg.uid)} grammar assignments")
        return cls(base_rank=base_rank, nranks=nranks, sigs=sigs,
                   counts=counts, dur_ns=dur_ns, cfg=cfg, calls=calls,
                   timing_duration=td, timing_interval=ti)


def _read_shard_cst(r: Reader) -> tuple[list, list, list]:
    n = r.read_uvarint()
    if n > r.remaining():
        raise CorruptTraceError(
            f"shard CST claims {n} signatures but only {r.remaining()} "
            f"bytes remain")
    sigs, counts, dur_ns = [], [], []
    for i in range(n):
        sig = read_value(r)
        if not isinstance(sig, tuple):
            raise CorruptTraceError(
                f"shard CST entry {i} is a {type(sig).__name__}, not a "
                f"signature tuple")
        sigs.append(sig)
        counts.append(r.read_uvarint())
        dur_ns.append(r.read_uvarint())
    return sigs, counts, dur_ns


def _grammar_set(name: str, flag: int = 0) -> Section:
    return Section(name, partial(GrammarSet.read_from, name=name), flag)


SHARD = Container(
    b"PSHD", 1, FLAG_TIMING | FLAG_COMPRESSED,
    (Section("shard-CST", _read_shard_cst),
     Section("shard-calls",
             lambda r: read_varints(r, r.read_uvarint(), signed=False)),
     _grammar_set("shard-CFG"),
     _grammar_set("shard-timing-duration", FLAG_TIMING),
     _grammar_set("shard-timing-interval", FLAG_TIMING)),
    what="Pilgrim rank shard", head=("base_rank", "nranks"),
    compressed=FLAG_COMPRESSED)


def merge_shards(a: RankShard, b: RankShard) -> RankShard:
    """The associative reduction step: merge two adjacent shards.

    *a* must cover the ranks immediately below *b* (the operation is
    associative but **not** commutative — rank order is the trace's
    meaning).  The merged signature table preserves *a*'s numbering and
    appends *b*'s novel signatures in *b*'s order (Fig 3); *b*'s grammars
    are renumbered into the merged table before the dedup merge.
    """
    if a.base_rank + a.nranks != b.base_rank:
        raise ValueError(
            f"shards are not adjacent: left covers "
            f"[{a.base_rank}, {a.base_rank + a.nranks}), right starts at "
            f"{b.base_rank}")
    sigs = list(a.sigs)
    counts = list(a.counts)
    dur_ns = list(a.dur_ns)
    index = {sig: i for i, sig in enumerate(sigs)}
    remap: list[int] = []
    for i, sig in enumerate(b.sigs):
        j = index.get(sig)
        if j is None:
            j = len(sigs)
            index[sig] = j
            sigs.append(sig)
            counts.append(b.counts[i])
            dur_ns.append(b.dur_ns[i])
        else:
            counts[j] += b.counts[i]
            dur_ns[j] += b.dur_ns[i]
        remap.append(j)

    b_cfg = GrammarSet(
        unique=[g.remap_terminals(lambda t, m=remap: m[t])
                for g in b.cfg.unique],
        uid=b.cfg.uid)
    merged = RankShard(
        base_rank=a.base_rank, nranks=a.nranks + b.nranks,
        sigs=sigs, counts=counts, dur_ns=dur_ns,
        cfg=a.cfg.merge(b_cfg), calls=list(a.calls) + list(b.calls))
    if a.timing_duration is not None and b.timing_duration is not None:
        # timing terminals are exponential bins, not CST symbols: no remap
        merged.timing_duration = a.timing_duration.merge(b.timing_duration)
        merged.timing_interval = a.timing_interval.merge(b.timing_interval)
    elif a.timing_duration is not None or b.timing_duration is not None:
        raise ValueError("cannot merge a timing shard with a non-timing one")
    return merged




@dataclass
class ShardPartial:
    """A mid-run snapshot of one rank's *new* state since the previous
    snapshot — the unit the streaming-ingest client ships.

    Unlike :class:`RankShard` (a complete rank), a partial carries only
    deltas: the signatures interned since the last flush (the CST is
    append-only, so a slice suffices), sparse per-signature count and
    integer-nanosecond duration increments for the entries that moved,
    and the terminals observed since the last flush as grammar *parts*:
    the rank's log as one :meth:`~repro.core.grammar.Grammar.flat` part
    (one run-length rule, a grammar like any other on the wire) behind
    any parts a ``memory_watermark`` crossing compressed early; the
    timing bin logs likewise.  A consumer that expands every part of
    every partial in order through one fresh Sequitur
    (:meth:`~repro.core.grammar.Grammar.refeed`) gets exactly the
    grammar a one-shot run would freeze — the byte-identity invariant
    the ingest service is built on.

    Duration deltas telescope over *rounded* totals: each flush sends
    ``round(total_ns) - previously_sent_ns``, so the sum over any
    chunking equals the one-shot rounded total exactly (integer
    addition is associative; per-chunk rounding would not be).
    """

    rank: int
    #: calls covered by this partial (conservation checks)
    n_calls: int
    #: CST signatures interned since the previous partial, in order
    new_sigs: list[tuple]
    #: sparse CST deltas: ``counts[idx[i]] += d_counts[i]`` etc.
    idx: list[int]
    d_counts: list[int]
    d_dur_ns: list[int]
    #: grammar continuation parts (terminals = rank-local CST indices)
    parts: list[Grammar]
    timing_duration: Optional[Grammar] = None
    timing_interval: Optional[Grammar] = None

    # -- serialization: the N = 1 spelling of the flush record -----------------------

    def to_bytes(self, compress: bool = True) -> bytes:
        return write_flush([self], compress)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardPartial":
        return _only(read_flush(data))

    @classmethod
    def read_from(cls, r: Reader) -> "ShardPartial":
        """Read a record of one partial at the reader's position and
        leave the reader just past it."""
        end = max(end for _, end in FLUSH.spans(r.data, r.pos).values())
        partial = cls.from_bytes(r.data[r.pos:end])
        r.pos = end
        return partial


def _only(partials: list[ShardPartial]) -> ShardPartial:
    if len(partials) != 1:
        raise CorruptTraceError(
            f"flush record holds {len(partials)} partials where exactly "
            f"one was expected")
    return partials[0]


#: one flush — every rank's partial — as one section of whole-flush
#: columns (:func:`write_flush`)
FLUSH = Container(b"PPRT", 2, FLAG_TIMING | FLAG_COMPRESSED,
                  (Section("flush"),), what="Pilgrim flush record",
                  compressed=FLAG_COMPRESSED)


def write_flush(partials: Sequence[ShardPartial],
                compress: bool = True) -> bytes:
    """One flush — each rank's partial, ranks ascending — as one
    :data:`FLUSH` record: its header, then a single section of
    whole-flush columns (DESIGN.md §7 draws them): a head column, the
    flush's distinct new signatures back to back — the ranks of an SPMD
    code meet the same ones in the same flush — and which of them each
    partial's are, ``idx`` / ``d_counts`` / ``d_dur_ns``, and every
    grammar as one int column.  What a flush costs to write and to read
    is per record, not per rank."""
    timing = bool(partials) and partials[0].timing_duration is not None
    head = [len(partials)]
    distinct: dict[tuple, int] = {}
    sig_refs = [distinct.setdefault(sig, len(distinct))
                for p in partials for sig in p.new_sigs]
    grammars: list[int] = []
    for p in partials:
        if (p.timing_duration is not None) != timing \
                or (p.timing_interval is not None) != timing:
            raise ValueError(
                f"rank {p.rank}: the partials of one flush carry timing "
                f"grammars all or none")
        if not len(p.idx) == len(p.d_counts) == len(p.d_dur_ns):
            raise ValueError(
                f"rank {p.rank}: ragged CST delta arrays "
                f"({len(p.idx)}/{len(p.d_counts)}/{len(p.d_dur_ns)})")
        head += (p.rank, p.n_calls, len(p.new_sigs), len(p.idx),
                 len(p.parts))
        for g in p.parts:
            g._write_ints(grammars)
        if timing:
            p.timing_duration._write_ints(grammars)
            p.timing_interval._write_ints(grammars)
    body = bytearray()
    write_varints(body, head, signed=False)
    write_uvarint(body, len(distinct))
    for sig in distinct:
        write_value(body, sig)
    write_varints(body, sig_refs, signed=False)
    write_varints(body, [i for p in partials for i in p.idx], signed=False)
    write_varints(body, [c for p in partials for c in p.d_counts])
    write_varints(body, [ns for p in partials for ns in p.d_dur_ns])
    write_uvarint(body, len(grammars))
    write_varints(body, grammars)
    return FLUSH.write((bytes(body),), flags=(FLAG_TIMING if timing else 0)
                       | (FLAG_COMPRESSED if compress else 0))


def read_flush(data: bytes) -> list[ShardPartial]:
    """The partials of exactly one :func:`write_flush` record, and
    nothing after it."""
    return FLUSH.read(data, then=_partials)


def _partials(parsed: Parsed) -> list[ShardPartial]:
    return _read_columns(Reader(parsed.values[0]),
                         bool(parsed.flags & FLAG_TIMING))


def _read_columns(r: Reader, timing: bool) -> list[ShardPartial]:
    """Every count is checked against the bytes still unread before
    anything its size is allocated: each value of each column costs at
    least one byte."""

    def bounded(n: int, what: str) -> int:
        if n > r.remaining():
            raise CorruptTraceError(
                f"flush record claims {n} {what} but only "
                f"{r.remaining()} bytes remain")
        return n

    n = r.read_uvarint()
    head = read_varints(r, bounded(5 * n, "head-column values"),
                        signed=False)
    ranks = head[0::5]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise CorruptTraceError(
            f"flush record ranks {ranks} are not strictly ascending: a "
            f"flush holds each rank at most once, in order")
    distinct = []
    for i in range(bounded(r.read_uvarint(), "distinct new signatures")):
        sig = read_value(r)
        if not isinstance(sig, tuple):
            raise CorruptTraceError(
                f"flush-record signature {i} is a {type(sig).__name__}, "
                f"not a signature tuple")
        distinct.append(sig)
    sig_refs = read_varints(r, bounded(sum(head[2::5]), "new signatures"),
                            signed=False)
    if set(sig_refs) != set(range(len(distinct))):
        raise CorruptTraceError(
            f"flush record's {len(sig_refs)} new signatures do not name "
            f"each of its {len(distinct)} distinct ones")
    sigs = [distinct[i] for i in sig_refs]
    n_deltas = bounded(3 * sum(head[3::5]), "CST delta values") // 3
    idx = read_varints(r, n_deltas, signed=False)
    d_counts = read_varints(r, n_deltas)
    d_dur_ns = read_varints(r, n_deltas)
    ints = read_varints(r, bounded(r.read_uvarint(), "grammar ints"))
    if not r.exhausted:
        raise CorruptTraceError(
            f"{r.remaining()} trailing bytes after the flush record's "
            f"last column")
    partials = []
    take = Grammar._read_ints
    s = d = g = 0
    for rank, n_calls, n_sigs, n_idx, n_parts in zip(*[iter(head)] * 5):
        parts = []
        for _ in range(n_parts):
            part, g = take(ints, g)
            parts.append(part)
        td = ti = None
        if timing:
            td, g = take(ints, g)
            ti, g = take(ints, g)
        partials.append(ShardPartial(
            rank, n_calls, sigs[s:s + n_sigs], idx[d:d + n_idx],
            d_counts[d:d + n_idx], d_dur_ns[d:d + n_idx], parts, td, ti))
        s += n_sigs
        d += n_idx
    if g != len(ints):
        raise CorruptTraceError(
            f"{len(ints) - g} grammar ints left over after the flush "
            f"record's last partial")
    return partials


class RankCompressor:
    """One rank's intra-process compression state, extracted from the
    tracer so it can be frozen into a :class:`RankShard` independently of
    every other rank (the paper's embarrassingly parallel stage)."""

    __slots__ = ("rank", "encoder", "cst", "grammar", "timing",
                 "raw_terms", "keep_raw", "loop_detection",
                 "memory_watermark", "_spill_parts", "_spill_input",
                 "watermark_spills", "batch_size", "_batch_n",
                 "_b_sigs", "_b_fnames", "_b_durs", "_b_t0", "_b_t1",
                 "_b_terms", "_bufs")

    #: a streaming rank (and its timing compressor) only logs terminals
    streaming = False

    def __init__(self, rank: int, comm_space, *, win_space=None,
                 relative_ranks: bool = True,
                 per_signature_request_pools: bool = True,
                 loop_detection: bool = True,
                 timing: Optional[TimingCompressor] = None,
                 keep_raw: bool = False,
                 encoder: Optional[PerRankEncoder] = None,
                 memory_watermark: Optional[int] = None,
                 batch_size: int = 1):
        if memory_watermark is not None and memory_watermark < 1:
            raise ValueError(
                f"memory_watermark must be >= 1, got {memory_watermark}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.rank = rank
        self.encoder = encoder if encoder is not None else PerRankEncoder(
            rank, comm_space, win_space=win_space,
            relative_ranks=relative_ranks,
            per_signature_request_pools=per_signature_request_pools)
        self.cst = CST()
        self.loop_detection = loop_detection
        self.grammar = TermLog() if self.streaming \
            else Sequitur(loop_detection=loop_detection)
        self.timing = timing
        self.keep_raw = keep_raw
        self.raw_terms: list[int] = []
        #: soft memory watermark (degraded-mode tracing): when the live
        #: grammar has buffered this many input terminals, it is frozen
        #: early into a continuation part and a fresh Sequitur takes
        #: over, bounding the mutable grammar structures a rank keeps
        #: resident.  None disables the watermark entirely.
        self.memory_watermark = memory_watermark
        self._spill_parts: list[Grammar] = []
        self._spill_input = 0
        #: how many times the watermark fired (observability/tests)
        self.watermark_spills = 0
        #: columnar call buffer (``batch_size > 1``): the symbolic encode
        #: stays synchronous per call — request/status objects mutate
        #: after the hook returns — while CST intern, grammar append and
        #: timing are deferred into whole-batch flushes
        self.batch_size = batch_size
        self._batch_n = 0
        if batch_size > 1:
            self._b_sigs: list = [None] * batch_size
            self._b_fnames: list = [None] * batch_size
            self._b_durs = array("d", bytes(8 * batch_size))
            self._b_t0 = array("d", bytes(8 * batch_size))
            self._b_t1 = array("d", bytes(8 * batch_size))
            self._b_terms: list[int] = [0] * batch_size
        else:
            self._b_sigs = self._b_fnames = self._b_terms = []
            self._b_durs = self._b_t0 = self._b_t1 = array("d")
        #: the five columns as one tuple: ``observe_batched`` pays one
        #: attribute load instead of five per call
        self._bufs = (self._b_sigs, self._b_fnames, self._b_durs,
                      self._b_t0, self._b_t1)

    @property
    def observed_calls(self) -> int:
        """Calls this compressor has seen, spilled parts and buffered
        batch included (also correct when the tracer appends to
        ``grammar`` directly)."""
        return self._spill_input + self.grammar.n_input + self._batch_n

    def observe(self, fname: str, values: tuple, t0: float,
                t1: float) -> int:
        """Run one call through the intra-process pipeline (Fig 2):
        symbolic encode → CST intern → grammar append → timing."""
        sig = PLANS[fname].encode(self.encoder, values)
        term = self.cst.intern(sig, t1 - t0)
        self.grammar.append(term)
        if self.timing is not None:
            self.timing.record(term, fname, t0, t1)
        if self.keep_raw:
            self.raw_terms.append(term)
        if self.memory_watermark is not None \
                and self.grammar.n_input >= self.memory_watermark:
            self.spill()
        return term

    def observe_batched(self, fname: str, values: tuple, t0: float,
                        t1: float) -> None:
        """Columnar variant of :meth:`observe` for ``batch_size > 1``:
        encode now, defer intern/append/timing until the buffer fills.

        The watermark is checked at flush granularity, so a spill can
        overshoot the threshold by at most one batch; spills are
        byte-invisible either way (``freeze`` re-feeds the parts)."""
        n = self._batch_n
        b = self._bufs
        b[0][n] = PLANS[fname].encode(self.encoder, values)
        b[1][n] = fname
        b[2][n] = t1 - t0
        b[3][n] = t0
        b[4][n] = t1
        self._batch_n = n = n + 1
        if n == self.batch_size:
            self.flush_batch()

    def flush_batch(self) -> None:
        """Drain the columnar buffer through CST intern → grammar append
        → timing, in one pass per stage.  Byte-identical to the per-call
        path: stage order within a call only matters per subsystem, and
        each subsystem still sees its inputs in exact call order."""
        n = self._batch_n
        if not n:
            return
        self._batch_n = 0
        out = self._b_terms
        self.cst.intern_batch(self._b_sigs, self._b_durs, n, out)
        terms = out if n == self.batch_size else out[:n]
        self.grammar.append_array(terms)
        if self.timing is not None:
            self.timing.record_batch(terms, self._b_fnames,
                                     self._b_t0, self._b_t1, n)
        if self.keep_raw:
            self.raw_terms.extend(terms)
        if self.memory_watermark is not None \
                and self.grammar.n_input >= self.memory_watermark:
            self.spill()

    def spill(self) -> None:
        """Watermark crossing: freeze the live grammar into a frozen
        continuation part and restart Sequitur on a fresh grammar.

        Only the *grammar* is rotated — the CST, encoder, timing
        compressor, and raw-term buffer all key off stable CST terminal
        numbers and stay live, so spilling is invisible to every other
        stage.  ``freeze()`` later splices the parts back together."""
        if self.grammar.n_input == 0:
            return
        self._spill_parts.append(Grammar.freeze(self.grammar))
        self._spill_input += self.grammar.n_input
        self.watermark_spills += 1
        self.grammar = Sequitur(loop_detection=self.loop_detection)

    def freeze(self) -> RankShard:
        """Snapshot this rank into a self-contained single-rank shard.
        Terminals in the frozen grammar are this rank's local CST
        indices, which *are* the shard's signature numbering.

        Freezing also drops the hot-path accelerator caches (encoder
        signature memo, CST identity fast path): they are meaningless
        after tracing ends and must never ride along when a compressor
        or its shard is serialized.

        Parts the memory watermark spilled go back through one
        Sequitur with the live tail (:meth:`Grammar.refeed`), so the
        final trace is byte-identical to a run that never spilled."""
        self.flush_batch()
        self.encoder.reset_cache()
        self.cst.reset_cache()
        g = Grammar.freeze(self.grammar)
        if self._spill_parts:
            g = Grammar.refeed([*self._spill_parts, g], self.loop_detection)
        shard = RankShard(
            base_rank=self.rank, nranks=1,
            sigs=list(self.cst.sigs), counts=list(self.cst.counts),
            dur_ns=[_dur_to_ns(d) for d in self.cst.dur_sums],
            cfg=GrammarSet.single(g),
            calls=[self._spill_input + self.grammar.n_input])
        if self.timing is not None:
            d, i = self.timing.freeze()
            shard.timing_duration = GrammarSet.single(d)
            shard.timing_interval = GrammarSet.single(i)
        return shard


class StreamingRankCompressor(RankCompressor):
    """A rank whose state leaves mid-run, one :class:`ShardPartial` per
    flush, for the stream's consumer to fold: encode + CST only.  Its
    terminals go to a :class:`TermLog`, not a live Sequitur; only a
    ``memory_watermark`` crossing compresses, to bound the log."""

    __slots__ = ("streamed_calls", "_sent_counts", "_sent_dur_ns")
    streaming = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: calls already handed off via :meth:`flush_partial`
        self.streamed_calls = 0
        #: per CST entry, the count and rounded nanoseconds already sent
        self._sent_counts: list[int] = []
        self._sent_dur_ns: list[int] = []

    def spill(self) -> None:
        """Watermark crossing: the one time a streaming rank compresses."""
        log = self.grammar
        if log:
            self._spill_parts.append(Grammar.refeed(
                [Grammar.flat(log)], self.loop_detection))
            self._spill_input += len(log)
            self.watermark_spills += 1
            log.clear()

    def flush_partial(self) -> Optional[ShardPartial]:
        """Package everything observed since the previous flush into a
        :class:`ShardPartial`, at a cost proportional to what changed.

        The log leaves as a flat part behind any watermark parts, the
        timing bin logs likewise.  Their terminals are exactly the CST
        entries that moved, so the deltas are built from those alone; a
        rank that saw nothing returns ``None`` without touching the CST."""
        self.flush_batch()
        log, parts = self.grammar, self._spill_parts
        if not log and not parts:
            return None
        dirty = set(log)
        for part in parts:
            dirty.update(part.iter_terminals())
        if log:
            parts.append(Grammar.flat(log))
            self._spill_input += len(log)
            log.clear()
        self._spill_parts = []
        n_calls = self._spill_input - self.streamed_calls
        self.streamed_calls = self._spill_input

        counts, dur_sums = self.cst.counts, self.cst.dur_sums
        sent_c, sent_ns = self._sent_counts, self._sent_dur_ns
        new_sigs = self.cst.sigs[len(sent_c):]
        sent_c.extend([0] * len(new_sigs))
        sent_ns.extend([0] * len(new_sigs))
        idx = sorted(dirty)
        d_counts = [counts[i] - sent_c[i] for i in idx]
        d_dur_ns = [_dur_to_ns(dur_sums[i]) - sent_ns[i] for i in idx]
        for i, dc, dns in zip(idx, d_counts, d_dur_ns):
            sent_c[i] += dc
            sent_ns[i] += dns
        td, ti = self.timing.rotate() if self.timing is not None \
            else (None, None)
        return ShardPartial(rank=self.rank, n_calls=n_calls,
                            new_sigs=new_sigs, idx=idx, d_counts=d_counts,
                            d_dur_ns=d_dur_ns, parts=parts,
                            timing_duration=td, timing_interval=ti)

    def freeze(self) -> RankShard:
        raise RuntimeError(
            f"rank {self.rank} streams: its calls leave via "
            f"flush_partial() and the stream's consumer owns the fold")
