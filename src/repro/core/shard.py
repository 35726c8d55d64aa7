"""Per-rank shard artifacts: the unit of the sharded compression pipeline.

Pilgrim's inter-process compression (§3.5) reduces per-rank partial
results in a ceil(log2 P) merge tree.  This module makes those partials
first-class:

* :class:`RankCompressor` owns one rank's intra-process state (encoder,
  CST, Sequitur grammar, optional timing compressor) and freezes it into
* :class:`RankShard` — a self-contained, picklable, byte-serializable
  artifact covering a contiguous rank range ``[base_rank, base_rank +
  nranks)``: the merged signature table, the per-rank grammars (dedup'd
  into a :class:`GrammarSet`), and the timing partials;
* :func:`merge_shards` — the **associative** pairwise reduction step,
  and :func:`reduce_shards` — the product's reduce, one pass
  (:class:`ShardUnion`) to what every merge tree reaches.

Associativity is what lets any reduction tree (left fold, balanced,
parallel) and the one pass produce byte-identical final traces.  It
holds because

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

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional, Sequence

from .container import Container, Parsed, Section
from .cst import CST, MergedCST, _dur_to_ns
from .encoder import PLANS, PerRankEncoder
from .errors import CorruptTraceError
from .grammar import Grammar, TermLog
from .packing import (Reader, read_value, read_varints, write_uvarint,
                      write_value, write_varints)
from .timing import TimingCompressor
from .trace_format import FLAG_COMPRESSED, FLAG_TIMING, read_grammars


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
        out = GrammarSet(unique=list(self.unique), uid=list(self.uid))
        out.extend(other, {g: i for i, g in enumerate(out.unique)})
        return out

    def extend(self, other: "GrammarSet", index: dict) -> None:
        """Append *other*'s ranks, each grammar stored once: *index* maps
        every grammar of this set to its position and is kept up to
        date."""
        local = []
        for g in other.unique:
            i = index.get(g)
            if i is None:
                i = index[g] = len(self.unique)
                self.unique.append(g)
            local.append(i)
        self.uid.extend([local[u] for u in other.uid])

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
        return cls(unique=read_grammars(r, n_unique, name), uid=uid)


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
    def single(cls, rank: int, calls: int, sigs, counts, dur_ns,
               grammars) -> "RankShard":
        """Rank *rank*'s own shard, what a traced rank and an ingest fold
        both freeze to: *grammars* is its call grammar, then under lossy
        timing its duration and interval grammars."""
        cfg, *timing = map(GrammarSet.single, grammars)
        td, ti = timing or (None, None)
        return cls(base_rank=rank, nranks=1, sigs=list(sigs),
                   counts=list(counts), dur_ns=list(dur_ns), cfg=cfg,
                   calls=[calls], timing_duration=td, timing_interval=ti)

    @classmethod
    def empty(cls, base_rank: int, nranks: int, *,
              timing: bool = False) -> "RankShard":
        """A placeholder shard covering *nranks* ranks with no data —
        what the resilient pipeline substitutes for a rank it had to
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
        maps = [len(gs.uid) for gs in (cfg, td, ti) if gs is not None]
        if any(n != nranks for n in [len(calls), *maps]):
            raise CorruptTraceError(
                f"shard covers {nranks} ranks but carries {len(calls)} "
                f"call counts and rank maps (CFG, then timing) of {maps}")
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


class ShardUnion:
    """The reduce in one pass: shards absorbed in rank order build, in
    :attr:`shard`, the shard every :func:`merge_shards` tree over them
    reaches (the tree is the test oracle).  One signature index and one
    grammar index per stream serve the whole pass, so each grammar is
    remapped (memoised; not at all when the identity) and looked up once,
    not once per tree level.  :meth:`absorb` is all-or-nothing: whatever
    can raise runs before the first write, so a failed one can be rerun."""

    def __init__(self) -> None:
        #: the union so far: one shard over every rank absorbed
        self.shard = RankShard(0, 0, [], [], [], GrammarSet([], []))
        self._index: dict[tuple, int] = {}
        self._remapped: dict[tuple, Grammar] = {}
        #: grammar -> position in the CFG, duration and interval sets
        self._at: tuple[dict, dict, dict] = ({}, {}, {})

    def absorb(self, shard: RankShard) -> None:
        out, timing = self.shard, shard.timing_duration is not None
        if out.nranks and shard.base_rank != out.base_rank + out.nranks:
            raise ValueError(
                f"shards are not adjacent: the union covers [{out.base_rank}"
                f", {out.base_rank + out.nranks}), the next shard starts at "
                f"{shard.base_rank}")
        if out.nranks and timing != (out.timing_duration is not None):
            raise ValueError(
                "cannot merge a timing shard with a non-timing one")
        index, novel = self._index, {}
        remap = [index.get(sig) for sig in shard.sigs]
        if None in remap:
            for i, j in enumerate(remap):
                if j is None:
                    remap[i] = novel.setdefault(shard.sigs[i],
                                                len(out.sigs) + len(novel))
        cfg = shard.cfg
        if remap != list(range(len(remap))):
            key, memo = tuple(remap), self._remapped
            cfg = GrammarSet([memo.get((g, key)) or memo.setdefault(
                (g, key), g.remap_terminals(key.__getitem__))
                for g in cfg.unique], cfg.uid)
        # -- commit: nothing below raises
        if not out.nranks:
            out.base_rank = shard.base_rank
            if timing:
                out.timing_duration = GrammarSet([], [])
                out.timing_interval = GrammarSet([], [])
        index.update(novel)
        out.sigs += novel
        counts, dur_ns = out.counts, out.dur_ns
        counts += [0] * len(novel)
        dur_ns += [0] * len(novel)
        for j, c, ns in zip(remap, shard.counts, shard.dur_ns):
            counts[j] += c
            dur_ns[j] += ns
        out.cfg.extend(cfg, self._at[0])
        if timing:  # timing terminals are bins, not CST symbols: no remap
            out.timing_duration.extend(shard.timing_duration, self._at[1])
            out.timing_interval.extend(shard.timing_interval, self._at[2])
        out.calls += shard.calls
        out.nranks += shard.nranks


def reduce_shards(shards: Iterable[RankShard]) -> RankShard:
    """Reduce adjacent shards, in rank order, in one pass (see
    :class:`ShardUnion`); no shards reduce to an empty one."""
    union = ShardUnion()
    for shard in shards:
        union.absorb(shard)
    return union.shard


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
    (one run-length rule, a grammar like any other on the wire), the
    timing bin logs likewise.  The fold takes any number of parts of any
    shape, so a stream recorded when producers still shipped compressed
    multi-rule parts folds the same.  A consumer that expands every part
    of every partial in order onto one :class:`~repro.core.grammar.TermLog`
    (the ingest fold's ``RankFold``) freezes exactly the grammar a
    one-shot run would — the byte-identity invariant the ingest service
    is built on.

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
        partials = read_flush(data)
        if len(partials) != 1:
            raise CorruptTraceError(
                f"flush record holds {len(partials)} partials where "
                f"exactly one was expected")
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


#: a one-shot rank's log drains into its live Sequitur at this length
LOG_LIMIT = 4096


class RankCompressor:
    """One rank's intra-process compression state, extracted from the
    tracer so it can be frozen into a :class:`RankShard` independently of
    every other rank (the paper's embarrassingly parallel stage).  Its
    hot path only logs terminals (``grammar``, a :class:`TermLog`)."""

    __slots__ = ("rank", "encoder", "cst", "grammar", "timing",
                 "loop_detection", "_cap", "_frozen", "_shard")

    def __init__(self, rank: int, comm_space, *, win_space=None,
                 relative_ranks: bool = True,
                 per_signature_request_pools: bool = True,
                 loop_detection: bool = True,
                 timing: Optional[TimingCompressor] = None,
                 encoder: Optional[PerRankEncoder] = None):
        self.rank = rank
        self.encoder = encoder if encoder is not None else PerRankEncoder(
            rank, comm_space, win_space=win_space,
            relative_ranks=relative_ranks,
            per_signature_request_pools=per_signature_request_pools)
        self.cst = CST()
        self.loop_detection = loop_detection
        self.grammar = TermLog(loop_detection)
        self.timing = timing
        self._cap = LOG_LIMIT
        #: :meth:`compress`'s result and the call count it covers
        self._frozen: Optional[tuple] = None
        #: :meth:`freeze`'s shard and the call count it covers: all a
        #: sealed rank keeps
        self._shard: Optional[tuple[int, RankShard]] = None

    @property
    def observed_calls(self) -> int:
        """Calls this compressor has seen."""
        log = self.grammar
        return log.n_input if log is not None else self._shard[0]

    def observe(self, fname: str, values: tuple, t0: float,
                t1: float) -> int:
        """Run one call through the intra-process pipeline (Fig 2):
        symbolic encode → CST intern → log the terminal → timing."""
        sig = PLANS[fname].encode(self.encoder, values)
        term = self.cst.intern(sig, t1 - t0)
        log = self.grammar
        log.append(term)
        if self.timing is not None:
            self.timing.record(term, fname, t0, t1)
        if len(log) >= self._cap:
            self._overflow()
        return term

    def _overflow(self) -> None:
        """The log reached :data:`LOG_LIMIT`: drain it and the timing
        logs into their live Sequiturs."""
        self.grammar.drain()
        if self.timing is not None:
            self.timing.duration_grammar.drain()
            self.timing.interval_grammar.drain()

    def compress(self, memo: Optional[dict] = None
                 ) -> tuple[Grammar, Optional[tuple[Grammar, Grammar]]]:
        """This rank's grammar and, under lossy timing, its duration and
        interval grammars.  A log that never drained goes through *memo*
        (:meth:`Grammar.compress`).  The result is kept for the call
        count it covers: the logs only grow, so a later :meth:`freeze`
        of the same calls runs no Sequitur."""
        n = self.observed_calls
        if self._frozen is None or self._frozen[0] != n:
            g = self.grammar.freeze(memo)
            timing = self.timing.freeze(memo) if self.timing else None
            self._frozen = (n, g, timing)
        return self._frozen[1:]

    def freeze(self, memo: Optional[dict] = None) -> RankShard:
        """Snapshot this rank into a self-contained single-rank shard.
        Terminals in the frozen grammar are this rank's local CST
        indices, which *are* the shard's signature numbering (*memo*:
        :meth:`compress`).  Like :meth:`compress`, the shard is kept for
        the call count it covers: freezing the same calls again returns
        it.

        Freezing also drops the hot-path accelerator caches (encoder
        signature memo, CST identity fast path): they are meaningless
        after tracing ends and must never ride along when a compressor
        or its shard is serialized."""
        n = self.observed_calls
        if self._shard is None or self._shard[0] != n:
            g, timing = self.compress(memo)
            self.encoder.reset_cache()
            self.cst.reset_cache()
            self._shard = (n, RankShard.single(
                self.rank, n, self.cst.sigs, self.cst.counts,
                map(_dur_to_ns, self.cst.dur_sums), (g, *(timing or ()))))
        return self._shard[1]

    def seal(self) -> None:
        """Finish the rank: keep exactly what :meth:`freeze` answers with
        and drop the rest — the logs, the timing clocks, the CST index
        and the encoder with its symbolic pools and the comm resolver
        that holds the whole simulated world.  A sealed rank observes
        nothing more; its :meth:`freeze` returns the same shard, the one
        finalize froze."""
        self.freeze()
        self.encoder = self.cst = self.grammar = self.timing = None
        self._frozen = None


class StreamingRankCompressor(RankCompressor):
    """A rank whose state leaves mid-run, one :class:`ShardPartial` per
    flush, for the stream's consumer to fold: encode + CST only.  Its
    :class:`TermLog` never drains and runs no Sequitur: it leaves whole
    with each flush, so what it keeps resident is bounded by the flush
    period alone."""

    __slots__ = ("streamed_calls", "_sent_counts", "_sent_dur_ns")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cap = sys.maxsize
        #: calls already handed off via :meth:`flush_partial`
        self.streamed_calls = 0
        #: per CST entry, the count and rounded nanoseconds already sent
        self._sent_counts: list[int] = []
        self._sent_dur_ns: list[int] = []

    @property
    def observed_calls(self) -> int:
        return self.streamed_calls + len(self.grammar)

    def flush_partial(self) -> Optional[ShardPartial]:
        """Package everything observed since the previous flush into a
        :class:`ShardPartial`, at a cost proportional to what changed.

        The log leaves as one flat part, the timing bin logs likewise.
        Their terminals are exactly the CST entries that moved, so the
        deltas are built from those alone; a rank that saw nothing
        returns ``None`` without touching the CST."""
        log = self.grammar
        if not log:
            return None
        dirty = set(log)
        parts = [Grammar.flat(log)]
        n_calls = len(log)
        self.streamed_calls += n_calls
        log.clear()

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

    def freeze(self, memo: Optional[dict] = None) -> RankShard:
        raise RuntimeError(
            f"rank {self.rank} streams: its calls leave via "
            f"flush_partial() and the stream's consumer owns the fold")
