"""Trace decompression and decoding.

The paper's decompressor is "a process of recursive rule application";
expanding the leftmost non-terminal first yields the ranks' traces in
rank order, and extracting a single rank is cheap.  This module goes one
step further and decodes terminal symbols back into named
:class:`~repro.core.records.DecodedCall` records via the merged CST,
giving the uncompressed trace records the paper's decoder emits.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..mpisim.funcs import FuncSpec
from .errors import CorruptTraceError, MissingRankError
from .records import DecodedCall, sig_spec, sig_to_params
from .timing import TimingMeta, reconstruct_times
from .trace_format import TraceFile


class RankStream:
    """One rank's decoded calls: a read-only sequence of
    :class:`DecodedCall` backed by ``terms`` (the rank's terminal list —
    one per *unique grammar*, shared by every rank that compressed to
    it) and ``table`` (terminal -> the rank's one frozen record for that
    signature, first-occurrence order).  Per-signature consumers walk
    ``table`` once, then ``terms``.  Neither may be mutated.  (Replay
    builds the same view over its own per-trace table, whose records
    are ``repro.replay.engine.SigPlan``.)
    """

    __slots__ = ("terms", "table")

    def __init__(self, terms: list[int], table: dict[int, DecodedCall]):
        self.terms = terms
        self.table = table

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i: int) -> DecodedCall:
        return self.table[self.terms[i]]

    def __iter__(self) -> Iterator[DecodedCall]:
        return map(self.table.__getitem__, self.terms)


class TraceDecoder:
    """Random-access decoder over a parsed :class:`TraceFile`.

    Decoding is lazy and per signature: a grammar is expanded, and a CST
    entry decoded and validated, the first time a rank needs it; every
    later caller shares the result.

    Asking for a rank outside ``[0, nprocs)`` is a caller bug and raises
    :class:`IndexError`; asking for an in-range rank the trace has no
    data for (a salvaged trace with losses) raises the structured
    :class:`~repro.core.errors.MissingRankError`, so salvage-aware
    callers can skip lost ranks deliberately instead of catching bare
    ``KeyError``/``IndexError``.
    """

    def __init__(self, trace: TraceFile):
        self.trace = trace
        self._sig_cache: dict[int, tuple[str, dict]] = {}
        #: unique-grammar index -> its expansion (shared, never mutated)
        self._expanded: dict[int, list[int]] = {}
        self._streams: dict[int, RankStream] = {}

    @classmethod
    def from_bytes(cls, data: bytes, salvage: bool = False) -> "TraceDecoder":
        return cls(TraceFile.from_bytes(data, salvage=salvage))

    @property
    def nprocs(self) -> int:
        return self.trace.nprocs

    @property
    def salvage(self):
        """The trace's salvage report (None for an intact trace)."""
        return self.trace.salvage

    def _rank_uid(self, rank: int) -> int:
        """The rank's unique-grammar index, with structured errors."""
        if not 0 <= rank < self.trace.nprocs:
            raise IndexError(f"rank {rank} out of range")
        cfg = self.trace.cfg
        if rank >= len(cfg.rank_uid):
            raise MissingRankError(rank, "absent from the CFG rank map")
        uid = cfg.rank_uid[rank]
        if uid >= len(cfg.unique):
            raise MissingRankError(
                rank, f"rank map points at grammar {uid} but only "
                f"{len(cfg.unique)} were recovered")
        return uid

    # -- terminal level ------------------------------------------------------------------

    def rank_terminals(self, rank: int) -> list[int]:
        """One rank's call sequence as global CST terminal symbols.
        Ranks with identical grammars get the same list object."""
        uid = self._rank_uid(rank)
        terms = self._expanded.get(uid)
        if terms is None:
            terms = self._expanded[uid] = self.trace.cfg.unique[uid].expand()
        return terms

    def all_terminals(self) -> list[list[int]]:
        """Every rank's sequence; identical ranks share one expansion."""
        return [self.rank_terminals(rank)
                for rank in range(len(self.trace.cfg.rank_uid))]

    # -- record level ----------------------------------------------------------------------

    def signature(self, term: int, rank: Optional[int] = None
                  ) -> tuple[FuncSpec, tuple]:
        """CST entry *term* and the registry entry it names, validated: a
        terminal the CST cannot answer for is corruption, not a caller
        bug."""
        sigs = self.trace.cst.sigs
        if 0 <= term < len(sigs):
            try:
                return sig_spec(sigs[term]), sigs[term]
            except CorruptTraceError as e:
                reason = f": {e}"
        else:
            reason = f" is outside the {len(sigs)}-entry CST"
        where = f"terminal {term}" if rank is None \
            else f"rank {rank}: terminal {term}"
        raise CorruptTraceError(where + reason)

    def _decode_sig(self, term: int, rank: Optional[int] = None
                    ) -> tuple[str, dict]:
        """Decode (once) and validate CST entry *term*."""
        got = self._sig_cache.get(term)
        if got is None:
            got = self._sig_cache[term] = sig_to_params(
                self.signature(term, rank)[1])
        return got

    def rank_calls(self, rank: int) -> RankStream:
        """The rank's calls as a :class:`RankStream`: one shared frozen
        :class:`DecodedCall` per (rank, terminal), however often the
        signature repeats."""
        stream = self._streams.get(rank)
        if stream is None:
            cst = self.trace.cst
            terms = self.rank_terminals(rank)
            table: dict[int, DecodedCall] = {}
            for term in dict.fromkeys(terms):
                fname, params = self._decode_sig(term, rank)
                count = cst.counts[term]
                table[term] = DecodedCall(
                    rank=rank, fname=fname, params=params,
                    avg_duration=(cst.dur_sums[term] / count
                                  if count else 0.0),
                    sig_count=count)
            stream = self._streams[rank] = RankStream(terms, table)
        return stream

    def rank_times(self, rank: int) -> list[tuple[float, float]]:
        """Reconstructed ``(t_start, t_end)`` per call for one rank
        (lossy-timing traces only).

        Honours the binning bases persisted in the trace's timing-meta
        section: each terminal maps to one function, so its calls were
        all binned with that function's base (or the default), and
        reconstruction replays exactly those bases.  Traces predating
        the meta section fall back to the default base.
        """
        trace = self.trace
        td, ti = trace.timing_duration, trace.timing_interval
        if td is None or ti is None:
            raise ValueError("trace has no lossy-timing sections")
        terms = self.rank_terminals(rank)
        if rank >= len(td.rank_uid) or rank >= len(ti.rank_uid):
            raise MissingRankError(rank, "absent from the timing rank maps")
        dbins = td.unique[td.rank_uid[rank]].expand()
        ibins = ti.unique[ti.rank_uid[rank]].expand()
        meta = trace.timing_meta or TimingMeta()
        term_bases = None
        if meta.per_function_base:
            pfb = meta.per_function_base
            term_bases = {}
            for term in set(terms):
                b = pfb.get(self._decode_sig(term, rank)[0])
                if b is not None:
                    term_bases[term] = b
        return reconstruct_times(dbins, ibins, terms, meta.base,
                                 term_bases=term_bases)

    def call_count(self, rank: Optional[int] = None) -> int:
        cfg = self.trace.cfg
        if rank is not None:
            # expand only the requested rank's unique grammar — asking for
            # one rank must not pay for every grammar in the trace
            return cfg.unique[self._rank_uid(rank)].expanded_length()
        lengths = [g.expanded_length() for g in cfg.unique]
        return sum(lengths[self._rank_uid(r)]
                   for r in range(len(cfg.rank_uid)))

    # -- summaries ----------------------------------------------------------------------------

    def function_histogram(self) -> dict[str, int]:
        """Total calls per MPI function across all ranks (from CST stats)."""
        out: dict[str, int] = {}
        for term, sig in enumerate(self.trace.cst.sigs):
            fname, _ = self._decode_sig(term)
            out[fname] = out.get(fname, 0) + self.trace.cst.counts[term]
        return out
