"""Call Signature Tables (§2.1, §3.5.1).

A CST maps call signatures (the flat tuples built by
:mod:`repro.core.encoder`) to dense terminal symbols used in the CFG.
Alongside every entry it aggregates timing statistics — Pilgrim's default
timing mode keeps only the per-signature call count and mean duration
(§3.2), which adds no new grammar symbols.

:class:`MergedCST` is the trace's global signature table (Fig 3), built
from the reduced shard (:meth:`repro.core.shard.RankShard.merged_cst`).
The paper's pairwise merge of per-rank CSTs in ceil(log2 P) phases, with
a renumbering table per rank, is a test oracle
(``tests/test_cst_interproc.py::merge_csts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import sub
from typing import Optional

from .errors import CorruptTraceError
from .packing import (COLUMN_SAME, Reader, read_column, read_varints,
                      write_column, write_uvarint, write_varints, zigzag)

#: duration sums travel as integer nanoseconds (integer addition is
#: associative, so any reduction tree yields the same sums); 1 ns is far
#: below the simulator's clock resolution
NS_PER_SECOND = 1_000_000_000
#: what a sum that is not finite (a duration of ``inf`` or NaN reached
#: the hook) saturates to: the largest int64, ~292 years
NS_SATURATED = (1 << 63) - 1


def _dur_to_ns(seconds: float) -> int:
    ns = seconds * NS_PER_SECOND
    return int(round(ns)) if math.isfinite(ns) else NS_SATURATED


class CST:
    """One process's signature → terminal table with timing stats.

    ``intern`` has a two-level fast path for the hot per-call loop, both
    keyed on object *identity* so no (potentially large, nested)
    signature tuple is hashed: a last-hit slot for the just-seen
    signature, and an ``id()``-keyed map valid because every entry pins a
    strong reference to its signature object (a live object's ``id`` is
    never reused).  The memoizing encoder returns canonical signature
    objects, so repeating call sites hit these paths; the fallback is the
    ordinary hash probe, byte-identical either way."""

    __slots__ = ("_table", "sigs", "counts", "dur_sums",
                 "_last_sig", "_last_term", "_by_id")

    #: id-map entries beyond this are churn from non-canonical callers;
    #: drop the map rather than track eviction order
    _BY_ID_CAP = 1 << 16

    def __init__(self) -> None:
        self._table: dict[tuple, int] = {}
        self.sigs: list[tuple] = []
        self.counts: list[int] = []
        self.dur_sums: list[float] = []
        self._last_sig: Optional[tuple] = None
        self._last_term = -1
        #: id(sig) -> (sig, term); the stored sig both verifies identity
        #: and keeps the object alive so the id stays unambiguous
        self._by_id: dict[int, tuple] = {}

    def intern(self, sig: tuple, duration: float) -> int:
        """Terminal symbol of *sig*, creating an entry on first sight."""
        if sig is self._last_sig:
            term = self._last_term
            self.counts[term] += 1
            self.dur_sums[term] += duration
            return term
        hit = self._by_id.get(id(sig))
        if hit is not None and hit[0] is sig:
            term = hit[1]
            self.counts[term] += 1
            self.dur_sums[term] += duration
            self._last_sig = sig
            self._last_term = term
            return term
        term = self._table.get(sig)
        if term is None:
            term = len(self.sigs)
            self._table[sig] = term
            self.sigs.append(sig)
            self.counts.append(1)
            self.dur_sums.append(duration)
        else:
            self.counts[term] += 1
            self.dur_sums[term] += duration
        self._last_sig = sig
        self._last_term = term
        by_id = self._by_id
        if len(by_id) >= self._BY_ID_CAP:
            by_id.clear()
        by_id[id(sig)] = (sig, term)
        return term

    def reset_cache(self) -> None:
        """Drop the identity fast-path state (shard freeze time); the
        table itself — the actual CST — is untouched."""
        self._last_sig = None
        self._last_term = -1
        self._by_id = {}

    def __getstate__(self) -> dict:
        # fast-path state is a pure accelerator keyed on object ids,
        # which are meaningless in another process: never pickle it
        return {"_table": self._table, "sigs": self.sigs,
                "counts": self.counts, "dur_sums": self.dur_sums}

    def __setstate__(self, state: dict) -> None:
        self._table = state["_table"]
        self.sigs = state["sigs"]
        self.counts = state["counts"]
        self.dur_sums = state["dur_sums"]
        self._last_sig = None
        self._last_term = -1
        self._by_id = {}

    def lookup(self, sig: tuple) -> Optional[int]:
        return self._table.get(sig)

    def __len__(self) -> int:
        return len(self.sigs)

    def __contains__(self, sig: tuple) -> bool:
        return sig in self._table

    def avg_duration(self, term: int) -> float:
        n = self.counts[term]
        return self.dur_sums[term] / n if n else 0.0


@dataclass
class MergedCST:
    """Globally unique signatures after inter-process compression."""

    sigs: list[tuple]
    counts: list[int]
    dur_sums: list[float]
    #: per-rank terminal renumbering: remaps[r][local_term] == global_term
    remaps: list[list[int]]
    #: ``dur_sums`` as the integer nanoseconds the pipeline carries and
    #: the trace stores; rounded from ``dur_sums`` when a caller has
    #: only seconds
    dur_ns: list[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.dur_ns is None:
            self.dur_ns = list(map(_dur_to_ns, self.dur_sums))

    @classmethod
    def from_ns(cls, sigs: list[tuple], counts: list[int],
                dur_ns: list[int]) -> "MergedCST":
        """A table from integer-nanosecond sums: the division is exact
        and deterministic, so seconds never depend on who derives them."""
        return cls(sigs, counts, [ns / NS_PER_SECOND for ns in dur_ns],
                   remaps=[], dur_ns=dur_ns)

    def __len__(self) -> int:
        return len(self.sigs)

    # -- serialization (the trace's CST section, see trace_format) ---------------

    def write_to(self, out: bytearray) -> None:
        """The table by columns: counts, nanoseconds, then per (function
        id, signature length), in first-appearance order, that group's
        terminals and one column per parameter.  A signature with no int
        at its head (only malformed tables have one) goes to a width-0
        group whose single column holds whole signatures."""
        sigs = self.sigs
        base = len(out)
        write_uvarint(out, len(sigs))
        write_varints(out, self.counts, signed=False)
        write_varints(out, self.dur_ns, signed=False)
        groups: dict = {}
        for term, sig in enumerate(sigs):
            key = (len(sig), sig[0]) if sig and type(sig[0]) is int else (0,)
            group = groups.get(key)
            if group is None:
                groups[key] = group = ([], [])
            group[0].append(term)
            group[1].append(sig)
        for (width, *fid), (terms, rows) in groups.items():
            write_varints(out, [width, *map(zigzag, fid), len(terms), terms[0],
                                *map(sub, terms[1:], terms)], signed=False)
            seen: dict[bytes, int] = {}
            # the function id is the group's key, not one of its columns
            for j, column in enumerate(islice(zip(*rows), 1, None)
                                       if width else (rows,)):
                start = len(out)
                write_column(out, column)
                first = seen.setdefault(bytes(out[start:]), j)
                # an equal earlier column is referenced, not repeated, once
                # the section has a byte per field of the group: the bound
                # that keeps a reader's rows no larger than its input
                if first != j and len(terms) * width <= start - base:
                    del out[start:]
                    write_varints(out, [COLUMN_SAME, first], signed=False)

    @classmethod
    def read_from(cls, r: Reader) -> "MergedCST":
        n = r.read_uvarint()
        if n > r.remaining():
            raise CorruptTraceError(
                f"CST claims {n} signatures but only {r.remaining()} "
                f"bytes remain")
        counts = read_varints(r, n, signed=False)
        dur_ns = read_varints(r, n, signed=False)
        sigs: list = [None] * n
        left = n
        while left:
            width = r.read_uvarint()
            fid = r.read_varint() if width else None
            m = r.read_uvarint()
            if not 0 < m <= left:
                raise CorruptTraceError(
                    f"CST group at offset {r.pos} claims {m} of the "
                    f"{left} signatures still unassigned")
            if m * width > len(r.data):
                raise CorruptTraceError(
                    f"CST group at offset {r.pos} claims {m} x {width} "
                    f"fields in a {len(r.data)}-byte section")
            gaps = read_varints(r, m, signed=False)
            if 0 in gaps[1:]:
                raise CorruptTraceError(
                    f"CST group before offset {r.pos} lists its "
                    f"terminals out of ascending order")
            terms = list(accumulate(gaps))
            if terms[-1] >= n:
                raise CorruptTraceError(
                    f"CST group names terminal {terms[-1]} but the table "
                    f"has {n}")
            columns: list = []
            for _ in range(width - 1 if width else 1):
                columns.append(read_column(r, m, earlier=columns))
            if width:
                rows = zip(repeat(fid, m), *columns)
            else:
                rows = columns[0]
                if set(map(type, rows)) != {tuple}:
                    raise CorruptTraceError(
                        f"CST group before offset {r.pos} holds a value "
                        f"that is not a signature tuple")
            for term, row in zip(terms, rows):
                sigs[term] = row
            left -= m
        if None in sigs:
            raise CorruptTraceError(
                f"CST terminal {sigs.index(None)} is never assigned a "
                f"signature (another is assigned twice)")
        if not r.exhausted:
            raise CorruptTraceError(
                f"{r.remaining()} trailing bytes after the last CST group")
        return cls.from_ns(sigs, counts, dur_ns)
