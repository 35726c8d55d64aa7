"""Salvage accounting: what a degraded run lost, precisely.

A :class:`SalvageReport` is attached to any pipeline result or decoded
trace that is not complete.  It answers the questions an analyst needs
before trusting a partial trace: *which ranks are gone*, *which sections
were dropped*, and *how many calls the surviving data fails to account
for*.  ``repro verify --allow-degraded`` uses it to assert conservation
on the surviving ranks only.

Stdlib-only by design (see the package docstring): the core pipeline
and trace reader both import this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass
class SalvageReport:
    """What was lost, and what survived, in a degraded run or read."""

    #: ranks whose data is gone entirely (placeholder shards / missing
    #: from the rank map)
    lost_ranks: List[int] = field(default_factory=list)
    #: dropped artifacts, e.g. ``"timing-duration"`` or ``"rank 3 shard"``
    lost_sections: List[str] = field(default_factory=list)
    #: calls known to have been observed but absent from the surviving
    #: trace, keyed by rank (-1 when the rank is unknown)
    lost_calls: Dict[int, int] = field(default_factory=dict)
    #: free-form diagnostics, in discovery order
    notes: List[str] = field(default_factory=list)
    #: ``lost_ranks`` as a set: a header that declares a million ranks
    #: its rank map lacks costs a million appends, not their square
    _lost: set = field(default_factory=set, init=False, repr=False,
                       compare=False)

    def __post_init__(self) -> None:
        self._lost.update(self.lost_ranks)

    # -- recording ----------------------------------------------------------------

    def lose_rank(self, rank: int, calls: int = 0,
                  reason: str = "") -> None:
        if rank not in self._lost:
            self._lost.add(rank)
            self.lost_ranks.append(rank)
        if calls:
            self.lost_calls[rank] = max(self.lost_calls.get(rank, 0), calls)
        if reason:
            self.notes.append(f"rank {rank}: {reason}")

    def lose_span(self, base_rank: int, nranks: int, calls: int = 0,
                  reason: str = "") -> None:
        """Lose a contiguous rank span (a dead merge subtree)."""
        per = calls // nranks if nranks else 0
        for i in range(nranks):
            self.lose_rank(base_rank + i, per)
        if reason:
            self.notes.append(
                f"ranks [{base_rank}, {base_rank + nranks}): {reason}")

    def lose_section(self, name: str, reason: str = "") -> None:
        if name not in self.lost_sections:
            self.lost_sections.append(name)
        if reason:
            self.notes.append(f"{name}: {reason}")

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: Optional["SalvageReport"]) -> "SalvageReport":
        """Fold another report into this one (returns self)."""
        if other is None:
            return self
        for r in other.lost_ranks:
            self.lose_rank(r)
        for r, c in other.lost_calls.items():
            self.lost_calls[r] = max(self.lost_calls.get(r, 0), c)
        for s in other.lost_sections:
            self.lose_section(s)
        self.notes.extend(other.notes)
        return self

    # -- querying -----------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return bool(self.lost_ranks or self.lost_sections
                    or self.lost_calls)

    @property
    def call_deficit(self) -> int:
        """Calls observed by the tracer but missing from the trace."""
        return sum(self.lost_calls.values())

    def surviving_ranks(self, nprocs: int) -> List[int]:
        return [r for r in range(nprocs) if r not in self._lost]

    def summary(self) -> str:
        if not self.degraded:
            return "salvage: nothing lost"
        bits = []
        if self.lost_ranks:
            bits.append(f"{len(self.lost_ranks)} rank(s) lost "
                        f"({_spans(self.lost_ranks)})")
        if self.lost_sections:
            bits.append("sections lost: " + ", ".join(self.lost_sections))
        if self.call_deficit:
            bits.append(f"call deficit {self.call_deficit}")
        return "salvage: " + "; ".join(bits)


def _spans(ranks: Iterable[int]) -> str:
    """Render ``[0, 1, 2, 5]`` as ``"0-2, 5"``."""
    out: List[str] = []
    run: List[int] = []
    for r in sorted(set(ranks)):
        if run and r == run[-1] + 1:
            run.append(r)
            continue
        if run:
            out.append(str(run[0]) if len(run) == 1
                       else f"{run[0]}-{run[-1]}")
        run = [r]
    if run:
        out.append(str(run[0]) if len(run) == 1
                   else f"{run[0]}-{run[-1]}")
    return ", ".join(out)
