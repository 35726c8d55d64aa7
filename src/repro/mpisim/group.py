"""Process groups (ordered sets of world ranks)."""

from __future__ import annotations

from typing import Iterable, Sequence

from . import constants as C
from .errors import InvalidArgumentError


class Group:
    """An immutable ordered set of world ranks, mirroring ``MPI_Group``.

    Group rank *i* is the process whose world rank is ``ranks[i]``.
    """

    __slots__ = ("ranks", "size", "_index")

    def __init__(self, ranks: Sequence[int]):
        ranks = tuple(ranks)
        if len(set(ranks)) != len(ranks):
            raise InvalidArgumentError(f"duplicate ranks in group: {ranks}")
        self.ranks = ranks
        self.size = len(ranks)
        self._index = {w: i for i, w in enumerate(ranks)}

    # -- queries -----------------------------------------------------------

    def rank_of(self, world_rank: int) -> int:
        """Group rank of a world rank, or ``UNDEFINED`` if not a member."""
        return self._index.get(world_rank, C.UNDEFINED)

    def world_rank(self, group_rank: int) -> int:
        if not 0 <= group_rank < self.size:
            raise InvalidArgumentError(
                f"group rank {group_rank} out of range [0,{self.size})")
        return self.ranks[group_rank]

    def contains(self, world_rank: int) -> bool:
        return world_rank in self._index

    def translate_ranks(self, ranks: Iterable[int], other: "Group") -> list[int]:
        """``MPI_Group_translate_ranks``: map our group ranks into *other*."""
        out = []
        for r in ranks:
            if r == C.PROC_NULL:
                out.append(C.PROC_NULL)
            else:
                out.append(other.rank_of(self.world_rank(r)))
        return out

    def compare(self, other: "Group") -> int:
        if self.ranks == other.ranks:
            return C.IDENT
        if set(self.ranks) == set(other.ranks):
            return C.SIMILAR
        return C.UNEQUAL

    # -- set operations (all preserve MPI's ordering rules) ----------------

    def incl(self, ranks: Sequence[int]) -> "Group":
        return Group([self.world_rank(r) for r in ranks])

    def excl(self, ranks: Sequence[int]) -> "Group":
        drop = {self.world_rank(r) for r in ranks}
        return Group([w for w in self.ranks if w not in drop])

    def union(self, other: "Group") -> "Group":
        merged = list(self.ranks)
        merged.extend(w for w in other.ranks if w not in self._index)
        return Group(merged)

    def intersection(self, other: "Group") -> "Group":
        return Group([w for w in self.ranks if other.contains(w)])

    def difference(self, other: "Group") -> "Group":
        return Group([w for w in self.ranks if not other.contains(w)])

    def range_incl(self, ranges: Sequence[tuple[int, int, int]]) -> "Group":
        picked: list[int] = []
        for first, last, stride in ranges:
            if stride == 0:
                raise InvalidArgumentError("range stride of 0")
            picked.extend(range(first, last + (1 if stride > 0 else -1), stride))
        return self.incl(picked)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Group size={self.size} ranks={self.ranks[:8]}{'...' if self.size > 8 else ''}>"
