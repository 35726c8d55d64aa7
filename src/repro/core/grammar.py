"""Frozen (serialized) grammars: the unit of inter-process compression.

A live :class:`~repro.core.sequitur.Sequitur` is frozen into a
:class:`Grammar` — a tuple of rules, each a tuple of ``(value, exp)``
tokens where non-negative values are terminals and ``-(k+1)`` references
rule *k*.  Freezing is **canonical** (rules renumbered in first-use DFS
order from the start rule), so two processes that built structurally
identical grammars serialize to identical objects/bytes.  That is what
makes the paper's "identical grammar" fast path (§3.5.2) a cheap
memory-comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

from .errors import CorruptTraceError, TruncatedTraceError
from .packing import write_varints
from .sequitur import Sequitur

Token = tuple[int, int]
Rule = tuple[Token, ...]


class TermLog(list):
    """One stream's terminal column with a live :class:`Sequitur`'s
    ``append`` / ``n_input``: what every rank appends to, at list speed.
    :meth:`drain` feeds the log to the column's own live Sequitur
    (``seq``, bounding what a long run keeps resident); Sequitur is
    online, so where drains fall is invisible in what :meth:`freeze`
    returns.  A streaming rank's log never drains: it leaves as a
    :meth:`Grammar.flat` part."""

    __slots__ = ("seq", "loop_detection", "_flushed")

    def __init__(self, loop_detection: bool = True):
        super().__init__()
        self.seq: Sequitur | None = None
        self.loop_detection = loop_detection
        self._flushed = False

    @property
    def n_input(self) -> int:
        return len(self) + (self.seq.n_input if self.seq else 0)

    def drain(self) -> None:
        terms = self
        if self.seq is None or self._flushed:
            # a freeze flushed the loop prediction an uncut stream keeps
            # live: go on from a fresh Sequitur fed the whole column
            terms = self.expand()
            self.seq = Sequitur(loop_detection=self.loop_detection)
            self._flushed = False
        self.seq.append_array(terms)
        self.clear()

    def freeze(self, memo: dict | None = None) -> "Grammar":
        """Everything logged as one grammar; a log that never drained
        goes through *memo* (:meth:`Grammar.compress`).  The column may
        go on logging after it: freezing is invisible in later freezes."""
        if self.seq is None:
            return Grammar.compress(self, self.loop_detection, memo)
        if self:
            self.drain()
        self._flushed = True
        return Grammar.freeze(self.seq)

    def expand(self) -> list[int]:
        """Every terminal logged, in order, leaving the column as it is."""
        return (self.seq.expand() if self.seq else []) + self


@dataclass(frozen=True)
class Grammar:
    """An immutable CFG; rule 0 is the start rule."""

    rules: tuple[Rule, ...]

    # -- construction -----------------------------------------------------------

    @classmethod
    def freeze(cls, seq: Sequitur) -> "Grammar":
        """Canonical snapshot of a live Sequitur grammar (flushes any
        pending loop prediction first)."""
        seq.flush()
        # first-visit (preorder) numbering from the start rule, on an
        # explicit stack of token iterators: no self-calling closure, so
        # a freeze leaves nothing for the cyclic collector
        order = {seq.START_RID: 0}
        stack = [iter(seq.rules[seq.START_RID].tokens())]
        while stack:
            for value, _exp in stack[-1]:
                if value < 0 and value not in order:
                    order[value] = len(order)
                    stack.append(iter(seq.rules[value].tokens()))
                    break
            else:
                stack.pop()
        # DFS above assigns parents before children but visits depth-first;
        # renumber breadth-consistently by the recorded first-visit order.
        rules: list[Rule] = [()] * len(order)
        for rid, idx in order.items():
            body = []
            for value, exp in seq.rules[rid].tokens():
                if value < 0:
                    body.append((-(order[value] + 1), exp))
                else:
                    body.append((value, exp))
            rules[idx] = tuple(body)
        return cls(tuple(rules))

    @classmethod
    def flat(cls, terms: Iterable[int]) -> "Grammar":
        """*terms* as one run-length rule that references no other: one
        pass to build, and a :class:`Grammar` like any other to every
        reader (``expand()`` gives *terms* back)."""
        body: list[Token] = []
        last, run = None, 0
        for v in terms:
            if v == last:
                run += 1
                continue
            if run:
                body.append((last, run))
            if v < 0:
                raise ValueError(f"terminals must be non-negative, got {v}")
            last, run = v, 1
        if run:
            body.append((last, run))
        return cls((tuple(body),))

    @classmethod
    def compress(cls, terms: list[int], loop_detection: bool = True,
                 memo: dict | None = None) -> "Grammar":
        """The grammar one fresh Sequitur builds from the column *terms*.
        With *memo* (one dict per run and ``loop_detection`` setting)
        each distinct column is compressed once, and equal columns — the
        SPMD ranks of §3.5.2 — share one :class:`Grammar` object."""
        if memo is not None:
            key = tuple(terms)
            g = memo.get(key)
            if g is None:
                g = memo[key] = cls.compress(terms, loop_detection)
            return g
        seq = Sequitur(loop_detection=loop_detection)
        seq.append_array(terms)
        return cls.freeze(seq)

    # -- queries ---------------------------------------------------------------------

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def n_tokens(self) -> int:
        return sum(len(r) for r in self.rules)

    def expand(self) -> list[int]:
        """The terminal string this grammar uniquely generates."""
        return self._expand(0, {}, frozenset())

    def _expand(self, idx: int, memo: dict[int, list[int]],
                active: frozenset) -> list[int]:
        """Rule *idx* expanded, each rule once through *memo*.  (A
        method, not a nested function that calls itself: that closure
        would be a reference cycle holding the memo until the cyclic
        collector ran.)"""
        got = memo.get(idx)
        if got is not None:
            return got
        if idx in active:
            raise ValueError(f"cyclic grammar at rule {idx}")
        out: list[int] = []
        for value, exp in self.rules[idx]:
            if value >= 0:
                out.extend([value] * exp)
            else:
                sub = self._expand(-value - 1, memo, active | {idx})
                if exp == 1:
                    out.extend(sub)
                else:
                    out.extend(sub * exp)
        memo[idx] = out
        return out

    def expanded_length(self) -> int:
        """Length of the expanded string without materializing it."""
        return self._length(0, {}, frozenset())

    def _length(self, idx: int, memo: dict[int, int],
                active: frozenset) -> int:
        got = memo.get(idx)
        if got is not None:
            return got
        if idx in active:
            raise ValueError(f"cyclic grammar at rule {idx}")
        n = 0
        for value, exp in self.rules[idx]:
            if value >= 0:
                n += exp
            else:
                n += exp * self._length(-value - 1, memo, active | {idx})
        memo[idx] = n
        return n

    def iter_terminals(self) -> Iterator[int]:
        """All terminal values mentioned (with repetition per token)."""
        for rule in self.rules:
            for value, _exp in rule:
                if value >= 0:
                    yield value

    # -- transforms --------------------------------------------------------------------

    def remap_terminals(self, mapping: Callable[[int], int]) -> "Grammar":
        """Apply a terminal renumbering (local → global CST symbols);
        rule references are this grammar's own token objects."""
        return Grammar(tuple(
            tuple([(mapping(t[0]), t[1]) if t[0] >= 0 else t for t in rule])
            for rule in self.rules))

    def shift_rules(self, offset: int) -> tuple[Rule, ...]:
        """Rule bodies with every rule reference shifted by *offset*
        (used when splicing grammars into a merged rule space).  A rule
        that references no other is this grammar's own tuple, and so is
        every terminal token."""
        return tuple(
            rule if not rule or min(rule)[0] >= 0 else
            tuple([t if t[0] >= 0 else (t[0] - offset, t[1]) for t in rule])
            for rule in self.rules)

    # -- serialization ------------------------------------------------------------------

    def write_to(self, out: bytearray) -> None:
        """Flat int-array encoding (Pilgrim stores grammars this way):
        ``[nrules, len(rule0), v,e,v,e,..., len(rule1), ...]``, packed
        as one array of varints."""
        ints: list[int] = []
        self._write_ints(ints)
        write_varints(out, ints)

    def _write_ints(self, ints: list[int]) -> None:
        """Append the flat int array to *ints*: a writer with many
        grammars to store packs them all as one column."""
        ints.append(len(self.rules))
        for rule in self.rules:
            ints.append(len(rule))
            ints.extend(chain.from_iterable(rule))

    @classmethod
    def _read_ints(cls, ints: list[int], pos: int) -> tuple["Grammar", int]:
        """The grammar whose flat int array starts at ``ints[pos]``, and
        the position just past it."""
        try:
            nrules = ints[pos]
            if nrules < 0:
                raise CorruptTraceError(
                    f"negative grammar rule count {nrules}")
            pos += 1
            rules = []
            for i in range(nrules):
                ntok = ints[pos]
                if ntok < 0:
                    raise CorruptTraceError(
                        f"negative token count {ntok} in rule {i}")
                end = pos + 1 + 2 * ntok
                if end > len(ints):
                    raise IndexError
                rules.append(tuple(zip(ints[pos + 1:end:2],
                                       ints[pos + 2:end:2])))
                pos = end
        except IndexError:
            raise TruncatedTraceError(
                f"grammar runs past the end of its {len(ints)}-int "
                f"column") from None
        return cls(tuple(rules)), pos

