"""Run-length Sequitur — the paper's "optimized Sequitur" (§2.2).

Classic Sequitur (Nevill-Manning & Witten) maintains two invariants while
consuming one symbol at a time:

* **P1 (digram uniqueness)** — no pair of adjacent symbols appears more
  than once in the grammar; a repeated digram becomes a rule.
* **P2 (rule utility)** — every rule is referenced at least twice;
  single-use rules are inlined.

The optimization adopted by Pilgrim (following Dorier et al.'s Omnisc'IO)
attaches a *repetition exponent* to every symbol: ``A -> B^i B^j`` is
collapsed to ``A -> B^(i+j)``.  A loop of N identical iterations then
compresses to O(1) tokens instead of the O(log N) rule chain plain
Sequitur builds — the paper's constant-space claim for regular codes
rides on this.  With exponents, a "symbol" for digram purposes is the
token ``(value, exp)``; P1 is enforced over tokens.

Terminals are non-negative ints; rule references are negative ints
(``-1`` is the start rule).  The expanded string is recovered by
:meth:`Sequitur.expand` and, for serialized grammars, by
:func:`repro.core.grammar.expand_serialized`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

#: digram-index key ``(v1, e1, v2, e2)`` for the token pair ``v1^e1 v2^e2``
DigramKey = tuple[int, int, int, int]


class Symbol:
    """A doubly-linked token ``value^exp`` inside a rule's RHS."""

    __slots__ = ("value", "exp", "prev", "next", "rule_of")

    def __init__(self, value: int, exp: int = 1):
        self.value = value
        self.exp = exp
        self.prev: Optional["Symbol"] = None
        self.next: Optional["Symbol"] = None
        #: for guard nodes only: the owning rule (used to find rule heads)
        self.rule_of: Optional["Rule"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.rule_of is not None:
            return f"<guard of R{self.rule_of.rid}>"
        e = f"^{self.exp}" if self.exp != 1 else ""
        return f"<{self.value}{e}>"


class Rule:
    """A production: circular doubly-linked RHS with a guard node."""

    __slots__ = ("rid", "guard", "refcount")

    def __init__(self, rid: int):
        self.rid = rid                      # negative int, -1 is start
        self.guard = Symbol(0)
        self.guard.rule_of = self
        self.guard.prev = self.guard
        self.guard.next = self.guard
        self.refcount = 0

    @property
    def first(self) -> Symbol:
        return self.guard.next

    @property
    def last(self) -> Symbol:
        return self.guard.prev

    @property
    def empty(self) -> bool:
        return self.guard.next is self.guard

    def tokens(self) -> Iterator[tuple[int, int]]:
        s = self.guard.next
        while s.rule_of is None:   # only guard nodes carry rule_of
            yield (s.value, s.exp)
            s = s.next

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " ".join(f"{v}" + (f"^{e}" if e != 1 else "")
                        for v, e in self.tokens())
        return f"R{self.rid} -> {body}"


class Sequitur:
    """Incremental run-length Sequitur over non-negative int terminals."""

    START_RID = -1

    def __init__(self, loop_detection: bool = True) -> None:
        self.rules: dict[int, Rule] = {}
        self._next_rid = self.START_RID
        #: digram index: token pair -> left Symbol of the occurrence
        self._digrams: dict[DigramKey, Symbol] = {}
        #: rules whose refcount dropped to 1, pending a P2 utility pass
        self._pending_underused: list[Rule] = []
        #: rule value -> set of referencing symbols (for O(1) inlining)
        self._users: dict[int, set] = {}
        #: total number of appended symbols (expanded length)
        self.n_input = 0
        #: the paper's "loop detection" optimization: when the grammar tail
        #: is X^k, incoming symbols are matched against X's expansion and a
        #: full match bumps k instead of replaying the Sequitur machinery
        self.loop_detection = loop_detection
        self._predict: Optional[list[int]] = None
        self._predict_pos = 0
        # rule expansions are invariant under Sequitur restructurings and
        # rule ids are never reused, so this cache is valid forever
        self._expand_cache: dict[int, list[int]] = {}
        self.start = self._new_rule()

    # -- low-level list/index primitives --------------------------------------------

    def _new_rule(self) -> Rule:
        rid = self._next_rid
        self._next_rid -= 1
        rule = Rule(rid)
        self.rules[rid] = rule
        self._users[rid] = set()
        return rule

    def _delete_digram_at(self, left: Symbol) -> None:
        """Forget the digram starting at *left*, if indexed as such."""
        if left is None or left.rule_of is not None:
            return
        right = left.next
        if right.rule_of is not None:
            return
        key = (left.value, left.exp, right.value, right.exp)
        digrams = self._digrams
        if digrams.get(key) is left:
            del digrams[key]

    def _link_after(self, anchor: Symbol, sym: Symbol) -> None:
        sym.prev = anchor
        sym.next = anchor.next
        anchor.next.prev = sym
        anchor.next = sym
        if sym.value < 0:          # rule reference (guards never get here)
            rule = self.rules[sym.value]
            rule.refcount += 1
            self._users[sym.value].add(sym)

    def _unlink(self, sym: Symbol) -> None:
        """Remove *sym* from its list, cleaning adjacent digram entries."""
        self._delete_digram_at(sym.prev)
        self._delete_digram_at(sym)
        sym.prev.next = sym.next
        sym.next.prev = sym.prev
        if sym.value < 0:
            rule = self.rules[sym.value]
            rule.refcount -= 1
            self._users[sym.value].discard(sym)
            if rule.refcount == 1:
                self._pending_underused.append(rule)
        sym.prev = sym.next = None

    # -- the P1 machinery ----------------------------------------------------------

    def _check(self, left: Symbol) -> bool:
        """Enforce P1 on the digram starting at *left*.

        Returns True if the grammar was restructured (the caller's
        neighbouring digrams may then be stale).
        """
        if left is None or left.rule_of is not None:
            return False
        right = left.next
        if right.rule_of is not None:
            return False
        # run-length merge: adjacent equal values collapse into one token
        if left.value == right.value:
            self._delete_digram_at(left.prev)
            self._delete_digram_at(right)
            self._delete_digram_at(left)
            left.exp += right.exp
            self._unlink_merged(right)
            # the same guarded re-check pattern as _substitute: if the first
            # check restructured the neighbourhood, `left` may be unlinked
            if not self._check(left.prev):
                self._check(left)
            return True
        key = (left.value, left.exp, right.value, right.exp)
        digrams = self._digrams
        found = digrams.get(key)
        if found is None:
            digrams[key] = left
            return False
        if found is left:
            return False
        if found.next is left or left.next is found:
            # overlapping occurrence; with run-length merging this can only
            # happen transiently — leave the index as-is
            return False
        self._match(left, found, key)
        return True

    def _unlink_merged(self, sym: Symbol) -> None:
        """Unlink a symbol absorbed by a run-length merge (digram entries
        already cleaned by the caller)."""
        sym.prev.next = sym.next
        sym.next.prev = sym.prev
        if sym.value < 0:
            rule = self.rules[sym.value]
            rule.refcount -= 1
            self._users[sym.value].discard(sym)
            if rule.refcount == 1:
                self._pending_underused.append(rule)
        sym.prev = sym.next = None

    def _match(self, left: Symbol, found: Symbol,
               key: Optional[DigramKey] = None) -> None:
        """The digram at *left* equals the indexed one at *found*.
        *key* is the digram's index key when the caller already built it
        (reused for the new rule's RHS, which is the same digram)."""
        if found.prev.rule_of is not None \
                and found.next.next.rule_of is not None:
            # the found occurrence is the entire RHS of an existing rule
            rule = found.prev.rule_of
            self._substitute(left, rule)
        else:
            rule = self._new_rule()
            a = Symbol(left.value, left.exp)
            b = Symbol(left.next.value, left.next.exp)
            self._link_after(rule.guard, a)
            self._link_after(a, b)
            # order matters: replacing `found` first keeps `left` valid
            self._substitute(found, rule)
            self._substitute(left, rule)
            self._digrams[key or (a.value, a.exp, b.value, b.exp)] = a

    def _substitute(self, left: Symbol, rule: Rule) -> None:
        """Replace the digram starting at *left* by a reference to *rule*."""
        anchor = left.prev
        self._unlink(left.next)
        self._unlink(left)
        sym = Symbol(rule.rid, 1)
        self._link_after(anchor, sym)
        if not self._check(anchor):
            self._check(sym)

    # -- the P2 machinery ---------------------------------------------------------

    def _process_underused(self) -> None:
        while self._pending_underused:
            rule = self._pending_underused.pop()
            if rule.rid == self.START_RID:
                continue
            if rule.refcount != 1 or rule.rid not in self.rules:
                continue
            users = self._users[rule.rid]
            if not users:
                continue
            user = next(iter(users))
            if user.exp != 1:
                # retained: inlining X^k would duplicate the RHS k times;
                # this retention is exactly the run-length optimization's
                # O(1)-for-loops behaviour
                continue
            self._inline(user, rule)

    def _inline(self, user: Symbol, rule: Rule) -> None:
        """Splice *rule*'s RHS in place of its single reference *user*."""
        anchor = user.prev
        self._unlink(user)
        first = rule.first
        last = rule.last
        if rule.empty:
            self._check(anchor)
        else:
            # splice the existing chain (interior digram entries stay valid)
            anchor_next = anchor.next
            anchor.next = first
            first.prev = anchor
            last.next = anchor_next
            anchor_next.prev = last
            # rule's guard no longer owns the chain
            rule.guard.next = rule.guard
            rule.guard.prev = rule.guard
            if not self._check(anchor):
                self._check(last)
        del self.rules[rule.rid]
        del self._users[rule.rid]

    # -- public API ------------------------------------------------------------------

    def append(self, value: int, exp: int = 1) -> None:
        """Feed one (possibly pre-run-length-compressed) token."""
        if value < 0:
            raise ValueError(f"terminals must be non-negative, got {value}")
        if exp <= 0:
            raise ValueError(f"exponent must be positive, got {exp}")
        self.n_input += exp
        predict = self._predict
        if predict is not None:
            if exp == 1 and value == predict[self._predict_pos]:
                self._predict_pos += 1
                if self._predict_pos == len(predict):
                    # a full extra loop iteration: bump the tail exponent
                    self._bump_tail()
                return
            self._flush_prediction()
        self._append_raw(value, exp)
        if self.loop_detection:
            self._arm_prediction()

    def _append_raw(self, value: int, exp: int) -> None:
        last = self.start.guard.prev
        if last.rule_of is None and last.value == value:
            self._delete_digram_at(last.prev)
            last.exp += exp
            self._check(last.prev)
        else:
            sym = Symbol(value, exp)
            self._link_after(last, sym)
            self._check(last)
        if self._pending_underused:
            self._process_underused()

    # -- loop detection ---------------------------------------------------------------

    def _arm_prediction(self) -> None:
        """If the grammar now ends in X^k (k >= 2), predict that the input
        will repeat X's expansion."""
        tail = self.start.guard.prev
        if tail.rule_of is None and tail.value < 0 and tail.exp >= 2:
            out = self._expand_cache.get(tail.value)
            if out is None:
                out = []
                self._expand_rule(self.rules[tail.value], 1, out, set())
                self._expand_cache[tail.value] = out
            if out:
                self._predict = out
                self._predict_pos = 0
                return
        self._predict = None
        self._predict_pos = 0

    def _bump_tail(self) -> None:
        """The predicted iteration matched completely: tail.exp += 1."""
        tail = self.start.guard.prev
        self._delete_digram_at(tail.prev)
        tail.exp += 1
        self._check(tail.prev)
        if self._pending_underused:
            self._process_underused()
        self._predict_pos = 0
        if self.loop_detection:
            self._arm_prediction()

    def _flush_prediction(self) -> None:
        """Replay a partially-matched prediction through the normal path."""
        predict, pos = self._predict, self._predict_pos
        self._predict = None
        self._predict_pos = 0
        if predict is not None and pos:
            for v in predict[:pos]:
                self._append_raw(v, 1)

    def flush(self) -> None:
        """Flush any partially-matched loop prediction into the grammar.
        Must be called before serialization or expansion of a live
        grammar; idempotent."""
        self._flush_prediction()

    def append_array(self, values: Sequence[int]) -> None:
        """Feed a batch of terminals; byte-identical to appending each
        one with :meth:`append`, but substantially faster.

        Three things make the batch path cheap: the per-append attribute
        and bound-method lookups are hoisted out of the loop; a live
        loop prediction is matched against the input a whole iteration
        at a time with one C-level slice comparison instead of one
        Python-level comparison per element — the dominant case for
        loopy traces; and a run of terminals equal to the start rule's
        tail token ``v^e`` is taken in one *run step* — the dominant
        case for timing bins.  Per symbol, such a run only moves the
        digram ``(left, v^e)`` to ``(left, v^(e+1))``, and restructures
        the grammar only when that key is already indexed.  So the run
        step raises ``e`` across every exponent whose key is absent and
        leaves the one index entry the per-symbol steps would leave;
        every step it skips inserted and then deleted the same transient
        entry.  At the first indexed key it falls back to the per-symbol
        step.  The *extension step* takes the second pass of a loop:
        when the tail is ``R^1``, ``R`` has two uses and the new
        terminal ``v`` makes the digram ``(R, v)`` indexed at the other
        use, the per-symbol step would make ``R' -> R v``, substitute
        both uses and inline ``R``.  The extension step instead moves
        the other use's ``v`` to the end of ``R``'s body and renames
        ``R`` to ``R'``: the same rules, ids and index entries, then the
        one ``_check`` the inline runs.  Where the other use is a whole
        rule body or is followed by the tail, the per-symbol step runs.
        """
        if not isinstance(values, list):
            values = list(values)
        n = len(values)
        i = 0
        guard = self.start.guard
        check = self._check
        delete_digram_at = self._delete_digram_at
        link_after = self._link_after
        digrams = self._digrams
        loop_detection = self.loop_detection
        while i < n:
            predict = self._predict
            if predict is not None:
                pos = self._predict_pos
                plen = len(predict)
                need = plen - pos
                if n - i >= need and values[i:i + need] == predict[pos:]:
                    # one full predicted iteration matched at C speed:
                    # same state transitions as `need` scalar appends
                    self.n_input += need
                    i += need
                    self._predict_pos = plen
                    self._bump_tail()
                    continue
                # scan element-wise to the first mismatch (or input end)
                j, p = i, pos
                while j < n and p < plen and values[j] == predict[p]:
                    j += 1
                    p += 1
                self.n_input += j - i
                i = j
                self._predict_pos = p
                if i == n:
                    return          # batch ends mid-prediction; state saved
                self._flush_prediction()
                # values[i] mismatched the prediction: raw-append it below
            value = values[i]
            if value < 0:
                raise ValueError(
                    f"terminals must be non-negative, got {value}")
            last = guard.prev
            if last.rule_of is None and last.value == value:
                # the run step (see above): no prediction is live, since
                # the tail is a terminal, and no rule awaits P2
                left = last.prev
                e = last.exp
                j = i
                if left.rule_of is not None:    # the run opens the rule
                    while j < n and values[j] == value:
                        j += 1
                    e += j - i
                elif left.value != value:
                    lv, le = left.value, left.exp
                    while j < n and values[j] == value \
                            and (lv, le, value, e + 1) not in digrams:
                        j += 1
                        e += 1
                    if j > i:
                        key = (lv, le, value, last.exp)
                        if digrams.get(key) is left:
                            del digrams[key]
                        digrams[lv, le, value, e] = left
                if j > i:
                    last.exp = e
                    self.n_input += j - i
                    i = j
                    continue
                # (left, v^(e+1)) is indexed, or left is v too: the
                # per-symbol step
                i += 1
                self.n_input += 1
                delete_digram_at(left)
                last.exp += 1
                check(left)
            else:
                i += 1
                self.n_input += 1
                found = digrams.get((last.value, 1, value, 1)) \
                    if last.value < 0 and last.exp == 1 else None
                if found is None or not self._extend(found, last):
                    link_after(last, Symbol(value, 1))
                    check(last)
            if self._pending_underused:
                self._process_underused()
            if loop_detection:
                self._arm_prediction()

    def _extend(self, other: Symbol, tail: Symbol) -> bool:
        """The extension step (see :meth:`append_array`): the tail is
        ``R^1`` and ``(R, v)`` is indexed at *other*, so *other* is
        followed by ``v^1``.  False, with nothing changed, when the
        per-symbol step must run instead."""
        rule = self.rules[tail.value]
        v = other.next
        after, before = v.next, other.prev
        if rule.refcount != 2 or after is tail \
                or (before.rule_of is not None and after.rule_of is not None):
            return False
        zed = tail.prev
        for left in (other, v, before, zed):
            self._delete_digram_at(left)
        other.next, after.prev = after, other      # v leaves the other use
        old_last = rule.guard.prev                 # ... and ends R's body
        v.prev, v.next = old_last, rule.guard
        old_last.next = rule.guard.prev = v
        rid, new = rule.rid, self._next_rid
        self._next_rid -= 1
        del self.rules[rid]
        self.rules[new] = rule
        self._users[new] = self._users.pop(rid)
        self._expand_cache.pop(rid, None)
        rule.rid = other.value = tail.value = new
        digrams = self._digrams
        for left in (before, other, zed):
            right = left.next
            if left.rule_of is None and right.rule_of is None:
                digrams[left.value, left.exp, right.value, right.exp] = left
        self._check(old_last)
        return True

    # -- inspection -----------------------------------------------------------------

    def expand(self) -> list[int]:
        """Decompress: the exact sequence of appended terminals."""
        out: list[int] = []
        self._expand_rule(self.start, 1, out, set())
        if self._predict is not None and self._predict_pos:
            out.extend(self._predict[:self._predict_pos])
        return out

    def _expand_rule(self, rule: Rule, times: int, out: list[int],
                     active: set[int]) -> None:
        if rule.rid in active:
            raise ValueError(f"cyclic grammar at rule {rule.rid}")
        active.add(rule.rid)
        once_start = len(out)
        for value, exp in rule.tokens():
            if value >= 0:
                out.extend([value] * exp)
            else:
                self._expand_rule(self.rules[value], exp, out, active)
        active.discard(rule.rid)
        if times > 1:
            once = out[once_start:]
            for _ in range(times - 1):
                out.extend(once)

    def n_rules(self) -> int:
        return len(self.rules)

    def n_tokens(self) -> int:
        """Total number of (value, exp) tokens across all RHSs — the
        grammar's size in symbols."""
        return sum(sum(1 for _ in r.tokens()) for r in self.rules.values())

    @staticmethod
    def _key(left: Symbol) -> DigramKey:
        """The index key of the digram at *left*."""
        return (left.value, left.exp, left.next.value, left.next.exp)

    def check_invariants(self) -> None:
        """Assert P1 (token-digram uniqueness), P2 (rule utility) and
        that the digram index holds exactly the grammar's digrams.

        Used by the property-based tests; raises AssertionError on
        violation.
        """
        seen: dict[tuple[int, int, int, int], tuple[int, int]] = {}
        index: dict = {}    # what the digram index must hold, exactly
        refcounts: dict[int, int] = {rid: 0 for rid in self.rules}
        for rule in self.rules.values():
            prev_tok: Optional[tuple[int, int]] = None
            pos = 0
            sym = rule.first
            while sym.rule_of is None:
                if sym.prev.rule_of is None:
                    index[self._key(sym.prev)] = sym.prev
                tok = (sym.value, sym.exp)
                if sym.value < 0:
                    assert sym.value in self.rules, \
                        f"dangling rule ref {sym.value}"
                    refcounts[sym.value] += 1
                if prev_tok is not None:
                    assert prev_tok[0] != tok[0], \
                        f"unmerged run {prev_tok}/{tok} in R{rule.rid}"
                    key = (*prev_tok, *tok)
                    assert key not in seen, \
                        f"digram {key} appears twice: {seen[key]} and " \
                        f"(R{rule.rid}, {pos})"
                    seen[key] = (rule.rid, pos)
                prev_tok = tok
                pos += 1
                sym = sym.next
        # every adjacent pair is indexed at its left symbol, and every
        # entry is a linked, non-guard symbol that spells its key
        assert self._digrams == index, "digram index drift: " \
            f"{set(self._digrams.items()) ^ set(index.items())}"
        for rid, rule in self.rules.items():
            assert rule.refcount == refcounts[rid], \
                f"refcount drift on R{rid}: {rule.refcount} vs {refcounts[rid]}"
            if rid != self.START_RID:
                users = self._users[rid]
                if refcounts[rid] == 1:
                    (user,) = tuple(users)
                    assert user.exp > 1, \
                        f"single-use rule R{rid} with exp==1 not inlined"
                else:
                    assert refcounts[rid] >= 2, f"orphan rule R{rid}"
