"""Tests for frozen Grammar serialization and transforms."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import CorruptTraceError
from repro.core.grammar import Grammar
from repro.core.packing import Reader, read_varints, write_varints
from repro.core.sequitur import Sequitur
from repro.core.trace_format import _read_cfg_section, read_grammars


def freeze(seq_values, ld=True):
    s = Sequitur(loop_detection=ld)
    for v in seq_values:
        s.append(v)
    return Grammar.freeze(s)


def to_bytes(g: Grammar) -> bytes:
    out = bytearray()
    g.write_to(out)
    return bytes(out)


def from_bytes(data: bytes) -> Grammar:
    g, = read_grammars(Reader(data), 1, "grammar")
    return g


class TestFreeze:
    def test_expand_matches_input(self):
        seq = [1, 2, 3] * 10 + [4, 5] * 7
        assert freeze(seq).expand() == seq

    def test_canonical_identity_across_instances(self):
        seq = [3, 1, 4, 1, 5] * 9
        assert freeze(seq) == freeze(seq)
        assert hash(freeze(seq)) == hash(freeze(seq))

    def test_different_strings_different_grammars(self):
        assert freeze([1, 2] * 5) != freeze([2, 1] * 5)

    def test_start_rule_is_rule_zero(self):
        g = freeze([1, 2] * 8)
        # expanding only rule 0 reconstructs everything
        assert Grammar((g.rules[0],) + g.rules[1:]).expand() == [1, 2] * 8

    def test_expanded_length_without_materializing(self):
        seq = [1, 2, 3, 4] * 50
        g = freeze(seq)
        assert g.expanded_length() == len(seq)

    def test_empty_grammar(self):
        g = freeze([])
        assert g.expand() == []
        assert g.expanded_length() == 0


class TestTransforms:
    def test_remap_terminals(self):
        seq = [0, 1, 0, 1, 2]
        g = freeze(seq).remap_terminals(lambda t: t + 100)
        assert g.expand() == [v + 100 for v in seq]

    def test_remap_preserves_structure(self):
        g = freeze([0, 1] * 10)
        g2 = g.remap_terminals(lambda t: t)
        assert g2 == g

    def test_shift_rules(self):
        g = freeze([1, 2] * 6)
        shifted = g.shift_rules(10)
        for rule in shifted:
            for v, _e in rule:
                assert v >= 0 or v <= -11  # all refs moved past offset

    def test_iter_terminals(self):
        g = freeze([5, 6, 5, 6, 7])
        assert set(g.iter_terminals()) == {5, 6, 7}


class TestSerialization:
    @pytest.mark.parametrize("seq", [
        [], [1], [1, 2, 3], [1, 2] * 20, list(range(10)) * 5,
        [0] * 100,
    ])
    def test_bytes_roundtrip(self, seq):
        g = freeze(seq)
        assert from_bytes(to_bytes(g)) == g

    def test_bytes_are_the_packed_int_array(self):
        # "stores grammars as an array of integers": the bytes are
        # [nrules, len(rule0), v,e,v,e,..., len(rule1), ...] as varints
        # and nothing else
        g = freeze([1, 2, 1, 2, 3])
        r = Reader(to_bytes(g))
        ints = read_varints(r, 1 + g.n_rules + 2 * g.n_tokens)
        assert r.exhausted
        it = iter(ints)
        assert next(it) == g.n_rules
        for rule in g.rules:
            assert next(it) == len(rule)
            assert tuple((next(it), next(it)) for _ in rule) == rule

    def test_write_to_reader_roundtrip(self):
        g = freeze([4, 5, 6] * 4)
        out = bytearray()
        g.write_to(out)
        assert read_grammars(Reader(bytes(out)), 1, "grammar") == [g]

    def test_identical_grammars_identical_bytes(self):
        # the §3.5.2 memcmp identity check depends on this
        a = freeze([1, 2, 3] * 30)
        b = freeze([1, 2, 3] * 30)
        assert to_bytes(a) == to_bytes(b)

    def test_size_bytes_small_for_loops(self):
        g = freeze([1, 2, 3, 4] * 1000)
        assert len(to_bytes(g)) < 64

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=60))
    def test_roundtrip_property(self, seq):
        g = freeze(seq)
        assert from_bytes(to_bytes(g)).expand() == seq

    def test_cycle_detection(self):
        bad = Grammar(((( -1, 1),),))  # rule 0 references itself
        with pytest.raises(ValueError):
            bad.expand()
        with pytest.raises(ValueError):
            bad.expanded_length()


def cfg_section(top_rules, sub_rules) -> Reader:
    """A CFG section over one sub-grammar: *top_rules* reference it (as
    rule ``len(top_rules)``) and each other."""
    out = bytearray()
    write_varints(out, [len(top_rules), 1, len(sub_rules)], signed=False)
    Grammar(tuple(top_rules) + tuple(sub_rules)).write_to(out)
    return Reader(bytes(out))


def cyclic_garbage(fn, *args):
    """What the cyclic collector finds after ``fn(*args)`` (run with the
    collector off, so nothing is collected behind the count)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


class TestNoReferenceCycles:
    """Each call expands through a memo it drops on return.  A nested
    function that calls itself holds its own closure cell, a cycle that
    kept the whole memo alive until the cyclic collector ran."""

    SEQ = [1, 2, 3, 1, 2, 3, 4] * 40 + [5, 6] * 30

    def test_expand_and_length(self):
        g = freeze(self.SEQ)
        assert g.n_rules > 2
        assert cyclic_garbage(g.expand) == 0
        assert cyclic_garbage(g.expanded_length) == 0

    def test_freeze(self):
        seq = Sequitur()
        for v in self.SEQ:
            seq.append(v)
        # the live Sequitur stays referenced: only the freeze is counted
        assert cyclic_garbage(Grammar.freeze, seq) == 0
        assert Grammar.freeze(seq).expand() == self.SEQ

    def test_read_cfg_section(self):
        top = (((-2, 1), (-3, 3)), ((-3, 1),))
        sub = (((5, 2),),)
        assert _read_cfg_section(cfg_section(top, sub)).rank_uid \
            == [0] * 4
        assert cyclic_garbage(_read_cfg_section, cfg_section(top, sub)) == 0

    def test_cyclic_errors_are_kept(self):
        with pytest.raises(CorruptTraceError, match="top rule 0 is cyclic"):
            _read_cfg_section(cfg_section((((-2, 1),), ((-1, 1),)),
                                          (((5, 1),),)))
        # a rule that reaches itself only through another
        bad = Grammar((((-2, 1),), ((-3, 1),), ((-2, 1),)))
        with pytest.raises(ValueError, match="cyclic grammar at rule 1"):
            bad.expand()
        with pytest.raises(ValueError, match="cyclic grammar at rule 1"):
            bad.expanded_length()
