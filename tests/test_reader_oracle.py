"""Differential tests: the trace reader's CFG sections, the shard
container's grammar sets and table columns against the readers they
replaced.

A CFG section's grammar and every grammar of a grammar set used to be
read rule by rule (``Grammar.from_reader``), each sub-grammar rebuilt
token by token from it, and every row of a TUPLE or LIST column built
as a tuple of its own.  Those readers live on here, verbatim, as
oracles.  The product reads a section's grammar ints in one call
(``trace_format.read_grammars``) and shares what it can: a sub-grammar
rule that references no other is the final grammar's own tuple, and
equal rows of a column are one object.  On real sections, random
grammars, grammar sets and tables, and their truncated or garbled
tails, the two must return equal values — ``repr``-equal for columns,
so ``True`` is not ``1`` — or raise the same exception class (salvage
keys on :class:`TruncatedTraceError`).  The section sizes every reporter prints
come from the blob's framing; they must equal a re-serialization's.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cst as cst_mod
from repro.core import trace_format
from repro.core.backends import TracerOptions, make_tracer
from repro.core.container import _RAW
from repro.core.cst import MergedCST
from repro.core.errors import CorruptTraceError, TraceFormatError
from repro.core.grammar import Grammar
from repro.core.interproc import CFGMergeResult, merge_grammars
from repro.core.packing import (_C_INT, _C_LIST, _C_TUPLE, _C_VALUES,
                                COLUMN_SAME, MAX_VALUE_DEPTH, Reader,
                                read_column, read_value, read_varints,
                                write_column)
from repro.core.shard import SHARD, GrammarSet, RankShard, reduce_shards
from repro.core.trace_format import (TRACE, TraceFile, _expand_top,
                                     _read_cfg_section, section_sizes)
from repro.workloads import REGISTRY, make

# -- the oracles, kept verbatim ----------------------------------------------------------


def oracle_grammar_from_reader(r: Reader) -> Grammar:
    """``Grammar.from_reader``: one grammar, rule by rule."""
    nrules = r.read_varint()
    if nrules < 0:
        raise CorruptTraceError(f"negative grammar rule count {nrules}")
    rules = []
    for i in range(nrules):
        ntok = r.read_varint()
        if ntok < 0:
            raise CorruptTraceError(
                f"negative token count {ntok} in rule {i}")
        flat = read_varints(r, 2 * ntok)
        rules.append(tuple(zip(flat[::2], flat[1::2])))
    return Grammar(tuple(rules))


def oracle_read_grammar_set(r: Reader,
                            name: str = "grammar-set") -> GrammarSet:
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
    unique = [oracle_grammar_from_reader(r) for _ in range(n_unique)]
    return GrammarSet(unique=unique, uid=uid)


def oracle_read_cfg_section(r: Reader, name: str = "CFG") -> CFGMergeResult:
    n_top = r.read_uvarint()
    n_unique = r.read_uvarint()
    if n_unique > r.remaining():
        raise CorruptTraceError(
            f"{name} section claims {n_unique} unique grammars but only "
            f"{r.remaining()} bytes remain")
    rule_counts = read_varints(r, n_unique, signed=False)
    final = oracle_grammar_from_reader(r)
    if n_top + sum(rule_counts) != len(final.rules):
        raise CorruptTraceError(
            f"{name} section rule accounting is inconsistent: "
            f"{n_top} top + {sum(rule_counts)} sub-grammar rules != "
            f"{len(final.rules)} total")
    # recover the per-unique sub-grammars from the spliced rule space
    unique: list[Grammar] = []
    bases: list[int] = []
    base = n_top
    for count in rule_counts:
        bases.append(base)
        rules = []
        for rule in final.rules[base:base + count]:
            rules.append(tuple(
                (v + base if v < 0 else v, e) for v, e in rule))
        unique.append(Grammar(tuple(rules)))
        base += count
    # derive the rank -> uid sequence by expanding the top-level rules,
    # treating references to sub-grammar start rules as uid terminals
    base_to_uid = {b: uid for uid, b in enumerate(bases)}
    rank_uid = _expand_top(final.rules, base_to_uid, name, 0, {},
                           frozenset()) if n_top else []
    return CFGMergeResult(final=final, rank_uid=rank_uid, unique=unique)


def oracle_read_column(r: Reader, n: int, depth: int = 0,
                       earlier=()):
    tag = r.read_uvarint()
    if tag == COLUMN_SAME:
        j = r.read_uvarint()
        if j >= len(earlier):
            raise CorruptTraceError(
                f"column before offset {r.pos} refers to column {j} with "
                f"{len(earlier)} before it")
        return earlier[j]
    if n > r.remaining():
        raise CorruptTraceError(f"column claims {n} values but only "
                                f"{r.remaining()} bytes remain")
    if tag == _C_INT:
        return read_varints(r, n)
    if tag == _C_VALUES:
        return [read_value(r) for _ in range(n)]
    if tag != _C_TUPLE and tag != _C_LIST:
        raise CorruptTraceError(f"unknown column tag {tag} at offset "
                                f"{r.pos - 1}")
    if depth >= MAX_VALUE_DEPTH:
        raise CorruptTraceError(f"column at offset {r.pos} nests past "
                                f"{MAX_VALUE_DEPTH} levels")
    if tag == _C_TUPLE:
        k = r.read_uvarint()
        if not 0 < k <= r.remaining():
            raise CorruptTraceError(f"tuple column claims {k} positions "
                                    f"with {r.remaining()} bytes left")
        return list(zip(*[oracle_read_column(r, n, depth + 1)
                          for _ in range(k)]))
    lens = read_varints(r, n, signed=False)
    flat = iter(oracle_read_column(r, sum(lens), depth + 1))
    return [tuple(islice(flat, k)) for k in lens]


def oracle_read_cst(r: Reader) -> MergedCST:
    with mock.patch.object(cst_mod, "read_column", oracle_read_column):
        return MergedCST.read_from(r)


# -- what a container makes of one section parser's outcome ----------------------------


def outcome(parse, payload: bytes):
    """The parsed value, or the class of the error the trace container
    would raise: a parser that leaves bytes over fails, and a raw
    exception is a :class:`CorruptTraceError`."""
    r = Reader(payload)
    try:
        value = parse(r)
        if r.remaining():
            raise CorruptTraceError(f"{r.remaining()} bytes left over")
    except TraceFormatError as e:
        return type(e)
    except _RAW:
        return CorruptTraceError
    return value


def _cst_view(value):
    """A CST outcome as comparable data, ``True`` and ``1`` told apart."""
    if isinstance(value, type):
        return value
    return list(map(repr, value.sigs)), value.counts, value.dur_ns


def _column_view(value):
    return value if isinstance(value, type) else list(map(repr, value))


def _cfg_payload(merge: CFGMergeResult) -> bytes:
    out = bytearray()
    trace_format._write_cfg_section(out, merge)
    return bytes(out)


def _cst_payload(cst: MergedCST) -> bytes:
    out = bytearray()
    cst.write_to(out)
    return bytes(out)


def assert_cfg_agrees(payload: bytes):
    got = outcome(_read_cfg_section, payload)
    assert got == outcome(oracle_read_cfg_section, payload)
    return got


def assert_grammar_set_agrees(payload: bytes):
    got = outcome(GrammarSet.read_from, payload)
    assert got == outcome(oracle_read_grammar_set, payload)
    return got


def _grammar_set_payload(gs: GrammarSet) -> bytes:
    out = bytearray()
    gs.write_to(out)
    return bytes(out)


def assert_cst_agrees(payload: bytes):
    got = outcome(MergedCST.read_from, payload)
    assert _cst_view(got) == _cst_view(outcome(oracle_read_cst, payload))
    return got


# -- garbling ---------------------------------------------------------------------------


@st.composite
def garbled(draw, payload: bytes) -> bytes:
    """*payload* cut short, with bytes overwritten, or with a tail of
    arbitrary bytes — including runs of continuation bytes, varints
    that never end or end past the format's bound."""
    out = bytearray(payload)
    how = draw(st.sampled_from(["cut", "flip", "tail", "all"]))
    if how in ("cut", "all") and out:
        del out[draw(st.integers(0, len(out) - 1)):]
    if how in ("flip", "all") and out:
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] = draw(
                st.integers(0, 255))
    if how in ("tail", "all"):
        out += draw(st.one_of(
            st.binary(max_size=8),
            st.integers(1, 80).map(lambda k: b"\x80" * k),
            st.integers(1, 80).map(lambda k: b"\xff" * k + b"\x01")))
    return bytes(out)


# -- random grammars --------------------------------------------------------------------

_stream = st.lists(st.one_of(st.integers(0, 5), st.integers(0, 2 ** 20)),
                   max_size=40)
#: ranks drawn from a few streams, so identical grammars dedup
_ranks = st.lists(_stream, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))


def _merged(ranks) -> CFGMergeResult:
    return merge_grammars([Grammar.compress(t) for t in ranks])


@settings(max_examples=200, deadline=None)
@given(_ranks)
def test_any_cfg_section_reads_as_the_oracle_reads_it(ranks):
    merge = _merged(ranks)
    got = assert_cfg_agrees(_cfg_payload(merge))
    assert got == merge
    assert [g.expand() for g in got.unique] == \
        [g.expand() for g in merge.unique]


@settings(max_examples=400, deadline=None)
@given(st.data(), _ranks)
def test_a_garbled_cfg_section_fails_as_the_oracle_fails(data, ranks):
    assert_cfg_agrees(data.draw(garbled(_cfg_payload(_merged(ranks)))))


def _grammar_set(ranks) -> GrammarSet:
    """The ranks' grammars as a shard's grammar set (equal ones once)."""
    gs = GrammarSet([], [])
    for terms in ranks:
        gs.extend(GrammarSet.single(Grammar.compress(terms)),
                  {g: i for i, g in enumerate(gs.unique)})
    return gs


@settings(max_examples=200, deadline=None)
@given(st.data(), _ranks)
def test_any_grammar_set_reads_as_the_oracle_reads_it(data, ranks):
    gs = _grammar_set(ranks)
    payload = _grammar_set_payload(gs)
    assert assert_grammar_set_agrees(payload) == gs
    assert_grammar_set_agrees(data.draw(garbled(payload)))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40))
def test_any_bytes_read_as_the_oracle_reads_them(payload):
    assert_cfg_agrees(payload)
    assert_cst_agrees(payload)
    assert_grammar_set_agrees(payload)


def test_a_tail_past_the_varint_bound_is_corrupt_not_truncated():
    # one top rule [nrules=1, ntok=3] short of its tokens, then a varint
    # that never ends: within the bound a truncation, past it corruption
    head = bytes([1, 0, 2, 6])
    for k, want in ((63, "TruncatedTraceError"), (64, "TruncatedTraceError"),
                    (65, "CorruptTraceError"), (200, "CorruptTraceError")):
        got = assert_cfg_agrees(head + b"\x80" * k)
        assert got.__name__ == want, k


def test_sub_grammars_share_the_final_grammars_rules():
    merge = _merged([[1, 2, 1, 2, 3, 1, 2, 1, 2, 3], [4, 4, 5, 4, 4, 5]])
    got = _read_cfg_section(Reader(_cfg_payload(merge)))
    assert got == merge
    shared = {id(rule) for rule in got.final.rules}
    for g in got.unique:
        for rule in g.rules:
            if all(v >= 0 for v, _ in rule):
                assert id(rule) in shared
            else:
                assert id(rule) not in shared


# -- random tables and columns -----------------------------------------------------------

_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-70, 70),
    st.integers(-2 ** 70, 2 ** 70), st.text(max_size=3),
    st.floats(allow_nan=False), st.sampled_from([0, 1, 0.0, 1.0, -0.0]))
_value = st.recursive(
    _scalar, lambda kids: st.lists(kids, max_size=3).map(tuple),
    max_leaves=8)
#: rows drawn from a few, so a column repeats them (what interning shares)
_rows = st.lists(_value, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=12))
_tables = st.lists(
    st.tuples(st.builds(lambda fid, params: (fid, *params),
                        st.sampled_from([0, 1, 7]),
                        st.lists(_value, max_size=3)),
              st.integers(0, 2 ** 20), st.integers(0, 2 ** 40)),
    max_size=10)


def _column_payload(values) -> bytes:
    out = bytearray()
    write_column(out, values)
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(st.data(), _rows)
def test_any_column_reads_as_the_oracle_reads_it(data, values):
    payload = _column_payload(values)
    n = len(values)
    for blob in (payload, data.draw(garbled(payload))):
        got = outcome(lambda r: read_column(r, n), blob)
        assert _column_view(got) == _column_view(
            outcome(lambda r: oracle_read_column(r, n), blob))
    assert _column_view(outcome(lambda r: read_column(r, n), payload)) == \
        list(map(repr, values))


@settings(max_examples=200, deadline=None)
@given(st.data(), _tables)
def test_any_table_reads_as_the_oracle_reads_it(data, rows):
    cst = MergedCST.from_ns([r[0] for r in rows], [r[1] for r in rows],
                            [r[2] for r in rows])
    payload = _cst_payload(cst)
    assert _cst_view(assert_cst_agrees(payload)) == _cst_view(cst)
    assert_cst_agrees(data.draw(garbled(payload)))


def test_equal_rows_are_one_object_unless_a_type_would_merge():
    ints = [(2, 20050), (3, 7), (2, 20050), (2, 20050), (3, 7)]
    got = read_column(Reader(_column_payload(ints)), len(ints))
    assert got == ints and got[0] is got[2] is got[3] and got[1] is got[4]
    lists = [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5), ()]
    got = read_column(Reader(_column_payload(lists)), len(lists))
    assert got == lists and got[0] is got[1]
    # True == 1 == 1.0: rows holding them stay apart, as they were written
    mixed = [(1, True), (1, 1), (1, 1.0), (1, True)]
    got = read_column(Reader(_column_payload(mixed)), len(mixed))
    assert list(map(repr, got)) == list(map(repr, mixed))
    nested = [((True,), 5), ((1,), 5)]
    got = read_column(Reader(_column_payload(nested)), len(nested))
    assert list(map(repr, got)) == list(map(repr, nested))


# -- real traces: every registry family ------------------------------------------------


@lru_cache(maxsize=None)
def _traced(family: str, lossy: bool):
    tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=lossy))
    make(family, 4).run(seed=5, tracer=tracer)
    return tracer


def _blob(family: str, lossy: bool) -> bytes:
    return _traced(family, lossy).result.trace_bytes


def _payloads(blob: bytes, container=TRACE) -> dict[str, bytes]:
    """Each section's payload, inflated."""
    spans = container.spans(blob)
    return {s.key: zlib.decompress(blob[slice(*spans[f"{s.key}.payload"])])
            for s in container.sections if f"{s.key}.payload" in spans}


@pytest.mark.parametrize("lossy", [False, True], ids=["aggregate", "lossy"])
@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_every_family_reads_as_the_oracle_reads_it(family, lossy):
    blob = _blob(family, lossy)
    payloads = _payloads(blob)
    assert_cst_agrees(payloads["cst"])
    for key in ("cfg", "timing_duration", "timing_interval"):
        if key in payloads:
            assert not isinstance(assert_cfg_agrees(payloads[key]), type)
    assert ("timing_duration" in payloads) == lossy
    trace = TraceFile.from_bytes(blob)
    assert trace.to_bytes() == blob


@pytest.mark.parametrize("lossy", [False, True], ids=["aggregate", "lossy"])
@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_every_family_shard_reads_as_the_oracle_reads_it(family, lossy):
    merged = reduce_shards(rc.freeze() for rc in _traced(family, lossy).ranks)
    blob = merged.to_bytes()
    payloads = _payloads(blob, SHARD)
    for key in ("shard_cfg", "shard_timing_duration",
                "shard_timing_interval"):
        if key in payloads:
            assert not isinstance(
                assert_grammar_set_agrees(payloads[key]), type)
    assert ("shard_timing_duration" in payloads) == lossy
    assert RankShard.from_bytes(blob) == merged


@pytest.mark.parametrize("lossy", [False, True], ids=["aggregate", "lossy"])
@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_section_sizes_come_from_the_blob(family, lossy):
    blob = _blob(family, lossy)
    sizes = section_sizes(blob)
    assert sizes == TraceFile.from_bytes(blob).section_sizes()
    assert sizes["total"] == len(blob)
