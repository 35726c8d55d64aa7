"""Differential tests: the columnar CST section (trace format v3)
against the list of tagged values it replaced.

The v2 ``MergedCST.write_to`` / ``read_from`` left ``src/`` when the
table went columnar; they live on here, verbatim, as the oracle (with
the two helpers that wrap a whole v2 trace around them, for tests that
hold a blob recorded by an older commit).  The product must carry every
table the oracle carried — signatures ``repr``-equal, so ``True`` is
not ``1``; counts equal; duration sums equal *as floats* — in bytes
that are stable under re-encoding, never larger on a real trace, and
refused with a structured error when damaged (the hand-built hostile
tables and their time bound are in ``tests/test_codec_bombs.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import cst as cst_mod
from repro.core import packing
from repro.core.backends import TracerOptions, make_tracer
from repro.core.cst import MergedCST
from repro.core.errors import (CorruptTraceError, TruncatedTraceError,
                               UnsupportedVersionError)
from repro.core.packing import (MAX_VALUE_DEPTH, Reader, read_column,
                                read_value, write_column, write_uvarint,
                                write_value)
from repro.core.container import emit_section, take_section
from repro.core.trace_format import (FLAG_COMPRESSED, TRACE, TraceFile,
                                     split_sections)
from repro.fuzz import iter_blob_mutations
from repro.workloads import REGISTRY, make

# -- the oracle: the v2 CST codec, kept verbatim ----------------------------------------


class V2CST(MergedCST):
    """A :class:`MergedCST` that serializes the way format v2 did."""

    def write_to(self, out: bytearray) -> None:
        write_uvarint(out, len(self.sigs))
        for sig, count, dur in zip(self.sigs, self.counts, self.dur_sums):
            write_value(out, sig)
            write_uvarint(out, count)
            write_value(out, dur)

    @classmethod
    def read_from(cls, r: Reader) -> "MergedCST":
        n = r.read_uvarint()
        if n > r.remaining():
            raise CorruptTraceError(
                f"CST claims {n} signatures but only {r.remaining()} "
                f"bytes remain")
        sigs, counts, durs = [], [], []
        for i in range(n):
            sig = read_value(r)
            if not isinstance(sig, tuple):
                raise CorruptTraceError(
                    f"CST entry {i} is a {type(sig).__name__}, "
                    f"not a signature tuple")
            sigs.append(sig)
            counts.append(r.read_uvarint())
            dur = read_value(r)
            if isinstance(dur, bool) or not isinstance(dur, (int, float)):
                raise CorruptTraceError(
                    f"CST entry {i} duration is {type(dur).__name__}, "
                    f"not a number")
            durs.append(dur)
        return cls(sigs, counts, durs, remaps=[])


def v2_payload(cst: MergedCST) -> bytes:
    out = bytearray()
    V2CST.write_to(cst, out)
    return bytes(out)


def to_v2(blob: bytes) -> bytes:
    """The v2 blob of the trace in the v3 *blob*: only the version byte
    and the CST section differ between the two formats."""
    header, sections = split_sections(blob)
    out = bytearray(header)
    out[4] = 2
    emit_section(out, v2_payload(TraceFile.from_bytes(blob).cst),
                 bool(blob[5] & FLAG_COMPRESSED))
    return bytes(out) + b"".join(sec for _, sec in sections[1:])


def read_v2_trace(blob: bytes) -> TraceFile:
    """Parse a v2 blob: its CST through the oracle reader, every other
    section (their layout did not change) through the product's, behind
    an empty v3 table."""
    assert blob[4] == 2
    header, sections = split_sections(blob)
    compressed = bool(blob[5] & FLAG_COMPRESSED)
    cst = V2CST.read_from(
        take_section(Reader(sections[0][1]), compressed, "CST"))
    out = bytearray(header)
    out[4] = TRACE.version
    emit_section(out, b"\x00", compressed)
    trace = TraceFile.from_bytes(
        bytes(out) + b"".join(sec for _, sec in sections[1:]))
    trace.cst = MergedCST(cst.sigs, cst.counts, cst.dur_sums, remaps=[])
    return trace


def _table(cst: MergedCST) -> tuple:
    """What a CST says, with ``True`` and ``1`` (and ``1.0``) told apart."""
    return list(map(repr, cst.sigs)), cst.counts, cst.dur_sums


def _v3(cst: MergedCST) -> bytes:
    out = bytearray()
    cst.write_to(out)
    return bytes(out)


def _resealed(blob: bytes, payload: bytes) -> bytes:
    """The trace *blob* with *payload* as its CST section, CRC valid."""
    header, sections = split_sections(blob)
    out = bytearray(header)
    emit_section(out, payload, bool(blob[5] & FLAG_COMPRESSED))
    return bytes(out) + b"".join(sec for _, sec in sections[1:])


def _traced(family: str, nprocs: int, lossy: bool = False, seed: int = 11,
            **params):
    tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=lossy))
    make(family, nprocs, **params).run(seed=seed, tracer=tracer)
    return tracer.result


# -- real tables: every registry family ------------------------------------------------


@pytest.mark.parametrize("lossy", [False, True], ids=["aggregate", "lossy"])
@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_every_family_reads_what_the_oracle_round_trips(family, lossy):
    result = _traced(family, 4, lossy)
    blob = result.trace_bytes
    # the oracle carries the table the pipeline built, before any codec
    want = V2CST.read_from(Reader(v2_payload(result.trace.cst)))
    trace = TraceFile.from_bytes(blob)
    assert _table(trace.cst) == _table(want)
    assert trace == result.trace
    assert trace.to_bytes() == blob             # re-encoding is byte-stable
    assert trace.cst.dur_sums == [ns / 1e9 for ns in trace.cst.dur_ns]
    # never larger than its v2 bytes, and a v2 reader of them agrees
    old = to_v2(blob)
    assert len(blob) <= len(old)
    assert read_v2_trace(old) == trace


def test_a_v2_blob_is_an_unsupported_version():
    old = to_v2(_traced("stencil2d", 4).trace_bytes)
    for salvage in (False, True):
        with pytest.raises(UnsupportedVersionError) as ei:
            TraceFile.from_bytes(old, salvage=salvage)
        assert (ei.value.found, ei.value.expected) == (2, TRACE.version) \
            == (2, 3)


def test_seconds_only_tables_round_to_nanoseconds():
    cst = MergedCST([(1, 2)], [3], [0.5], remaps=[])
    assert cst.dur_ns == [500_000_000]
    back = MergedCST.read_from(Reader(_v3(cst)))
    assert back == cst and back.dur_sums == [0.5]


# -- any table: Hypothesis over ragged, nested, malformed signatures ------------------

_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-70, 70),
    st.integers(-2 ** 300, 2 ** 300), st.text(max_size=6),
    st.floats(allow_nan=False))
_value = st.recursive(
    _scalar, lambda kids: st.lists(kids, max_size=4).map(tuple),
    max_leaves=12)
#: signatures as the encoder builds them (an int function id, then
#: parameters), and as only a damaged table holds them
_sig = st.one_of(
    st.builds(lambda fid, params: (fid, *params),
              st.sampled_from([0, 1, 7, -3, 2 ** 70]),
              st.lists(_value, max_size=4)),
    st.lists(_value, max_size=4).map(tuple))
_tables = st.lists(st.tuples(_sig, st.integers(0, 2 ** 40),
                             st.integers(0, 2 ** 70)), max_size=12)


def _nest(v, depth: int):
    for _ in range(depth):
        v = (v,)
    return v


@settings(max_examples=300, deadline=None)
@given(_tables)
# a LIST inside a TUPLE inside a LIST, an empty and a headless signature,
# a bool where the function id goes
@example([((5, ((1, (2, 3)), (4, ())), ((6, (7,)),)), 1, 2),
          ((5, ((8, (9, 10, 11)),), ()), 3, 4)])
@example([((), 1, 2), (("x", 1), 3, 4), ((True, 1), 5, 6), ((1, 1), 7, 8)])
def test_any_table_round_trips_like_the_oracle(rows):
    sigs = [r[0] for r in rows]
    cst = MergedCST.from_ns(sigs, [r[1] for r in rows], [r[2] for r in rows])
    blob = _v3(cst)
    reader = Reader(blob)
    back = MergedCST.read_from(reader)
    assert reader.exhausted
    assert _table(back) == _table(cst)
    assert back.dur_ns == cst.dur_ns
    assert _table(V2CST.read_from(Reader(v2_payload(cst)))) == _table(cst)
    assert _v3(back) == blob


@settings(max_examples=300, deadline=None)
@given(st.lists(_value, max_size=10), st.integers(0, MAX_VALUE_DEPTH - 8))
def test_any_column_round_trips(values, extra_depth):
    values = [_nest(v, extra_depth) for v in values]
    out = bytearray()
    write_column(out, values)
    reader = Reader(bytes(out))
    back = read_column(reader, len(values))
    assert reader.exhausted
    assert list(map(repr, back)) == list(map(repr, values))


def test_columns_nest_to_the_bound_and_no_further():
    deepest = [_nest((1, "x"), MAX_VALUE_DEPTH - 1)] * 2
    out = bytearray()
    write_column(out, deepest)
    assert read_column(Reader(bytes(out)), 2) == deepest
    with pytest.raises(ValueError):
        write_column(bytearray(), [_nest(1, MAX_VALUE_DEPTH + 1)] * 2)


def test_what_the_oracle_could_not_write_the_table_cannot_either():
    for bad in ((1, 2 ** 500), (1, object()), (1, [2])):
        for writer in (MergedCST.write_to, V2CST.write_to):
            with pytest.raises((ValueError, TypeError)):
                writer(MergedCST([bad], [1], [0.0], remaps=[]), bytearray())


def test_equal_columns_are_written_once_within_the_field_budget():
    vector = tuple(range(300, 364))

    def table(rows: int) -> MergedCST:
        return MergedCST.from_ns(
            [(74, (1, 0, i), vector[i:] + vector[:i], -3,
              vector[i:] + vector[:i], -3, True) for i in range(rows)],
            [1] * rows, [0] * rows)

    cst = table(40)
    blob = _v3(cst)
    twice = bytearray()
    for column in list(zip(*cst.sigs))[1:]:
        write_column(twice, column)
    # the counts and the datatype are each stored once ...
    assert len(blob) < 0.55 * len(twice)
    back = MergedCST.read_from(Reader(blob))
    assert _table(back) == _table(cst) and _v3(back) == blob
    assert back.sigs[3][2] is back.sigs[3][4]       # ... and read once
    # ... but not while the group has more fields than the section has
    # bytes: a reader refuses such a group, so the writer repeats the
    # column until there are (3 rows x 9 wide: four times, then refers)
    tiny = MergedCST.from_ns([(5, 1, 1, 1, 1, 1, 1, 1, 1)] * 3, [1] * 3,
                             [0] * 3)
    assert _v3(tiny).count(b"\x00\x02\x02\x02") == 4
    assert _v3(tiny).endswith(b"\x04\x00" * 4) and len(_v3(tiny)) >= 3 * 9
    assert _table(MergedCST.read_from(Reader(_v3(tiny)))) == _table(tiny)


# -- how the work is done ---------------------------------------------------------------


def test_the_table_is_read_by_columns_not_by_values(monkeypatch):
    trace = _traced("flash_cellular", 27, lossy=True, seed=3, iters=6).trace
    n = len(trace.cst.sigs)
    payload = _v3(trace.cst)
    n_values = sum(map(len, trace.cst.sigs)) + 2 * n
    assert n > 200 and n_values > 8 * n
    calls = {"read_value": 0, "scalar": 0, "columns": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(packing, "read_value",
                        counted("read_value", read_value))
    monkeypatch.setattr(packing, "read_column",
                        counted("columns", read_column))
    monkeypatch.setattr(cst_mod, "read_column", packing.read_column)
    monkeypatch.setattr(Reader, "read_uvarint",
                        counted("scalar", Reader.read_uvarint))
    assert _table(MergedCST.read_from(Reader(payload))) == _table(trace.cst)
    # no tagged value per entry for its duration (v2 read 2 n of them):
    # this table's columns are all ints, tuples and lists of them
    assert calls["read_value"] == 0
    # scalar varints: n, three per group, at most two per column (its
    # tag, a TUPLE's width) — O(columns), never one per value
    groups = len({(s[0], len(s)) for s in trace.cst.sigs})
    assert calls["scalar"] <= 1 + 3 * groups + 2 * calls["columns"]
    assert calls["scalar"] < n < n_values


# -- hostile tables ----------------------------------------------------------------------


def _outcome(blob: bytes):
    try:
        return TraceFile.from_bytes(blob).cst
    except (CorruptTraceError, TruncatedTraceError) as e:
        return type(e)


class TestHostileTables:
    @pytest.fixture(scope="class")
    def small(self) -> bytes:
        return TraceFile.from_bytes(
            _traced("stencil2d", 4).trace_bytes).to_bytes(compress=False)

    @pytest.fixture(scope="class")
    def large(self) -> bytes:
        return TraceFile.from_bytes(_traced(
            "flash_cellular", 9, lossy=True, iters=4).trace_bytes
        ).to_bytes(compress=False)

    def test_every_truncation_is_refused(self, small):
        payload = _v3(TraceFile.from_bytes(small).cst)
        assert _resealed(small, payload) == small
        for cut in range(len(payload)):
            assert _outcome(_resealed(small, payload[:cut])) in (
                CorruptTraceError, TruncatedTraceError), cut

    @pytest.mark.parametrize("which", ["small", "large"])
    def test_no_mutation_crashes_or_goes_unnoticed(self, which, request):
        blob = request.getfixturevalue(which)
        cst = TraceFile.from_bytes(blob).cst
        payload = _v3(cst)
        seen = {"refused": 0, "different": 0}
        for desc, mut in iter_blob_mutations(
                payload, {"payload": (0, len(payload)),
                          "middle": (len(payload) // 2, len(payload))},
                seed=19, n_random=300):
            if mut == payload:
                continue
            # a bare exception fails the test here
            got = _outcome(_resealed(blob, mut))
            if isinstance(got, type):
                seen["refused"] += 1
                continue
            # under a valid CRC a flipped value bit is simply another
            # table: it must be a well-formed one, it must differ (no
            # byte of the section is dead), and its own bytes are stable
            seen["different"] += 1
            assert _table(got) != _table(cst), desc
            assert len(got.counts) == len(got.dur_ns) == len(got.sigs)
            assert all(type(s) is tuple for s in got.sigs), desc
            assert MergedCST.read_from(Reader(_v3(got))) == got, desc
        assert seen["refused"] > 100 and seen["different"] > 20
