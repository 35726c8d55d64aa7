"""Differential tests: the one-pass codec against the codec it replaced.

The recursive ``write_value``/``read_value``, the call-per-byte
``Reader`` methods and the per-int grammar reader/writer left ``src/``
when :mod:`repro.core.packing` went one-pass; they live on here,
verbatim, as the oracle.  The product must write identical bytes, read
identical values, and — on damaged input — raise the same error class
(bar the two bounds the oracle never had: ``MAX_VARINT_BYTES`` and
``MAX_VALUE_DEPTH``).
"""

from __future__ import annotations

from contextlib import contextmanager
from struct import Struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cst as cst_mod
from repro.core import grammar as grammar_mod
from repro.core import packing
from repro.core import shard as shard_mod
from repro.core import timing as timing_mod
from repro.core import trace_format as tf_mod
from repro.core.backends import TracerOptions, make_tracer
from repro.core.decoder import TraceDecoder
from repro.core.errors import (CorruptTraceError, TraceFormatError,
                               TruncatedTraceError)
from repro.core.fuzz import iter_blob_mutations
from repro.core.grammar import Grammar
from repro.core.packing import (MAX_VALUE_DEPTH, MAX_VARINT_BYTES, Reader,
                                pack_value, read_value, read_varints,
                                write_varints)
from repro.core.shard import ShardPartial, read_flush, write_flush
from repro.core.trace_format import TraceFile, emit_section, section_spans
from repro.ingest import ChunkingTracer
from repro.workloads import make

# -- the oracle: the pre-one-pass codec, kept verbatim --------------------------------

_F64 = Struct("<d")


def o_write_uvarint(out: bytearray, n: int) -> None:
    if n < 0:
        raise ValueError(f"uvarint of negative {n}")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def o_write_varint(out: bytearray, n: int) -> None:
    o_write_uvarint(out, packing.zigzag(n))


def o_read_uvarint(r: Reader) -> int:
    data, pos = r.data, r.pos
    end = len(data)
    shift = 0
    result = 0
    while True:
        if pos >= end:
            raise TruncatedTraceError(
                f"varint starting at byte {r.pos} runs past the "
                f"end of the {end}-byte buffer")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    r.pos = pos
    return result


def o_read_varint(r: Reader) -> int:
    return packing.unzigzag(o_read_uvarint(r))


def o_read_byte(r: Reader) -> int:
    if r.pos >= len(r.data):
        raise TruncatedTraceError(
            f"expected a byte at offset {r.pos}, buffer has {len(r.data)}")
    b = r.data[r.pos]
    r.pos += 1
    return b


def o_write_value(out: bytearray, v) -> None:
    if v is None:
        out.append(0)
    elif v is True:
        out.append(4)
    elif v is False:
        out.append(5)
    elif isinstance(v, int):
        out.append(1)
        o_write_varint(out, v)
    elif isinstance(v, str):
        raw = v.encode("utf-8")
        out.append(2)
        o_write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(v, tuple):
        out.append(3)
        o_write_uvarint(out, len(v))
        for item in v:
            o_write_value(out, item)
    elif isinstance(v, float):
        out.append(6)
        out.extend(_F64.pack(v))
    else:
        raise TypeError(f"unsupported signature value type {type(v)!r}")


def o_read_value(r: Reader):
    tag = o_read_byte(r)
    if tag == 0:
        return None
    if tag == 4:
        return True
    if tag == 5:
        return False
    if tag == 1:
        return o_read_varint(r)
    if tag == 2:
        n = o_read_uvarint(r)
        raw = r.read_bytes(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptTraceError(
                f"string value at offset {r.pos - n} is not UTF-8: "
                f"{e}") from None
    if tag == 3:
        n = o_read_uvarint(r)
        if n > r.remaining():
            raise TruncatedTraceError(
                f"tuple of {n} elements at offset {r.pos} exceeds the "
                f"{r.remaining()} bytes left")
        return tuple(o_read_value(r) for _ in range(n))
    if tag == 6:
        return _F64.unpack(r.read_bytes(8))[0]
    raise CorruptTraceError(f"unknown value tag {tag} at offset {r.pos - 1}")


def o_write_varints(out: bytearray, ints, signed: bool = True) -> None:
    for n in ints:
        (o_write_varint if signed else o_write_uvarint)(out, n)


def o_read_varints(r: Reader, n: int, signed: bool = True) -> list:
    return [(o_read_varint if signed else o_read_uvarint)(r)
            for _ in range(n)]


def o_grammar_from_reader(cls, r: Reader) -> Grammar:
    nrules = o_read_varint(r)
    if nrules < 0:
        raise CorruptTraceError(f"negative grammar rule count {nrules}")
    rules = []
    for i in range(nrules):
        ntok = o_read_varint(r)
        if ntok < 0:
            raise CorruptTraceError(f"negative token count {ntok} in rule {i}")
        rules.append(tuple((o_read_varint(r), o_read_varint(r))
                           for _ in range(ntok)))
    return cls(tuple(rules))


def o_grammar_write_to(self: Grammar, out: bytearray) -> None:
    o_write_varint(out, len(self.rules))
    for rule in self.rules:
        o_write_varint(out, len(rule))
        for v, e in rule:
            o_write_varint(out, v)
            o_write_varint(out, e)


@contextmanager
def oracle_codec():
    """Run the product's section readers/writers (trace, shard, partial,
    timing meta) over the oracle codec: same framing, same validation,
    only the kernel under them swapped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Reader, "read_uvarint", o_read_uvarint)
        mp.setattr(Reader, "read_varint", o_read_varint)
        mp.setattr(Grammar, "from_reader", classmethod(o_grammar_from_reader))
        mp.setattr(Grammar, "write_to", o_grammar_write_to)
        # ``packing`` itself too: its column pair (the CST's table) sits
        # on the same kernels
        for mod in (packing, cst_mod, shard_mod, timing_mod, tf_mod,
                    grammar_mod):
            for name, fn in (("read_value", o_read_value),
                             ("write_value", o_write_value),
                             ("read_varints", o_read_varints),
                             ("write_varints", o_write_varints),
                             ("write_uvarint", o_write_uvarint)):
                if hasattr(mod, name):
                    mp.setattr(mod, name, fn)
        yield


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raise", error class)``."""
    try:
        return "ok", fn(*args)
    except TraceFormatError as e:
        return "raise", type(e)


# -- real inputs ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def amr_trace() -> bytes:
    """An irregular, lossy-timing trace: a large CST, one grammar per
    rank, both timing sections and the meta section."""
    tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=True))
    make("flash_cellular", 9, iters=4).run(seed=7, tracer=tracer)
    return tracer.result.trace_bytes


@pytest.fixture(scope="module")
def partials() -> list:
    out: list = []
    tracer = ChunkingTracer(out.append, chunk_calls=40, timing_mode="lossy")
    make("flash_cellular", 9, iters=4).run(seed=7, tracer=tracer, noise=0.05)
    return out


def _resealed(blob: bytes, start: int, sections: list, index: int,
              payload: bytes) -> bytes:
    """*blob* with section *index* carrying *payload* behind a valid
    CRC; *sections* are ``(start, end)`` spans of whole sections."""
    out = bytearray(blob[:start])
    for i, (a, b) in enumerate(sections):
        if i == index:
            emit_section(out, payload, compress=False)
        else:
            out += blob[a:b]
    return bytes(out)


def _sections(blob: bytes, pos: int) -> list:
    """``(start, payload start, end)`` of every section from *pos* on."""
    r = Reader(blob, pos)
    out = []
    while not r.exhausted:
        start = r.pos
        n = r.read_uvarint()
        r.read_bytes(4 + n)
        out.append((start, r.pos - n, r.pos))
    return out


# -- values ---------------------------------------------------------------------------

_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 64, 2 ** 64),
    st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    st.integers(min_value=-70, max_value=70),
    st.text(max_size=12),
    st.floats(allow_nan=False),
)
_value = st.recursive(
    _scalar, lambda kids: st.lists(kids, max_size=5).map(tuple),
    max_leaves=25)


def _nest(v, depth: int):
    for _ in range(depth):
        v = (v,)
    return v


class TestValuesAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_value, st.integers(0, MAX_VALUE_DEPTH - 8))
    def test_same_bytes_same_round_trip(self, v, extra_depth):
        v = _nest(v, extra_depth)
        blob = pack_value(v)
        want = bytearray()
        o_write_value(want, v)
        assert blob == bytes(want)
        r, ro = Reader(blob + b"\x07"), Reader(blob + b"\x07")
        got = read_value(r)
        assert got == o_read_value(ro) == v
        assert repr(got) == repr(v)     # True is not 1, 1.0 is not 1
        assert r.pos == ro.pos == len(blob)

    def test_to_the_depth_bound(self):
        deepest = _nest((1, "x"), MAX_VALUE_DEPTH - 1)
        blob = pack_value(deepest)
        assert read_value(Reader(blob)) == o_read_value(Reader(blob))
        too_deep = bytearray()
        o_write_value(too_deep, _nest(0, MAX_VALUE_DEPTH + 1))
        assert o_read_value(Reader(bytes(too_deep)))    # the oracle recursed
        with pytest.raises(CorruptTraceError):
            read_value(Reader(bytes(too_deep)))

    @settings(max_examples=200, deadline=None)
    @given(_value, st.data())
    def test_damaged_values_fail_alike(self, v, data):
        blob = bytearray(pack_value(v))
        cut = data.draw(st.integers(0, len(blob)))
        if blob and data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] ^= 1 << data.draw(st.integers(0, 7))
        damaged = bytes(blob[:cut])
        assert _outcome(read_value, Reader(damaged)) == \
            _outcome(o_read_value, Reader(damaged))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-64, 63), st.integers(-2 ** 20, 2 ** 20),
        st.integers(-2 ** 200, 2 ** 200))), st.booleans())
    def test_bulk_varints_equal_the_scalar_loop(self, ints, signed):
        if not signed:
            ints = [abs(n) for n in ints]
        out, want = bytearray(), bytearray()
        write_varints(out, ints, signed)
        o_write_varints(want, ints, signed)
        assert out == want
        r, ro = Reader(bytes(out)), Reader(bytes(out))
        assert read_varints(r, len(ints), signed) == \
            o_read_varints(ro, len(ints), signed) == ints
        assert r.pos == ro.pos
        for cut in range(len(out)):
            assert _outcome(read_varints, Reader(bytes(out[:cut])),
                            len(ints), signed)[0] == "raise"


class TestVarintKernel:
    """The bulk reader's multi-byte loop (two- and three-byte forms in
    line, a call only beyond) against one ``Reader.read_uvarint`` per
    value, at every width the format allows."""

    #: the smallest and the largest value of every encoded width
    EDGES = [v for w in range(1, MAX_VARINT_BYTES + 1)
             for v in ((1 << 7 * (w - 1)) if w > 1 else 0,
                       (1 << 7 * w) - 1)]

    @staticmethod
    def _scalar(blob: bytes, n: int, signed: bool):
        r = Reader(blob)
        return [r.read_varint() if signed else r.read_uvarint()
                for _ in range(n)], r.pos

    def test_every_width_in_every_neighbourhood(self):
        assert len(self.EDGES) == 2 * MAX_VARINT_BYTES
        for v in self.EDGES:
            # alone, and between one-, two- and three-byte neighbours
            # (which also keeps the array off the all-single-byte slice)
            for ints in ([v], [v, 300], [5, v, 70000], [70000, 300, v, v]):
                out = bytearray()
                write_varints(out, ints, signed=False)
                assert len(out) == sum(
                    max(1, -(-n.bit_length() // 7)) for n in ints)
                blob = bytes(out)
                for signed in (False, True):
                    r = Reader(blob + b"\x07")
                    got = read_varints(r, len(ints), signed)
                    assert (got, r.pos) == self._scalar(blob, len(ints),
                                                        signed)
                    if not signed:
                        assert got == ints
                # every truncation point is a truncation, and says so
                # for the same array the scalar reader gives up on
                for cut in range(len(blob)):
                    with pytest.raises(TruncatedTraceError):
                        read_varints(Reader(blob[:cut]), len(ints),
                                     signed=False)
                    with pytest.raises(TruncatedTraceError):
                        self._scalar(blob[:cut], len(ints), False)

    @pytest.mark.parametrize("lead", [b"", b"\x05", b"\xac\x02",
                                      b"\xf0\xa2\x04"])
    def test_over_long_is_corrupt_not_truncated(self, lead):
        """``MAX_VARINT_BYTES`` of continuation is refused as corruption
        wherever it sits in the array; one byte fewer, then the end of
        the buffer, is still a truncation."""
        n = (1 if lead else 0) + 1
        too_long = lead + b"\x80" * MAX_VARINT_BYTES + b"\x01"
        for read in (lambda b: read_varints(Reader(b), n, signed=False),
                     lambda b: self._scalar(b, n, False)):
            with pytest.raises(CorruptTraceError, match="longer than"):
                read(too_long)
            with pytest.raises(TruncatedTraceError):
                read(too_long[:-2])
            with pytest.raises(TruncatedTraceError):
                read(lead + b"\x80" * MAX_VARINT_BYTES)
        longest = lead + b"\x80" * (MAX_VARINT_BYTES - 1) + b"\x01"
        assert read_varints(Reader(longest), n, signed=False)[-1] == \
            1 << 7 * (MAX_VARINT_BYTES - 1)
        with pytest.raises(ValueError, match="exceeds"):
            write_varints(bytearray(), [300, 1 << 7 * MAX_VARINT_BYTES],
                          signed=False)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2 ** 7), st.integers(2 ** 7 - 2, 2 ** 14 + 2),
        st.integers(2 ** 14 - 2, 2 ** 21 + 2),
        st.integers(0, 2 ** (7 * MAX_VARINT_BYTES) - 1)), min_size=1),
        st.booleans(), st.data())
    def test_differential_against_the_scalar_reader(self, ints, signed, data):
        out = bytearray()
        write_varints(out, ints, signed=False)
        blob = bytes(out)
        r = Reader(blob)
        assert (read_varints(r, len(ints), signed), r.pos) == \
            self._scalar(blob, len(ints), signed)
        damaged = bytearray(blob[:data.draw(st.integers(0, len(blob)))])
        if damaged and data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(damaged) - 1))
            damaged[at] ^= 1 << data.draw(st.integers(0, 7))
        damaged = bytes(damaged)
        assert _outcome(read_varints, Reader(damaged), len(ints), signed) \
            == _outcome(lambda: self._scalar(damaged, len(ints), signed)[0])


# -- whole sections ------------------------------------------------------------------


class TestSectionsAgainstOracle:
    def test_trace_reads_and_writes_alike(self, amr_trace):
        trace = TraceFile.from_bytes(amr_trace)
        plain = trace.to_bytes(compress=False)
        assert trace.to_bytes() == amr_trace
        with oracle_codec():
            assert TraceFile.from_bytes(amr_trace) == trace
            assert TraceFile.from_bytes(plain) == trace
            assert trace.to_bytes() == amr_trace
            assert trace.to_bytes(compress=False) == plain

    def test_partials_read_and_write_alike(self, partials):
        assert len(partials) > 4
        for p in partials:
            blob = p.to_bytes(compress=False)
            with oracle_codec():
                assert p.to_bytes(compress=False) == blob
                assert ShardPartial.from_bytes(blob) == p
            assert ShardPartial.from_bytes(blob) == p

    @pytest.mark.parametrize("name", ["cst", "cfg", "timing_duration",
                                      "timing_meta"])
    def test_mutated_trace_section_fails_alike(self, amr_trace, name):
        plain = TraceFile.from_bytes(amr_trace).to_bytes(compress=False)
        spans = section_spans(plain)
        names = [n[:-4] for n in spans if n.endswith(".len")]
        whole = [(spans[f"{n}.len"][0], spans[f"{n}.payload"][1])
                 for n in names]
        a, b = spans[f"{name}.payload"]
        self._attack(plain, plain[a:b], TraceFile.from_bytes,
                     lambda mut: _resealed(plain, whole[0][0], whole,
                                           names.index(name), mut))

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_mutated_partial_section_fails_alike(self, partials, index):
        # a flush record is one section; aim at a quarter of it at a
        # time: head column and signatures first, grammar ints last
        flush = sorted(partials, key=lambda p: len(p.new_sigs))[-3:]
        blob = write_flush(sorted(flush, key=lambda p: p.rank),
                           compress=False)
        [(start, a, b)] = _sections(blob, 6)
        quarter = (b - a) // 4
        self._attack(blob, blob[a:b], read_flush,
                     lambda mut: _resealed(blob, start, [(start, b)], 0, mut),
                     (index * quarter, (index + 1) * quarter))

    @staticmethod
    def _attack(blob, payload, parse, reseal, middle=None):
        assert parse(reseal(payload)) == parse(blob)
        agreed = {"ok": 0, "raise": 0}
        for desc, mut in iter_blob_mutations(
                payload, {"payload": (0, len(payload)),
                          "middle": middle or (len(payload) // 2,
                                               len(payload))},
                seed=14, n_random=120):
            sealed = reseal(mut)
            got = _outcome(parse, sealed)
            with oracle_codec():
                want = _outcome(parse, sealed)
            assert got == want, desc
            agreed[got[0]] += 1
        assert agreed["raise"] > 20


# -- how the work is done ---------------------------------------------------------------


class TestOnePass:
    def test_from_bytes_reads_sections_not_bytes(self, monkeypatch):
        tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=True))
        make("flash_cellular", 27, iters=6).run(seed=3, tracer=tracer)
        blob = tracer.result.trace_bytes
        trace = TraceFile.from_bytes(blob)
        n_entries = len(trace.cst.sigs)
        n_rules = sum(len(c.final.rules) for c in (
            trace.cfg, trace.timing_duration, trace.timing_interval))
        assert n_entries > 200 and n_rules > 100

        calls = {"read_value": 0, "scalar": 0}

        def counting_read_value(r):
            calls["read_value"] += 1
            return read_value(r)

        scalar = Reader.read_uvarint

        def counting_uvarint(self):
            calls["scalar"] += 1
            return scalar(self)

        monkeypatch.setattr(packing, "read_value", counting_read_value)
        monkeypatch.setattr(timing_mod, "read_value", counting_read_value)
        monkeypatch.setattr(Reader, "read_uvarint", counting_uvarint)
        decoder = TraceDecoder.from_bytes(blob)
        assert decoder.trace == trace
        # the call-per-byte entry point is gone, not merely unused
        assert not hasattr(Reader, "read_byte")
        # one read_value call for the timing meta's one tuple and none
        # for the CST: since format v3 it is read by columns, and this
        # table's are all ints (tests/test_cst_table_oracle.py counts
        # its scalar varints per column)
        assert calls["read_value"] == 1
        # scalar varints: a few per CST column and one token count per
        # grammar rule, plus per-section framing; never one per CST
        # entry or per grammar token
        n_tokens = sum(c.final.n_tokens for c in (
            trace.cfg, trace.timing_duration, trace.timing_interval))
        assert calls["scalar"] <= n_entries // 2 + n_rules
        assert n_tokens > 8 * n_rules

    def test_decoder_expands_what_the_oracle_parsed(self, amr_trace):
        with oracle_codec():
            want = TraceDecoder.from_bytes(amr_trace).all_terminals()
        assert TraceDecoder.from_bytes(amr_trace).all_terminals() == want
        assert want and all(want)


class TestDecodeBench:
    def test_decode_bench_reports_the_same_runner_ratio(self):
        import json
        from pathlib import Path
        from repro.bench import run_benchmark
        from repro.bench.decode import LOSSY_FAMILIES
        doc = run_benchmark("decode", repeats=2, warmup=0, params={
            "families": ["stencil2d", "flash_cellular"], "nprocs": 4})
        metrics = doc["metrics"]
        for fam in ("stencil2d", "flash_cellular"):
            assert metrics[f"{fam}.decode_ms"] == pytest.approx(
                metrics[f"{fam}.parse_ms"] + metrics[f"{fam}.expand_ms"])
            # the size of what was parsed: an exact count, IQR zero
            assert metrics[f"{fam}.trace_bytes"] > 100
            assert doc["stats"][f"{fam}.trace_bytes"]["iqr"] == 0
        ratios = [metrics[f"{fam}.decode_over_null"]
                  for fam in ("stencil2d", "flash_cellular")]
        assert 0 < min(ratios) <= metrics["decode_over_null"] <= max(ratios)
        # CI gates same-runner ratios and exact byte counts only: no
        # absolute-millisecond metric in the checked-in baseline, every
        # gated metric is one the default run emits, and the irregular
        # family is among them
        baseline = json.loads(
            (Path(__file__).parent.parent / "benchmarks" / "baselines"
             / "decode-ci.json").read_text())["metrics"]
        assert baseline and all(
            name.endswith(("decode_over_null", ".trace_bytes"))
            for name in baseline)
        full = run_benchmark("decode", repeats=1, warmup=0,
                             params={"nprocs": 2})["metrics"]
        assert set(baseline) <= set(full)
        assert all(f"{fam}.decode_over_null" in baseline
                   and f"{fam}.trace_bytes" in baseline
                   for fam in LOSSY_FAMILIES)


def test_packing_has_one_reader_and_one_writer():
    """No second code path: the module exports exactly one value reader,
    one value writer, one varint reader family and — the only entry
    points format v3 added — one column writer and one column reader."""
    public = {n for n in vars(packing) if not n.startswith("_")
              and callable(getattr(packing, n))
              and getattr(getattr(packing, n), "__module__", "")
              == packing.__name__}
    assert public == {"zigzag", "unzigzag", "write_uvarint", "write_varint",
                      "write_varints", "Reader", "read_varints",
                      "write_value", "read_value", "pack_value",
                      "write_column", "read_column"}
