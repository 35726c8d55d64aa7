"""Unit + property tests for the varint/tagged-value serializer."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import (CorruptTraceError, TraceFormatError,
                               TruncatedTraceError)
from repro.core.packing import (MAX_VALUE_DEPTH, MAX_VARINT_BYTES, Reader,
                                pack_value, read_value, read_varints,
                                unzigzag, write_uvarint, write_varint,
                                write_varints, zigzag)


class TestZigzag:
    @pytest.mark.parametrize("n", [0, 1, -1, 2, -2, 63, -64, 2**31, -2**31,
                                   2**63, -2**63, 2**64, -(2**64),
                                   -(2**64) - 1, 2**200, -(2**200)])
    def test_roundtrip(self, n):
        assert unzigzag(zigzag(n)) == n

    def test_small_negative_small_encoding(self):
        # zigzag keeps small-magnitude ints small
        assert zigzag(-1) == 1
        assert zigzag(1) == 2
        assert zigzag(0) == 0

    def test_interleaving_order(self):
        # the canonical 0, -1, 1, -2, 2, ... interleaving must hold for
        # any magnitude — the old C 64-bit idiom broke it below -2**63
        assert zigzag(-(2**64)) == 2**65 - 1
        assert zigzag(2**64) == 2**65

    @given(st.integers(min_value=-2**62, max_value=2**62))
    def test_roundtrip_property(self, n):
        assert unzigzag(zigzag(n)) == n

    @given(st.integers(min_value=-2**300, max_value=2**300))
    def test_roundtrip_property_huge(self, n):
        # arbitrary-precision negatives: no 64-bit assumptions anywhere
        assert unzigzag(zigzag(n)) == n
        out = bytearray()
        write_varint(out, n)
        assert Reader(bytes(out)).read_varint() == n


class TestVarint:
    def test_single_byte_values(self):
        out = bytearray()
        write_uvarint(out, 127)
        assert len(out) == 1

    def test_multibyte(self):
        out = bytearray()
        write_uvarint(out, 128)
        assert len(out) == 2

    def test_negative_uvarint_rejected(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_reader_sequence(self):
        out = bytearray()
        values = [0, 1, 300, 2**40, 7]
        for v in values:
            write_uvarint(out, v)
        r = Reader(bytes(out))
        assert [r.read_uvarint() for _ in values] == values
        assert r.exhausted

    def test_signed_roundtrip(self):
        out = bytearray()
        values = [0, -1, 1, -1000, 1000, -2**40]
        for v in values:
            write_varint(out, v)
        r = Reader(bytes(out))
        assert [r.read_varint() for _ in values] == values

    @given(st.lists(st.integers(min_value=-2**62, max_value=2**62)),
           st.booleans())
    def test_bulk_varints_roundtrip(self, values, signed):
        if not signed:
            values = [abs(v) for v in values]
        out = bytearray()
        write_varints(out, values, signed)
        r = Reader(bytes(out))
        assert read_varints(r, len(values), signed) == values
        assert r.exhausted

    def test_bulk_varints_single_byte_fast_path(self):
        # all-single-byte arrays take the C-speed slice; same values
        out = bytearray()
        write_varints(out, list(range(-64, 64)))
        assert len(out) == 128
        assert read_varints(Reader(bytes(out)), 128) == list(range(-64, 64))
        assert read_varints(Reader(b""), 0) == []

    def test_bulk_varints_truncated(self):
        for blob in (b"\x01\x02", b"\x01\x80", b""):
            r = Reader(blob)
            with pytest.raises(TruncatedTraceError):
                read_varints(r, 3)
            assert r.pos == 0

    def test_bulk_negative_unsigned_rejected(self):
        with pytest.raises(ValueError):
            write_varints(bytearray(), [3, -1], signed=False)

    def test_truncated_read_bytes(self):
        r = Reader(b"ab")
        with pytest.raises(ValueError):
            r.read_bytes(3)

    def test_truncated_read_bytes_structured(self):
        with pytest.raises(TruncatedTraceError):
            Reader(b"ab").read_bytes(3)

    def test_uvarint_on_empty_buffer(self):
        with pytest.raises(TruncatedTraceError):
            Reader(b"").read_uvarint()

    def test_uvarint_truncated_mid_varint(self):
        # continuation bit set on the last byte: the promised next byte
        # does not exist — must be a structured error, not IndexError
        with pytest.raises(TruncatedTraceError):
            Reader(b"\x80\x80").read_uvarint()

    def test_malformed_varint_longer_than_buffer(self):
        # all-continuation garbage: the shift loop must stop at the
        # buffer end instead of running unbounded
        with pytest.raises(TruncatedTraceError):
            Reader(b"\xff" * 64).read_uvarint()

    def test_varint_longer_than_bound_is_corrupt(self):
        # the varint bomb: continuation bytes past MAX_VARINT_BYTES are
        # corruption, in bounded time, in the scalar and bulk reader alike
        ok = b"\xff" * (MAX_VARINT_BYTES - 1) + b"\x7f"
        assert Reader(ok).read_uvarint() == 2 ** (7 * MAX_VARINT_BYTES) - 1
        bomb = b"\xff" * 320_000 + b"\x00"
        for read, blob in ((Reader.read_uvarint, bomb),
                           (Reader.read_varint, bomb),
                           (lambda r: read_varints(r, 1), bomb),
                           (read_value, b"\x01" + bomb)):
            with pytest.raises(CorruptTraceError):
                read(Reader(blob))

    def test_writer_refuses_what_the_reader_would(self):
        out = bytearray()
        write_uvarint(out, 2 ** (7 * MAX_VARINT_BYTES) - 1)
        assert len(out) == MAX_VARINT_BYTES
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), 2 ** (7 * MAX_VARINT_BYTES))

    def test_reader_position_unchanged_on_truncation(self):
        r = Reader(b"\x80")
        with pytest.raises(TruncatedTraceError):
            r.read_uvarint()
        assert r.pos == 0


# strategy for signature-shaped values: nested tuples of scalars
_scalar = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=20),
    st.floats(allow_nan=False, allow_infinity=False),
)
_value = st.recursive(_scalar,
                      lambda children: st.tuples(children, children),
                      max_leaves=12)


class TestTaggedValues:
    @pytest.mark.parametrize("v", [
        None, True, False, 0, -5, 12345, "", "hello", "üñí",
        (), (1, 2), (None, ("a", (True, -9))), 3.25,
    ])
    def test_roundtrip_examples(self, v):
        r = Reader(pack_value(v))
        assert read_value(r) == v
        assert r.exhausted

    @given(_value)
    def test_roundtrip_property(self, v):
        assert read_value(Reader(pack_value(v))) == v

    def test_bool_is_not_int_after_decode(self):
        assert read_value(Reader(pack_value(True))) is True
        assert read_value(Reader(pack_value(1))) == 1
        assert read_value(Reader(pack_value(1))) is not True

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            pack_value([1, 2])  # lists are not part of the closed set

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            read_value(Reader(b"\xff"))

    def test_unknown_tag_is_structured(self):
        with pytest.raises(CorruptTraceError):
            read_value(Reader(b"\xff"))

    def test_value_on_empty_buffer(self):
        with pytest.raises(TruncatedTraceError):
            read_value(Reader(b""))

    @pytest.mark.parametrize("v", ["hello", (1, "ab", None), 3.25, 12345])
    def test_truncated_value_every_prefix(self, v):
        blob = pack_value(v)
        for cut in range(len(blob)):
            with pytest.raises(TraceFormatError):
                read_value(Reader(blob[:cut]))

    def test_tuple_count_exceeding_buffer(self):
        # tag 3 (tuple) claiming 2**20 elements in a 3-byte buffer
        blob = bytes([3]) + b"\x80\x80\x40"
        with pytest.raises(TruncatedTraceError):
            read_value(Reader(blob))

    def test_invalid_utf8_string(self):
        blob = bytes([2, 2, 0xC0, 0x00])  # _T_STR, len 2, bad UTF-8
        with pytest.raises(CorruptTraceError):
            read_value(Reader(blob))

    def test_nesting_bound(self):
        def nest(depth):
            v = 7
            for _ in range(depth):
                v = (v,)
            return v
        deepest = nest(MAX_VALUE_DEPTH)
        assert read_value(Reader(pack_value(deepest))) == deepest
        with pytest.raises(ValueError):
            pack_value(nest(MAX_VALUE_DEPTH + 1))
        # the depth bomb: deterministic CorruptTraceError, never a
        # RecursionError that depends on the caller's stack depth
        with pytest.raises(CorruptTraceError):
            read_value(Reader(b"\x03\x01" * 5000 + b"\x00"))

    def test_reader_position_after_nested_value(self):
        blob = pack_value((1, ("ab", 2.5), ())) + b"\x00"
        r = Reader(blob)
        assert read_value(r) == (1, ("ab", 2.5), ())
        assert r.pos == len(blob) - 1
