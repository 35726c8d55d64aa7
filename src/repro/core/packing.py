"""Compact binary packing: varints and a tagged value serializer.

Pilgrim stores grammars "internally as an array of integers" and writes
binary trace files; all size numbers this reproduction reports are real
bytes produced by this module (no pickle bloat, no JSON).  Integers use
LEB128 varints with zigzag signing; structured signature values use a
small tag-prefixed encoding closed under the value shapes the encoder
emits (ints, strings, booleans, None, and tuples thereof).
"""

from __future__ import annotations

from struct import Struct
from typing import Any, Iterable

from .errors import CorruptTraceError, TruncatedTraceError


def zigzag(n: int) -> int:
    # NB: the C idiom ``(n << 1) ^ (n >> 63)`` is wrong on Python's
    # unbounded ints once n <= -2**63 (the arithmetic shift no longer
    # yields -1); the closed form below holds for any magnitude.
    return -2 * n - 1 if n < 0 else 2 * n


def unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def write_uvarint(out: bytearray, n: int) -> None:
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


def write_varint(out: bytearray, n: int) -> None:
    write_uvarint(out, zigzag(n))


class Reader:
    """Sequential reader over packed bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)

    def read_uvarint(self) -> int:
        data, pos = self.data, self.pos
        end = len(data)
        shift = 0
        result = 0
        while True:
            if pos >= end:
                # also the guard for a malformed varint whose continuation
                # bits run longer than the buffer: the loop can never
                # shift past the data that actually exists
                raise TruncatedTraceError(
                    f"varint starting at byte {self.pos} runs past the "
                    f"end of the {end}-byte buffer")
            b = data[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        self.pos = pos
        return result

    def read_varint(self) -> int:
        return unzigzag(self.read_uvarint())

    def read_byte(self) -> int:
        if self.pos >= len(self.data):
            raise TruncatedTraceError(
                f"expected a byte at offset {self.pos}, buffer has "
                f"{len(self.data)}")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def read_bytes(self, n: int) -> bytes:
        chunk = self.data[self.pos:self.pos + n]
        if len(chunk) != n:
            raise TruncatedTraceError(
                f"expected {n} bytes at offset {self.pos}, buffer has "
                f"{len(self.data) - self.pos} left")
        self.pos += n
        return chunk

    def remaining(self) -> int:
        return len(self.data) - self.pos


# -- tagged values ---------------------------------------------------------------

_T_NONE = 0
_T_INT = 1
_T_STR = 2
_T_TUPLE = 3
_T_TRUE = 4
_T_FALSE = 5
_T_FLOAT = 6

_F64 = Struct("<d")


def write_value(out: bytearray, v: Any) -> None:
    """Serialize one (possibly nested) signature value."""
    if v is None:
        out.append(_T_NONE)
    elif v is True:
        out.append(_T_TRUE)
    elif v is False:
        out.append(_T_FALSE)
    elif isinstance(v, int):
        out.append(_T_INT)
        write_varint(out, v)
    elif isinstance(v, str):
        raw = v.encode("utf-8")
        out.append(_T_STR)
        write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(v, tuple):
        out.append(_T_TUPLE)
        write_uvarint(out, len(v))
        for item in v:
            write_value(out, item)
    elif isinstance(v, float):
        out.append(_T_FLOAT)
        out.extend(_F64.pack(v))
    else:
        raise TypeError(f"unsupported signature value type {type(v)!r}")


def read_value(r: Reader) -> Any:
    tag = r.read_byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.read_varint()
    if tag == _T_STR:
        n = r.read_uvarint()
        raw = r.read_bytes(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptTraceError(
                f"string value at offset {r.pos - n} is not UTF-8: "
                f"{e}") from None
    if tag == _T_TUPLE:
        n = r.read_uvarint()
        if n > r.remaining():
            # every element costs at least its tag byte; an impossible
            # count means the length field itself is damaged — fail now
            # instead of looping toward the inevitable
            raise TruncatedTraceError(
                f"tuple of {n} elements at offset {r.pos} exceeds the "
                f"{r.remaining()} bytes left")
        return tuple(read_value(r) for _ in range(n))
    if tag == _T_FLOAT:
        return _F64.unpack(r.read_bytes(8))[0]
    raise CorruptTraceError(f"unknown value tag {tag} at offset {r.pos - 1}")


def pack_value(v: Any) -> bytes:
    out = bytearray()
    write_value(out, v)
    return bytes(out)


def pack_ints(ints: Iterable[int]) -> bytes:
    out = bytearray()
    for n in ints:
        write_varint(out, n)
    return bytes(out)


def unpack_ints(data: bytes) -> list[int]:
    r = Reader(data)
    out = []
    while not r.exhausted:
        out.append(r.read_varint())
    return out
