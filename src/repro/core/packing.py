"""Compact binary packing: varints and a tagged value serializer.

Pilgrim stores grammars "internally as an array of integers" and writes
binary trace files; all size numbers this reproduction reports are real
bytes produced by this module (no pickle bloat, no JSON).  Integers use
LEB128 varints with zigzag signing; structured signature values use a
small tag-prefixed encoding closed under the value shapes the encoder
emits (ints, strings, booleans, None, floats and tuples thereof).

The codec is one-pass: a value, or an array of *n* varints, costs one
loop over the buffer with a local cursor — no call per byte and no
recursion.  ``MAX_VARINT_BYTES`` and ``MAX_VALUE_DEPTH`` are part of the
reader's contract (:class:`CorruptTraceError` beyond either; the writer
refuses to produce such bytes).
"""

from __future__ import annotations

from itertools import chain, islice
from struct import Struct, error as StructError
from typing import Any, Optional, Sequence

from .errors import CorruptTraceError, TruncatedTraceError

#: longest varint accepted (448 payload bits): all-continuation garbage
#: costs a bounded big-int accumulation instead of a quadratic one
MAX_VARINT_BYTES = 64
#: deepest tuple nesting accepted (real signatures reach 4)
MAX_VALUE_DEPTH = 64


def zigzag(n: int) -> int:
    # NB: the C idiom ``(n << 1) ^ (n >> 63)`` is wrong on Python's
    # unbounded ints once n <= -2**63 (the arithmetic shift no longer
    # yields -1); the closed form below holds for any magnitude.
    return -2 * n - 1 if n < 0 else 2 * n


def unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def write_uvarint(out: bytearray, n: int) -> None:
    if n < 0x80:
        if n < 0:
            raise ValueError(f"uvarint of negative {n}")
        out.append(n)
        return
    if n >> 7 * MAX_VARINT_BYTES:
        raise ValueError(f"{n.bit_length()}-bit integer exceeds a "
                         f"{MAX_VARINT_BYTES}-byte varint")
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def write_varint(out: bytearray, n: int) -> None:
    write_uvarint(out, zigzag(n))


def write_varints(out: bytearray, ints: Sequence[int],
                  signed: bool = True) -> None:
    """Append *ints* as varints (zigzag-coded if *signed*) — one C-speed
    ``extend`` when each fits a single byte, as grammar arrays mostly do,
    one loop with no call per value otherwise."""
    if not ints:
        return
    if signed:
        ints = [-2 * n - 1 if n < 0 else 2 * n for n in ints]
    top = max(ints)
    if min(ints) < 0:
        raise ValueError(f"uvarint of negative {min(ints)}")
    if top < 0x80:
        out.extend(ints)
        return
    if top >> 7 * MAX_VARINT_BYTES:
        raise ValueError(f"{top.bit_length()}-bit integer exceeds a "
                         f"{MAX_VARINT_BYTES}-byte varint")
    append = out.append
    for n in ints:
        while n >= 0x80:
            append(n & 0x7F | 0x80)
            n >>= 7
        append(n)


def _uvarint_tail(data: bytes, pos: int, z: int) -> tuple[int, int]:
    """Finish the varint whose first byte *z* (continuation bit set) sits
    just before *pos*: ``(value, pos past it)``.  Running off the buffer
    is an ``IndexError`` the caller reports as truncation."""
    z &= 0x7F
    for shift in range(7, 7 * MAX_VARINT_BYTES, 7):
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if b < 0x80:
            return z, pos
    if pos == len(data):    # cut exactly at the bound: still a truncation
        raise IndexError
    raise CorruptTraceError(f"varint still open at offset {pos} is longer "
                            f"than {MAX_VARINT_BYTES} bytes")


def _truncated(what: str, at: int, data: bytes) -> TruncatedTraceError:
    return TruncatedTraceError(f"{what} starting at byte {at} runs past "
                               f"the end of the {len(data)}-byte buffer")


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
        try:
            z = data[pos]
            if z < 0x80:
                self.pos = pos + 1
            else:
                z, self.pos = _uvarint_tail(data, pos + 1, z)
            return z
        except IndexError:
            raise _truncated("varint", pos, data) from None

    def read_varint(self) -> int:
        return unzigzag(self.read_uvarint())

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


def read_varints(r: Reader, n: int, signed: bool = True) -> list[int]:
    """The next *n* varints in one call (zigzag-decoded if *signed*) — a
    C-speed slice when every one of them is a single byte, else one loop
    with the two- and three-byte forms and the zigzag in line (nanosecond
    deltas are all of those) and a call only for what is longer."""
    data, pos = r.data, r.pos
    out = data[pos:pos + n]
    if len(out) == n and (not n or max(out) < 0x80):
        r.pos = pos + n
        return [(z >> 1) ^ -(z & 1) for z in out] if signed else list(out)
    out = []
    append = out.append
    try:
        for _ in range(n):
            z = data[pos]
            if z < 0x80:
                pos += 1
            else:
                b = data[pos + 1]
                if b < 0x80:
                    z += (b << 7) - 0x80
                    pos += 2
                else:
                    c = data[pos + 2]
                    if c < 0x80:
                        z += (b << 7) + (c << 14) - 0x4080
                        pos += 3
                    else:
                        z, pos = _uvarint_tail(data, pos + 1, z)
            append((z >> 1) ^ -(z & 1) if signed else z)
    except IndexError:
        raise _truncated(f"{n}-varint array", r.pos, data) from None
    r.pos = pos
    return out


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
    """Serialize one (possibly nested) signature value: one loop, with a
    stack of the open tuples' iterators instead of recursion."""
    stack: list = []
    it = iter((v,))
    while True:
        for v in it:
            if v is None:
                out.append(_T_NONE)
            elif v is True:
                out.append(_T_TRUE)
            elif v is False:
                out.append(_T_FALSE)
            elif isinstance(v, int):
                out.append(_T_INT)
                z = -2 * v - 1 if v < 0 else 2 * v
                if z < 0x80:
                    out.append(z)
                else:
                    write_uvarint(out, z)
            elif isinstance(v, str):
                raw = v.encode("utf-8")
                out.append(_T_STR)
                write_uvarint(out, len(raw))
                out.extend(raw)
            elif isinstance(v, tuple):
                if len(stack) >= MAX_VALUE_DEPTH:
                    raise ValueError(
                        f"value nests past {MAX_VALUE_DEPTH} tuples")
                out.append(_T_TUPLE)
                write_uvarint(out, len(v))
                stack.append(it)
                it = iter(v)
                break
            elif isinstance(v, float):
                out.append(_T_FLOAT)
                out.extend(_F64.pack(v))
            else:
                raise TypeError(
                    f"unsupported signature value type {type(v)!r}")
        else:
            if not stack:
                return
            it = stack.pop()


def read_value(r: Reader) -> Any:
    """Parse one (possibly nested) value in a single pass: a local
    cursor, and a stack of the open tuples instead of recursion."""
    data, pos = r.data, r.pos
    end = len(data)
    stack: list = []            # the enclosing tuples: (items, missing)
    items, missing = None, 0    # the innermost open tuple
    try:
        while True:
            tag = data[pos]
            pos += 1
            if tag == _T_INT:
                z = data[pos]
                pos += 1
                if z >= 0x80:
                    z, pos = _uvarint_tail(data, pos, z)
                v = (z >> 1) ^ -(z & 1)
            elif tag == _T_TUPLE or tag == _T_STR:  # a count, then the body
                z = data[pos]
                pos += 1
                if z >= 0x80:
                    z, pos = _uvarint_tail(data, pos, z)
                if z > end - pos:
                    # a tuple element costs at least its tag byte: an
                    # impossible count means the length itself is damaged
                    raise _truncated(f"{z}-element tuple or string", pos, data)
                if tag == _T_STR:
                    try:
                        v = data[pos:pos + z].decode("utf-8")
                    except UnicodeDecodeError as e:
                        raise CorruptTraceError(f"string value at offset "
                                                f"{pos} is not UTF-8: {e}") from None
                    pos += z
                elif z:
                    if len(stack) >= MAX_VALUE_DEPTH:
                        raise CorruptTraceError(f"value at offset {pos} nests "
                                                f"past {MAX_VALUE_DEPTH} tuples")
                    stack.append((items, missing))
                    items, missing = [], z
                    continue
                else:
                    v = ()
            elif tag == _T_NONE:
                v = None
            elif tag == _T_FLOAT:
                v = _F64.unpack_from(data, pos)[0]
                pos += 8
            elif tag == _T_TRUE:
                v = True
            elif tag == _T_FALSE:
                v = False
            else:
                raise CorruptTraceError(
                    f"unknown value tag {tag} at offset {pos - 1}")
            while items is not None:
                items.append(v)
                missing -= 1
                if missing:
                    break
                v = tuple(items)
                items, missing = stack.pop()
            else:
                r.pos = pos
                return v
    except (IndexError, StructError):
        raise _truncated("value", r.pos, data) from None


def pack_value(v: Any) -> bytes:
    out = bytearray()
    write_value(out, v)
    return bytes(out)


# -- columns ---------------------------------------------------------------------
#
# One table column (the values one parameter takes down a group of
# signatures), stored by shape so that like sits next to like and int
# data takes the bulk varint path:
#
#   INT     n signed varints
#   TUPLE   k, then k sub-columns of n values: row i is (c0[i], ..., ck-1[i])
#   LIST    a lengths column (n uvarints), then one sub-column holding the
#           rows' elements end to end
#   VALUES  n tagged values — whatever is not uniformly ints or tuples
#   SAME    j: the column equals the j-th of those written before it for
#           the same rows (the writer of the rows decides when; deflate
#           cannot see that far once columns outgrow its window)

_C_INT = 0
_C_TUPLE = 1
_C_LIST = 2
_C_VALUES = 3
COLUMN_SAME = 4

_INT_ONLY = frozenset((int,))
_TUPLE_ONLY = frozenset((tuple,))
#: value types that equal no value of another type: rows of these alone
#: can be shared by equality
_EXACT = frozenset((int, str, type(None)))
#: equal-width tuples up to this wide are records, stored by position
#: (the encoder's widest is a device pointer); wider ones are vectors
#: that happen to agree on a length
_MAX_RECORD = 4


def write_column(out: bytearray, values: Sequence, depth: int = 0) -> None:
    """Serialize one column of *values*, choosing its shape from one type
    scan per level."""
    kinds = set(map(type, values))
    if kinds <= _INT_ONLY:          # bools are not ``int`` here; empty is
        out.append(_C_INT)
        write_varints(out, values)
    elif kinds == _TUPLE_ONLY:
        if depth >= MAX_VALUE_DEPTH:
            raise ValueError(f"column nests past {MAX_VALUE_DEPTH} levels")
        widths = set(map(len, values))
        if len(widths) == 1 and 0 < min(widths) <= _MAX_RECORD:
            out.append(_C_TUPLE)
            write_uvarint(out, min(widths))
            for sub in zip(*values):
                write_column(out, sub, depth + 1)
        else:
            out.append(_C_LIST)
            write_varints(out, list(map(len, values)), signed=False)
            write_column(out, list(chain.from_iterable(values)), depth + 1)
    else:
        out.append(_C_VALUES)
        for v in values:
            write_value(out, v)


def read_column(r: Reader, n: int, depth: int = 0,
                earlier: Sequence = (), inexact: Optional[list] = None
                ) -> Sequence:
    """The next column of *n* values; *earlier* are the columns a SAME
    may refer to.  Every value of every other shape costs at least one
    byte, so a count the buffer cannot hold is refused before anything
    is allocated.

    Equal rows of a TUPLE or LIST column are one object (a column
    repeats few distinct rows many times), unless the rows hold values
    that equal a value of another type (``True == 1 == 1.0``): a column
    of such values says so by appending to *inexact*, its parent's."""
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
        values = [read_value(r) for _ in range(n)]
        if inexact is not None and not set(map(type, values)) <= _EXACT:
            inexact.append(tag)
        return values
    if tag != _C_TUPLE and tag != _C_LIST:
        raise CorruptTraceError(f"unknown column tag {tag} at offset "
                                f"{r.pos - 1}")
    if depth >= MAX_VALUE_DEPTH:
        raise CorruptTraceError(f"column at offset {r.pos} nests past "
                                f"{MAX_VALUE_DEPTH} levels")
    below: list = []
    if tag == _C_TUPLE:
        k = r.read_uvarint()
        if not 0 < k <= r.remaining():
            raise CorruptTraceError(f"tuple column claims {k} positions "
                                    f"with {r.remaining()} bytes left")
        rows = zip(*[read_column(r, n, depth + 1, inexact=below)
                     for _ in range(k)])
    else:
        lens = read_varints(r, n, signed=False)
        flat = iter(read_column(r, sum(lens), depth + 1, inexact=below))
        rows = (tuple(islice(flat, k)) for k in lens)
    if below:
        if inexact is not None:
            inexact.append(tag)
        return list(rows)
    distinct: dict = {}
    return [distinct.setdefault(row, row) for row in rows]
