"""Lossy timing compression (§3.2, evaluated in §4.4 / Fig 10).

Two modes:

* **aggregate** (Pilgrim's default): only per-signature count and mean
  duration, stored in the CST — handled there, nothing here runs.
* **lossy**: per call, the *duration* and the *interval* since the
  previous call with the same signature are kept, both binned into
  exponential buckets ``bin = ceil(log_b x)`` so the relative error is at
  most ``b - 1``.  Intervals use the paper's drift-free adjustment: the
  next interval is measured against the *reconstructed* clock
  ``sum(b^bin_j)``, not the true one, so absolute timestamps recovered in
  post-processing stay within the same relative error bound.

The resulting bin streams become two more Sequitur grammars (one for
durations, one for intervals), exactly as the paper does, through two
:class:`~repro.core.grammar.TermLog` columns their rank drains with its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from math import ceil, inf, log
from typing import Mapping, Optional

from .errors import CorruptTraceError
from .grammar import Grammar, TermLog
from .packing import Reader, read_value, write_value

#: bins are shifted by this offset so Sequitur sees non-negative terminals
BIN_OFFSET = 4096
#: durations/intervals below this are clamped into the lowest bin
_EPS = 1e-12
#: any bin outside ``±BIN_OFFSET``: sends a value to the clamping path
_OUT = BIN_OFFSET + 1


class BinClampWarning(RuntimeWarning):
    """A duration/interval fell outside the representable bin range
    ``base**±BIN_OFFSET`` and was clamped to the boundary bin; the
    documented ``base - 1`` relative-error bound does not hold for that
    value."""


def _raw_bin(x: float, base: float) -> int:
    """Unclamped ``ceil(log_base x)``; infinities (and NaN) land beyond
    the high boundary instead of raising."""
    if x < _EPS:
        x = _EPS
    try:
        return math.ceil(math.log(x) / math.log(base))
    except (OverflowError, ValueError):
        return _OUT


def _warn_clamp(b: int, base: float) -> None:
    # the message deliberately omits the value so the default warning
    # filter dedupes a pathological trace to one line per direction
    kind = "overflow" if b > 0 else "underflow"
    warnings.warn(
        f"timing bin {kind}: |bin| > {BIN_OFFSET} at base {base}; value "
        f"clamped to the boundary bin, the base-1 relative-error bound "
        f"does not hold for it", BinClampWarning, stacklevel=3)


def bin_value(x: float, base: float) -> int:
    """Exponential bin index: ``ceil(log_base x)``.

    Bins outside ``±BIN_OFFSET`` are clamped to the boundary and a
    :class:`BinClampWarning` is emitted, since the clamp aliases extreme
    values and voids the relative-error bound for them.
    """
    b = _raw_bin(x, base)
    if -BIN_OFFSET <= b <= BIN_OFFSET:
        return b
    _warn_clamp(b, base)
    return -BIN_OFFSET if b < 0 else BIN_OFFSET


def unbin_value(b: int, base: float) -> float:
    """Representative value of a bin (its upper edge, so the true value is
    within a factor of ``base`` below it).  A bin past the largest float
    — the top clamp bin at base 1.2 is ``1.2 ** 4096`` — saturates to
    ``math.inf``, in the tracer's reconstructed clock and the decoder's
    alike."""
    try:
        return base ** b
    except OverflowError:
        return math.inf


@dataclass
class TimingMeta:
    """The binning bases a lossy trace was recorded with (§3.2).

    Persisted in the trace so :func:`reconstruct_times` can undo the
    per-function base overrides — without this, reconstruction of a
    trace recorded with ``per_function_base`` silently used the default
    base for every call and produced wrong timestamps.
    """

    base: float = 1.2
    per_function_base: dict[str, float] = field(default_factory=dict)

    def base_for(self, fname: str) -> float:
        return self.per_function_base.get(fname, self.base)

    # -- serialization ------------------------------------------------------------

    def write_to(self, out: bytearray) -> None:
        write_value(out, (float(self.base),
                          tuple(sorted(self.per_function_base.items()))))

    @classmethod
    def read_from(cls, r: Reader) -> "TimingMeta":
        val = read_value(r)
        if (not isinstance(val, tuple) or len(val) != 2
                or isinstance(val[0], bool)
                or not isinstance(val[0], (int, float))
                or not isinstance(val[1], tuple)):
            raise CorruptTraceError("malformed timing-meta section")
        base = float(val[0])
        if not base > 1.0:
            raise CorruptTraceError(
                f"timing-meta base {base} is not > 1.0")
        pfb: dict[str, float] = {}
        for item in val[1]:
            if (not isinstance(item, tuple) or len(item) != 2
                    or not isinstance(item[0], str)
                    or isinstance(item[1], bool)
                    or not isinstance(item[1], (int, float))
                    or not float(item[1]) > 1.0):
                raise CorruptTraceError(
                    "malformed per-function base in timing-meta section")
            pfb[item[0]] = float(item[1])
        return cls(base=base, per_function_base=pfb)


def timing_meta(lossy: bool, base: float,
                per_function_base: Optional[Mapping[str, float]]
                ) -> Optional[TimingMeta]:
    """The bases a run's trace persists, None unless *lossy*: the one
    construction the tracer and the ingest fold share."""
    return TimingMeta(base, dict(per_function_base or {})) if lossy else None


def check_bases(base: float,
                per_function_base: Optional[Mapping[str, float]]) -> None:
    """Refuse a binning base that is not > 1.0, global or per function:
    the log is undefined or non-increasing there, and a trace recorded
    with one is refused by :meth:`TimingMeta.read_from`."""
    if not base > 1.0:
        raise ValueError(f"binning base must exceed 1.0, got {base}")
    for fname, b in (per_function_base or {}).items():
        if not b > 1.0:
            raise ValueError(
                f"binning base for {fname} must exceed 1.0, got {b}")


class TimingCompressor:
    """Per-rank lossy duration/interval compression."""

    def __init__(self, base: float = 1.2,
                 per_function_base: Optional[dict[str, float]] = None,
                 loop_detection: bool = True):
        check_bases(base, per_function_base)
        self.base = base
        #: §3.2: the base is user-tunable per function
        self.per_function_base = per_function_base or {}
        #: the two bin columns (:meth:`freeze`, or :meth:`rotate` when the
        #: rank streams)
        self.duration_grammar = TermLog(loop_detection)
        self.interval_grammar = TermLog(loop_detection)
        #: per-signature-terminal reconstructed clock (sum of b^bin)
        self._recon: dict[int, float] = {}
        #: base -> math.log(base), the divisor of every bin
        self._log_base: dict[float, float] = {}
        self.n_calls = 0
        #: clamp events observed while binning (each out-of-range call
        #: counts)
        self.n_clamped = 0
        #: raw streams kept only when verification asks for them
        self.keep_raw = False
        self.raw_durations: list[float] = []
        self.raw_starts: list[float] = []

    def _bin(self, x: float, base: float) -> int:
        """:func:`bin_value`, counting the clamps."""
        b = _raw_bin(x, base)
        if -BIN_OFFSET <= b <= BIN_OFFSET:
            return b
        self.n_clamped += 1
        _warn_clamp(b, base)
        return -BIN_OFFSET if b < 0 else BIN_OFFSET

    def record(self, term: int, fname: str, t0: float, t1: float) -> None:
        base = self.per_function_base.get(fname, self.base)
        log_base = self._log_base.get(base)
        if log_base is None:
            log_base = self._log_base[base] = math.log(base)
        # the in-range bin inline (the float operations of _raw_bin); a
        # value below _EPS, not finite or out of range goes to _bin
        d = t1 - t0
        dbin = ceil(log(d) / log_base) if _EPS <= d < inf else _OUT
        if not -BIN_OFFSET <= dbin <= BIN_OFFSET:
            dbin = self._bin(d, base)
        self.duration_grammar.append(dbin + BIN_OFFSET)
        # drift-free interval: measure against the reconstructed clock
        recon = self._recon.get(term, 0.0)
        x = t0 - recon
        ibin = ceil(log(x) / log_base) if _EPS <= x < inf else _OUT
        if not -BIN_OFFSET <= ibin <= BIN_OFFSET:
            ibin = self._bin(x, base)
        self.interval_grammar.append(ibin + BIN_OFFSET)
        self._recon[term] = recon + unbin_value(ibin, base)
        self.n_calls += 1
        if self.keep_raw:
            self.raw_durations.append(t1 - t0)
            self.raw_starts.append(t0)

    # -- freezing -----------------------------------------------------------------

    def freeze(self, memo: Optional[dict] = None) -> tuple[Grammar, Grammar]:
        return (self.duration_grammar.freeze(memo),
                self.interval_grammar.freeze(memo))

    def rotate(self) -> tuple[Grammar, Grammar]:
        """Streaming produce path: hand over the two bin logs as flat
        parts and empty them.  Only the *logs* rotate — the reconstructed
        clocks and the clamp counter stay live, so the bin
        streams across rotations concatenate to exactly the stream an
        unrotated run would have fed Sequitur."""
        parts = (Grammar.flat(self.duration_grammar),
                 Grammar.flat(self.interval_grammar))
        self.duration_grammar.clear()
        self.interval_grammar.clear()
        return parts


def reconstruct_times(duration_bins: list[int], interval_bins: list[int],
                      terms: list[int], base: float = 1.2,
                      term_bases: Optional[Mapping[int, float]] = None
                      ) -> list[tuple[float, float]]:
    """Post-processing: recover (t_start, t_end) per call from the binned
    streams, replaying the per-signature reconstructed clocks.

    *term_bases* maps signature terminals to the binning base they were
    recorded with, for traces recorded with per-function base overrides
    (every call of one terminal shares one function, hence one base);
    terminals not in the map use *base*.  :meth:`TraceDecoder.rank_times
    <repro.core.decoder.TraceDecoder.rank_times>` derives the map from
    the trace's persisted :class:`TimingMeta`.

    Guarantees (tested): ``t_start`` is within relative error ``b - 1``
    of the true entry time for that call's base ``b``, likewise the
    duration.
    """
    recon: dict[int, float] = {}
    out = []
    for dbin, ibin, term in zip(duration_bins, interval_bins, terms):
        b = term_bases.get(term, base) if term_bases else base
        prev = recon.get(term, 0.0)
        t_start = prev + unbin_value(ibin - BIN_OFFSET, b)
        recon[term] = t_start
        d = unbin_value(dbin - BIN_OFFSET, b)
        out.append((t_start, t_start + d))
    return out
