"""Lockstep comparison of a replayed call stream against its record.

The comparator is a :class:`~repro.mpisim.hooks.TracerHooks` — it rides
the replay simulator exactly where a tracer would, so *every* re-issued
MPI call flows through :meth:`LockstepComparator.on_call` with its live
argument values and virtual entry/exit times.  Each rank keeps a cursor into
the recorded (decoded) call stream and checks, call by call:

* the function name matches the record;
* the observable *outcomes* match — Waitany/Testany indices,
  Waitsome/Testsome index sets, Test* flags, and wildcard completion
  sources (decoded from the record's relative-rank encoding);
* the timing delta (live virtual duration minus the recorded per-call
  average) — reported, never itself a divergence, because a replay runs
  on its own clock.

The first mismatch per rank becomes a :class:`DivergencePoint`; the
rank's cursor then stops checking (everything downstream of a divergence
is noise) but keeps counting, so the report's conservation identity
holds on every rank::

    matched + skipped + mismatched + unchecked == recorded

``skipped`` counts recorded calls the engine does not re-issue
(``engine.NOT_REISSUED``: ``MPI_Get_count``, whose status argument the
trace cannot rebuild), mirroring the salvage report's call-deficit
accounting: every recorded call is accounted for exactly once.

Caveat: completion-source comparison decodes ``MARK_REL`` sources
against the caller's *world* rank, so it is skipped for calls recorded
on subcommunicators (where the context rank differs); function-name and
index/flag divergence detection is communicator-agnostic and still
applies there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.decoder import RankStream
from ..core.relative import MARK_REL, decode as rel_decode
from ..mpisim import funcs as F
from ..mpisim.hooks import TracerHooks
from .engine import NOT_REISSUED, SigPlan, signature_table

#: schema tag stamped on divergence-report JSON documents
DIVERGENCE_SCHEMA = "repro.divergence/v1"

#: JSON schema for ``DivergenceReport.as_dict()`` (the ``--json`` form)
DIVERGENCE_REPORT_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "nprocs", "diverged", "counts", "points"],
    "properties": {
        "schema": {"type": "string"},
        "nprocs": {"type": "integer"},
        "recorded_nprocs": {"type": "integer"},
        "diverged": {"type": "boolean"},
        "counts": {
            "type": "object",
            "required": ["recorded", "replayed", "matched", "skipped",
                         "mismatched", "unchecked", "extra"],
            "properties": {
                "recorded": {"type": "integer"},
                "replayed": {"type": "integer"},
                "matched": {"type": "integer"},
                "skipped": {"type": "integer"},
                "mismatched": {"type": "integer"},
                "unchecked": {"type": "integer"},
                "extra": {"type": "integer"},
            },
        },
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rank", "call_index", "field"],
                "properties": {
                    "rank": {"type": "integer"},
                    "call_index": {"type": "integer"},
                    "function": {"type": "string"},
                    "recorded_function": {"type": "string"},
                    "field": {"type": "string"},
                    "recorded": {},
                    "live": {},
                    "timing_delta_s": {"type": "number"},
                },
            },
        },
        "timing": {
            "type": "object",
            "properties": {
                "abs_delta_s": {"type": "number"},
                "max_delta_s": {"type": "number"},
            },
        },
    },
}


@dataclass(frozen=True)
class DivergencePoint:
    """The first call on one rank whose outcome left the record."""

    rank: int
    #: index into the rank's *recorded* call stream (0-based, counting
    #: every recorded call including MPI_Init)
    call_index: int
    #: the function the replay issued ("" when the replay ended early)
    function: str
    #: the function the record expected ("" when the replay ran past it)
    recorded_function: str
    #: which observable differed: "function", "index", "flag",
    #: "array_of_indices", "outcount", "status.source", or "stream"
    field: str
    recorded: Any = None
    live: Any = None
    #: live virtual duration minus the recorded per-call average at the
    #: divergence point (diagnostic; timing never *causes* divergence)
    timing_delta_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "rank": self.rank, "call_index": self.call_index,
            "function": self.function,
            "recorded_function": self.recorded_function,
            "field": self.field,
            "recorded": _json_val(self.recorded),
            "live": _json_val(self.live),
            "timing_delta_s": round(self.timing_delta_s, 9),
        }

    def describe(self) -> str:
        what = (f"{self.field}: recorded {_json_val(self.recorded)!r}, "
                f"replayed {_json_val(self.live)!r}"
                if self.field not in ("function", "stream")
                else f"recorded {self.recorded_function or '<end>'}, "
                     f"replayed {self.function or '<end>'}")
        return (f"rank {self.rank} call #{self.call_index} "
                f"({self.recorded_function or self.function}): {what}")


def _json_val(v: Any) -> Any:
    """Flatten a compared value into a JSON-clean form."""
    if isinstance(v, (list, tuple)):
        return [_json_val(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return repr(v)


@dataclass
class _RankCursor:
    """One rank's walk through its recorded stream."""

    recorded: RankStream
    ptr: int = 0
    replayed: int = 0
    matched: int = 0
    skipped: int = 0
    point: Optional[DivergencePoint] = None
    extra: int = 0
    #: running |live - recorded| duration deltas (seconds)
    timing_abs: float = 0.0
    timing_max: float = 0.0


class LockstepComparator(TracerHooks):
    """Attach as the replay :class:`~repro.mpisim.SimMPI`'s tracer; call
    :meth:`finish` after the run for the :class:`DivergenceReport`.

    ``rank_sources`` maps each replay rank to the recorded rank whose
    stream it is held against (rank extrapolation replays borrowed
    streams); default is the identity.
    """

    def __init__(self, decoder, *, nprocs: Optional[int] = None,
                 rank_sources: Optional[list[int]] = None,
                 table: Optional[dict[int, SigPlan]] = None):
        n = decoder.nprocs if nprocs is None else nprocs
        if rank_sources is None:
            rank_sources = list(range(n))
        if table is None:
            table = signature_table(decoder, rank_sources)
        self.recorded_nprocs = decoder.nprocs
        self.nprocs = n
        #: per recorded terminal, the verdict decided once per signature
        #: whichever ranks and calls use it: ``SigPlan.fname`` / ``avg`` /
        #: ``outcome`` (the outcome fields worth comparing, or None)
        self._table = table
        self._cursors = [_RankCursor(RankStream(
            decoder.rank_terminals(rank_sources[r]), table))
            for r in range(n)]

    # -- the hook ----------------------------------------------------------------

    def on_call(self, rank: int, fname: str, values: tuple,
                t0: float, t1: float) -> None:
        cur = self._cursors[rank]
        cur.replayed += 1
        if cur.point is not None:
            return  # already diverged: count, don't compare
        try:  # the common case: the next recorded entry is this call
            rec = self._table[cur.recorded.terms[cur.ptr]]
        except IndexError:
            rec = None
        if rec is None or rec.fname != fname:
            # a skip, a mismatch or the end of stream
            rec = self._advance(cur, fname)
            if rec is None:
                cur.extra += 1
                cur.point = DivergencePoint(
                    rank=rank, call_index=len(cur.recorded), function=fname,
                    recorded_function="", field="stream", live=fname)
                return
            if rec.fname != fname:
                cur.point = DivergencePoint(
                    rank=rank, call_index=cur.ptr, function=fname,
                    recorded_function=rec.fname, field="function",
                    recorded=rec.fname, live=fname,
                    timing_delta_s=(t1 - t0) - rec.avg)
                cur.ptr += 1
                return
        delta = (t1 - t0) - rec.avg
        size = abs(delta)
        cur.timing_abs += size
        if size > cur.timing_max:
            cur.timing_max = size
        mismatch = rec.outcome and self._compare_outcome(rank, rec, values)
        if mismatch:
            field_name, rec_v, live_v = mismatch
            cur.point = DivergencePoint(
                rank=rank, call_index=cur.ptr, function=fname,
                recorded_function=fname, field=field_name,
                recorded=rec_v, live=live_v, timing_delta_s=delta)
        else:
            cur.matched += 1
        cur.ptr += 1

    def _advance(self, cur: _RankCursor, fname: str) -> Optional[SigPlan]:
        """Skip recorded entries the engine never re-issues (unless the
        live call happens to be exactly that entry); returns the entry
        to compare against, or None past the end of the stream."""
        terms = cur.recorded.terms
        while cur.ptr < len(terms):
            rec = self._table[terms[cur.ptr]]
            if rec.fname in NOT_REISSUED and rec.fname != fname:
                cur.skipped += 1
                cur.ptr += 1
                continue
            return rec
        return None

    # -- outcome comparison ------------------------------------------------------

    def _compare_outcome(self, rank: int, rec: SigPlan, values: tuple):
        """The first of ``rec.outcome``'s fields whose live value left
        the record (both by position, as ``on_call`` carries them):
        completion picks and index sets, Test* flags, the wildcard
        completion source."""
        for kind, name, pos in rec.outcome:
            rec_v, live = rec.values[pos], values[pos]
            if kind == F.K_INDEXV:
                a = list(rec_v) if rec_v is not None else None
                b = list(live) if live is not None else None
                if a != b:
                    return name, a, b
            elif kind == F.K_FLAG:
                if live is not None and bool(live) != bool(rec_v):
                    return name, int(bool(rec_v)), int(bool(live))
            elif kind == F.K_STATUS:
                src = self._recorded_source(rank, rec)
                live_src = getattr(live, "MPI_SOURCE", None)
                if src is not None and isinstance(live_src, int) \
                        and 0 <= live_src != src:
                    return name + ".source", src, live_src
            elif isinstance(live, int) and live != rec_v:
                return name, rec_v, live
        return None

    @staticmethod
    def _recorded_source(rank: int, rec: SigPlan) -> Optional[int]:
        """The recorded completion source as a world rank, or None when
        it cannot be decoded safely (non-world communicator with a
        relative encoding, no status recorded).  Decoding against
        ``FuncSpec.ctx_comm`` instead of refusing off-world is ROADMAP
        2(f)'s, not this comparator's."""
        pos = F.FUNCS[rec.fname].pos
        st = rec.values[pos["status"]] if "status" in pos else None
        if not (isinstance(st, tuple) and len(st) == 2):
            return None
        enc = st[0]
        if isinstance(enc, int):
            return enc if enc >= 0 else None
        if not (isinstance(enc, tuple) and len(enc) == 2):
            return None
        if enc[0] == MARK_REL and "comm" in pos \
                and rec.values[pos["comm"]] != 0:
            return None  # context rank unknown off-world
        val = rel_decode(enc, rank)
        return val if val >= 0 else None

    # -- the report --------------------------------------------------------------

    def finish(self) -> "DivergenceReport":
        points: list[DivergencePoint] = []
        counts = {"recorded": 0, "replayed": 0, "matched": 0,
                  "skipped": 0, "mismatched": 0, "unchecked": 0,
                  "extra": 0}
        per_rank: list[dict] = []
        timing_abs = 0.0
        timing_max = 0.0
        for rank, cur in enumerate(self._cursors):
            # trailing recorded queries the replay legitimately skipped
            if cur.point is None:
                while cur.ptr < len(cur.recorded) \
                        and cur.recorded[cur.ptr].fname in NOT_REISSUED:
                    cur.skipped += 1
                    cur.ptr += 1
            unchecked = len(cur.recorded) - cur.ptr
            if cur.point is None and unchecked > 0:
                # the replay ended before the record did
                rec = cur.recorded[cur.ptr]
                cur.point = DivergencePoint(
                    rank=rank, call_index=cur.ptr, function="",
                    recorded_function=rec.fname, field="stream",
                    recorded=rec.fname)
            mismatched = 1 if (cur.point is not None
                               and cur.point.field != "stream") else 0
            if cur.point is not None and cur.point.field != "stream":
                unchecked = len(cur.recorded) - cur.ptr
            if cur.point is not None:
                points.append(cur.point)
            counts["recorded"] += len(cur.recorded)
            counts["replayed"] += cur.replayed
            counts["matched"] += cur.matched
            counts["skipped"] += cur.skipped
            counts["mismatched"] += mismatched
            counts["unchecked"] += unchecked
            counts["extra"] += cur.extra
            timing_abs += cur.timing_abs
            timing_max = max(timing_max, cur.timing_max)
            per_rank.append({
                "rank": rank, "recorded": len(cur.recorded),
                "replayed": cur.replayed, "matched": cur.matched,
                "skipped": cur.skipped, "mismatched": mismatched,
                "unchecked": unchecked, "extra": cur.extra,
            })
        points.sort(key=lambda pt: pt.rank)
        return DivergenceReport(
            nprocs=self.nprocs, recorded_nprocs=self.recorded_nprocs,
            points=points, counts=counts, per_rank=per_rank,
            timing_abs_delta_s=timing_abs, timing_max_delta_s=timing_max)


@dataclass
class DivergenceReport:
    """What a what-if replay observed, with conserving call accounting.

    ``points`` holds at most one entry per rank — the *first* call whose
    outcome left the record.  ``counts`` satisfies, summed over ranks::

        matched + skipped + mismatched + unchecked == recorded
    """

    nprocs: int
    recorded_nprocs: int
    points: list[DivergencePoint] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    per_rank: list = field(default_factory=list)
    timing_abs_delta_s: float = 0.0
    timing_max_delta_s: float = 0.0

    @property
    def diverged(self) -> bool:
        return bool(self.points)

    @property
    def first(self) -> Optional[DivergencePoint]:
        """The earliest divergence across ranks (lowest call index,
        ties broken by rank), or None."""
        if not self.points:
            return None
        return min(self.points, key=lambda pt: (pt.call_index, pt.rank))

    def conserved(self) -> bool:
        """Does the call accounting balance (the salvage-style check)?"""
        c = self.counts
        return (c.get("matched", 0) + c.get("skipped", 0)
                + c.get("mismatched", 0) + c.get("unchecked", 0)
                == c.get("recorded", 0))

    def as_dict(self) -> dict:
        return {
            "schema": DIVERGENCE_SCHEMA,
            "nprocs": self.nprocs,
            "recorded_nprocs": self.recorded_nprocs,
            "diverged": self.diverged,
            "counts": dict(self.counts),
            "points": [pt.as_dict() for pt in self.points],
            "per_rank": list(self.per_rank),
            "timing": {
                "abs_delta_s": round(self.timing_abs_delta_s, 9),
                "max_delta_s": round(self.timing_max_delta_s, 9),
            },
        }

    def summary(self) -> str:
        c = self.counts
        if not self.diverged:
            return (f"replay matched the record: {c.get('matched', 0)} "
                    f"calls on {self.nprocs} ranks, zero divergences")
        head = self.first
        return (f"replay DIVERGED on {len(self.points)}/{self.nprocs} "
                f"ranks (first: {head.describe()}); "
                f"{c.get('matched', 0)} matched, "
                f"{c.get('unchecked', 0)} unchecked after divergence")
