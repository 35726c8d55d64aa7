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
from ..core.records import DecodedCall
from ..core.relative import MARK_REL, decode as rel_decode
from ..mpisim.funcs import FUNCS
from ..mpisim.hooks import TracerHooks
from .engine import NOT_REISSUED

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


def _records_outcome(rec: DecodedCall) -> bool:
    """Does this signature record anything :meth:`LockstepComparator.
    _compare_outcome` could disagree with?  Isend/irecv/collectives do
    not, so their calls cost the comparator one branch."""
    p = rec.params
    st = p.get("status")
    return (isinstance(p.get("index"), int)
            or "array_of_indices" in p
            or isinstance(p.get("outcount"), int)
            or p.get("flag") is not None
            or (isinstance(st, tuple) and len(st) == 2))


class LockstepComparator(TracerHooks):
    """Attach as the replay :class:`~repro.mpisim.SimMPI`'s tracer; call
    :meth:`finish` after the run for the :class:`DivergenceReport`.

    ``rank_sources`` maps each replay rank to the recorded rank whose
    stream it is held against (rank extrapolation replays borrowed
    streams); default is the identity.
    """

    def __init__(self, decoder, *, nprocs: Optional[int] = None,
                 rank_sources: Optional[list[int]] = None):
        n = decoder.nprocs if nprocs is None else nprocs
        if rank_sources is None:
            rank_sources = list(range(n))
        self.recorded_nprocs = decoder.nprocs
        self.nprocs = n
        self._cursors = [_RankCursor(decoder.rank_calls(rank_sources[r]))
                         for r in range(n)]
        # decided once per signature, whichever ranks and calls use it
        records: dict[int, DecodedCall] = {}
        for cur in self._cursors:
            records.update(cur.recorded.table)
        #: terminals the engine re-issues nothing for
        self._not_reissued = {term for term, rec in records.items()
                              if rec.fname in NOT_REISSUED}
        #: terminals that record an outcome worth comparing
        self._with_outcome = {term for term, rec in records.items()
                              if _records_outcome(rec)}

    # -- the hook ----------------------------------------------------------------

    def on_call(self, rank: int, fname: str, values: tuple,
                t0: float, t1: float) -> None:
        cur = self._cursors[rank]
        cur.replayed += 1
        if cur.point is not None:
            return  # already diverged: count, don't compare
        term = self._advance(cur, fname)
        if term is None:
            cur.extra += 1
            cur.point = DivergencePoint(
                rank=rank, call_index=len(cur.recorded), function=fname,
                recorded_function="", field="stream", live=fname)
            return
        rec = cur.recorded.table[term]
        if rec.fname != fname:
            cur.point = DivergencePoint(
                rank=rank, call_index=cur.ptr, function=fname,
                recorded_function=rec.fname, field="function",
                recorded=rec.fname, live=fname,
                timing_delta_s=(t1 - t0) - rec.avg_duration)
            cur.ptr += 1
            return
        delta = (t1 - t0) - rec.avg_duration
        cur.timing_abs += abs(delta)
        cur.timing_max = max(cur.timing_max, abs(delta))
        mismatch = self._compare_outcome(rank, rec, values) \
            if term in self._with_outcome else None
        if mismatch is not None:
            field_name, rec_v, live_v = mismatch
            cur.point = DivergencePoint(
                rank=rank, call_index=cur.ptr, function=fname,
                recorded_function=rec.fname, field=field_name,
                recorded=rec_v, live=live_v, timing_delta_s=delta)
        else:
            cur.matched += 1
        cur.ptr += 1

    def _advance(self, cur: _RankCursor, fname: str) -> Optional[int]:
        """Skip recorded entries the engine never re-issues (unless the
        live call happens to be exactly that entry); returns the
        terminal to compare against, or None past the end of the
        stream."""
        terms = cur.recorded.terms
        while cur.ptr < len(terms):
            term = terms[cur.ptr]
            if term in self._not_reissued \
                    and cur.recorded.table[term].fname != fname:
                cur.skipped += 1
                cur.ptr += 1
                continue
            return term
        return None

    # -- outcome comparison ------------------------------------------------------

    def _compare_outcome(self, rank: int, rec: DecodedCall,
                         values: tuple):
        p = rec.params
        # by name, like the record: only calls that recorded an outcome
        # get here
        args = dict(zip(FUNCS[rec.fname].pos, values))
        # completion picks: Waitany/Testany index
        rec_idx = p.get("index")
        if isinstance(rec_idx, int) and "index" in args \
                and isinstance(args["index"], int) \
                and args["index"] != rec_idx:
            return "index", rec_idx, args["index"]
        # Waitsome/Testsome index sets
        rec_idxs = p.get("array_of_indices")
        live_idxs = args.get("array_of_indices")
        if rec_idxs is not None or live_idxs is not None:
            a = list(rec_idxs) if rec_idxs is not None else None
            b = list(live_idxs) if live_idxs is not None else None
            if a != b:
                return "array_of_indices", a, b
        rec_out = p.get("outcount")
        if isinstance(rec_out, int) and isinstance(args.get("outcount"),
                                                   int) \
                and args["outcount"] != rec_out:
            return "outcount", rec_out, args["outcount"]
        # Test* flags
        rec_flag = p.get("flag")
        if rec_flag is not None and "flag" in args \
                and args["flag"] is not None \
                and int(bool(args["flag"])) != int(bool(rec_flag)):
            return "flag", int(bool(rec_flag)), int(bool(args["flag"]))
        # completion source (wildcard matching)
        src = self._recorded_source(rank, rec)
        if src is not None:
            live_st = args.get("status")
            live_src = getattr(live_st, "MPI_SOURCE", None)
            if isinstance(live_src, int) and live_src >= 0 \
                    and live_src != src:
                return "status.source", src, live_src
        return None

    def _recorded_source(self, rank: int, rec: DecodedCall) -> Optional[int]:
        """The recorded completion source as a world rank, or None when
        it cannot be decoded safely (non-world communicator with a
        relative encoding, no status recorded)."""
        st = rec.params.get("status")
        if not (isinstance(st, tuple) and len(st) == 2):
            return None
        enc = st[0]
        if isinstance(enc, int):
            return enc if enc >= 0 else None
        if not (isinstance(enc, tuple) and len(enc) == 2):
            return None
        if enc[0] == MARK_REL and rec.params.get("comm", 0) != 0:
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
