"""Replay per signature, not per call (``repro.replay`` + ``TraceDecoder``).

The product builds one table entry per CST terminal, binds each
terminal's arguments once per rank and walks terminals; the per-call
walks it replaced live on *here* as differential oracles:

* :func:`oracle_prescan` — the call-by-call segment/wildcard prescan;
* :class:`OracleComparator` — a comparator that materialises every
  rank's stream and probes every call's outcome;
* :class:`ParentComparator` and :class:`OracleReplayer` — the comparator
  hook and the generated per-call ``run(r, m, p)`` as they stood at
  commit 6561f71 (PR 23), before a terminal was bound once.

Across every workload family the two sides must agree on the
materialised segments, the wildcard bookkeeping, the call log at the
simulator boundary and, byte for byte, the divergence report.  A
counting test pins the work bound itself: one grammar expansion per
unique grammar, one signature-table entry per CST terminal used, and no
named record (``TraceDecoder._decode_sig`` / ``DecodedCall``) on the
replay path.
"""

import inspect
import json
from types import GeneratorType
from typing import Callable

import pytest

import repro
from repro import fuzz
from repro.core import TraceDecoder
from repro.core import decoder as decoder_mod
from repro.core.decoder import RankStream
from repro.core.encoder import _RELEASING, PTR_DEVICE, PTR_HEAP
from repro.core.errors import CorruptTraceError, ReplayFormatError
from repro.core.grammar import Grammar
from repro.core.records import DecodedCall
from repro.core.relative import MARK_REL, decode as rel_decode
from repro.mpisim import SimMPI, constants as C, funcs as F
from repro.mpisim.hooks import TracerHooks
from repro.mpisim.runtime import RankAPI
from repro.replay import ReplayOptions, divergence, engine
from repro.replay.comparator import (NOT_REISSUED, DivergencePoint,
                                     LockstepComparator, _RankCursor)
from repro.replay.engine import (_ALIASES, _ANY_SOURCE_ENC, _DIRECTED,
                                 _OPS_BY_HANDLE, _REPLAY_ONLY, _RESOLVERS,
                                 NOT_REPLAYABLE, RankReplayer, ReplayState,
                                 _abs, _Special, _status_source,
                                 build_rank_programs, run_replay)
from repro.workloads import REGISTRY

ANY_SOURCE_ENC = (0, C.ANY_SOURCE)  # (MARK_SPECIAL, ANY_SOURCE)


def trace_of(workload, nprocs=4, seed=1, **params) -> bytes:
    return repro.trace(workload, nprocs, seed=seed,
                       params=params).trace_bytes


# -- oracles: the per-call walks, kept verbatim ------------------------------------


def oracle_prescan(calls):
    """One pass over every call: (a) every memory segment with its max
    displacement and (b) the recorded completion source of every
    wildcard irecv, keyed by request id and occurrence."""
    need = {}  # sid -> (device, max_off)
    occ_next, occ_active, any_sources = {}, {}, {}
    skip_sids = set()

    def note_completion(syms, statuses, idxs=None):
        if statuses is None:
            return
        pairs = zip(idxs, statuses) if idxs is not None \
            else enumerate(statuses)
        for i, st in pairs:
            if i is None or i < 0 or i >= len(syms):
                continue
            sym = syms[i]
            if sym is None:
                continue
            key = tuple(sym)
            occ = occ_active.pop(key, None)
            if occ is not None and st is not None:
                any_sources[(key, occ)] = st[0]

    for call in calls:
        p = call.params
        for v in p.values():
            if not (isinstance(v, tuple) and v):
                continue
            if v[0] == PTR_HEAP and len(v) == 3:
                _k, sid, off = v
                dev, prev = need.get(sid, (-1, 0))
                need[sid] = (-1, max(prev, off))
            elif v[0] == PTR_DEVICE and len(v) == 4:
                _k, dev, sid, off = v
                _d, prev = need.get(sid, (dev, 0))
                need[sid] = (dev, max(prev, off))
        if call.fname == "MPI_Win_allocate":
            bp = p.get("baseptr")
            if isinstance(bp, tuple) and bp and bp[0] == PTR_HEAP:
                skip_sids.add(bp[1])
        if call.fname == "MPI_Irecv" and p.get("source") == ANY_SOURCE_ENC:
            key = tuple(p["request"])
            occ = occ_next.get(key, 0)
            occ_next[key] = occ + 1
            occ_active[key] = occ
        elif call.fname == "MPI_Wait" \
                or call.fname == "MPI_Test" and p.get("flag"):
            sym = p.get("request")
            if sym is not None:
                note_completion([sym], [p.get("status")], [0])
        elif call.fname in ("MPI_Waitall", "MPI_Testall"):
            note_completion(p.get("array_of_requests") or (),
                            p.get("array_of_statuses"))
        elif call.fname in ("MPI_Waitany", "MPI_Testany"):
            idx = p.get("index")
            if isinstance(idx, int) and idx >= 0:
                note_completion(p.get("array_of_requests") or (),
                                [p.get("status")], [idx])
        elif call.fname in ("MPI_Waitsome", "MPI_Testsome"):
            idxs = p.get("array_of_indices")
            if idxs:
                note_completion(p.get("array_of_requests") or (),
                                p.get("array_of_statuses"), list(idxs))
    segments = [(sid, dev, off) for sid, (dev, off) in sorted(need.items())
                if sid not in skip_sids]
    return segments, any_sources


def _records_outcome(rec):
    """(6561f71, verbatim) Does this signature record anything
    ``_compare_outcome`` could disagree with?"""
    p = rec.params
    st = p.get("status")
    return (isinstance(p.get("index"), int)
            or "array_of_indices" in p
            or isinstance(p.get("outcount"), int)
            or p.get("flag") is not None
            or (isinstance(st, tuple) and len(st) == 2))


class ParentComparator(LockstepComparator):
    """The comparator hook as it stood at 6561f71, verbatim: the cursor
    goes through ``_advance`` on every call, outcomes are compared *by
    name* over a ``dict(zip(FuncSpec.pos, values))`` under five
    hand-written field names, against the decoder's named records
    (``TraceDecoder.rank_calls``).  Only ``finish`` is the product's;
    ``_recorded_source`` is the product's as it stood at 7ceec1c, before
    the signature table made it positional."""

    def __init__(self, decoder, *, nprocs=None, rank_sources=None,
                 table=None):
        # held against the decoder's named records, not the product's
        # signature table
        n = decoder.nprocs if nprocs is None else nprocs
        if rank_sources is None:
            rank_sources = list(range(n))
        self.recorded_nprocs = decoder.nprocs
        self.nprocs = n
        self._cursors = [_RankCursor(decoder.rank_calls(rank_sources[r]))
                         for r in range(n)]
        records = {}
        for cur in self._cursors:
            records.update(cur.recorded.table)
        self._not_reissued = {term for term, rec in records.items()
                              if rec.fname in NOT_REISSUED}
        self._with_outcome = {term for term, rec in records.items()
                              if _records_outcome(rec)}

    def on_call(self, rank, fname, values, t0, t1):
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

    def _advance(self, cur, fname):
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

    def _compare_outcome(self, rank, rec, values):
        p = rec.params
        # by name, like the record: only calls that recorded an outcome
        # get here
        args = dict(zip(F.FUNCS[rec.fname].pos, values))
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

    def _recorded_source(self, rank, rec):
        """(7ceec1c, verbatim) The recorded completion source as a world
        rank, read by name."""
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


class OracleComparator(ParentComparator):
    """The per-call comparator: private per-rank lists of records,
    ``NOT_REISSUED`` membership and the full by-name outcome probe on
    every call.  Only ``finish`` is the product's."""

    def __init__(self, decoder, *, nprocs=None, rank_sources=None,
                 table=None):
        n = decoder.nprocs if nprocs is None else nprocs
        if rank_sources is None:
            rank_sources = list(range(n))
        streams = {}
        for src in rank_sources:
            if src not in streams:
                streams[src] = list(decoder.rank_calls(src))
        self.recorded_nprocs = decoder.nprocs
        self.nprocs = n
        self._cursors = [_RankCursor(recorded=streams[rank_sources[r]])
                         for r in range(n)]

    def on_call(self, rank, fname, values, t0, t1):
        cur = self._cursors[rank]
        cur.replayed += 1
        if cur.point is not None:
            return
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
                timing_delta_s=(t1 - t0) - rec.avg_duration)
            cur.ptr += 1
            return
        delta = (t1 - t0) - rec.avg_duration
        cur.timing_abs += abs(delta)
        cur.timing_max = max(cur.timing_max, abs(delta))
        mismatch = self._compare_outcome(rank, rec, values)
        if mismatch is not None:
            field_name, rec_v, live_v = mismatch
            cur.point = DivergencePoint(
                rank=rank, call_index=cur.ptr, function=fname,
                recorded_function=rec.fname, field=field_name,
                recorded=rec_v, live=live_v, timing_delta_s=delta)
        else:
            cur.matched += 1
        cur.ptr += 1

    def _advance(self, cur, fname):
        rec_list = cur.recorded
        while cur.ptr < len(rec_list):
            rec = rec_list[cur.ptr]
            if rec.fname in NOT_REISSUED and rec.fname != fname:
                cur.skipped += 1
                cur.ptr += 1
                continue
            return rec
        return None


# -- the per-call engine, as it stood at 6561f71 -----------------------------------
#
# ``_BINDERS``, ``_SPECIAL`` and ``_compile_runner`` below are copied
# verbatim from ``src/repro/replay/engine.py`` at commit 6561f71 (PR 23):
# one generated ``run(r, m, p)`` per function that resolves every argument
# on every call, by name.  (Two ``_SPECIAL`` entries pass the replayer's
# helpers the values they read — ``p['request']``; ``p['baseptr']``,
# ``p['size']`` — rather than ``p``, because the helpers no longer take a
# named-parameter dict.)  The kind tables it reads (``_RESOLVERS``,
# ``_DIRECTED``, ``_ALIASES``, ``_REPLAY_ONLY``) are the product's: they
# are the shared statement of the inverse walk, the generator is what is
# under test.

#: per OUT kind, the statement binding the call's result ``ret`` under
#: the recorded id ``{v}``.  A call that returns a request binds only
#: that: whatever else it creates is delivered by the completing call
#: (``MPI_Comm_idup``, §3.3.1 — :meth:`RankReplayer._release`).
_BINDERS = {
    F.K_NEWCOMM: "r.bind_comm({v}, ret)",
    F.K_NEWWIN: "r.bind_win({v}, ret)",
    F.K_NEWTYPE: "r.type_map[{v}] = ret",
    F.K_GROUP: "r.group_map[{v}] = ret",
    F.K_REQUEST: "r.req_map[{v}] = ret",
}

#: explicit code, only where the paper itself special-cases
_SPECIAL = {
    # §3.3.2: a wildcard irecv's source is recorded by the call that
    # completes it — matched by request id and occurrence
    "MPI_Irecv": _Special(args={
        "directed_source": "(r._wildcard_source(p['request'], ctx) "
                           "if p['source'] == _ANY_SOURCE_ENC else None)"}),
    # §3.4.2: Cartesian coordinates are recorded relative to the caller's
    "MPI_Cart_rank": _Special(args={
        "coords": "r._abs_coords(comm, ctx, p['coords'])"}),
    # §3.3.3: the call allocates the segment its recorded id names
    "MPI_Win_allocate": _Special(
        post="ret = r._bind_allocated(p['baseptr'], p['size'], ret)"),
    # released ids are re-handed to the next object created
    "MPI_Type_free": _Special(post="r.type_map.pop(p['datatype'], None)"),
    "MPI_Group_free": _Special(post="r.group_map.pop(p['group'], None)"),
    # a request recorded as MPI_REQUEST_NULL has nothing to act on
    "MPI_Start": _Special(null_guard=True),
    "MPI_Startall": _Special(null_guard=True),
    "MPI_Cancel": _Special(null_guard=True),
    "MPI_Request_free": _Special(null_guard=True),
}


def _compile_runner(fname: str) -> Callable:
    """Generate ``run(r, m, p)`` for one registry function: the inverse
    of the encoder's walk, its arguments unrolled by kind (what
    ``_CallPlan`` does for the encoder, and ``wrap.py`` for PMPI —
    interpreting the tables per call costs more than the call)."""
    if fname in NOT_REPLAYABLE:
        def run(r, m, p):  # fails where the call is reached
            raise ReplayFormatError(f"replay has no handler for {fname}")
            yield  # pragma: no cover - make this a generator
        return run
    spec = F.FUNCS[fname]
    method = fname[4:].lower()
    special = _SPECIAL.get(fname, _Special())
    params = {prm.name: prm for prm in spec.params}
    by_kind = {prm.kind: prm for prm in spec.params}
    body = []
    call_args = []
    held = []  # request parameters resolved into locals, released after
    by_keyword = False
    sim_params = list(inspect.signature(
        getattr(RankAPI, method)).parameters.values())[1:]
    for sp in sim_params:
        if sp.name in _REPLAY_ONLY:
            by_keyword = True  # skipped: what follows goes by name
            continue
        if sp.name in special.args:
            expr = special.args[sp.name]
        elif sp.name in _DIRECTED:
            kind, template = _DIRECTED[sp.name]
            expr = template.format(v=f"p[{by_kind[kind].name!r}]")
            if sp.name == "directed_source" or fname.startswith("MPI_Wait"):
                expr = f"({expr} if r.directed else None)"
        else:
            prm = next((params[n] for n in (sp.name, *_ALIASES.get(
                sp.name, ())) if n in params), None)
            if prm is None:
                raise KeyError(f"{fname}: simulator parameter {sp.name!r} "
                               f"has no registry counterpart")
            expr = _RESOLVERS[prm.kind].format(v=f"p[{prm.name!r}]")
            if prm.name == spec.ctx_comm:
                expr = "comm"
            elif prm.kind in (F.K_REQUEST, F.K_REQUESTV):
                body.append(f"{prm.name} = {expr}")
                held.append(prm)
                expr = prm.name
                if special.null_guard and prm.kind == F.K_REQUEST:
                    body.append(f"if {expr} is None: return")
                elif special.null_guard:
                    body.append(f"{expr} = [q for q in {expr} "
                                f"if q is not None]")
        if by_keyword or sp.kind is sp.KEYWORD_ONLY:
            expr = f"{sp.name}={expr}"
        call_args.append(expr)
    body += [f"ret = m.{method}({', '.join(call_args)})",
             # send/ssend/bsend/rsend *return* a generator without being
             # generator functions: test the result, not the method
             "if ret.__class__ is _GeneratorType: ret = yield from ret"]
    if special.post:
        body.append(special.post)
    outs = [prm for prm in spec.params
            if prm.direction == F.OUT and prm.kind in _BINDERS]
    if any(prm.kind == F.K_REQUEST for prm in outs):
        outs = [prm for prm in outs if prm.kind == F.K_REQUEST]
    for prm in outs:
        body.append(_BINDERS[prm.kind].format(v=f"p[{prm.name!r}]"))
    if fname in _RELEASING:
        for prm in held:
            if prm.kind == F.K_REQUEST:
                body.append(f"r._release(p[{prm.name!r}], {prm.name})")
            else:
                body += [f"for sym, req in zip(p[{prm.name!r}], {prm.name}):",
                         "    r._release(sym, req)"]
    if any("ctx" in line for line in body):
        # the context rank, by the registry's one rule (FuncSpec.ctx_comm)
        body.insert(0, "ctx = r.rank" if spec.ctx_comm is None
                    else "ctx = _context_rank(comm, r.rank)")
    if spec.ctx_comm is not None:
        body.insert(0, f"comm = r.comm(p[{spec.ctx_comm!r}])")
    src = "def run(r, m, p):\n    " + "\n    ".join(body) + "\n"
    ns = {"_abs": _abs, "_status_source": _status_source,
          "_context_rank": F.context_rank, "_OPS_BY_HANDLE": _OPS_BY_HANDLE,
          "_ANY_SOURCE_ENC": _ANY_SOURCE_ENC,
          "_GeneratorType": GeneratorType}
    exec(compile(src, f"<replay {fname}>", "exec"), ns)
    return ns["run"]


_ORACLE_RUNNERS = {}


class OracleReplayer(RankReplayer):
    """``RankReplayer.program`` as it stood at 6561f71: one table lookup
    and the function's per-call body over the signature's named
    parameters, nothing bound."""

    def program(self, m):
        self.comm_map.setdefault(0, m.world)
        self._materialize_segments(m)
        named = {}
        for term in self.stream.terms:
            entry = self.stream.table[term]
            if entry.bind is None:
                continue
            run = _ORACLE_RUNNERS.get(entry.fname)
            if run is None:
                run = _ORACLE_RUNNERS[entry.fname] = \
                    _compile_runner(entry.fname)
            p = named.get(term)
            if p is None:
                p = named[term] = dict(zip(F.FUNCS[entry.fname].pos,
                                           entry.values))
            yield from run(self, m, p)


def planned(stream: RankStream) -> RankStream:
    """A stream of the decoder's named records (built by hand here) as
    the engine takes it: one ``SigPlan`` per terminal."""
    table = {}
    for term, c in stream.table.items():
        spec = F.FUNCS[c.fname]
        sig = (spec.fid, *(c.params[p.name] for p in spec.params))
        table[term] = engine.plan_signature(spec, sig, c.avg_duration)
    return RankStream(stream.terms, table)


class _RecordingAllocator:
    """Stands in for the RankAPI during segment materialisation."""

    def __init__(self):
        self.log = []

    def malloc(self, size):
        self.log.append((-1, size))
        return len(self.log) << 24

    def cuda_malloc(self, size, device):
        self.log.append((device, size))
        return len(self.log) << 24


def assert_setup_matches_oracle(decoder, **build_kw):
    _state, replayers, _program = build_rank_programs(decoder, **build_kw)
    sources = build_kw.get("rank_sources") or range(len(replayers))
    for replayer, src in zip(replayers, sources):
        segments, any_sources = oracle_prescan(
            list(decoder.rank_calls(src)))
        alloc = _RecordingAllocator()
        replayer._materialize_segments(alloc)
        assert alloc.log == [(dev, off + RankReplayer._SEG_PAD)
                             for _sid, dev, off in segments]
        materialised = sorted(
            [(sid, -1, size) for sid, (_a, size)
             in replayer.seg_map.items()]
            + [(sid, dev, size) for (dev, sid), (_a, size)
               in replayer.dev_seg_map.items()])
        assert materialised == [(sid, dev, off + RankReplayer._SEG_PAD)
                                for sid, dev, off in segments]
        assert replayer._any_sources == any_sources


def snapshot(v):
    """A live hook value as plain data: scalars as they are, sequences
    element-wise, an object as its class and scalar attributes."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (list, tuple)):
        return tuple(map(snapshot, v))
    names = set(getattr(v, "__dict__", ()))
    for klass in type(v).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    return (type(v).__name__,) + tuple(
        (n, getattr(v, n)) for n in sorted(names)
        if isinstance(getattr(v, n, None), (bool, int, float, str)))


class _Tee(TracerHooks):
    """One replay, several observers: every comparator sees the same
    calls, ``log`` keeps what crossed the simulator boundary."""

    def __init__(self, *comparators):
        self.comparators = comparators
        self.log = []

    def on_call(self, rank, fname, values, t0, t1):
        self.log.append((rank, fname, snapshot(values), t0, t1))
        for comparator in self.comparators:
            comparator.on_call(rank, fname, values, t0, t1)

    def finish(self):
        self.reports = [c.finish() for c in self.comparators]
        return self.reports[0]


def replay_side(blob, options, monkeypatch, replayer, *comparators):
    """One ``api.replay`` with *replayer* as the engine and every one of
    *comparators* riding it: the call log, the replayers and one report
    document per comparator."""
    seen = {}

    def tee(decoder, **kw):
        seen["tee"] = _Tee(*(c(decoder, **kw) for c in comparators))
        return seen["tee"]

    def build(decoder, **kw):
        seen["built"] = build_rank_programs(decoder, **kw)
        return seen["built"]

    monkeypatch.setattr(divergence, "LockstepComparator", tee)
    monkeypatch.setattr(divergence, "build_rank_programs", build)
    monkeypatch.setattr(engine, "RankReplayer", replayer)
    res = repro.replay(blob, options=options)
    docs = []
    for report in seen["tee"].reports:
        res.report = report
        docs.append(json.dumps(res.report_dict(), indent=2, sort_keys=True))
    return seen["tee"].log, seen["built"][1], docs


def assert_reports_identical(blob, options, monkeypatch) -> dict:
    """The product (terminals bound once, positional comparator) against
    the 6561f71 engine under both by-name comparators."""
    log, replayers, (got,) = replay_side(
        blob, options, monkeypatch, RankReplayer, LockstepComparator)
    want_log, oracles, wants = replay_side(
        blob, options, monkeypatch, OracleReplayer,
        ParentComparator, OracleComparator)
    assert log == want_log
    assert [(r.seg_map, r.dev_seg_map) for r in replayers] \
        == [(r.seg_map, r.dev_seg_map) for r in oracles]
    assert wants == [got, got]
    # the two sides really are two engines
    assert all(r.binds for r in replayers)
    assert not any(r.binds or r.bound for r in oracles)
    return json.loads(got)


# -- differential: product vs per-call oracle ---------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("family", sorted(REGISTRY))
    def test_every_family_matches_the_per_call_walk(self, family,
                                                    monkeypatch):
        blob = trace_of(family)
        assert_setup_matches_oracle(TraceDecoder.from_bytes(blob))
        doc = assert_reports_identical(blob, ReplayOptions(seed=3),
                                       monkeypatch)
        assert not doc["diverged"]
        assert doc["counts"]["unchecked"] == 0

    def test_fault_injected_farm_diverges_identically(self, monkeypatch):
        blob = trace_of("mw_sweep", seed=2)
        assert_setup_matches_oracle(TraceDecoder.from_bytes(blob),
                                    directed=False)
        doc = assert_reports_identical(
            blob, ReplayOptions(fault_plan="delay@sched*4:rank=2"),
            monkeypatch)
        assert doc["diverged"] and doc["points"]

    @pytest.mark.parametrize("options", [
        ReplayOptions(net="alpha=2e-5,beta=1e-9", seed=5),
        ReplayOptions(fault_plan="delay@sched*6:rank=3", seed=5),
    ], ids=["net", "fault-plan"])
    def test_signature_heavy_family_under_what_if(self, options,
                                                  monkeypatch):
        """``flash_cellular`` at 8 ranks: ~6 calls per signature, so
        nearly every terminal is planned, bound and compared once."""
        blob = trace_of("flash_cellular", 8)
        dec = TraceDecoder.from_bytes(blob)
        assert dec.call_count() < 8 * len(dec.trace.cst.sigs)
        assert_setup_matches_oracle(dec, directed=False)
        doc = assert_reports_identical(blob, options, monkeypatch)
        c = doc["counts"]
        assert c["matched"] + c["skipped"] + c["mismatched"] \
            + c["unchecked"] == c["recorded"] == dec.call_count()

    def test_extrapolated_run_matches(self, monkeypatch):
        blob = trace_of("osu_allreduce")
        assert_setup_matches_oracle(
            TraceDecoder.from_bytes(blob), nprocs=8, directed=False,
            strict_ids=False, rank_sources=[0] * 8)
        doc = assert_reports_identical(
            blob, ReplayOptions(extrapolate_ranks=8), monkeypatch)
        assert doc["nprocs"] == 8 and not doc["diverged"]

    def test_sid_reused_across_devices_keeps_the_last_mention(self):
        """A freed heap segment's id re-issued to a device allocation
        and back: the call-by-call walk keeps the device of the *last*
        mention, so folding unique terminals must too."""
        spec = F.FUNCS["MPI_Send"]

        def send(term_buf):
            params = {p.name: 0 for p in spec.params}
            params["buf"] = term_buf
            return DecodedCall(0, "MPI_Send", params)

        table = {0: send((PTR_HEAP, 3, 8)), 1: send((PTR_DEVICE, 1, 3, 64))}
        for terms in ([0, 1, 0], [0, 1], [1, 0, 1, 1]):
            stream = RankStream(terms, table)
            replayer = RankReplayer(0, ReplayState(1), planned(stream))
            assert replayer._segments == oracle_prescan(list(stream))[0]


# -- the work bound ------------------------------------------------------------------


class TestWorkCounts:
    def test_one_expansion_per_grammar_one_decode_per_terminal(
            self, monkeypatch):
        blob = trace_of("stencil2d", 16, iters=6)
        trace = TraceDecoder.from_bytes(blob).trace
        expansions = []
        planned_sigs = []
        real_expand = Grammar.expand
        real_plan = engine.plan_signature

        def counting_expand(self, *a, **kw):
            expansions.append(self)
            return real_expand(self, *a, **kw)

        def counting_plan(spec, sig, *a, **kw):
            planned_sigs.append(sig)
            return real_plan(spec, sig, *a, **kw)

        def no_named_records(*a, **kw):
            raise AssertionError("replay decoded a signature into a dict")

        monkeypatch.setattr(Grammar, "expand", counting_expand)
        monkeypatch.setattr(engine, "plan_signature", counting_plan)
        monkeypatch.setattr(decoder_mod.TraceDecoder, "_decode_sig",
                            no_named_records)
        res = repro.replay(blob)
        assert not res.diverged

        assert len(expansions) == len(trace.cfg.unique) < 16
        # one table entry per signature the ranks use, shared by every
        # rank and by the comparator
        assert len(planned_sigs) == len(set(planned_sigs)) \
            == res.counters["replay.plan.terminals"] <= len(trace.cst.sigs)

    def test_streams_are_shared_not_copied(self):
        dec = TraceDecoder.from_bytes(trace_of("osu_allreduce"))
        assert len(dec.trace.cfg.unique) == 1
        assert dec.rank_terminals(0) is dec.rank_terminals(3)
        stream = dec.rank_calls(1)
        assert stream is dec.rank_calls(1)
        assert stream[0] is stream.table[stream.terms[0]]
        assert stream[0].rank == 1
        assert list(stream) == [stream[i] for i in range(len(stream))]
        assert len(stream.table) == len(set(stream.terms))
        # first-occurrence order
        assert list(stream.table) == list(dict.fromkeys(stream.terms))

    def test_plan_counters_size_the_table(self, tmp_path):
        blob = trace_of("stencil2d", 16, iters=6)
        dec = TraceDecoder.from_bytes(blob)
        res = repro.replay(blob, options=ReplayOptions(spans=True))
        assert res.counters == {
            "replay.plan.terminals": len(dec.trace.cst.sigs),
            "replay.plan.calls": dec.call_count(),
            "replay.plan.grammars_shared": 16 - len(dec.trace.cfg.unique),
            # every re-issued terminal of every rank, bound exactly once:
            # all but MPI_Init / MPI_Finalize, and nothing rebinds here
            "replay.plan.binds": sum(
                len(dec.rank_calls(r).table) - 2 for r in range(16)),
            "replay.plan.rebinds": 0,
        }
        path = tmp_path / "spans.jsonl"
        res.write_spans(path)
        from repro.analysis import summarize_metrics
        from repro.obs import read_metrics_jsonl
        summary = summarize_metrics(read_metrics_jsonl(str(path)))
        assert summary.counters == res.counters
        assert {sp["name"] for sp in summary.spans} >= {"build", "execute"}


# -- same errors, same places ---------------------------------------------------------


class _CallLog(TracerHooks):
    def __init__(self):
        self.calls = []

    def on_call(self, rank, fname, values, t0, t1):
        self.calls.append(fname)


class TestErrors:
    def test_unhandled_function_fails_where_the_call_is_reached(self):
        def call(fname):
            return DecodedCall(0, fname, {
                p.name: 0 for p in F.FUNCS[fname].params})

        table = {0: call("MPI_Init"), 1: call("MPI_Barrier"),
                 2: call("MPI_Abort")}
        stream = planned(RankStream([0, 1, 1, 2, 1], table))
        replayer = RankReplayer(0, ReplayState(1), stream)  # plans fine
        log = _CallLog()
        with pytest.raises(ReplayFormatError,
                           match="no handler for MPI_Abort"):
            run_replay(SimMPI(1, tracer=log), replayer.program)
        assert log.calls.count("MPI_Barrier") == 2

    def test_undecodable_terminals_raise_structured_errors(self):
        blob = trace_of("stencil2d", iters=3)
        cases = {desc: mut for desc, mut in fuzz.trace_corpus(blob)
                 if "CST" in desc}
        assert len(cases) == 4
        reasons = {
            "CST entry 0 names an unknown function id":
                "unknown function id",
            "CST entry 0 carries one value too many": "arity mismatch",
            "CST entry 0 is an empty signature": "empty signature",
            "the grammars reference a terminal past the end of the CST":
                "outside the",
        }
        for desc, mut in cases.items():
            dec = TraceDecoder.from_bytes(mut)  # every CRC is valid
            with pytest.raises(CorruptTraceError,
                               match=r"rank \d+: terminal \d+") as exc:
                for rank in range(dec.nprocs):
                    dec.rank_calls(rank)
            assert reasons[desc] in str(exc.value)
            with pytest.raises(CorruptTraceError, match=r"terminal \d+"):
                repro.replay(mut)

    def test_fuzzers_cover_the_cst_corpus(self):
        blob = trace_of("stencil2d", iters=3)
        decode = fuzz.run(fuzz.trace_target(blob), n_random=0)
        assert decode.ok, decode.failures
        assert decode.by_error.get("CorruptTraceError", 0) >= 4
        replay = fuzz.run(fuzz.replay_target(blob), n_random=0)
        assert replay.ok, replay.failures
        assert replay.by_error.get("CorruptTraceError", 0) >= 4


# -- the bench gate ---------------------------------------------------------------------


class TestReplayBench:
    def test_replay_bench_reports_the_same_runner_ratio(self):
        from pathlib import Path
        from repro.bench import run_benchmark
        doc = run_benchmark("replay", repeats=1, warmup=0, params={
            "families": ["osu_latency", "stencil2d"], "nprocs": 4})
        metrics = doc["metrics"]
        ratios = [metrics[f"{fam}.replay_over_null"]
                  for fam in ("osu_latency", "stencil2d")]
        # replay does the simulation plus its own work, and the overall
        # ratio is a weighted mean of the per-family ones
        assert min(ratios) > 0.5
        assert min(ratios) <= metrics["replay_over_null"] <= max(ratios)
        # CI gates ratios only: no absolute-millisecond metric in the
        # checked-in baseline, and every gated metric is one we emit
        baseline = json.loads(
            (Path(__file__).parent.parent / "benchmarks" / "baselines"
             / "replay-ci.json").read_text())["metrics"]
        assert baseline and all(name.endswith("replay_over_null")
                                for name in baseline)
        full = run_benchmark("replay", repeats=1, warmup=0,
                             params={"nprocs": 2})["metrics"]
        assert set(baseline) <= set(full)
