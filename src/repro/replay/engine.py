"""Trace replay — the paper's §6 roadmap, implemented.

The introduction motivates lossless tracing with replay: "one needs to
handle the remaining arguments and preserve enough information in the
compressed trace so that each non-blocking communication can be matched
with the test call that completed it."  This engine closes that loop: it
takes a Pilgrim trace (bytes) and produces rank programs for
:class:`repro.mpisim.SimMPI` that re-issue every recorded MPI call with
its recorded arguments — communicator construction included — and
complete non-blocking operations in the *recorded* order (directed
replay of Waitany/Waitsome/Testsome indices).

Replay maintains the symbolic↔live object bindings the tracer created:

* communicator ids are re-derived with the same group-max algorithm and
  checked against the recorded ids (a disagreement means the trace and
  the replayed construction order diverged — an internal error);
* datatypes are rebuilt from their recorded recipes;
* request ids ``(pool, slot)`` bind at creation and release at the
  completing call, mirroring §3.4.3;
* buffers are materialized lazily per recorded segment id, preserving
  displacements.

The fixed point property — tracing a replay yields the original trace's
call content, signature for signature (:func:`structurally_equal`) —
holds for programs whose non-deterministic choices are fully directed by
the trace (no empty Test* polls); ``tests/test_replay.py`` asserts it.
Timing statistics necessarily differ (a replay has its own clock), which
is why the comparison is structural rather than byte-wise.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, NamedTuple, Optional

from ..mpisim import constants as C
from ..mpisim.comm import Comm
from ..mpisim.datatypes import BUILTINS, Datatype
from ..mpisim.errors import MpiSimError, RankProgramError
from ..mpisim.group import Group
from ..mpisim.ops import ALL_OPS
from ..mpisim.runtime import RankAPI, SimMPI
from ..core.decoder import RankStream, TraceDecoder
from ..core.errors import ReplayFormatError, TraceFormatError
from ..core.encoder import (CommIdSpace, PTR_DEVICE, PTR_HEAP, PTR_NULL,
                            PTR_STACK, WinIdSpace)
from ..core.relative import decode as rel_decode

_OPS_BY_HANDLE = {op.handle: op for op in ALL_OPS}

#: calls replay re-issues structurally but whose outputs need no binding
_QUERY_CALLS = frozenset((
    "MPI_Comm_size", "MPI_Comm_rank", "MPI_Comm_remote_size",
    "MPI_Comm_test_inter", "MPI_Comm_compare", "MPI_Comm_get_name",
    "MPI_Group_size", "MPI_Group_rank", "MPI_Group_compare",
    "MPI_Group_translate_ranks", "MPI_Type_size", "MPI_Type_get_extent",
    "MPI_Cart_coords", "MPI_Cart_rank", "MPI_Cart_shift",
    "MPI_Dims_create", "MPI_Initialized", "MPI_Get_processor_name",
    "MPI_Get_count", "MPI_Request_get_status", "MPI_Iprobe",
))


class ReplayState:
    """Cross-rank validation state.

    NB: symbolic communicator/window ids are only *locally* unique — a
    split's colour groups are distinct communicators that legitimately
    share one symbolic id (the paper's design).  The sym -> live-object
    bindings therefore live per rank (:class:`RankReplayer`); what is
    shared here is the id-agreement mirror used to validate that the
    replayed construction order derives the recorded ids.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        #: mirror of the tracer's id-agreement algorithms
        self.comm_space = CommIdSpace(nprocs)
        self.win_space = WinIdSpace(nprocs)


# ---------------------------------------------------------------------------------
# the per-terminal table
# ---------------------------------------------------------------------------------

_ANY_SOURCE_ENC = (0, C.ANY_SOURCE)  # (MARK_SPECIAL, ANY_SOURCE)


class TermPlan(NamedTuple):
    """What replay derives from one signature, once, however many calls
    and ranks share it.  (Handler *bodies* still resolve their arguments
    per call; a registry-derived kind -> resolver table attaches here.)"""

    #: generator(replayer, api, params); None for MPI_Init/MPI_Finalize,
    #: which the runtime emits itself
    run: Optional[Callable]
    params: dict
    #: every heap/device segment mention: (sid, device or -1, offset)
    segments: tuple
    #: sid MPI_Win_allocate returns (the replayed call allocates it)
    win_sid: Optional[int]


def _plan_terminal(call) -> TermPlan:
    fname, p = call.fname, call.params
    run = _HANDLERS.get(fname)
    if run is None and fname in _QUERY_CALLS:
        def run(r, m, p):
            return r._replay_query(m, fname, p)
    elif run is None and fname not in ("MPI_Init", "MPI_Finalize"):
        def run(r, m, p):  # fails where the call is reached, not here
            raise ReplayFormatError(f"replay has no handler for {fname}")
    segments = []
    for v in p.values():
        if not (isinstance(v, tuple) and v):
            continue
        if v[0] == PTR_HEAP and len(v) == 3:
            segments.append((v[1], -1, v[2]))
        elif v[0] == PTR_DEVICE and len(v) == 4:
            segments.append((v[2], v[1], v[3]))
    win_sid = None
    if fname == "MPI_Win_allocate":
        bp = p.get("baseptr")
        if isinstance(bp, tuple) and bp and bp[0] == PTR_HEAP:
            win_sid = bp[1]
    return TermPlan(run, p, tuple(segments), win_sid)


class RankReplayer:
    """Replays one rank's decoded call stream.

    ``stream`` is the decoder's :class:`~repro.core.decoder.RankStream`.
    What replay derives from a *signature* is resolved once per terminal
    into ``plan`` (:class:`TermPlan`; ranks handed the same dict share
    entries), and construction folds those into the rank's set-up: the
    segments to materialize in ascending symbolic-id order (preserving
    the tracer's id assignment and hence the fixed-point property) and
    the recorded source of every wildcard irecv.  Per call that leaves
    one table lookup and the handler itself.

    ``directed=True`` (the default) pins every nondeterministic choice —
    Wait*/Test* completion picks and wildcard receive sources — to the
    recorded outcome, which is what makes the fixed point hold.
    ``directed=False`` relaxes exactly those choices to the live
    simulator (the what-if mode of :mod:`repro.replay.divergence`):
    wildcard receives match in live arrival order and Waitany/Waitsome
    pick from the live completion set, while Test* flags stay recorded
    so the call *count* is conserved and empty polls cannot livelock.

    ``strict_ids=False`` drops the id-agreement validation (recorded
    comm/win ids vs the replayed construction order) — required when
    replaying onto a different world size, where the derivation
    legitimately differs.
    """

    def __init__(self, rank: int, state: ReplayState, stream: RankStream, *,
                 plan: Optional[dict[int, TermPlan]] = None,
                 directed: bool = True, strict_ids: bool = True) -> None:
        self.rank = rank
        self.state = state
        self.stream = stream
        self.plan: dict[int, TermPlan] = {} if plan is None else plan
        self.directed = directed
        self.strict_ids = strict_ids
        # per-rank symbolic bindings
        self.type_map: dict[int, Datatype] = {}
        self.group_map: dict[int, Group] = {}
        self.req_map: dict[tuple, Any] = {}
        self.seg_map: dict[int, tuple[int, int]] = {}   # sid -> (addr, size)
        self.dev_seg_map: dict[tuple[int, int], tuple[int, int]] = {}
        self.stack_base = 0x10  # synthetic addresses for stack-id buffers
        self._any_occ: dict[tuple, int] = {}
        #: per-rank symbolic comm/win id -> live object (ids are only
        #: locally unique: different ranks may map one id to different
        #: communicators, e.g. the colour groups of one split)
        self.comm_map: dict[int, Optional[Comm]] = {}
        self.win_map: dict[int, Any] = {}
        #: segments to materialize, ascending sid: (sid, device, max_off)
        self._segments = self._fold_segments()
        #: (request sym, occurrence) -> recorded completion source enc
        self._any_sources = self._scan_wildcards()

    # -- symbolic object bindings (per rank) --------------------------------------

    def bind_comm(self, sym: int, comm: Optional[Comm]) -> None:
        if comm is None:
            return
        if self.strict_ids:
            derived = self.state.comm_space.sym_for(comm)
            if derived != sym:
                raise ReplayFormatError(
                    f"replay diverged: recorded comm id {sym} but the "
                    f"replayed construction order derives {derived}")
        self.comm_map[sym] = comm

    def comm(self, sym: int) -> Optional[Comm]:
        if sym == -1:
            return None
        try:
            return self.comm_map[sym]
        except KeyError:
            raise ReplayFormatError(
                f"replay references unknown comm id {sym}")

    def bind_win(self, sym: int, win) -> None:
        if win is None:
            return
        if self.strict_ids:
            derived = self.state.win_space.sym_for(win)
            if derived != sym:
                raise ReplayFormatError(
                    f"replay diverged: recorded win id {sym} but the "
                    f"replayed construction order derives {derived}")
        self.win_map[sym] = win

    def win(self, sym: int):
        try:
            return self.win_map[sym]
        except KeyError:
            raise ReplayFormatError(
                f"replay references unknown win id {sym}")

    #: generous per-segment tail so any in-segment displacement the trace
    #: references stays inside the materialized allocation
    _SEG_PAD = 1 << 16

    def _fold_segments(self) -> list[tuple[int, int, int]]:
        """Plan the stream's terminals and fold their segment mentions
        into ``(sid, device, max displacement)`` — in last-occurrence
        order, so a sid reused across devices keeps the device the stream
        mentions last, as a call-by-call walk would conclude."""
        plan, table = self.plan, self.stream.table
        need: dict[int, tuple[int, int]] = {}  # sid -> (device, max_off)
        skip_sids: set[int] = set()
        last_seen = dict.fromkeys(reversed(self.stream.terms))
        for term in reversed(last_seen):
            entry = plan.get(term)
            if entry is None:
                entry = plan[term] = _plan_terminal(table[term])
            for sid, dev, off in entry.segments:
                need[sid] = (dev, max(need.get(sid, (dev, 0))[1], off))
            if entry.win_sid is not None:
                skip_sids.add(entry.win_sid)
        return [(sid, dev, off)
                for sid, (dev, off) in sorted(need.items())
                if sid not in skip_sids]

    def _scan_wildcards(self) -> dict[tuple, Any]:
        """The recorded completion source of every wildcard irecv, keyed
        by request id and occurrence (so pool-slot reuse is handled) —
        what directed replay pins ``ANY_SOURCE`` to.  The one set-up step
        that needs call order: the stream is walked only when one of its
        terminals is an ``ANY_SOURCE`` ``MPI_Irecv``."""
        found: dict[tuple, Any] = {}
        if not any(call.fname == "MPI_Irecv"
                   and call.params.get("source") == _ANY_SOURCE_ENC
                   for call in self.stream.table.values()):
            return found
        occ_next: dict[tuple, int] = {}
        occ_active: dict[tuple, int] = {}

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
                    found[(key, occ)] = st[0]

        for call in self.stream:
            p = call.params
            if call.fname == "MPI_Irecv" \
                    and p.get("source") == _ANY_SOURCE_ENC:
                key = tuple(p["request"])
                occ = occ_next.get(key, 0)
                occ_next[key] = occ + 1
                occ_active[key] = occ
            elif call.fname == "MPI_Wait":
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
        return found

    def _materialize_segments(self, m: RankAPI) -> None:
        """Allocate every recorded segment through the *intercepted*
        allocator, ascending by sid, so a tracer attached to the replay
        assigns the same symbolic ids."""
        for sid, dev, max_off in self._segments:
            size = max_off + self._SEG_PAD
            if dev < 0:
                addr = m.malloc(size)
                self.seg_map[sid] = (addr, size)
            else:
                addr = m.cuda_malloc(size, device=dev)
                self.dev_seg_map[(dev, sid)] = (addr, size)

    # -- argument materialization ----------------------------------------------------

    def _ctx_rank(self, comm: Optional[Comm]) -> int:
        if comm is None:
            return self.rank
        cr = comm.group.rank_of(self.rank)
        if cr == C.UNDEFINED and comm.remote_group is not None:
            cr = comm.remote_group.rank_of(self.rank)
        return cr if cr != C.UNDEFINED else self.rank

    def _rankval(self, v, ctx: int) -> int:
        return rel_decode(v, ctx) if isinstance(v, tuple) else v

    def _datatype(self, m: RankAPI, sym: int) -> Datatype:
        if sym < 0:
            try:
                return BUILTINS[sym]
            except KeyError:
                raise ReplayFormatError(f"unknown builtin datatype {sym}")
        try:
            return self.type_map[sym]
        except KeyError:
            raise ReplayFormatError(
                f"replay references unknown datatype {sym}")

    def _buffer(self, m: RankAPI, enc: tuple, nbytes: int) -> int:
        """Materialize a recorded pointer encoding as a live address."""
        kind = enc[0]
        if kind == PTR_NULL:
            return 0
        if kind == PTR_HEAP:
            _k, sid, off = enc
            got = self.seg_map.get(sid)
            if got is None:  # safety net; prescan should have seen it
                addr = m.malloc(off + self._SEG_PAD)
                got = self.seg_map[sid] = (addr, off + self._SEG_PAD)
            return got[0] + off
        if kind == PTR_DEVICE:
            _k, dev, sid, off = enc
            got = self.dev_seg_map.get((dev, sid))
            if got is None:
                addr = m.cuda_malloc(off + self._SEG_PAD, device=dev)
                got = self.dev_seg_map[(dev, sid)] = (addr,
                                                      off + self._SEG_PAD)
            return got[0] + off
        if kind == PTR_STACK:
            # a synthetic sub-heap address, stable per stack id
            return self.stack_base + enc[1] * 16
        raise ReplayFormatError(f"unknown pointer encoding {enc!r}")

    def _status_source(self, st_enc, ctx: int) -> Optional[int]:
        """Recorded completion source (directed replay of ANY_SOURCE)."""
        if st_enc is None:
            return None
        src_enc, _tag = st_enc
        return self._rankval(src_enc, ctx)

    # -- request bookkeeping ----------------------------------------------------------

    def _bind_req(self, sym, req) -> None:
        if sym is not None:
            self.req_map[tuple(sym)] = req

    def _take_req(self, sym):
        if sym is None:
            return None
        return self.req_map.get(tuple(sym))

    def _release_req(self, sym, persistent=False) -> None:
        if sym is not None and not persistent:
            self.req_map.pop(tuple(sym), None)

    def _after_complete(self, req) -> None:
        """Mirror the tracer's §3.3.1 wait-time step: a completed
        ``MPI_Comm_idup`` delivers its communicator (and id) here."""
        if req is not None and getattr(req, "kind", "") == "comm_idup" \
                and isinstance(req.value, Comm):
            sym = self.state.comm_space.sym_for(req.value)
            if sym not in self.comm_map:
                self.comm_map[sym] = req.value

    # -- the interpreter --------------------------------------------------------------------

    def program(self, m: RankAPI):
        """Generator: re-issues every recorded call on the live runtime."""
        self.comm_map.setdefault(0, m.world)
        self._materialize_segments(m)
        plan = self.plan
        for term in self.stream.terms:
            entry = plan[term]
            if entry.run is not None:
                yield from entry.run(self, m, entry.params)

    def _replay_query(self, m: RankAPI, fname: str, p: dict):
        """Local queries: re-issue for trace fidelity, ignore results."""
        comm = self.comm(p["comm"]) if "comm" in p else None
        if fname == "MPI_Comm_size":
            m.comm_size(comm)
        elif fname == "MPI_Comm_rank":
            m.comm_rank(comm)
        elif fname == "MPI_Comm_remote_size":
            m.comm_remote_size(comm)
        elif fname == "MPI_Comm_test_inter":
            m.comm_test_inter(comm)
        elif fname == "MPI_Comm_get_name":
            m.comm_get_name(comm)
        elif fname == "MPI_Group_size":
            m.group_size(self.group_map[p["group"]])
        elif fname == "MPI_Group_rank":
            m.group_rank(self.group_map[p["group"]])
        elif fname == "MPI_Type_size":
            m.type_size(self._datatype(m, p["datatype"]))
        elif fname == "MPI_Type_get_extent":
            m.type_get_extent(self._datatype(m, p["datatype"]))
        elif fname == "MPI_Cart_coords":
            ctx = self._ctx_rank(comm)
            m.cart_coords(comm, self._rankval(p["rank"], ctx))
        elif fname == "MPI_Cart_shift":
            m.cart_shift(comm, p["direction"], p["disp"])
        elif fname == "MPI_Cart_rank":
            ctx = self._ctx_rank(comm)
            mine = comm.topo.coords_of(ctx)
            coords = [c + o for c, o in zip(p["coords"], mine)] \
                if comm.topo is not None else list(p["coords"])
            m.cart_rank(comm, coords)
        elif fname == "MPI_Dims_create":
            m.dims_create(p["nnodes"], p["ndims"])
        elif fname == "MPI_Initialized":
            m.initialized()
        elif fname == "MPI_Get_processor_name":
            m.get_processor_name()
        elif fname == "MPI_Iprobe":
            ctx = self._ctx_rank(comm)
            m.iprobe(self._rankval(p["source"], ctx),
                     self._rankval(p["tag"], ctx), comm)
        # MPI_Get_count / Request_get_status / others: no comm side
        # effects; trace fidelity for them is secondary
        return
        yield  # pragma: no cover - make this a generator


# ---------------------------------------------------------------------------
# handlers: fname -> generator(replayer, api, params)
# ---------------------------------------------------------------------------

def _h_p2p_send(blocking_fname, api_name, nb_api_name):
    def handler(r: RankReplayer, m: RankAPI, p: dict):
        comm = r.comm(p["comm"])
        ctx = r._ctx_rank(comm)
        dtype = r._datatype(m, p["datatype"])
        nbytes = p["count"] * dtype.size
        buf = r._buffer(m, p["buf"], nbytes)
        dest = r._rankval(p["dest"], ctx)
        tag = r._rankval(p["tag"], ctx)
        if "request" in p:
            req = getattr(m, nb_api_name)(buf, p["count"], dtype, dest,
                                          tag, comm)
            r._bind_req(p["request"], req)
        else:
            yield from getattr(m, api_name)(buf, p["count"], dtype, dest,
                                            tag, comm)
    return handler


def _h_recv(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    dtype = r._datatype(m, p["datatype"])
    buf = r._buffer(m, p["buf"], p["count"] * dtype.size)
    src = r._rankval(p["source"], ctx)
    tag = r._rankval(p["tag"], ctx)
    directed = None
    if src == C.ANY_SOURCE and r.directed:
        # directed replay: receive from the recorded completion source
        directed = r._status_source(p.get("status"), ctx)
    status = True if p.get("status") is not None else None
    yield from m.recv(buf, p["count"], dtype, src, tag, comm, status=status,
                      directed_source=directed)


def _h_irecv(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    dtype = r._datatype(m, p["datatype"])
    buf = r._buffer(m, p["buf"], p["count"] * dtype.size)
    src = r._rankval(p["source"], ctx)
    tag = r._rankval(p["tag"], ctx)
    directed = None
    if p["source"] == _ANY_SOURCE_ENC and r.directed:
        key = tuple(p["request"])
        occ = r._any_occ.get(key, 0)
        r._any_occ[key] = occ + 1
        rec = r._any_sources.get((key, occ))
        if rec is not None:
            directed = r._rankval(rec, ctx)
    req = m.irecv(buf, p["count"], dtype, src, tag, comm,
                  directed_source=directed)
    r._bind_req(p["request"], req)
    return
    yield  # pragma: no cover


def _h_sendrecv(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    stype = r._datatype(m, p["sendtype"])
    rtype = r._datatype(m, p["recvtype"])
    sbuf = r._buffer(m, p["sendbuf"], p["sendcount"] * stype.size)
    rbuf = r._buffer(m, p["recvbuf"], p["recvcount"] * rtype.size)
    src = r._rankval(p["source"], ctx)
    directed = None
    if src == C.ANY_SOURCE and r.directed:
        directed = r._status_source(p.get("status"), ctx)
    status = True if p.get("status") is not None else None
    yield from m.sendrecv(
        sbuf, p["sendcount"], stype, r._rankval(p["dest"], ctx),
        r._rankval(p["sendtag"], ctx),
        rbuf, p["recvcount"], rtype, src, r._rankval(p["recvtag"], ctx),
        comm, status=status, directed_source=directed)


def _h_probe(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    src = r._rankval(p["source"], ctx)
    directed = None
    if src == C.ANY_SOURCE and r.directed:
        directed = r._status_source(p.get("status"), ctx)
    yield from m.probe(src, r._rankval(p["tag"], ctx), comm,
                       directed_source=directed)


def _h_wait(r, m, p):
    req = r._take_req(p["request"])
    status = True if p.get("status") is not None else None
    yield from m.wait(req, status=status)
    r._after_complete(req)
    if req is not None and not req.persistent:
        r._release_req(p["request"])


def _h_waitall(r, m, p):
    reqs = [r._take_req(sym) for sym in (p["array_of_requests"] or ())]
    statuses = True if p.get("array_of_statuses") is not None else None
    yield from m.waitall(reqs, statuses=statuses)
    for sym, req in zip(p["array_of_requests"] or (), reqs):
        r._after_complete(req)
        if req is not None and not req.persistent:
            r._release_req(sym)


def _h_waitany(r, m, p):
    """Directed: complete the *recorded* entry, via a real MPI_Waitany.
    Relaxed: let the live runtime pick, then release what it picked."""
    idx = p["index"]
    syms = p["array_of_requests"] or ()
    reqs = [r._take_req(sym) for sym in syms]
    status = True if p.get("status") is not None else None
    if not r.directed:
        got = yield from m.waitany(reqs if reqs else [None], status=status)
        live_idx = got[0] if isinstance(got, tuple) else got
        if isinstance(live_idx, int) and 0 <= live_idx < len(reqs):
            req = reqs[live_idx]
            r._after_complete(req)
            if req is not None and not req.persistent:
                r._release_req(syms[live_idx])
        return
    if idx == C.UNDEFINED or idx is None or idx < 0:
        yield from m.waitany(reqs if reqs else [None], status=status)
        return
    yield from m.waitany(reqs, status=status, directed_index=idx)
    req = reqs[idx]
    r._after_complete(req)
    if req is not None and not req.persistent:
        r._release_req(syms[idx])


def _h_waitsome(r, m, p):
    idxs = p.get("array_of_indices")
    syms = p["array_of_requests"] or ()
    reqs = [r._take_req(sym) for sym in syms]
    statuses = True if p.get("array_of_statuses") is not None else None
    if not r.directed:
        got = yield from m.waitsome(reqs if reqs else [None],
                                    statuses=statuses)
        live_idxs = got[0] if isinstance(got, tuple) else got
        for idx in live_idxs or ():
            if not (isinstance(idx, int) and 0 <= idx < len(reqs)):
                continue
            req = reqs[idx]
            r._after_complete(req)
            if req is not None and not req.persistent:
                r._release_req(syms[idx])
        return
    if idxs is None:
        # recorded outcount == MPI_UNDEFINED: every entry was null
        yield from m.waitsome(reqs if reqs else [None], statuses=statuses)
        return
    yield from m.waitsome(reqs, statuses=statuses,
                          directed_indices=list(idxs))
    for idx in idxs:
        req = reqs[idx]
        r._after_complete(req)
        if req is not None and not req.persistent:
            r._release_req(syms[idx])


def _h_test(r, m, p):
    sym = p.get("request")
    req = r._take_req(sym)
    flag = bool(p.get("flag"))
    status = True if p.get("status") is not None else None
    yield from m.test(req, status=status, directed_flag=flag)
    if flag:
        r._after_complete(req)
        if req is not None and not req.persistent:
            r._release_req(sym)


def _h_testall(r, m, p):
    syms = p.get("array_of_requests") or ()
    reqs = [r._take_req(sym) for sym in syms]
    flag = bool(p.get("flag"))
    statuses = True if p.get("array_of_statuses") is not None else None
    yield from m.testall(reqs, statuses=statuses, directed_flag=flag)
    if flag:
        for sym, req in zip(syms, reqs):
            r._after_complete(req)
            if req is not None and not req.persistent:
                r._release_req(sym)


def _h_testany(r, m, p):
    syms = p.get("array_of_requests") or ()
    reqs = [r._take_req(sym) for sym in syms]
    flag = bool(p.get("flag"))
    idx = p.get("index")
    status = True if p.get("status") is not None else None
    if not flag:
        yield from m.testany(reqs, status=status, directed_flag=False)
        return
    if not (isinstance(idx, int) and idx >= 0):
        yield from m.testany(reqs if reqs else [None], status=status)
        return
    yield from m.testany(reqs, status=status, directed_index=idx)
    req = reqs[idx]
    r._after_complete(req)
    if req is not None and not req.persistent:
        r._release_req(syms[idx])


def _h_testsome(r, m, p):
    syms = p.get("array_of_requests") or ()
    reqs = [r._take_req(sym) for sym in syms]
    idxs = p.get("array_of_indices")
    statuses = True if p.get("array_of_statuses") is not None else None
    if idxs is None:
        yield from m.testsome(reqs if reqs else [None], statuses=statuses)
        return
    yield from m.testsome(reqs, statuses=statuses,
                          directed_indices=list(idxs))
    for idx in idxs:
        req = reqs[idx]
        r._after_complete(req)
        if req is not None and not req.persistent:
            r._release_req(syms[idx])


def _h_request_free(r, m, p):
    req = r._take_req(p["request"])
    if req is not None:
        m.request_free(req)
    r._release_req(p["request"], persistent=False)
    return
    yield  # pragma: no cover


def _h_cancel(r, m, p):
    req = r._take_req(p["request"])
    if req is not None:
        m.cancel(req)
    return
    yield  # pragma: no cover


def _coll_bufs(r, m, p, scount, stype_key, rcount, rtype_key):
    stype = r._datatype(m, p[stype_key]) if stype_key in p else None
    rtype = r._datatype(m, p[rtype_key]) if rtype_key in p else None
    sbuf = r._buffer(m, p["sendbuf"], (scount or 1) * (stype.size if stype
                                                       else 8)) \
        if "sendbuf" in p else 0
    rbuf = r._buffer(m, p["recvbuf"], (rcount or 1) * (rtype.size if rtype
                                                       else 8)) \
        if "recvbuf" in p else 0
    return sbuf, stype, rbuf, rtype


def _h_barrier(r, m, p):
    yield from m.barrier(r.comm(p["comm"]))


def _h_bcast(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    dtype = r._datatype(m, p["datatype"])
    buf = r._buffer(m, p["buffer"], p["count"] * dtype.size)
    yield from m.bcast(buf, p["count"], dtype,
                       r._rankval(p["root"], ctx), comm)


def _h_reduce(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    dtype = r._datatype(m, p["datatype"])
    sbuf, _, rbuf, _ = _coll_bufs(r, m, p, p["count"], "datatype",
                                  p["count"], "datatype")
    yield from m.reduce(sbuf, rbuf, p["count"], dtype,
                        _OPS_BY_HANDLE[p["op"]],
                        r._rankval(p["root"], ctx), comm)


def _h_allreduce(r, m, p):
    comm = r.comm(p["comm"])
    dtype = r._datatype(m, p["datatype"])
    sbuf, _, rbuf, _ = _coll_bufs(r, m, p, p["count"], "datatype",
                                  p["count"], "datatype")
    if "request" in p:
        req = m.iallreduce(sbuf, rbuf, p["count"], dtype,
                           _OPS_BY_HANDLE[p["op"]], comm)
        r._bind_req(p["request"], req)
    else:
        yield from m.allreduce(sbuf, rbuf, p["count"], dtype,
                               _OPS_BY_HANDLE[p["op"]], comm)


def _h_gather_like(api_name, rooted=True):
    def handler(r: RankReplayer, m: RankAPI, p: dict):
        comm = r.comm(p["comm"])
        ctx = r._ctx_rank(comm)
        stype = r._datatype(m, p["sendtype"])
        rtype = r._datatype(m, p["recvtype"])
        scount = p.get("sendcount", 1)
        rcount = p.get("recvcount", 1)
        sbuf = r._buffer(m, p["sendbuf"], scount * stype.size)
        rbuf = r._buffer(m, p["recvbuf"], max(rcount, 1) * rtype.size)
        args = [sbuf, scount, stype, rbuf]
        if api_name in ("gatherv", "allgatherv"):
            args.extend((list(p["recvcounts"] or ()) or None,
                         list(p["displs"] or ()) or None, rtype))
        else:
            args.extend((rcount, rtype))
        if rooted:
            args.append(r._rankval(p["root"], ctx))
        args.append(comm)
        yield from getattr(m, api_name)(*args)
    return handler


def _h_scatterv(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    stype = r._datatype(m, p["sendtype"])
    rtype = r._datatype(m, p["recvtype"])
    sbuf = r._buffer(m, p["sendbuf"], 8)
    rbuf = r._buffer(m, p["recvbuf"], max(p["recvcount"], 1) * rtype.size)
    yield from m.scatterv(sbuf, list(p["sendcounts"] or ()) or None,
                          list(p["displs"] or ()) or None, stype, rbuf,
                          p["recvcount"], rtype,
                          r._rankval(p["root"], ctx), comm)


def _h_alltoall(r, m, p):
    comm = r.comm(p["comm"])
    stype = r._datatype(m, p["sendtype"])
    rtype = r._datatype(m, p["recvtype"])
    sbuf = r._buffer(m, p["sendbuf"], p["sendcount"] * stype.size)
    rbuf = r._buffer(m, p["recvbuf"], p["recvcount"] * rtype.size)
    if "request" in p:
        req = m.ialltoall(sbuf, p["sendcount"], stype, rbuf, p["recvcount"],
                          rtype, comm)
        r._bind_req(p["request"], req)
    else:
        yield from m.alltoall(sbuf, p["sendcount"], stype, rbuf,
                              p["recvcount"], rtype, comm)


def _h_alltoallv(r, m, p):
    comm = r.comm(p["comm"])
    stype = r._datatype(m, p["sendtype"])
    rtype = r._datatype(m, p["recvtype"])
    scounts = list(p["sendcounts"])
    rcounts = list(p["recvcounts"])
    sbuf = r._buffer(m, p["sendbuf"], sum(scounts) * stype.size)
    rbuf = r._buffer(m, p["recvbuf"], sum(rcounts) * rtype.size)
    yield from m.alltoallv(sbuf, scounts, list(p["sdispls"]), stype,
                           rbuf, rcounts, list(p["rdispls"]), rtype, comm)


def _h_reduce_scatter(r, m, p):
    comm = r.comm(p["comm"])
    dtype = r._datatype(m, p["datatype"])
    counts = list(p["recvcounts"])
    sbuf = r._buffer(m, p["sendbuf"], sum(counts) * dtype.size)
    rbuf = r._buffer(m, p["recvbuf"], max(counts) * dtype.size
                     if counts else 8)
    yield from m.reduce_scatter(sbuf, rbuf, counts, dtype,
                                _OPS_BY_HANDLE[p["op"]], comm)


def _h_reduce_scatter_block(r, m, p):
    comm = r.comm(p["comm"])
    dtype = r._datatype(m, p["datatype"])
    sbuf, _, rbuf, _ = _coll_bufs(r, m, p, p["recvcount"], "datatype",
                                  p["recvcount"], "datatype")
    yield from m.reduce_scatter_block(sbuf, rbuf, p["recvcount"], dtype,
                                      _OPS_BY_HANDLE[p["op"]], comm)


def _h_scan(api_name):
    def handler(r: RankReplayer, m: RankAPI, p: dict):
        comm = r.comm(p["comm"])
        dtype = r._datatype(m, p["datatype"])
        sbuf, _, rbuf, _ = _coll_bufs(r, m, p, p["count"], "datatype",
                                      p["count"], "datatype")
        yield from getattr(m, api_name)(sbuf, rbuf, p["count"], dtype,
                                        _OPS_BY_HANDLE[p["op"]], comm)
    return handler


def _h_ibarrier(r, m, p):
    req = m.ibarrier(r.comm(p["comm"]))
    r._bind_req(p["request"], req)
    return
    yield  # pragma: no cover


def _h_ibcast(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    dtype = r._datatype(m, p["datatype"])
    buf = r._buffer(m, p["buffer"], p["count"] * dtype.size)
    req = m.ibcast(buf, p["count"], dtype, r._rankval(p["root"], ctx), comm)
    r._bind_req(p["request"], req)
    return
    yield  # pragma: no cover


def _h_iallgather(r, m, p):
    comm = r.comm(p["comm"])
    stype = r._datatype(m, p["sendtype"])
    rtype = r._datatype(m, p["recvtype"])
    sbuf = r._buffer(m, p["sendbuf"], p["sendcount"] * stype.size)
    rbuf = r._buffer(m, p["recvbuf"], p["recvcount"] * rtype.size)
    req = m.iallgather(sbuf, p["sendcount"], stype, rbuf, p["recvcount"],
                       rtype, comm)
    r._bind_req(p["request"], req)
    return
    yield  # pragma: no cover


# -- communicator / group / datatype construction ---------------------------------

def _h_comm_dup(r, m, p):
    newcomm = yield from m.comm_dup(r.comm(p["comm"]))
    r.bind_comm(p["newcomm"], newcomm)


def _h_comm_idup(r, m, p):
    req = m.comm_idup(r.comm(p["comm"]))
    r._bind_req(p["request"], req)
    return
    yield  # pragma: no cover


def _h_comm_split(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    color = r._rankval(p["color"], ctx)
    key = r._rankval(p["key"], ctx)
    newcomm = yield from m.comm_split(comm, color, key)
    if newcomm is not None:
        r.bind_comm(p["newcomm"], newcomm)


def _h_comm_split_type(r, m, p):
    comm = r.comm(p["comm"])
    ctx = r._ctx_rank(comm)
    newcomm = yield from m.comm_split_type(
        comm, p["split_type"], r._rankval(p["key"], ctx))
    if newcomm is not None:
        r.bind_comm(p["newcomm"], newcomm)


def _h_comm_create(r, m, p):
    comm = r.comm(p["comm"])
    group = r.group_map[p["group"]]
    newcomm = yield from m.comm_create(comm, group)
    if newcomm is not None:
        r.bind_comm(p["newcomm"], newcomm)


def _h_comm_free(r, m, p):
    m.comm_free(r.comm(p["comm"]))
    return
    yield  # pragma: no cover


def _h_comm_set_name(r, m, p):
    m.comm_set_name(r.comm(p["comm"]), p["comm_name"])
    return
    yield  # pragma: no cover


def _h_intercomm_create(r, m, p):
    local = r.comm(p["local_comm"])
    peer = r.comm(p["peer_comm"])
    ctx = r._ctx_rank(local)
    newcomm = yield from m.intercomm_create(
        local, r._rankval(p["local_leader"], ctx), peer,
        p["remote_leader"], r._rankval(p["tag"], ctx))
    r.bind_comm(p["newintercomm"], newcomm)


def _h_intercomm_merge(r, m, p):
    inter = r.comm(p["intercomm"])
    newcomm = yield from m.intercomm_merge(inter, bool(p["high"]))
    r.bind_comm(p["newintracomm"], newcomm)


def _h_cart_create(r, m, p):
    comm = r.comm(p["comm_old"])
    newcomm = yield from m.cart_create(comm, p["dims"],
                                       [bool(x) for x in p["periods"]],
                                       bool(p["reorder"]))
    if newcomm is not None:
        r.bind_comm(p["comm_cart"], newcomm)


def _h_cart_sub(r, m, p):
    comm = r.comm(p["comm"])
    newcomm = yield from m.cart_sub(comm,
                                    [bool(x) for x in p["remain_dims"]])
    if newcomm is not None:
        r.bind_comm(p["newcomm"], newcomm)


def _h_group(fn):
    def handler(r: RankReplayer, m: RankAPI, p: dict):
        fn(r, m, p)
        return
        yield  # pragma: no cover
    return handler


def _g_comm_group(r, m, p):
    r.group_map[p["group"]] = m.comm_group(r.comm(p["comm"]))


def _g_incl(r, m, p):
    r.group_map[p["newgroup"]] = m.group_incl(r.group_map[p["group"]],
                                              list(p["ranks"]))


def _g_excl(r, m, p):
    r.group_map[p["newgroup"]] = m.group_excl(r.group_map[p["group"]],
                                              list(p["ranks"]))


def _g_union(r, m, p):
    r.group_map[p["newgroup"]] = m.group_union(r.group_map[p["group1"]],
                                               r.group_map[p["group2"]])


def _g_inter(r, m, p):
    r.group_map[p["newgroup"]] = m.group_intersection(
        r.group_map[p["group1"]], r.group_map[p["group2"]])


def _g_diff(r, m, p):
    r.group_map[p["newgroup"]] = m.group_difference(
        r.group_map[p["group1"]], r.group_map[p["group2"]])


def _g_range_incl(r, m, p):
    r.group_map[p["newgroup"]] = m.group_range_incl(
        r.group_map[p["group"]], [tuple(x) for x in p["ranges"]])


def _g_free(r, m, p):
    grp = r.group_map.pop(p["group"], None)
    if grp is not None:
        m.group_free(grp)


def _h_type_contiguous(r, m, p):
    r.type_map[p["newtype"]] = m.type_contiguous(
        p["count"], r._datatype(m, p["oldtype"]))
    return
    yield  # pragma: no cover


def _h_type_vector(r, m, p):
    r.type_map[p["newtype"]] = m.type_vector(
        p["count"], p["blocklength"], p["stride"],
        r._datatype(m, p["oldtype"]))
    return
    yield  # pragma: no cover


def _h_type_indexed(r, m, p):
    r.type_map[p["newtype"]] = m.type_indexed(
        list(p["array_of_blocklengths"]), list(p["array_of_displacements"]),
        r._datatype(m, p["oldtype"]))
    return
    yield  # pragma: no cover


def _h_type_struct(r, m, p):
    types = [r._datatype(m, sym) for sym in p["array_of_types"]]
    r.type_map[p["newtype"]] = m.type_create_struct(
        list(p["array_of_blocklengths"]), list(p["array_of_displacements"]),
        types)
    return
    yield  # pragma: no cover


def _h_type_commit(r, m, p):
    m.type_commit(r._datatype(m, p["datatype"]))
    return
    yield  # pragma: no cover


def _h_type_free(r, m, p):
    sym = p["datatype"]
    m.type_free(r._datatype(m, sym))
    r.type_map.pop(sym, None)
    return
    yield  # pragma: no cover


def _h_persistent_init(api_name):
    def handler(r: RankReplayer, m: RankAPI, p: dict):
        comm = r.comm(p["comm"])
        ctx = r._ctx_rank(comm)
        dtype = r._datatype(m, p["datatype"])
        buf = r._buffer(m, p["buf"], p["count"] * dtype.size)
        peer_key = "dest" if api_name == "send_init" else "source"
        req = getattr(m, api_name)(buf, p["count"], dtype,
                                   r._rankval(p[peer_key], ctx),
                                   r._rankval(p["tag"], ctx), comm)
        r._bind_req(p["request"], req)
        return
        yield  # pragma: no cover
    return handler


def _h_start(r, m, p):
    req = r._take_req(p["request"])
    if req is not None:
        m.start(req)
    return
    yield  # pragma: no cover


def _h_startall(r, m, p):
    reqs = [r._take_req(sym) for sym in (p["array_of_requests"] or ())]
    m.startall([q for q in reqs if q is not None])
    return
    yield  # pragma: no cover


def _h_win_create(r, m, p):
    comm = r.comm(p["comm"])
    base = r._buffer(m, p["base"], max(p["size"], 1))
    win = yield from m.win_create(base, p["size"], p["disp_unit"], comm)
    r.bind_win(p["win"], win)


def _h_win_allocate(r, m, p):
    comm = r.comm(p["comm"])
    base, win = yield from m.win_allocate(p["size"], p["disp_unit"], comm)
    r.bind_win(p["win"], win)
    bp = p.get("baseptr")
    if isinstance(bp, tuple) and bp and bp[0] == PTR_HEAP:
        r.seg_map[bp[1]] = (base, max(p["size"], 1) + r._SEG_PAD)


def _h_win_free(r, m, p):
    yield from m.win_free(r.win(p["win"]))


def _h_win_set_name(r, m, p):
    m.win_set_name(r.win(p["win"]), p["win_name"])
    return
    yield  # pragma: no cover


def _h_win_fence(r, m, p):
    yield from m.win_fence(r.win(p["win"]), p["assert"])


def _rma_args(r, m, p, key="origin_addr"):
    win = r.win(p["win"])
    ctx = r._ctx_rank(win.comm)
    odt = r._datatype(m, p["origin_datatype"])
    tdt = r._datatype(m, p["target_datatype"])
    obuf = r._buffer(m, p[key], p["origin_count"] * odt.size)
    target = r._rankval(p["target_rank"], ctx)
    return win, odt, tdt, obuf, target


def _h_put(r, m, p):
    win, odt, tdt, obuf, target = _rma_args(r, m, p)
    m.put(obuf, p["origin_count"], odt, target, p["target_disp"],
          p["target_count"], tdt, win)
    return
    yield  # pragma: no cover


def _h_get(r, m, p):
    win, odt, tdt, obuf, target = _rma_args(r, m, p)
    m.get(obuf, p["origin_count"], odt, target, p["target_disp"],
          p["target_count"], tdt, win)
    return
    yield  # pragma: no cover


def _h_accumulate(r, m, p):
    win, odt, tdt, obuf, target = _rma_args(r, m, p)
    m.accumulate(obuf, p["origin_count"], odt, target, p["target_disp"],
                 p["target_count"], tdt, _OPS_BY_HANDLE[p["op"]], win)
    return
    yield  # pragma: no cover


def _h_win_lock(r, m, p):
    win = r.win(p["win"])
    ctx = r._ctx_rank(win.comm)
    yield from m.win_lock(p["lock_type"], r._rankval(p["rank"], ctx), win,
                          p["assert"])


def _h_win_unlock(r, m, p):
    win = r.win(p["win"])
    ctx = r._ctx_rank(win.comm)
    m.win_unlock(r._rankval(p["rank"], ctx), win)
    return
    yield  # pragma: no cover


_HANDLERS = {
    "MPI_Send": _h_p2p_send("MPI_Send", "send", None),
    "MPI_Ssend": _h_p2p_send("MPI_Ssend", "ssend", None),
    "MPI_Bsend": _h_p2p_send("MPI_Bsend", "bsend", None),
    "MPI_Rsend": _h_p2p_send("MPI_Rsend", "rsend", None),
    "MPI_Isend": _h_p2p_send("MPI_Isend", None, "isend"),
    "MPI_Issend": _h_p2p_send("MPI_Issend", None, "issend"),
    "MPI_Recv": _h_recv,
    "MPI_Irecv": _h_irecv,
    "MPI_Sendrecv": _h_sendrecv,
    "MPI_Probe": _h_probe,
    "MPI_Wait": _h_wait,
    "MPI_Waitall": _h_waitall,
    "MPI_Waitany": _h_waitany,
    "MPI_Waitsome": _h_waitsome,
    "MPI_Test": _h_test,
    "MPI_Testall": _h_testall,
    "MPI_Testany": _h_testany,
    "MPI_Testsome": _h_testsome,
    "MPI_Request_free": _h_request_free,
    "MPI_Cancel": _h_cancel,
    "MPI_Barrier": _h_barrier,
    "MPI_Bcast": _h_bcast,
    "MPI_Reduce": _h_reduce,
    "MPI_Allreduce": _h_allreduce,
    "MPI_Iallreduce": _h_allreduce,
    "MPI_Gather": _h_gather_like("gather"),
    "MPI_Gatherv": _h_gather_like("gatherv"),
    "MPI_Scatter": _h_gather_like("scatter"),
    "MPI_Scatterv": _h_scatterv,
    "MPI_Allgather": _h_gather_like("allgather", rooted=False),
    "MPI_Allgatherv": _h_gather_like("allgatherv", rooted=False),
    "MPI_Alltoall": _h_alltoall,
    "MPI_Ialltoall": _h_alltoall,
    "MPI_Alltoallv": _h_alltoallv,
    "MPI_Reduce_scatter": _h_reduce_scatter,
    "MPI_Reduce_scatter_block": _h_reduce_scatter_block,
    "MPI_Scan": _h_scan("scan"),
    "MPI_Exscan": _h_scan("exscan"),
    "MPI_Ibarrier": _h_ibarrier,
    "MPI_Ibcast": _h_ibcast,
    "MPI_Iallgather": _h_iallgather,
    "MPI_Comm_dup": _h_comm_dup,
    "MPI_Comm_idup": _h_comm_idup,
    "MPI_Comm_split": _h_comm_split,
    "MPI_Comm_split_type": _h_comm_split_type,
    "MPI_Comm_create": _h_comm_create,
    "MPI_Comm_free": _h_comm_free,
    "MPI_Comm_set_name": _h_comm_set_name,
    "MPI_Intercomm_create": _h_intercomm_create,
    "MPI_Intercomm_merge": _h_intercomm_merge,
    "MPI_Cart_create": _h_cart_create,
    "MPI_Cart_sub": _h_cart_sub,
    "MPI_Comm_group": _h_group(_g_comm_group),
    "MPI_Group_incl": _h_group(_g_incl),
    "MPI_Group_excl": _h_group(_g_excl),
    "MPI_Group_union": _h_group(_g_union),
    "MPI_Group_intersection": _h_group(_g_inter),
    "MPI_Group_difference": _h_group(_g_diff),
    "MPI_Group_range_incl": _h_group(_g_range_incl),
    "MPI_Group_free": _h_group(_g_free),
    "MPI_Type_contiguous": _h_type_contiguous,
    "MPI_Type_vector": _h_type_vector,
    "MPI_Type_indexed": _h_type_indexed,
    "MPI_Type_create_struct": _h_type_struct,
    "MPI_Type_commit": _h_type_commit,
    "MPI_Type_free": _h_type_free,
    "MPI_Send_init": _h_persistent_init("send_init"),
    "MPI_Recv_init": _h_persistent_init("recv_init"),
    "MPI_Start": _h_start,
    "MPI_Startall": _h_startall,
    "MPI_Win_create": _h_win_create,
    "MPI_Win_allocate": _h_win_allocate,
    "MPI_Win_free": _h_win_free,
    "MPI_Win_set_name": _h_win_set_name,
    "MPI_Win_fence": _h_win_fence,
    "MPI_Put": _h_put,
    "MPI_Get": _h_get,
    "MPI_Accumulate": _h_accumulate,
    "MPI_Win_lock": _h_win_lock,
    "MPI_Win_unlock": _h_win_unlock,
}


# ---------------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------------

def structurally_equal(a_bytes: bytes, b_bytes: bytes) -> bool:
    """Are two traces the same modulo timing statistics?

    Compares every rank's decoded signature stream — the lossless call
    content.  CST duration sums are excluded: a replay runs on its own
    clock, so byte-identity is the wrong equivalence.
    """
    a = TraceDecoder.from_bytes(a_bytes)
    b = TraceDecoder.from_bytes(b_bytes)
    if a.nprocs != b.nprocs:
        return False
    for rank in range(a.nprocs):
        sa = [a.trace.cst.sigs[t] for t in a.rank_terminals(rank)]
        sb = [b.trace.cst.sigs[t] for t in b.rank_terminals(rank)]
        if sa != sb:
            return False
    return True


def build_rank_programs(decoder: TraceDecoder, *,
                        nprocs: Optional[int] = None,
                        directed: bool = True,
                        strict_ids: bool = True,
                        rank_sources: Optional[list[int]] = None):
    """Construct the replay machinery for one decoded trace.

    Returns ``(state, replayers, program)`` where *program* is the rank
    program to hand :meth:`~repro.mpisim.SimMPI.run`.  This is the one
    entry point both :func:`replay_trace` (directed, fixed-point) and
    :mod:`repro.replay.divergence` (relaxed, what-if) build on.

    ``nprocs`` overrides the replayed world size (rank extrapolation);
    ``rank_sources[r]`` names the recorded rank whose call stream replay
    rank *r* re-issues (default: itself — only meaningful with a
    ``nprocs`` override, where new ranks must borrow a recorded
    stream).
    """
    n = decoder.nprocs if nprocs is None else nprocs
    if n <= 0:
        raise ReplayFormatError(f"cannot replay on {n} ranks")
    if rank_sources is None:
        if n > decoder.nprocs:
            raise ReplayFormatError(
                f"replay on {n} ranks needs rank_sources: the trace only "
                f"records {decoder.nprocs}")
        rank_sources = list(range(n))
    elif len(rank_sources) != n:
        raise ReplayFormatError(
            f"rank_sources covers {len(rank_sources)} ranks, world is {n}")
    state = ReplayState(n)
    plan: dict[int, TermPlan] = {}
    with _structured_errors():
        replayers = [
            RankReplayer(r, state, decoder.rank_calls(rank_sources[r]),
                         plan=plan, directed=directed,
                         strict_ids=strict_ids)
            for r in range(n)
        ]

    def program(m):
        yield from replayers[m.rank].program(m)

    return state, replayers, program


@contextmanager
def _structured_errors():
    """Route malformed-trace failures into the
    :class:`~repro.core.errors.ReplayFormatError` hierarchy.

    A fuzzed-but-parseable trace can make replay set-up or the
    interpreter raise a bare simulator error (unknown handle, mismatched
    collective, a deadlock from a half-recorded exchange) or trip over a
    mistyped parameter or an internal assertion; the replayer's contract
    is the decoder's — structured errors only, never a crash.
    """
    try:
        yield
    except TraceFormatError:
        raise
    except RankProgramError as e:
        if isinstance(e.original, TraceFormatError):
            raise ReplayFormatError(
                f"rank {e.rank}: {e.original}") from e
        raise ReplayFormatError(
            f"trace is not replayable: rank {e.rank} raised "
            f"{type(e.original).__name__}: {e.original}") from e
    except (MpiSimError, AssertionError, KeyError, IndexError,
            TypeError, AttributeError) as e:
        raise ReplayFormatError(
            f"trace is not replayable: {type(e).__name__}: {e}") from e


def run_replay(sim: SimMPI, program):
    """Drive a replay program; malformed traces raise structured errors
    (see :func:`_structured_errors`)."""
    with _structured_errors():
        return sim.run(program)


def replay_trace(trace_bytes: bytes, *, seed: int = 0,
                 tracer=None, noise: float = 0.0):
    """Replay a Pilgrim trace on a fresh simulated world.

    Returns the :class:`~repro.mpisim.RunResult`; pass a tracer to
    re-trace the replay (the fixed-point check).
    """
    decoder = TraceDecoder.from_bytes(trace_bytes)
    _state, _replayers, program = build_rank_programs(decoder)
    sim = SimMPI(decoder.nprocs, seed=seed, tracer=tracer, noise=noise)
    return run_replay(sim, program)
