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

Replay is the registry (:mod:`repro.mpisim.funcs`) read backwards.  The
encoder walks a function's parameters kind by kind to write a signature;
replay compiles, per function, the inverse walk: each simulator argument
is the recorded value put through its kind's *resolver* (``_RESOLVERS``)
— once per rank and terminal, like the encoder's call-site memo — each
created object is bound under its recorded id by its kind's *binder*
(``_BINDERS``), and every recorded non-deterministic outcome is pinned
through ``_DIRECTED``.  Nothing is enumerated per function except where
the paper itself special-cases (``_SPECIAL``).

Replay maintains the symbolic↔live object bindings the tracer created:

* communicator ids are re-derived with the same group-max algorithm and
  checked against the recorded ids (a disagreement means the trace and
  the replayed construction order diverged — an internal error);
* datatypes are rebuilt from their recorded recipes;
* request ids ``(pool, slot)`` bind at creation and release at the
  completing call by the encoder's own rule, mirroring §3.4.3;
* buffers are materialized lazily per recorded segment id, preserving
  displacements.

The fixed point property — tracing a replay yields the original trace's
call content, signature for signature (:func:`structurally_equal`) —
holds for programs whose non-deterministic choices are fully directed by
the trace (no empty Test* polls); ``tests/test_replay.py`` and the API
tour in ``tests/test_replay_registry.py`` assert it.
Timing statistics necessarily differ (a replay has its own clock), which
is why the comparison is structural rather than byte-wise.
"""

from __future__ import annotations

import functools
import inspect
import re
from contextlib import contextmanager
from types import GeneratorType
from typing import Any, Callable, Iterable, NamedTuple, Optional

from ..mpisim import constants as C
from ..mpisim import funcs as F
from ..mpisim.comm import Comm
from ..mpisim.datatypes import BUILTINS, Datatype
from ..mpisim.errors import MpiSimError, RankProgramError
from ..mpisim.group import Group
from ..mpisim.ops import ALL_OPS
from ..mpisim.request import KIND_IDUP
from ..mpisim.runtime import RankAPI, SimMPI
from ..core.decoder import RankStream, TraceDecoder
from ..core.errors import ReplayFormatError, TraceFormatError
from ..core.encoder import (_RELEASING, CommIdSpace, PTR_DEVICE, PTR_HEAP,
                            PTR_NULL, PTR_STACK, WinIdSpace)
from ..core.relative import MARK_REL

_OPS_BY_HANDLE = {op.handle: op for op in ALL_OPS}

#: recorded calls replay cannot re-derive an argument of, so re-issues
#: nothing for (the comparator skips them with accounting):
#: ``MPI_Get_count``'s status input kept its source and tag, not its count
NOT_REISSUED = frozenset(("MPI_Get_count",))
#: calls a replay cannot survive: they fail where they are reached
NOT_REPLAYABLE = frozenset(("MPI_Abort",))
#: pseudo-calls the runtime emits itself around every rank program
RUNTIME_EMITTED = frozenset(("MPI_Init", "MPI_Finalize"))
#: where a wildcard irecv keeps what the prescan reads
_IRECV_REQUEST = F.FUNCS["MPI_Irecv"].pos["request"]
_IRECV_SOURCE = F.FUNCS["MPI_Irecv"].pos["source"]


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
# the registry read backwards: kind -> resolver, kind -> binder, outcome -> pin
# ---------------------------------------------------------------------------------

_ANY_SOURCE_ENC = (0, C.ANY_SOURCE)  # (MARK_SPECIAL, ANY_SOURCE)


def _abs(v, ctx: int):
    """A recorded rank/tag/colour/key against the caller's context rank
    (``core.relative.decode``, lenient to an already-absolute int)."""
    if v.__class__ is tuple:
        return v[1] + ctx if v[0] == MARK_REL else v[1]
    return v


def _status_source(st, ctx: int) -> Optional[int]:
    """Recorded completion source (directed replay of ANY_SOURCE)."""
    return None if st is None else _abs(st[0], ctx)


#: per parameter kind, the expression turning the recorded value ``{v}``
#: into the live argument (``r`` the replayer, ``m`` the rank's API,
#: ``ctx`` the context rank).  ``tests/test_replay_registry.py`` fails on
#: a registry kind that is neither here nor a binder.
_RESOLVERS = {
    F.K_COMM: "r.comm({v})",
    F.K_WIN: "r.win({v})",
    F.K_GROUP: "r.group_map[{v}]",
    F.K_DATATYPE: "r._datatype({v})",
    F.K_DATATYPEV: "[r._datatype(t) for t in {v}]",
    F.K_REQUEST: "r.req_map.get({v})",
    F.K_REQUESTV: "[r.req_map.get(s) for s in {v}]",
    F.K_OP: "_OPS_BY_HANDLE[{v}]",
    F.K_PTR: "r._buffer(m, {v})",
    F.K_RANK: "_abs({v}, ctx)", F.K_ROOT: "_abs({v}, ctx)",
    F.K_TAG: "_abs({v}, ctx)", F.K_COLOR: "_abs({v}, ctx)",
    F.K_KEY: "_abs({v}, ctx)",
    # MPI_STATUS(ES)_IGNORE is recorded as None; anything else asks
    F.K_STATUS: "(None if {v} is None else True)",
    F.K_STATUSV: "(None if {v} is None else True)",
}
#: kinds passed as recorded
_RESOLVERS.update(dict.fromkeys(
    (F.K_COUNT, F.K_INT, F.K_STR, F.K_FLAG, F.K_INTV, F.K_INDEX,
     F.K_INDEXV), "{v}"))

#: per OUT kind, the statement binding the call's result ``ret`` under
#: the recorded id ``{v}``.  A call that returns a request binds only
#: that: whatever else it creates is delivered by the completing call
#: (``MPI_Comm_idup``, §3.3.1 — :meth:`RankReplayer._release`).
_BINDERS = {
    F.K_NEWCOMM: "r.bind_comm({v}, ret)",
    F.K_NEWWIN: "r.bind_win({v}, ret)",
    F.K_NEWTYPE: "r.type_map[{v}] = ret; r._rebound()",
    F.K_GROUP: "r.group_map[{v}] = ret; r._rebound()",
    F.K_REQUEST: "r.req_map[{v}] = ret",
}

#: recorded non-determinism, pinned: simulator keyword -> (the kind
#: whose recorded value it takes, expression over it).  What-if replay
#: (``directed=False``) leaves wildcard matching and the *blocking*
#: picks (Waitany/Waitsome) to the live simulator; Test* polls stay
#: pinned even then, so the call count is conserved and an empty poll
#: cannot livelock.
_DIRECTED = {
    "directed_index": (F.K_INDEX, "{v}"),
    "directed_indices": (F.K_INDEXV, "{v}"),
    "directed_flag": (F.K_FLAG, "bool({v})"),
    "directed_source": (F.K_STATUS, "_status_source({v}, ctx)"),
}

#: the one simulator parameter that cannot be spelled as the registry
#: spells it (``assert`` is a keyword)
_ALIASES = {"assert_": ("assert",)}
#: simulator parameters with no registry counterpart, never passed
#: (message payloads: a trace records communication, not data)
_REPLAY_ONLY = frozenset(("data",))


class _Special(NamedTuple):
    #: simulator argument -> expression replacing its resolver
    args: dict = {}
    #: statement run after the call, before the binders
    post: str = ""
    #: null entries of the request parameter are not re-issued
    null_guard: bool = False


#: explicit code, only where the paper itself special-cases: it runs per
#: call, its ``${...}`` parts bound once
_SPECIAL = {
    # §3.3.2: a wildcard irecv's source is recorded by the call that
    # completes it — matched by request id and occurrence
    "MPI_Irecv": _Special(args={
        "directed_source": "(r._wildcard_source(${p['request']}, ${ctx}) "
                           "if ${p['source'] == _ANY_SOURCE_ENC} else None)"}),
    # §3.4.2: Cartesian coordinates are recorded relative to the caller's
    "MPI_Cart_rank": _Special(args={
        "coords": "${r._abs_coords(comm, ctx, p['coords'])}"}),
    # §3.3.3: the call allocates the segment its recorded id names
    "MPI_Win_allocate": _Special(
        post="ret = r._bind_allocated(${p['baseptr']}, ${p['size']}, ret)"),
    # released ids are re-handed to the next object created
    "MPI_Type_free": _Special(
        post="r.type_map.pop(${p['datatype']}, None); r._rebound()"),
    "MPI_Group_free": _Special(
        post="r.group_map.pop(${p['group']}, None); r._rebound()"),
    # a request recorded as MPI_REQUEST_NULL has nothing to act on
    "MPI_Start": _Special(null_guard=True),
    "MPI_Startall": _Special(null_guard=True),
    "MPI_Cancel": _Special(null_guard=True),
    "MPI_Request_free": _Special(null_guard=True),
}


def _compile_runner(fname: str) -> tuple[Callable, Callable]:
    """Generate the inverse of the encoder's walk for one registry
    function, in two halves: ``bind(r, m, p) -> (run, ...)`` resolves what
    reads only the signature (``p``, its values by registry position)
    and the rank's bindings, ``run(r, m, a)``
    keeps what a call can change — request lookups, the wildcard
    occurrence count, the call, the binders, the release."""
    if fname in NOT_REPLAYABLE:
        def run(r, m, a):  # fails where the call is reached
            raise ReplayFormatError(f"replay has no handler for {fname}")
            yield  # pragma: no cover - make this a generator
        return (lambda r, m, p: (run,)), run
    spec = F.FUNCS[fname]
    method = fname[4:].lower()
    special = _SPECIAL.get(fname, _Special())
    params = {prm.name: prm for prm in spec.params}
    by_kind = {prm.kind: prm for prm in spec.params}
    bound = ["run"]  # what bind returns, in order
    body = []  # what run does
    call_args = []
    held = []  # request parameters resolved into locals, released after
    by_keyword = False

    def b(expr: str) -> str:
        """Bind *expr* once; the local that carries it into ``run``."""
        if expr not in bound:
            bound.append(expr)
        return f"a{bound.index(expr)}"

    def live(code: str, v: str = "") -> str:
        """Per-call *code*, its recorded value ``{v}`` and its
        ``${...}`` parts bound."""
        return re.sub(r"\$\{(.*?)\}", lambda mo: b(mo[1]),
                      code.replace("{v}", v and b(v)))

    sim_params = list(inspect.signature(
        getattr(RankAPI, method)).parameters.values())[1:]
    for sp in sim_params:
        if sp.name in _REPLAY_ONLY:
            by_keyword = True  # skipped: what follows goes by name
            continue
        if sp.name in special.args:
            expr = live(special.args[sp.name])
        elif sp.name in _DIRECTED:
            kind, template = _DIRECTED[sp.name]
            expr = template.format(v=f"p[{by_kind[kind].name!r}]")
            if sp.name == "directed_source" or fname.startswith("MPI_Wait"):
                expr = f"({expr} if r.directed else None)"
            expr = b(expr)
        else:
            prm = next((params[n] for n in (sp.name, *_ALIASES.get(
                sp.name, ())) if n in params), None)
            if prm is None:
                raise KeyError(f"{fname}: simulator parameter {sp.name!r} "
                               f"has no registry counterpart")
            if prm.name == spec.ctx_comm:
                expr = b("comm")
            elif prm.kind in (F.K_REQUEST, F.K_REQUESTV):
                body.append(f"{prm.name} = "
                            + live(_RESOLVERS[prm.kind], f"p[{prm.name!r}]"))
                held.append(prm)
                expr = prm.name
                if special.null_guard and prm.kind == F.K_REQUEST:
                    body.append(f"if {expr} is None: return")
                elif special.null_guard:
                    body.append(f"{expr} = [q for q in {expr} "
                                f"if q is not None]")
            else:
                expr = b(_RESOLVERS[prm.kind].format(v=f"p[{prm.name!r}]"))
        if by_keyword or sp.kind is sp.KEYWORD_ONLY:
            expr = f"{sp.name}={expr}"
        call_args.append(expr)
    body += [f"ret = m.{method}({', '.join(call_args)})",
             # send/ssend/bsend/rsend *return* a generator without being
             # generator functions: test the result, not the method
             "if ret.__class__ is _GeneratorType: ret = yield from ret"]
    if special.post:
        body.append(live(special.post))
    outs = [prm for prm in spec.params
            if prm.direction == F.OUT and prm.kind in _BINDERS]
    if any(prm.kind == F.K_REQUEST for prm in outs):
        outs = [prm for prm in outs if prm.kind == F.K_REQUEST]
    for prm in outs:
        body.append(live(_BINDERS[prm.kind], f"p[{prm.name!r}]"))
    if fname in _RELEASING:
        for prm in held:
            sym = b(f"p[{prm.name!r}]")
            if prm.kind == F.K_REQUEST:
                body.append(f"r._release({sym}, {prm.name})")
            else:
                body += [f"for sym, req in zip({sym}, {prm.name}):",
                         "    r._release(sym, req)"]
    body.insert(0, f"{', '.join(f'a{i}' for i in range(len(bound)))}, = a")
    # the context rank, by the registry's one rule (FuncSpec.ctx_comm);
    # no communicator parameter: the world rank
    comm = "None" if spec.ctx_comm is None \
        else f"r.comm(p[{spec.ctx_comm!r}])"
    src = (f"def bind(r, m, p):\n"
           f"    comm = {comm}\n"
           f"    ctx = _context_rank(comm, r.rank)\n"
           f"    return ({', '.join(bound)},)\n"
           f"def run(r, m, a):\n    " + "\n    ".join(body) + "\n")
    # the recorded values arrive as the signature's tuple: every
    # parameter is read by its registry position, as the hook passes it
    src = re.sub(r"p\['(\w+)'\]", lambda mo: f"p[{spec.pos[mo[1]]}]", src)
    ns = {"_abs": _abs, "_status_source": _status_source,
          "_context_rank": F.context_rank, "_OPS_BY_HANDLE": _OPS_BY_HANDLE,
          "_ANY_SOURCE_ENC": _ANY_SOURCE_ENC,
          "_GeneratorType": GeneratorType}
    exec(compile(src, f"<replay {fname}>", "exec"), ns)
    return ns["bind"], ns["run"]


@functools.cache
def _runner(fname: str) -> Optional[Callable]:
    """The compiled ``bind`` for *fname* (what it returns starts with its
    ``run``); None for what replay does not re-issue (``NOT_REISSUED``)
    or the runtime emits itself."""
    if fname in NOT_REISSUED or fname in RUNTIME_EMITTED:
        return None
    return _compile_runner(fname)[0]


# ---------------------------------------------------------------------------------
# the per-signature table
# ---------------------------------------------------------------------------------

#: the kinds ``_DIRECTED`` pins, in the order the comparator reports a
#: mismatch; ``K_INT`` is the count an index set comes with (``outcount``)
_OUTCOME_KINDS = (F.K_INDEX, F.K_INDEXV, F.K_INT, F.K_FLAG, F.K_STATUS)


@functools.cache
def _outcome_fields(fname: str) -> tuple:
    """``(kind, name, FuncSpec.pos)`` of *fname*'s outcome parameters."""
    params = F.FUNCS[fname].params
    counted = any(p.kind == F.K_INDEXV for p in params)
    return tuple((kind, p.name, i) for kind in _OUTCOME_KINDS
                 for i, p in enumerate(params) if p.kind == kind
                 and (kind != F.K_INT or counted and p.direction == F.OUT))


def _says_something(kind: str, v: Any) -> bool:
    """Could a live value disagree with this recorded one?  (Isend,
    irecv, collectives: never — the comparator spends one branch.)"""
    if kind == F.K_STATUS:
        return isinstance(v, tuple) and len(v) == 2
    if kind == F.K_FLAG:
        return v is not None
    return kind == F.K_INDEXV or isinstance(v, int)


@functools.cache
def _ptr_positions(fname: str) -> tuple:
    """Where *fname*'s buffer pointers are (``K_PTR``), by position."""
    return tuple(i for i, p in enumerate(F.FUNCS[fname].params)
                 if p.kind == F.K_PTR)


class SigPlan(NamedTuple):
    """What replay derives from one CST signature, once per trace,
    however many calls and ranks share it: the engine reads ``bind``,
    ``segments`` and ``win_sid``, the comparator its verdict (``fname``,
    ``avg``, ``outcome``)."""

    fname: str
    #: the recorded values, in ``FuncSpec.params`` order — the order the
    #: hook carries live values in
    values: tuple
    #: bind(replayer, api, values) -> (run, *bound arguments), compiled
    #: per *function* from its registry entry; None for MPI_Init /
    #: MPI_Finalize, which the runtime emits itself, and ``NOT_REISSUED``
    bind: Optional[Callable]
    #: every heap/device segment a pointer names: (sid, device or -1,
    #: offset)
    segments: tuple
    #: sid MPI_Win_allocate returns (the replayed call allocates it)
    win_sid: Optional[int]
    #: the recorded mean duration (seconds)
    avg: float
    #: the outcome fields worth comparing (``_outcome_fields``), or None
    outcome: Optional[tuple]


def plan_signature(spec: F.FuncSpec, sig: tuple,
                   avg: float = 0.0) -> SigPlan:
    """Plan one CST signature ``(fid, *values)`` of the registry entry
    *spec* (``records.sig_spec`` checks the pair), whose mean recorded
    duration is *avg*."""
    fname, values = spec.name, sig[1:]
    segments = []
    for i in _ptr_positions(fname):
        v = values[i]
        if v.__class__ is tuple and v:
            if v[0] == PTR_HEAP and len(v) == 3:
                segments.append((v[1], -1, v[2]))
            elif v[0] == PTR_DEVICE and len(v) == 4:
                segments.append((v[2], v[1], v[3]))
    win_sid = None
    if fname == "MPI_Win_allocate":
        bp = values[spec.pos["baseptr"]]
        if isinstance(bp, tuple) and bp and bp[0] == PTR_HEAP:
            win_sid = bp[1]
    outcome = _outcome_fields(fname)
    if outcome:
        outcome = tuple(f for f in outcome
                        if _says_something(f[0], values[f[2]])) or None
    else:
        outcome = None
    return SigPlan(fname, values, _runner(fname), tuple(segments), win_sid,
                   avg, outcome)


def signature_table(decoder: TraceDecoder,
                    sources: Iterable[int]) -> dict[int, SigPlan]:
    """One :class:`SigPlan` per CST terminal the recorded ranks *sources*
    use, in one pass: what the replayers and the comparator of one
    replay share."""
    cst = decoder.trace.cst
    table: dict[int, SigPlan] = {}
    seen: set[int] = set()  # ranks of one grammar share one list
    for rank in sources:
        terms = decoder.rank_terminals(rank)
        if id(terms) in seen:
            continue
        seen.add(id(terms))
        for term in dict.fromkeys(terms):
            if term not in table:
                spec, sig = decoder.signature(term, rank)
                count = cst.counts[term]
                table[term] = plan_signature(
                    spec, sig, cst.dur_sums[term] / count if count else 0.0)
    return table


def _reported(plan: SigPlan) -> tuple:
    """``(request id, recorded status)`` for every request a completion
    call reports on, paired by parameter kind through the registry's
    ``FuncSpec.status_picks`` — so every completion call is covered by
    construction.  A false flag reports on nothing."""
    spec = F.FUNCS[plan.fname]
    syms = statuses = None
    for prm, v in zip(spec.params, plan.values):
        if prm.kind == F.K_FLAG and not v:
            return ()
        if prm.kind == F.K_REQUEST:
            syms = (v,)
        elif prm.kind == F.K_REQUESTV:
            syms = v
        elif prm.kind == F.K_STATUS:
            statuses = (v,)
        elif prm.kind == F.K_STATUSV:
            statuses = v
    if syms is None or statuses is None:
        return ()
    picks = spec.status_picks
    if picks is not None:
        idxs = plan.values[spec.pos[picks.name]]
        if picks.kind == F.K_INDEX:
            idxs = (idxs,)
        if idxs is None:
            return ()
        syms = [syms[i] if isinstance(i, int) and 0 <= i < len(syms)
                else None for i in idxs]
    return tuple((sym, st) for sym, st in zip(syms, statuses)
                 if sym is not None)


class RankReplayer:
    """Replays one rank's recorded call stream.

    ``stream`` is a :class:`~repro.core.decoder.RankStream` whose table
    holds a :class:`SigPlan` per terminal — one table per trace, shared
    by every rank and by the comparator (:func:`signature_table`).
    Construction folds the stream's plans into the rank's set-up: the
    segments to materialize in ascending symbolic-id order (preserving
    the tracer's id assignment and hence the fixed-point property) and
    the recorded source of every wildcard irecv.  A terminal's arguments
    are bound at its first call on the rank (``bound``), so per call that
    leaves one table lookup and the function's ``run``.

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
                 directed: bool = True, strict_ids: bool = True) -> None:
        self.rank = rank
        self.state = state
        self.stream = stream
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
        #: terminal -> what its ``bind`` returned, filled at the
        #: terminal's first call and dropped whenever a symbol is rebound
        self.bound: dict[int, tuple] = {}
        self.binds = self.rebinds = 0
        # the stream's terminals, each once, in last-occurrence order
        last_seen = list(dict.fromkeys(reversed(stream.terms)))
        last_seen.reverse()
        #: segments to materialize, ascending sid: (sid, device, max_off)
        self._segments = self._fold_segments(last_seen)
        #: (request sym, occurrence) -> recorded completion source enc
        self._any_sources = self._scan_wildcards(last_seen)

    # -- symbolic object bindings (per rank) --------------------------------------

    def _rebound(self) -> None:
        """A symbol now names another live object: no bound argument may
        outlive it (``PerRankEncoder._sig_cache``'s rule, backwards)."""
        self.bound.clear()
        self.rebinds += 1

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
        self._rebound()

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
        self._rebound()

    def win(self, sym: int):
        try:
            return self.win_map[sym]
        except KeyError:
            raise ReplayFormatError(
                f"replay references unknown win id {sym}")

    #: generous per-segment tail so any in-segment displacement the trace
    #: references stays inside the materialized allocation
    _SEG_PAD = 1 << 16

    def _fold_segments(self, terms: list[int]) -> list[tuple[int, int, int]]:
        """Fold the segment mentions of the stream's distinct *terms*
        into ``(sid, device, max displacement)`` — in last-occurrence
        order, so a sid reused across devices keeps the device the stream
        mentions last, as a call-by-call walk would conclude."""
        table = self.stream.table
        need: dict[int, tuple[int, int]] = {}  # sid -> (device, max_off)
        skip_sids: set[int] = set()
        for term in terms:
            entry = table[term]
            for sid, dev, off in entry.segments:
                need[sid] = (dev, max(need.get(sid, (dev, 0))[1], off))
            if entry.win_sid is not None:
                skip_sids.add(entry.win_sid)
        return [(sid, dev, off)
                for sid, (dev, off) in sorted(need.items())
                if sid not in skip_sids]

    def _scan_wildcards(self, terms: list[int]) -> dict[tuple, Any]:
        """The recorded completion source of every wildcard irecv, keyed
        by request id and occurrence (so pool-slot reuse is handled) —
        what directed replay pins ``ANY_SOURCE`` to.  The one set-up step
        that needs call order: the stream is walked only when one of its
        distinct *terms* is an ``ANY_SOURCE`` ``MPI_Irecv``."""
        found: dict[tuple, Any] = {}
        entries = [(term, self.stream.table[term]) for term in terms]
        posts = {term: e.values[_IRECV_REQUEST] for term, e in entries
                 if e.fname == "MPI_Irecv"
                 and e.values[_IRECV_SOURCE] == _ANY_SOURCE_ENC}
        if not posts:
            return found
        reports = {term: _reported(e) for term, e in entries
                   if e.fname in _RELEASING}
        occ_next: dict[tuple, int] = {}
        occ_active: dict[tuple, int] = {}
        for term in self.stream.terms:
            key = posts.get(term)
            if key is not None:
                occ = occ_active[key] = occ_next.get(key, 0)
                occ_next[key] = occ + 1
                continue
            for key, st in reports.get(term, ()):
                occ = occ_active.pop(key, None)
                if occ is not None and st is not None:
                    found[(key, occ)] = st[0]
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

    def _datatype(self, sym: int) -> Datatype:
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

    def _buffer(self, m: RankAPI, enc: tuple) -> int:
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

    # -- the explicit cases (``_SPECIAL``) ---------------------------------------------

    def _wildcard_source(self, key: tuple, ctx: int) -> Optional[int]:
        """The source the current occurrence of the wildcard irecv
        posted under request id *key* was recorded completing from; None
        leaves the match to the live simulator."""
        if not self.directed:
            return None
        occ = self._any_occ.get(key, 0)
        self._any_occ[key] = occ + 1
        rec = self._any_sources.get((key, occ))
        return None if rec is None else _abs(rec, ctx)

    @staticmethod
    def _abs_coords(comm: Optional[Comm], ctx: int, coords) -> list[int]:
        """Undo the encoder's caller-relative Cartesian coordinates."""
        if comm is None or comm.topo is None:
            return list(coords)
        return [c + o for c, o in zip(coords, comm.topo.coords_of(ctx))]

    def _bind_allocated(self, bp, size: int, ret):
        """``MPI_Win_allocate`` returns the memory with the window: the
        segment id recorded in *bp* now names that allocation."""
        base, win = ret
        if isinstance(bp, tuple) and bp and bp[0] == PTR_HEAP:
            self.seg_map[bp[1]] = (base, max(size, 1) + self._SEG_PAD)
            self._rebound()
        return win

    def _release(self, sym, req) -> None:
        """Release a request id by the encoder's own rule
        (``core.encoder._RELEASE``): a non-persistent request
        the call consumed or freed.  Mirrors its §3.3.1 wait-time step
        too: a completed ``MPI_Comm_idup`` delivers its communicator
        (and id) here."""
        if req is None or req.persistent \
                or not (req.consumed or req.freed):
            return
        if req.kind == KIND_IDUP and isinstance(req.value, Comm):
            new = self.state.comm_space.sym_for(req.value)
            if new not in self.comm_map:  # a first binding: nothing to drop
                self.comm_map[new] = req.value
        self.req_map.pop(sym, None)

    # -- the interpreter --------------------------------------------------------------------

    def program(self, m: RankAPI):
        """Generator: re-issues every recorded call on the live runtime."""
        self.comm_map.setdefault(0, m.world)
        self._materialize_segments(m)
        table, bound = self.stream.table, self.bound
        for term in self.stream.terms:
            a = bound.get(term)
            if a is None:
                entry = table[term]
                if entry.bind is None:
                    continue
                a = bound[term] = entry.bind(self, m, entry.values)
                self.binds += 1
            yield from a[0](self, m, a)


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
                        rank_sources: Optional[list[int]] = None,
                        table: Optional[dict[int, SigPlan]] = None):
    """Construct the replay machinery for one decoded trace.

    Returns ``(state, replayers, program)`` where *program* is the rank
    program to hand :meth:`~repro.mpisim.SimMPI.run`.  This is the one
    entry point both :func:`replay_trace` (directed, fixed-point) and
    :mod:`repro.replay.divergence` (relaxed, what-if) build on.

    ``nprocs`` overrides the replayed world size (rank extrapolation);
    ``rank_sources[r]`` names the recorded rank whose call stream replay
    rank *r* re-issues (default: itself — only meaningful with a
    ``nprocs`` override, where new ranks must borrow a recorded
    stream).  ``table`` is the trace's :func:`signature_table` over
    those sources, when the caller built it already (the comparator
    shares it).
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
    if table is None:
        table = signature_table(decoder, rank_sources)
    with _structured_errors():
        replayers = [
            RankReplayer(r, state,
                         RankStream(decoder.rank_terminals(rank_sources[r]),
                                    table),
                         directed=directed, strict_ids=strict_ids)
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
