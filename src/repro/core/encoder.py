"""Registry-driven call-signature encoding (§3.3).

The encoder turns a traced call's ``(fname, values)`` — the arguments in
registry parameter order — into a flat hashable *call signature* tuple
``(fid, v1, v2, ...)`` in the same order.  Every opaque value goes symbolic:

* communicators — globally agreed ids via :class:`CommIdSpace`
  (the §3.3.1 group-wide max algorithm, including the non-blocking
  ``MPI_Comm_idup`` case resolved at Wait/Test time);
* datatypes/groups — per-rank :class:`ObjectIdTable` pools;
* requests — per-signature pools (:class:`RequestIdAllocator`, §3.4.3);
* memory pointers — AVL-tree segment lookup → (segment id, displacement,
  device) with the stack-address fallback (§3.3.3);
* ranks and rank-correlated ints — relative encoding (§3.4.2);
* statuses — only ``(MPI_SOURCE, MPI_TAG)`` survive (§3.3.2).

Everything else (counts, flags, strings, index arrays from Testsome — the
non-determinism the paper insists on preserving) is stored verbatim.
"""

from __future__ import annotations

from itertools import chain, repeat
from textwrap import indent
from typing import Any, Optional

from ..mpisim import constants as C
from ..mpisim import funcs as F
from ..mpisim.comm import Comm
from ..mpisim.datatypes import Datatype
from ..mpisim.group import Group
from ..mpisim.ops import Op
from ..mpisim.request import KIND_IDUP, Request
from .avl import IntervalTree
from .relative import (_SPECIALS, MARK_ABS, MARK_REL, MARK_SPECIAL,
                       encode_rank, encode_rankish)
from .symbolic import IdPool, ObjectIdTable, RequestIdAllocator

# pointer encodings (first element of the tuple)
PTR_NULL = 0
PTR_HEAP = 1
PTR_STACK = 2
PTR_DEVICE = 3


class CommIdSpace:
    """Communicator symbolic ids, agreed group-wide (§3.3.1).

    In the real Pilgrim every member of a new communicator's group runs a
    max-allreduce over its locally-assigned ids and uses max+1.  Here the
    per-rank maxima live side by side in one object, so the agreement is
    a direct computation over the member ranks — same ids, same ordering
    guarantees (see DESIGN.md §1 on this substitution).
    """

    def __init__(self, nprocs: int):
        self._sym: dict[int, int] = {0: 0}   # world comm is id 0 everywhere
        self._max = [0] * nprocs

    def sym_for(self, comm: Comm) -> int:
        sym = self._sym.get(comm.cid)
        if sym is None:
            members = list(comm.group.ranks)
            if comm.remote_group is not None:
                # inter-communicator: the paper merges into a temporary
                # intra-communicator and runs the same algorithm over the
                # union of both groups
                members.extend(comm.remote_group.ranks)
            sym = 1 + max(self._max[r] for r in members)
            self._sym[comm.cid] = sym
            for r in members:
                if self._max[r] < sym:
                    self._max[r] = sym
        return sym

    @property
    def count(self) -> int:
        return len(self._sym)


class WinIdSpace:
    """Window symbolic ids, agreed group-wide like communicators —
    windows are collective objects, so every member must use the same id
    (same §3.3.1 algorithm, separate pool per object type)."""

    def __init__(self, nprocs: int):
        self._sym: dict[int, int] = {}
        self._max = [-1] * nprocs

    def sym_for(self, win) -> int:
        sym = self._sym.get(win.wid)
        if sym is None:
            members = list(win.comm.group.ranks)
            if win.comm.remote_group is not None:
                members.extend(win.comm.remote_group.ranks)
            sym = 1 + max(self._max[r] for r in members)
            self._sym[win.wid] = sym
            for r in members:
                if self._max[r] < sym:
                    self._max[r] = sym
        return sym


class MemoryTable:
    """Per-rank live-segment tracking with symbolic segment ids."""

    def __init__(self) -> None:
        self.tree = IntervalTree()
        self._pool = IdPool()
        self._stack_ids: dict[int, int] = {}
        self._next_stack = 0
        #: bumped on every live-segment mutation; signature caches keyed
        #: on raw addresses must invalidate when this changes
        self.epoch = 0

    # -- allocation interception ------------------------------------------------

    def on_alloc(self, addr: int, size: int, device: int = -1) -> int:
        sid = self._pool.acquire()
        self.tree.insert(addr, max(size, 1), (sid, device))
        self.epoch += 1
        return sid

    def on_free(self, addr: int) -> Optional[int]:
        node = self.tree.find_exact(addr)
        if node is None:
            return None
        sid, _dev = node.payload
        self.tree.remove(addr)
        self._pool.release(sid)
        self.epoch += 1
        return sid

    # -- pointer encoding ----------------------------------------------------------

    def encode_ptr(self, addr: int) -> tuple:
        if addr == 0:
            return (PTR_NULL,)
        node = self.tree.find_containing(addr)
        if node is not None:
            sid, dev = node.payload
            off = addr - node.addr
            if dev >= 0:
                return (PTR_DEVICE, dev, sid, off)
            return (PTR_HEAP, sid, off)
        # Stack (or otherwise untracked) address: first-touch id with a
        # conservatively assumed 1-byte extent, per §3.3.3.
        sid = self._stack_ids.get(addr)
        if sid is None:
            sid = self._next_stack
            self._stack_ids[addr] = sid
            self._next_stack += 1
        return (PTR_STACK, sid)


# -- signature-construction plans (shared, immutable per function) -----------------

#: completion calls that release the request ids they consumed
_RELEASING = frozenset((
    "MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Waitsome",
    "MPI_Test", "MPI_Testall", "MPI_Testany", "MPI_Testsome",
    "MPI_Request_free",
))

#: lifecycle calls that release a symbolic id and so invalidate the
#: signature cache
_LIFECYCLE_EXTRA = frozenset(("MPI_Type_free", "MPI_Group_free"))

#: the *dynamic* kinds: re-encoded on every call because their values
#: depend on per-call allocator/runtime state (the tail of a plan's
#: generated ``encode``); every other kind is static per call site
#: (``_build_entry``)
DYNAMIC_KINDS = frozenset((F.K_REQUEST, F.K_REQUESTV,
                           F.K_STATUS, F.K_STATUSV))


# -- the static kinds: how each is keyed and how it is encoded ---------------------
#
# Per static parameter kind, the cache-key expression over the raw
# argument ``{g}`` and the encoder ``(enc, value, ctx_rank, comm, name)
# -> encoded`` that ``PerRankEncoder._build_entry`` walks a function's
# registry parameters through.  Everything an encoding depends on must
# flow into its key: object identities for handle-keyed tables, raw
# addresses for the memory table (the latter additionally guarded by
# MemoryTable.epoch).  A kind in ``repro.mpisim.funcs`` that is neither
# here nor in ``DYNAMIC_KINDS`` fails tests/test_registry.py instead of
# silently going verbatim.

def _s_verbatim(enc, v, ctx_rank, comm, name):
    return v


def _s_rankish(enc, v, ctx_rank, comm, name):
    # usually-constant rank-correlated values: relative only on exact
    # match (a constant root=0 must stay absolute)
    return encode_rankish(v, ctx_rank, enabled=enc.relative_ranks)


def _s_intv(enc, v, ctx_rank, comm, name):
    if v is None:
        return None
    if enc.relative_ranks and name == "coords" \
            and isinstance(comm, Comm) and comm.topo is not None:
        # Cartesian coordinates are rank-derived: store them relative to
        # the caller's own coordinates so identical grid code yields
        # identical signatures on every rank
        mine = comm.topo.coords_of(ctx_rank)
        return tuple(x - m for x, m in zip(v, mine))
    return tuple(v)


_RAW = ("{g}", _s_verbatim)         # hashable scalar, keyed and stored verbatim
_RANKISH = ("{g}", _s_rankish)
_COMM = ("(None if {g} is None else {g}.cid)",
         lambda enc, v, *_: enc._enc_comm(v))
_WIN = ("(None if {g} is None else {g}.wid)",
        lambda enc, v, *_: -1 if v is None else enc.win_space.sym_for(v))
# datatype handles are never reused
_TYPE = ("(None if {g} is None else {g}.handle)",
         lambda enc, v, *_: enc._enc_datatype(v))
_INTV = ("(None if {g} is None else tuple({g}))", _s_intv)

STATIC_KINDS = {
    F.K_COUNT: _RAW, F.K_INT: _RAW, F.K_STR: _RAW, F.K_INDEX: _RAW,
    F.K_PTR: ("({g} or 0)",
              lambda enc, v, *_: enc.memory.encode_ptr(v or 0)),
    F.K_COMM: _COMM, F.K_NEWCOMM: _COMM,
    F.K_WIN: _WIN, F.K_NEWWIN: _WIN,
    F.K_DATATYPE: _TYPE, F.K_NEWTYPE: _TYPE,
    F.K_DATATYPEV: ("(None if {g} is None else "
                    "tuple([None if t is None else t.handle for t in {g}]))",
                    lambda enc, v, *_: None if v is None else
                    tuple([enc._enc_datatype(t) for t in v])),
    # a group keys by id(obj), pinned alive via _group_refs
    F.K_GROUP: ("(None if {g} is None else id({g}))",
                lambda enc, v, *_: enc._enc_group(v)),
    F.K_RANK: ("{g}", lambda enc, v, ctx_rank, *_:
               encode_rank(v, ctx_rank, enabled=enc.relative_ranks)),
    F.K_ROOT: _RANKISH, F.K_TAG: _RANKISH,
    F.K_COLOR: _RANKISH, F.K_KEY: _RANKISH,
    F.K_OP: ("(None if {g} is None else "
             "{g}.handle if isinstance({g}, Op) else {g})",
             lambda enc, v, *_: v.handle if isinstance(v, Op) else v),
    F.K_INTV: _INTV, F.K_INDEXV: _INTV,
    F.K_FLAG: ("(None if {g} is None else bool({g}))",
               lambda enc, v, *_: bool(v)),
}

#: entries beyond this are assumed to be churn (e.g. per-call varying
#: out-params); the whole cache is dropped rather than evicted piecemeal
_SIG_CACHE_CAP = 8192
#: per-entry bound on memoized dynamic-value combinations
_SIG_MEMO_CAP = 512


def _memoize(memo: dict, key, sig: tuple) -> tuple:
    """*sig* as the canonical signature object for its dynamic values
    (the CST's identity fast path feeds on it)."""
    if len(memo) >= _SIG_MEMO_CAP:
        memo.clear()
    memo[key] = sig
    return sig


# -- the generated encoder: one closure per function --------------------------------
#
# ``encode(enc, values)`` is source text put together from a function's
# registry entry on its first use (``_CallPlan``), so a call pays for no
# plan interpretation: the arguments are locals bound by one tuple
# unpack, the cache key is one tuple display over ``STATIC_KINDS``' key
# expressions, and what follows the cache probe is chosen by the
# function's *shape* — which dynamic kinds it carries, whether they are
# arrays, and which request each status describes.  Locals: ``aN`` the
# N-th argument, ``entry`` the call site's cache entry, ``s`` / ``q`` the
# encoded status(es) / request(s), ``d`` the request a status describes.

_PROBE = """\
def encode(enc, values):
    cache = enc._sig_cache
    if enc.memory.epoch != enc._mem_epoch:
        # heap segments changed: raw addresses may now resolve to
        # different (segment, displacement) encodings
        cache.clear()
        enc._mem_epoch = enc.memory.epoch
    {unpack}
    try:
        key = ({key},)
        entry = cache.get(key)
    except (TypeError, AttributeError):
        # unkeyable argument shape or unhashable key: same flow, the
        # entry is just not stored
        key = entry = None
    if entry is None:
        entry = enc._build_entry(plan, values, key)
"""

#: the request behind a recorded completion index, when it names one
_PICKED = ("reqs[{i}] if isinstance({i}, int) and 0 <= {i} < len(reqs) "
           "else None")

#: (request kind, status kind, ``FuncSpec.status_picks`` kind) → the
#: request(s) the status(es) describe: none; the call's own; the one a
#: completion index picked; ``statuses[i]`` with ``requests[i]``; or with
#: ``requests[indices[i]]``.  A function of another shape has no encoder.
_DESCRIBED = {
    (None, F.K_STATUS, None): "None",
    (F.K_REQUEST, F.K_STATUS, None): "{req}",
    (F.K_REQUESTV, F.K_STATUS, F.K_INDEX): _PICKED.format(i="{pick}"),
    (F.K_REQUESTV, F.K_STATUSV, None): "reqs",
    (F.K_REQUESTV, F.K_STATUSV, F.K_INDEXV):
        "[" + _PICKED.format(i="i") + " for i in {pick} or ()]",
}

#: a status is relative to the caller's rank in the communicator of the
#: request ``d`` it describes — the call's own context rank when there
#: is none, or none with a communicator; a run of statuses on one
#: communicator resolves that rank once
_CONTEXT = """\
if isinstance(d, Request) and d.comm_cid >= 0:
    if d.comm_cid != cid:
        cid, cid_rank = d.comm_cid, ctx
        comm = enc._comm_resolver(cid)
        if comm is not None:
            cr = comm.group.rank_of(enc.rank)
            if cr != C.UNDEFINED:
                cid_rank = cr
    c = cid_rank
"""

#: one status ``st`` → ``(MPI_SOURCE, MPI_TAG)`` (§3.3.2), the source as
#: ``relative.encode_rank`` spells it
_STATUS = """\
c = ctx
{context}src = st.MPI_SOURCE
{put}((MARK_SPECIAL, src) if src in _SPECIALS
     else (MARK_REL, src - c) if rel
     else (MARK_ABS, src), st.MPI_TAG){close}
"""

_ONE_STATUS = """\
st = {st}
if st is None:
    s = None
else:
    d = {described}
    ctx, rel, cid = entry[1], enc.relative_ranks, None
{status}"""

_STATUSES = """\
if {st} is None:
    s = None
else:
    ds = {described}
    if len(ds) < len({st}):
        ds = chain(ds, repeat(None))
    s = []
    put = s.append
    ctx, rel, cid = entry[1], enc.relative_ranks, None
    for st, d in zip({st}, ds):
        if st is None:
            put(None)
            continue
{status}    s = tuple(s)
"""

#: a request's id is the live map's; one not there is new — unless a
#: completion call already consumed it (MPI_REQUEST_NULL by now)
_NEW = "({x}.persistent or not ({x}.consumed or {x}.freed))"

_ONE_REQUEST = """\
if {x} is None:
    q = None
else:
    q = enc.requests._active.get(id({x}))
    if q is None and """ + _NEW + """:
        q = {create}
"""

_REQUESTS = """\
live = enc.requests._active.get
q = list(map(live, map(id, reqs)))
if not all(q):
    # null, consumed or new entries: in order, and a request listed
    # twice is created once
    for i, x in enumerate(reqs):
        if q[i] is None and x is not None and """ + _NEW + """:
            q[i] = live(id(x)) or {create}
q = tuple(q)
"""

_FINISH = """\
sig = entry[3].get({memo})
if sig is None:
    t = entry[0]
    sig = _memoize(entry[3], {memo}, {sig})
"""

#: completed or freed non-persistent requests give their ids back —
#: after *all* of the call's requests are encoded; §3.3.1: the id of an
#: idup'ed communicator is agreed when the completing Wait/Test sees it
_RELEASE = """\
release = enc.requests.on_release
for x in {reqs}:
    if x is not None and not x.persistent and (x.consumed or x.freed):
        if (release(id(x)) is not None and x.kind == KIND_IDUP
                and isinstance(x.value, Comm)):
            enc.comm_space.sym_for(x.value)
"""

#: what a ``_LIFECYCLE_EXTRA`` call frees, by its parameter's kind
_FREES = {F.K_DATATYPE: "_free_type", F.K_GROUP: "_free_group"}

#: every name the generated text uses (besides ``plan`` and builtins)
_NAMES = {"C": C, "Comm": Comm, "KIND_IDUP": KIND_IDUP, "Op": Op,
          "Request": Request, "chain": chain, "repeat": repeat,
          "MARK_ABS": MARK_ABS, "MARK_REL": MARK_REL,
          "MARK_SPECIAL": MARK_SPECIAL, "_SPECIALS": _SPECIALS,
          "_memoize": _memoize}


class _CallPlan:
    """One function's encoding plan: what ``_build_entry`` needs of its
    registry entry, and the ``encode(enc, values)`` generated from it."""

    __slots__ = ("spec", "ctx_pos", "req", "st", "encode")

    def __init__(self, fname: str):
        self.spec = spec = F.FUNCS[fname]
        self.ctx_pos = spec.pos.get(spec.ctx_comm)
        #: positions of the request and of the status parameter
        self.req = self._only(F.K_REQUEST, F.K_REQUESTV)
        self.st = self._only(F.K_STATUS, F.K_STATUSV)
        ns = dict(_NAMES, plan=self)
        exec(compile(self._source(), f"<encode {fname}>", "exec"), ns)
        self.encode = ns["encode"]

    def _only(self, *kinds: str) -> Optional[int]:
        at = [i for i, p in enumerate(self.spec.params) if p.kind in kinds]
        if len(at) > 1:
            raise NotImplementedError(
                f"{self.spec.name}: no encoder shape for {len(at)} "
                f"{kinds[0]} parameters")
        return at[0] if at else None

    def _source(self) -> str:
        spec, req, st = self.spec, self.req, self.st
        kinds = [p.kind for p in spec.params]
        a = [f"a{i}" for i in range(len(kinds))]
        src = _PROBE.format(
            unpack=", ".join(a) + ", = values" if a else "pass",
            key=", ".join([str(spec.fid)] + [
                STATIC_KINDS[k][0].format(g=g)
                for g, k in zip(a, kinds) if k not in DYNAMIC_KINDS]))
        if req is None and st is None:
            body = "sig = entry[0]\n"
        else:
            body = (f"reqs = {a[req]} or ()\n"
                    if F.K_REQUESTV in kinds else "") \
                + self._status_source(a, kinds) \
                + self._request_source(a, kinds) + _FINISH.format(
                    memo="q" if st is None else "s" if req is None
                    else "(s, q)", sig=self._sig("t"))
        if spec.name in _RELEASING:
            body += _RELEASE.format(
                reqs="reqs" if kinds[req] == F.K_REQUESTV else f"({a[req]},)")
        elif spec.name in _LIFECYCLE_EXTRA:
            body += "".join(f"enc.{_FREES[k]}({g})\n"
                            for g, k in zip(a, kinds))
        return src + indent(body + "return sig\n", "    ")

    def _sig(self, t: str, skip: Optional[int] = None) -> str:
        """The signature as a tuple display over the entry's template
        *t* with ``q`` / ``s`` in the dynamic slots (slot 0 is the fid),
        parameter *skip* left out."""
        return "(%s,)" % ", ".join(
            "q" if i == self.req else "s" if i == self.st else f"{t}[{i + 1}]"
            for i in range(-1, len(self.spec.params)) if i != skip)

    def _status_source(self, a: list, kinds: list) -> str:
        spec, req, st = self.spec, self.req, self.st
        if st is None:
            return ""
        pick = spec.status_picks
        shape = (None if req is None else kinds[req], kinds[st],
                 pick and pick.kind)
        if shape not in _DESCRIBED:
            raise NotImplementedError(
                f"{spec.name}: no encoder shape for {shape}")
        described = _DESCRIBED[shape].format(
            req=None if req is None else a[req],
            pick=None if pick is None else a[spec.pos[pick.name]])
        one = kinds[st] == F.K_STATUS
        status = _STATUS.format(context="" if req is None else _CONTEXT,
                                put="s = " if one else "put(",
                                close="" if one else ")")
        return (_ONE_STATUS if one else _STATUSES).format(
            st=a[st], described=described,
            status=indent(status, "    " if one else "        "))

    def _request_source(self, a: list, kinds: list) -> str:
        req, st = self.req, self.st
        if req is None:
            return ""
        one = kinds[req] == F.K_REQUEST
        x = a[req] if one else "x"
        # a creation's signature is the call's without the request itself:
        # static per call site, its pool looked up once per entry, unless
        # a status feeds into it
        create = (f"(enc.requests.create(entry[4], id({x}), {x}) "
                  f"if entry[4] is not None "
                  f"else enc._new_request({x}, entry))") if st is None else \
            f"enc._new_request({x}, entry, {self._sig('entry[0]', req)})"
        return (_ONE_REQUEST if one else _REQUESTS).format(x=x, create=create)


class _Plans(dict):
    """``PLANS[fname]``: each function's plan, made on its first use."""

    def __missing__(self, fname: str) -> _CallPlan:
        plan = self[fname] = _CallPlan(fname)
        return plan


PLANS = _Plans()


class PerRankEncoder:
    """One rank's symbolic state + signature construction.

    Signature construction is memoized per call site: the cache key is
    ``(fid, resolved static args)`` and the entry is the finished
    signature or, for calls carrying requests/statuses, a template whose
    dynamic slots are re-encoded per call.  A hit skips the registry
    walk, AVL pointer lookups and relative-rank re-encoding; a miss
    builds the entry and then takes the same path.  The cache is a pure
    accelerator: invalidated on memory-table mutations and
    object-lifecycle calls, excluded from pickles, and byte-identical to
    the uncached walk kept as the oracle in
    ``tests/test_encoder_oracle.py``."""

    def __init__(self, rank: int, comm_space: CommIdSpace, *,
                 win_space: Optional[WinIdSpace] = None,
                 relative_ranks: bool = True,
                 per_signature_request_pools: bool = True):
        self.rank = rank
        self.comm_space = comm_space
        self.win_space = win_space
        self.relative_ranks = relative_ranks
        self.per_signature_request_pools = per_signature_request_pools
        self.type_ids = ObjectIdTable()
        self.group_ids = ObjectIdTable()
        self._group_refs: dict[int, Group] = {}
        self.requests = RequestIdAllocator()
        self.memory = MemoryTable()
        #: (fid, static args) -> (signature, context rank) or [template,
        #: context rank, static request-creation base, memo, its pool]
        self._sig_cache: dict = {}
        self._mem_epoch = 0

    # -- helpers per kind ------------------------------------------------------------

    def _enc_comm(self, comm: Optional[Comm]) -> int:
        if comm is None:
            return -1  # MPI_COMM_NULL
        return self.comm_space.sym_for(comm)

    def _enc_datatype(self, dt: Optional[Datatype]) -> int:
        if dt is None:
            return -(1 << 20)  # MPI_DATATYPE_NULL
        if dt.handle < 0:
            return dt.handle  # builtins: stable negative handles
        return self.type_ids.lookup_or_assign(dt.handle)

    def _enc_group(self, group: Optional[Group]) -> int:
        if group is None:
            return -1
        key = id(group)
        self._group_refs[key] = group
        return self.group_ids.lookup_or_assign(key)

    def _new_request(self, req: Request, entry: list,
                     base: Optional[tuple] = None) -> tuple[int, int]:
        """The id of a live request seen for the first time, from the
        pool of its creation signature: *base*, or the entry's static
        one, whose pool is looked up here once — at the entry's first
        creation and no earlier, pool indices being first-appearance
        order."""
        sig = entry[2] if base is None else base
        if not self.per_signature_request_pools:
            sig = ("*",)  # ablation: one global pool
        idx = self.requests.pool_of(sig)
        if base is None:
            entry[4] = idx
        return self.requests.create(idx, id(req), req)

    # -- main entry --------------------------------------------------------------------

    def encode_call(self, fname: str, values: tuple) -> tuple:
        """The call's signature, from its arguments in registry order:
        look up or build the call site's entry, then fill its dynamic
        slots — the same flow on hit and miss (``_CallPlan``)."""
        return PLANS[fname].encode(self, values)

    def _build_entry(self, plan: _CallPlan, values: tuple, key) -> Any:
        """The static walk: encode every parameter *except* requests and
        statuses.  Returns the call site's cache entry — ``(signature,
        ctx_rank)`` when nothing is dynamic, else ``[template, ctx_rank,
        static request-creation base, memo, None]`` with ``None`` in the
        template's dynamic slots — stored under *key* if there is one."""
        # caller's rank within the call's communicator, for relative ranks
        comm = None if plan.ctx_pos is None else values[plan.ctx_pos]
        ctx_rank = F.context_rank(comm, self.rank)
        parts: list[Any] = [plan.spec.fid]
        for p, v in zip(plan.spec.params, values):
            parts.append(None if p.kind in DYNAMIC_KINDS else
                         STATIC_KINDS[p.kind][1](self, v, ctx_rank, comm,
                                                 p.name))
        if plan.req is None and plan.st is None:
            entry = (tuple(parts), ctx_rank)
        else:
            # a request's creation signature excludes the request itself;
            # it is static only when no per-call status feeds into it
            base = None if plan.req is None or plan.st is not None else \
                tuple(parts[:plan.req + 1] + parts[plan.req + 2:])
            entry = [tuple(parts), ctx_rank, base, {}, None]
        if key is not None and plan.spec.name not in _LIFECYCLE_EXTRA:
            # (Type_free/Group_free clear the cache right after encoding)
            if len(self._sig_cache) >= _SIG_CACHE_CAP:
                self._sig_cache.clear()
            self._sig_cache[key] = entry
        return entry

    def reset_cache(self) -> None:
        """Drop the signature cache (called at shard-freeze time; the
        cache never outlives the tracing phase it accelerated)."""
        self._sig_cache = {}
        self._mem_epoch = self.memory.epoch

    @property
    def cache_size(self) -> int:
        return len(self._sig_cache)

    def __getstate__(self) -> dict:
        # the signature cache is a pure accelerator: shards and pickled
        # compressors must never carry it across process boundaries
        state = self.__dict__.copy()
        state["_sig_cache"] = {}
        state["_mem_epoch"] = -1   # force a resync on first use
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # wired by the tracer: cid -> Comm (default: unresolved)
    @staticmethod
    def _comm_resolver(cid: int):
        return None

    def set_comm_resolver(self, fn) -> None:
        """Install a cid → Comm lookup (plain callable, not bound)."""
        self._comm_resolver = fn

    # -- lifecycle ------------------------------------------------------------------------

    def _free_type(self, dt: Optional[Datatype]) -> None:
        if dt is not None and dt.handle >= 0 \
                and self.type_ids.lookup(dt.handle) is not None:
            self.type_ids.release(dt.handle)
        # released symbolic ids may be re-handed to new handles;
        # cached signatures must not outlive the assignment
        self._sig_cache.clear()

    def _free_group(self, grp: Optional[Group]) -> None:
        key = id(grp)
        if grp is not None and self.group_ids.lookup(key) is not None:
            self.group_ids.release(key)
            self._group_refs.pop(key, None)
        # the freed group may be garbage-collected and its id()
        # reused by a new Group object
        self._sig_cache.clear()
