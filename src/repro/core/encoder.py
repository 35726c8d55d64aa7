"""Registry-driven call-signature encoding (§3.3).

The encoder turns a traced call's ``(fname, args)`` into a flat hashable
*call signature* tuple ``(fid, v1, v2, ...)`` in registry parameter
order.  Every opaque value goes symbolic:

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

from typing import Any, Optional

from ..mpisim import constants as C
from ..mpisim import funcs as F
from ..mpisim.comm import Comm
from ..mpisim.datatypes import Datatype
from ..mpisim.group import Group
from ..mpisim.ops import Op
from ..mpisim.request import KIND_IDUP, Request
from ..mpisim.status import Status
from .avl import IntervalTree
from .relative import encode_rank, encode_rankish
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

#: completion calls that release request ids in ``_post_call``
_RELEASING = frozenset((
    "MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Waitsome",
    "MPI_Test", "MPI_Testall", "MPI_Testany", "MPI_Testsome",
    "MPI_Request_free",
))

#: lifecycle calls that mutate symbolic tables and must both run
#: ``_post_call`` and invalidate the signature cache
_LIFECYCLE_EXTRA = frozenset(("MPI_Type_free", "MPI_Group_free"))

#: the *dynamic* kinds: re-encoded on every call because their values
#: depend on per-call allocator/runtime state (``_resolve_dynamic``);
#: every other kind is static per call site (``_build_entry``)
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
_COMM = ("(None if (v := {g}) is None else v.cid)",
         lambda enc, v, *_: enc._enc_comm(v))
_WIN = ("(None if (v := {g}) is None else v.wid)",
        lambda enc, v, *_: -1 if v is None else enc.win_space.sym_for(v))
# datatype handles are never reused
_TYPE = ("(None if (v := {g}) is None else v.handle)",
         lambda enc, v, *_: enc._enc_datatype(v))
_INTV = ("(None if (v := {g}) is None else tuple(v))", _s_intv)

STATIC_KINDS = {
    F.K_COUNT: _RAW, F.K_INT: _RAW, F.K_STR: _RAW, F.K_INDEX: _RAW,
    F.K_PTR: ("({g} or 0)",
              lambda enc, v, *_: enc.memory.encode_ptr(v or 0)),
    F.K_COMM: _COMM, F.K_NEWCOMM: _COMM,
    F.K_WIN: _WIN, F.K_NEWWIN: _WIN,
    F.K_DATATYPE: _TYPE, F.K_NEWTYPE: _TYPE,
    F.K_DATATYPEV: ("(None if (v := {g}) is None else "
                    "tuple([None if t is None else t.handle for t in v]))",
                    lambda enc, v, *_: None if v is None else
                    tuple([enc._enc_datatype(t) for t in v])),
    # a group keys by id(obj), pinned alive via _group_refs
    F.K_GROUP: ("(None if (v := {g}) is None else _id(v))",
                lambda enc, v, *_: enc._enc_group(v)),
    F.K_RANK: ("{g}", lambda enc, v, ctx_rank, *_:
               encode_rank(v, ctx_rank, enabled=enc.relative_ranks)),
    F.K_ROOT: _RANKISH, F.K_TAG: _RANKISH,
    F.K_COLOR: _RANKISH, F.K_KEY: _RANKISH,
    F.K_OP: ("(None if (v := {g}) is None else "
             "(v.handle if isinstance(v, _Op) else v))",
             lambda enc, v, *_: v.handle if isinstance(v, Op) else v),
    F.K_INTV: _INTV, F.K_INDEXV: _INTV,
    F.K_FLAG: ("(None if (v := {g}) is None else bool(v))",
               lambda enc, v, *_: bool(v)),
}


def _compile_key_fn(fid: int, key_params):
    """Compile a plan's static-key recipe into one flat tuple expression
    over ``args.get`` (a per-call interpretation loop costs more than
    the extraction itself).  The caller treats ``TypeError`` /
    ``AttributeError`` as "this argument shape cannot be keyed"."""
    exprs = [str(fid)]
    for name, kind in key_params:
        exprs.append(STATIC_KINDS[kind][0].format(g=f"g({name!r})"))
    src = "def key_fn(g):\n    return (" + ", ".join(exprs) + ",)"
    ns = {"_id": id, "_Op": Op, "isinstance": isinstance,
          "bool": bool, "tuple": tuple}
    exec(compile(src, "<keyplan>", "exec"), ns)
    return ns["key_fn"]


class _CallPlan:
    """Precomputed per-function encoding plan: parameter walk order, the
    compiled static-key extraction, and the positions of the *dynamic*
    parameters (requests and statuses) that must be re-encoded on every
    call because they depend on per-call allocator/runtime state."""

    __slots__ = ("fname", "fid", "params", "ctx_comm", "dyn_status",
                 "dyn_req", "req_skip", "lifecycle", "cacheable", "picks",
                 "fast_req", "key_fn")

    def __init__(self, fname: str):
        spec = F.FUNCS[fname]
        self.fname = fname
        self.fid = spec.fid
        self.ctx_comm = spec.ctx_comm
        self.params = tuple((p.name, p.kind) for p in spec.params)
        key_params = []
        dyn_status = []
        dyn_req = []
        for i, (name, kind) in enumerate(self.params):
            pos = i + 1  # parts[0] is the fid
            if kind == F.K_STATUS:
                dyn_status.append((pos, name, False))
            elif kind == F.K_STATUSV:
                dyn_status.append((pos, name, True))
            elif kind == F.K_REQUEST:
                dyn_req.append((pos, name, False))
            elif kind == F.K_REQUESTV:
                dyn_req.append((pos, name, True))
            else:
                key_params.append((name, kind))
        self.dyn_status = tuple(dyn_status)
        self.dyn_req = tuple(dyn_req)
        self.req_skip = frozenset(pos for pos, _, _ in dyn_req)
        self.lifecycle = fname in _RELEASING or fname in _LIFECYCLE_EXTRA
        # Type_free/Group_free clear the cache right after encoding, so
        # storing their entries would be wasted work
        self.cacheable = fname not in _LIFECYCLE_EXTRA
        # statuses[i] -> request-index mapping (``FuncSpec.status_picks``),
        # precomputed so the hot resolve path skips the registry
        self.picks = spec.status_picks
        # the dominant dynamic shape — one scalar request, no statuses
        # (Isend/Irecv/\*_init) — gets a dedicated resolve fast path
        self.fast_req = (self.dyn_req[0][0], self.dyn_req[0][1]) \
            if (not self.dyn_status and len(self.dyn_req) == 1
                and not self.dyn_req[0][2]) else None
        self.key_fn = _compile_key_fn(self.fid, key_params)


_PLANS: dict[str, _CallPlan] = {}


def _plan_for(fname: str) -> _CallPlan:
    plan = _PLANS.get(fname)
    if plan is None:
        plan = _PLANS[fname] = _CallPlan(fname)
    return plan


#: entries beyond this are assumed to be churn (e.g. per-call varying
#: out-params); the whole cache is dropped rather than evicted piecemeal
_SIG_CACHE_CAP = 8192
#: per-entry bound on memoized dynamic-value combinations
_SIG_MEMO_CAP = 512


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
        #: (fid, static args) -> (signature | template, context rank,
        #: static request-creation base, memo)
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

    def _enc_request(self, req: Optional[Request],
                     creation_sig: Optional[tuple]) -> Any:
        if req is None:
            return None
        key = id(req)
        # hot path: reach straight into the allocator's live map (the
        # bound-method lookup() costs a call frame per request)
        sym = self.requests._active.get(key)
        if sym is not None:
            return sym
        if not req.persistent and (req.consumed or req.freed):
            # a request already consumed by an earlier completion call:
            # the user's handle would be MPI_REQUEST_NULL by now
            return None
        if creation_sig is None:
            # a request we never saw created (shouldn't happen; keep a
            # distinguishable encoding rather than crash)
            creation_sig = ("?",)
        if not self.per_signature_request_pools:
            creation_sig = ("*",)  # ablation: one global pool
        return self.requests.on_create(key, creation_sig, ref=req)

    def _enc_status(self, st: Optional[Status], ctx_rank: int) -> Any:
        if st is None:
            return None  # MPI_STATUS_IGNORE
        src = st.MPI_SOURCE
        return (encode_rank(src, ctx_rank, enabled=self.relative_ranks),
                st.MPI_TAG)

    # -- main entry --------------------------------------------------------------------

    def encode_call(self, fname: str, args: dict[str, Any]) -> tuple:
        """The call's signature: look up or build the call site's entry,
        then fill its dynamic slots — the same flow on hit and miss."""
        plan = _PLANS.get(fname)
        if plan is None:
            plan = _plan_for(fname)
        cache = self._sig_cache
        mem_epoch = self.memory.epoch
        if mem_epoch != self._mem_epoch:
            # heap segments changed: raw addresses may now resolve to
            # different (segment, displacement) encodings
            cache.clear()
            self._mem_epoch = mem_epoch
        try:
            key = plan.key_fn(args.get)
            entry = cache.get(key)
        except (TypeError, AttributeError):
            # unkeyable argument shape or unhashable key: same flow, the
            # entry is just not stored
            key = entry = None
        if entry is None:
            entry = self._build_entry(plan, args)
            if key is not None and plan.cacheable:
                if len(cache) >= _SIG_CACHE_CAP:
                    cache.clear()
                cache[key] = entry
        sig = entry[0] if entry[3] is None \
            else self._resolve_dynamic(plan, entry, args)
        if plan.lifecycle:
            self._post_call(fname, args)
        return sig

    def _build_entry(self, plan: _CallPlan, args: dict[str, Any]) -> tuple:
        """The static walk: encode every parameter *except* requests and
        statuses.  Returns the call site's cache entry — ``(signature,
        ctx_rank, None, None)`` when nothing is dynamic, else
        ``(template, ctx_rank, static request-creation base, memo)``
        with ``None`` in the template's dynamic slots."""
        # caller's rank within the call's communicator, for relative ranks
        get = args.get
        comm = get(plan.ctx_comm)
        ctx_rank = F.context_rank(comm, self.rank)
        parts: list[Any] = [plan.fid]
        for name, kind in plan.params:
            parts.append(None if kind in DYNAMIC_KINDS else
                         STATIC_KINDS[kind][1](self, get(name), ctx_rank,
                                               comm, name))
        if not (plan.dyn_status or plan.dyn_req):
            return (tuple(parts), ctx_rank, None, None)
        # a request's creation signature excludes the request itself; it
        # is static only when no per-call status values feed into it
        base = None if plan.dyn_status else tuple(
            x for i, x in enumerate(parts) if i not in plan.req_skip)
        return (parts, ctx_rank, base, {})

    def _resolve_dynamic(self, plan: _CallPlan, entry: tuple,
                         args: dict[str, Any]) -> tuple:
        """Fill a call site's request/status slots: copy the static
        template and encode only the dynamic parameters, whose values
        depend on per-call allocator and runtime state.  The one place
        request and status kinds are handled."""
        template, ctx_rank, static_base, memo = entry
        fast = plan.fast_req
        if fast is not None:
            # one scalar request, no statuses: the creation base is
            # static by construction and the encoding is the memo key
            enc = self._enc_request(args.get(fast[1]), static_base)
            sig = memo.get(enc)
            if sig is None:
                parts = template.copy()
                parts[fast[0]] = enc
                sig = tuple(parts)
                if len(memo) >= _SIG_MEMO_CAP:
                    memo.clear()
                memo[enc] = sig
            return sig
        get = args.get
        parts = template.copy()
        vals: list[Any] = []
        if plan.dyn_status:
            req_list = get("array_of_requests")
            enc_status = self._enc_status
            status_ctx = self._status_ctx
            picks = plan.picks
            for pos, name, is_vec in plan.dyn_status:
                v = get(name)
                if is_vec:
                    if v is None:
                        enc = None
                    elif picks is None:
                        # Waitall/Testall: statuses align 1:1 with requests
                        enc = self._enc_status_vec(v, req_list, args,
                                                   ctx_rank)
                    else:
                        idxs = self._completed_indices(picks, args)
                        enc = tuple([
                            enc_status(st, status_ctx(
                                args, req_list, ctx_rank,
                                idxs[i] if idxs is not None and i < len(idxs)
                                else None))
                            for i, st in enumerate(v)])
                else:
                    ridx = None
                    if picks is not None:
                        idx = get(picks.name)
                        if isinstance(idx, int) and idx >= 0:
                            ridx = idx
                    enc = enc_status(v, status_ctx(
                        args, req_list, ctx_rank, ridx))
                parts[pos] = enc
                vals.append(enc)
        if plan.dyn_req:
            base = static_base
            if base is None:
                skip = plan.req_skip
                base = tuple(x for i, x in enumerate(parts)
                             if i not in skip)
            enc_request = self._enc_request
            for pos, name, is_vec in plan.dyn_req:
                v = get(name)
                if is_vec:
                    enc = tuple([enc_request(r, base) for r in v]) \
                        if v else ()
                else:
                    enc = enc_request(v, base)
                parts[pos] = enc
                vals.append(enc)
        memo_key = tuple(vals)
        sig = memo.get(memo_key)
        if sig is None:
            sig = tuple(parts)
            if len(memo) >= _SIG_MEMO_CAP:
                memo.clear()
            memo[memo_key] = sig
        return sig

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

    def _enc_status_vec(self, statuses, req_list, args,
                        ctx_rank: int) -> tuple:
        """Aligned vector statuses (Waitall/Testall): element-for-element
        equivalent to ``_enc_status(st, _status_ctx(args, req_list,
        ctx_rank, i))``, with the cid → caller-rank resolution memoized
        across elements (deterministic for the call's duration)."""
        rel = self.relative_ranks
        my_rank = self.rank
        resolver = self._comm_resolver
        out: list = []
        append = out.append
        if not req_list:
            # no request array: every element resolves against the same
            # scalar "request" arg (or none), so the context is uniform
            ctx = self._status_ctx(args, req_list, ctx_rank, 0)
            for st in statuses:
                append(None if st is None else
                       (encode_rank(st.MPI_SOURCE, ctx, enabled=rel),
                        st.MPI_TAG))
            return tuple(out)
        nreq = len(req_list)
        cid_ctx: dict[int, int] = {}
        for i, st in enumerate(statuses):
            if st is None:
                append(None)
                continue
            req = req_list[i] if i < nreq else None
            ctx = ctx_rank
            if isinstance(req, Request) and req.comm_cid >= 0:
                cid = req.comm_cid
                got = cid_ctx.get(cid)
                if got is None:
                    got = ctx_rank
                    comm = resolver(cid)
                    if comm is not None:
                        cr = comm.group.rank_of(my_rank)
                        if cr != C.UNDEFINED:
                            got = cr
                    cid_ctx[cid] = got
                ctx = got
            append((encode_rank(st.MPI_SOURCE, ctx, enabled=rel),
                    st.MPI_TAG))
        return tuple(out)

    def _status_ctx(self, args, req_list, default_ctx: int,
                    req_index: Optional[int]) -> int:
        """Caller's comm rank in the communicator relevant to a status."""
        req = None
        if req_index is not None and req_list:
            if 0 <= req_index < len(req_list):
                req = req_list[req_index]
        elif args.get("request") is not None:
            req = args["request"]
        if isinstance(req, Request) and req.comm_cid >= 0:
            comm = self._comm_resolver(req.comm_cid)
            if comm is not None:
                cr = comm.group.rank_of(self.rank)
                if cr != C.UNDEFINED:
                    return cr
        return default_ctx

    @staticmethod
    def _completed_indices(picks: F.Param, args: dict) -> Optional[list[int]]:
        """Map statuses[i] to the request index it describes, through
        the call's ``FuncSpec.status_picks`` parameter (aligned
        Waitall/Testall vectors go through ``_enc_status_vec``)."""
        v = args.get(picks.name)
        if picks.kind == F.K_INDEXV:
            return list(v) if v is not None else None
        return [v] if isinstance(v, int) and v >= 0 else None

    # wired by the tracer: cid -> Comm (default: unresolved)
    @staticmethod
    def _comm_resolver(cid: int):
        return None

    def set_comm_resolver(self, fn) -> None:
        """Install a cid → Comm lookup (plain callable, not bound)."""
        self._comm_resolver = fn

    # -- lifecycle ------------------------------------------------------------------------

    def _release_request(self, req: Request) -> None:
        """Release one completed/freed non-persistent request's id."""
        if req.persistent:
            return
        if req.consumed or req.freed:
            sym = self.requests.on_release(id(req))
            if sym is not None and req.kind == KIND_IDUP \
                    and isinstance(req.value, Comm):
                # §3.3.1: the symbolic id of an idup'ed communicator is
                # agreed when the completing Wait/Test observes it
                self.comm_space.sym_for(req.value)

    def _post_call(self, fname: str, args: dict[str, Any]) -> None:
        if fname in _RELEASING:
            req = args.get("request")
            if req is not None:
                self._release_request(req)
            arr = args.get("array_of_requests")
            if arr:
                release = self._release_request
                for req in arr:
                    if req is not None:
                        release(req)
            return
        if fname == "MPI_Type_free":
            dt = args.get("datatype")
            if dt is not None and dt.handle >= 0 \
                    and self.type_ids.lookup(dt.handle) is not None:
                self.type_ids.release(dt.handle)
            # released symbolic ids may be re-handed to new handles;
            # cached signatures must not outlive the assignment
            self._sig_cache.clear()
            return
        if fname == "MPI_Group_free":
            grp = args.get("group")
            key = id(grp)
            if grp is not None and self.group_ids.lookup(key) is not None:
                self.group_ids.release(key)
                self._group_refs.pop(key, None)
            # the freed group may be garbage-collected and its id()
            # reused by a new Group object
            self._sig_cache.clear()
            return
