"""Differential tests: the generated per-function encoder against the
dict walk it replaced.

``PerRankEncoder`` has built signatures three ways.  Until PR 17, a full
walk over a call's registry parameters that encoded requests and
statuses inline (``_encode_walk``); until PR 22, one interpreted flow
over a ``{name: value}`` dict (a cached template whose request/status
slots ``_resolve_dynamic`` filled per call, then ``_post_call``); now one
generated closure per function over the positional ``values`` tuple.
The walk — no cache, no template, no memo — lives on here as the oracle,
**verbatim**: ``_encode_walk`` and ``_completed_indices`` as they left
``src/`` in PR 17, and the request / status / release helpers they call
(``_enc_request``, ``_enc_status``, ``_status_ctx``, ``_release_request``,
``_post_call``) copied from ``src/repro/core/encoder.py`` at commit
8e2c515, the last to have them.  The oracle still reads by name: it is
fed ``dict(zip(names, values))``.  Trace by trace and signature by
signature the product must agree with it.
"""

from __future__ import annotations

from typing import Any, Optional

import pytest

from repro.bench.capture import (_CALL, CapturedRun, _RecordingHooks,
                                 _restore)
from repro.core import encoder as encoder_mod
from repro.core.backends import TracerOptions, make_tracer
from repro.core.encoder import PTR_HEAP, PTR_STACK, PerRankEncoder
from repro.core.relative import encode_rank, encode_rankish
from repro.core.shard import RankCompressor
from repro.core.tracer import TIMING_AGGREGATE, TIMING_LOSSY, PilgrimTracer
from repro.mpisim import SimMPI, constants as C, datatypes as dt, funcs as F
from repro.mpisim.comm import Comm
from repro.mpisim.ops import Op
from repro.mpisim.request import KIND_IDUP, Request
from repro.mpisim.status import Status
from repro.workloads import REGISTRY, make
from test_replay_registry import TOUR

BENCH_FAMILIES = ("stencil2d", "osu_latency", "npb_mg", "flash_sedov",
                  "milc_su3_rmd")


# -- the oracle: the parent's full uncached walk, kept verbatim -------------------------


#: completion calls that release request ids in ``_post_call``
_RELEASING = frozenset((
    "MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Waitsome",
    "MPI_Test", "MPI_Testall", "MPI_Testany", "MPI_Testsome",
    "MPI_Request_free",
))


class _Plan:
    """What the walk reads of a function's registry entry."""

    def __init__(self, fname: str):
        spec = F.FUNCS[fname]
        self.fname, self.fid = fname, spec.fid
        self.params = tuple((p.name, p.kind) for p in spec.params)


class OracleEncoder(PerRankEncoder):
    """``encode_call`` is the parent's walk, then ``_post_call`` — over
    the by-name view of *values*.  Only the symbolic tables
    (communicators, datatypes, groups, memory, the request allocator)
    are the product's."""

    def encode_call(self, fname: str, values: tuple) -> tuple:
        args = dict(zip(F.FUNCS[fname].pos, values))
        sig = self._encode_walk(_Plan(fname), args)[0]
        self._post_call(fname, args)
        return sig

    def _encode_walk(self, plan, args: dict[str, Any]):
        """The full (uncached) signature construction walk.  Returns the
        signature plus the raw parts, context rank, and request-creation
        base the caller needs to build a cache entry."""
        fname = plan.fname
        fid = plan.fid
        param_info = plan.params
        my_rank = self.rank
        rel = self.relative_ranks
        # caller's rank within the call's communicator, for relative ranks
        comm = args.get("comm") or args.get("comm_old") \
            or args.get("local_comm") or args.get("intercomm")
        ctx_rank = my_rank
        if isinstance(comm, Comm):
            cr = comm.group.rank_of(my_rank)
            if cr == C.UNDEFINED and comm.remote_group is not None:
                cr = comm.remote_group.rank_of(my_rank)
            if cr != C.UNDEFINED:
                ctx_rank = cr
        # completion calls: per-status context from the matching request
        req_list = args.get("array_of_requests")

        parts: list[Any] = [fid]
        deferred_requests: list[tuple[int, Any]] = []
        for name, kind in param_info:
            v = args.get(name)
            if kind == F.K_COUNT or kind == F.K_INT:
                parts.append(v)
            elif kind == F.K_PTR:
                parts.append(self.memory.encode_ptr(v or 0))
            elif kind == F.K_COMM or kind == F.K_NEWCOMM:
                parts.append(self._enc_comm(v))
            elif kind == F.K_WIN or kind == F.K_NEWWIN:
                parts.append(-1 if v is None
                             else self.win_space.sym_for(v))
            elif kind == F.K_DATATYPE or kind == F.K_NEWTYPE:
                parts.append(self._enc_datatype(v))
            elif kind == F.K_DATATYPEV:
                parts.append(None if v is None else
                             tuple(self._enc_datatype(t) for t in v))
            elif kind == F.K_GROUP:
                parts.append(self._enc_group(v))
            elif kind == F.K_RANK:
                parts.append(encode_rank(v, ctx_rank, enabled=rel))
            elif kind in (F.K_ROOT, F.K_TAG, F.K_COLOR, F.K_KEY):
                # usually-constant rank-correlated values: relative only on
                # exact match (a constant root=0 must stay absolute)
                parts.append(encode_rankish(v, ctx_rank, enabled=rel))
            elif kind == F.K_REQUEST:
                # creation signature excludes the request itself; defer
                deferred_requests.append((len(parts), v))
                parts.append(None)
            elif kind == F.K_REQUESTV:
                deferred_requests.append((len(parts), list(v or ())))
                parts.append(None)
            elif kind == F.K_STATUS:
                # Waitany/Testany: the single status describes request
                # [index]; other calls carry their request (or comm) inline
                ridx = None
                if fname in ("MPI_Waitany", "MPI_Testany"):
                    idx = args.get("index")
                    if isinstance(idx, int) and idx >= 0:
                        ridx = idx
                parts.append(self._enc_status(v, self._status_ctx(
                    args, req_list, ctx_rank, ridx)))
            elif kind == F.K_STATUSV:
                if v is None:
                    parts.append(None)
                else:
                    idxs = self._completed_indices(fname, args, len(v))
                    parts.append(tuple(
                        self._enc_status(st, self._status_ctx(
                            args, req_list, ctx_rank,
                            idxs[i] if idxs is not None and i < len(idxs)
                            else None))
                        for i, st in enumerate(v)))
            elif kind == F.K_OP:
                parts.append(v.handle if isinstance(v, Op) else v)
            elif kind in (F.K_INTV, F.K_INDEXV):
                if v is not None and rel and name == "coords" \
                        and isinstance(comm, Comm) and comm.topo is not None:
                    # Cartesian coordinates are rank-derived: store them
                    # relative to the caller's own coordinates so identical
                    # grid code yields identical signatures on every rank
                    mine = comm.topo.coords_of(ctx_rank)
                    parts.append(tuple(x - m for x, m in zip(v, mine)))
                else:
                    parts.append(tuple(v) if v is not None else None)
            elif kind == F.K_FLAG:
                parts.append(bool(v))
            else:  # K_COUNT, K_INT, K_STR and anything scalar
                parts.append(v)

        # resolve deferred request encodings with the creation signature
        base = None
        if deferred_requests:
            if len(deferred_requests) == 1:
                pos = deferred_requests[0][0]
                base = tuple(parts[:pos]) + tuple(parts[pos + 1:])
            else:
                skip = {pos for pos, _ in deferred_requests}
                base = tuple(x for i, x in enumerate(parts)
                             if i not in skip)
            for pos, v in deferred_requests:
                if isinstance(v, list):
                    parts[pos] = tuple(self._enc_request(r, base) for r in v)
                else:
                    parts[pos] = self._enc_request(v, base)

        return tuple(parts), parts, ctx_rank, base

    @staticmethod
    def _completed_indices(fname: str, args: dict,
                           nstatuses: int) -> Optional[list[int]]:
        """Map statuses[i] to the request index it describes."""
        if fname in ("MPI_Waitsome", "MPI_Testsome"):
            idxs = args.get("array_of_indices")
            return list(idxs) if idxs is not None else None
        if fname in ("MPI_Waitany", "MPI_Testany"):
            idx = args.get("index")
            return [idx] if isinstance(idx, int) and idx >= 0 else None
        return list(range(nstatuses))  # Waitall/Testall align 1:1

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


class OracleRank(RankCompressor):
    """A rank whose encoder is the oracle (the ``encoder=`` parameter),
    called where the product calls its generated closure."""

    def __init__(self, rank, comm_space, *, win_space=None,
                 relative_ranks=True, per_signature_request_pools=True,
                 **kwargs):
        super().__init__(rank, comm_space, encoder=OracleEncoder(
            rank, comm_space, win_space=win_space,
            relative_ranks=relative_ranks,
            per_signature_request_pools=per_signature_request_pools),
            **kwargs)

    def observe(self, fname, values, t0, t1):
        # the oracle tracer runs at the defaults: per call, no drain
        term = self.cst.intern(self.encoder.encode_call(fname, values),
                               t1 - t0)
        self.grammar.append(term)
        if self.timing is not None:
            self.timing.record(term, fname, t0, t1)
        return term


class OracleTracer(PilgrimTracer):
    rank_class = OracleRank


# -- (a) trace level ------------------------------------------------------------------------


def _run(tracer, family: str, nprocs: int = 4, seed: int = 11) -> bytes:
    make(family, nprocs).run(seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


@pytest.mark.parametrize("lossy", [False, True], ids=["aggregate", "lossy"])
@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_every_configuration_matches_the_oracle_trace(family, lossy):
    want = _run(OracleTracer(
        timing_mode=TIMING_LOSSY if lossy else TIMING_AGGREGATE), family)
    got = _run(make_tracer("pilgrim", TracerOptions(lossy_timing=lossy)),
               family)
    assert got == want


def _lifecycle_program(m):
    """Create / use / free loops: every iteration re-hands symbolic id 0
    to a fresh datatype handle and a fresh group object."""
    buf = m.malloc(4096)
    world = m.comm_group()
    for i in range(4):
        t = m.type_vector(4, 2 + i % 2, 8, dt.DOUBLE)
        m.type_commit(t)
        yield from m.send(buf, 1, t, dest=C.PROC_NULL, tag=1)
        sub = m.group_excl(world, [i % 3])
        m.group_rank(sub)
        m.type_free(t)
        m.group_free(sub)
    yield from m.barrier()


def _struct_program(m):
    """Datatype arrays: keyed on handles, encoded element-wise — a freed
    member's symbolic id re-handed between two structs of one shape."""
    buf = m.malloc(4096)
    for i in range(3):
        t = m.type_contiguous(2 + i % 2, dt.DOUBLE)
        m.type_commit(t)
        s = m.type_create_struct([1, 2], [0, 256], [t, dt.INT])
        m.type_commit(s)
        yield from m.send(buf, 1, s, dest=C.PROC_NULL, tag=1)
        m.type_free(t)
        m.type_free(s)
    yield from m.barrier()


def _trace_pair(program) -> list:
    blobs = []
    for tracer in (PilgrimTracer(), OracleTracer()):
        SimMPI(3, seed=1, tracer=tracer).run(program)
        blobs.append(tracer.result.trace_bytes)
    return blobs


def test_lifecycle_program_matches_the_oracle_trace():
    product, oracle = _trace_pair(_lifecycle_program)
    assert product == oracle


def test_struct_program_matches_the_oracle_trace():
    product, oracle = _trace_pair(_struct_program)
    assert product == oracle


# -- (b) signature level, call by call ---------------------------------------------------


@pytest.fixture()
def tiny_caps(monkeypatch):
    """Both caps at 2, so clear-and-refill runs every few calls."""
    monkeypatch.setattr(encoder_mod, "_SIG_CACHE_CAP", 2)
    monkeypatch.setattr(encoder_mod, "_SIG_MEMO_CAP", 2)


def _capture(nprocs: int, program, seed: int = 1) -> CapturedRun:
    rec = _RecordingHooks()
    SimMPI(nprocs, seed=seed, tracer=rec).run(program)
    return CapturedRun(family=program.__name__, nprocs=nprocs, sim=rec.sim,
                       events=rec.events,
                       n_calls=sum(ev[0] == _CALL for ev in rec.events))


def _pair(cap: CapturedRun, **options):
    """A product and an oracle tracer, started on the captured run."""
    tracers = PilgrimTracer(**options), OracleTracer(**options)
    for tracer in tracers:
        tracer.on_run_start(cap.sim)
    return tracers


def _compare(cap: CapturedRun, prod, oracle, before_event=None,
             skip=frozenset()) -> int:
    """Feed the stream to both; every signature must be equal.  Returns
    the number of signatures compared.  Calls to a function in *skip*
    reach neither."""
    compared = 0
    for i, ev in enumerate(cap.events):
        if before_event is not None:
            before_event(i, ev)
        if ev[6]:
            _restore(ev[6])
        if ev[0] != _CALL:
            for tracer in (prod, oracle):
                tracer.on_mem(ev[1], ev[2], ev[3], ev[4], ev[5])
            continue
        rank, fname, values = ev[1], ev[2], ev[3]
        if fname in skip:
            continue
        got = prod.encoders[rank].encode_call(fname, values)
        want = oracle.encoders[rank].encode_call(fname, values)
        assert got == want, (i, rank, fname)
        compared += 1
    for got, want in zip(prod.encoders, oracle.encoders):
        # the same ids live and the same pools open, on every rank
        assert got.requests._active == want.requests._active
        assert got.requests._pool_index == want.requests._pool_index
    assert prod.comm_space._sym == oracle.comm_space._sym
    return compared


@pytest.mark.parametrize("family", BENCH_FAMILIES)
def test_signatures_match_under_clear_and_refill(family, tiny_caps):
    cap = CapturedRun.record(family, 4, seed=2)
    prod, oracle = _pair(cap)
    assert _compare(cap, prod, oracle) == cap.n_calls
    assert all(enc.cache_size <= 2 for enc in prod.encoders)
    assert all(enc.cache_size == 0 for enc in oracle.encoders)


def test_signatures_match_across_a_memory_epoch_bump():
    # default caps: the stale entry must still be cached when the bump
    # comes, so only the epoch check stands between it and a wrong hit
    cap = CapturedRun.record("stencil2d", 4, seed=2)
    prod, oracle = _pair(cap)
    freed: dict = {}

    def free_a_live_buffer(i, ev):
        # mid-stream, free the heap segment the next call points into:
        # a cached entry keyed on that raw address is now stale
        if freed or i < len(cap.events) // 2 or ev[0] != _CALL:
            return
        mem = prod.encoders[ev[1]].memory
        for p, addr in zip(F.FUNCS[ev[2]].params, ev[3]):
            node = mem.tree.find_containing(addr) \
                if p.kind == F.K_PTR and addr else None
            if node is not None:
                assert mem.encode_ptr(addr)[0] == PTR_HEAP
                for tracer in (prod, oracle):
                    tracer.on_mem(ev[1], "free", {"ptr": node.addr}, None,
                                  ev[4])
                freed.update(rank=ev[1], addr=addr)
                return

    assert _compare(cap, prod, oracle, free_a_live_buffer) == cap.n_calls
    mem = prod.encoders[freed["rank"]].memory
    assert mem.encode_ptr(freed["addr"])[0] == PTR_STACK


def test_signatures_match_across_type_and_group_id_reuse(tiny_caps):
    cap = _capture(3, _lifecycle_program)
    prod, oracle = _pair(cap)
    assert _compare(cap, prod, oracle) == cap.n_calls
    freed = [ev for ev in cap.events if ev[2] in ("MPI_Type_free",
                                                   "MPI_Group_free")]
    assert len(freed) == 3 * 4 * 2
    # ids were reused: four datatypes shared one symbolic id, and four
    # sub-groups the one next to the world group's
    for enc in prod.encoders:
        assert enc.type_ids.high_water == 1
        assert enc.group_ids.high_water == 2


def test_unhashable_argument_takes_the_same_flow():
    cap = CapturedRun.record("osu_latency", 2, seed=1)
    prod, oracle = _pair(cap)
    values = ([1, 2], 1, 0, None)  # lock_type, rank, assert, win
    for _ in range(2):
        got = prod.encoders[0].encode_call("MPI_Win_lock", values)
        assert got == oracle.encoders[0].encode_call("MPI_Win_lock", values)
        assert got[1] == [1, 2]
        # the key cannot be hashed, so the entry is built and not stored
        assert prod.encoders[0].cache_size == 0


# -- (c) the shapes a fused completion loop can get wrong ----------------------------------


def listed_twice_and_null(m):
    """One request twice in a Waitall, MPI_REQUEST_NULL entries, an empty
    array, MPI_STATUSES_IGNORE — and the ids come back for the second
    round."""
    peer = 1 - m.rank
    buf = m.malloc(512)
    for _round in range(2):
        r = m.irecv(buf, 1, dt.INT, peer, 1)
        s = m.isend(buf + 64, 1, dt.INT, peer, 1)
        yield from m.waitall([r, None, r, s])
        yield from m.waitall([r, s])  # consumed: MPI_REQUEST_NULL by now
        yield from m.waitall([None, None])
        yield from m.waitall([])
        r = m.irecv(buf, 1, dt.INT, peer, 2)
        s = m.isend(buf + 64, 1, dt.INT, peer, 2)
        yield from m.waitall([s, r, s], array_of_statuses=None)
        r = m.irecv(buf, 1, dt.INT, peer, 3)
        flag, _sts = yield from m.testall([r, None, r])  # pending, on one
        yield from m.send(buf + 64, 1, dt.INT, peer, 3)
        while not flag:
            flag, _sts = yield from m.testall([r, None, r])


def idup_completed_by_waitall_and_test(m):
    """The idup'ed communicator's id is agreed when the completing call
    releases the request: by Waitall, by Test, and by a Testall that
    first reports the request pending."""
    req = m.comm_idup()
    yield from m.waitall([req], array_of_statuses=None)
    yield from m.barrier(req.value)
    req = m.comm_idup(req.value)
    flag = False
    while not flag:
        flag, _st = yield from m.test(req)
    other = m.comm_idup()
    flag = False
    while not flag:
        flag, _sts = yield from m.testall([other, None])
    yield from m.barrier(other.value)
    yield from m.barrier(req.value)


def any_and_some_off_world(m):
    """Waitany / Testsome / Waitsome over wildcard receives on a
    sub-communicator and on an inter-communicator: a status is relative
    to the caller's rank in *its request's* communicator, and these
    calls name none."""
    side = m.rank // 2
    local = yield from m.comm_split(color=side, key=m.rank)
    inter = yield from m.intercomm_create(local, 0, m.world,
                                          2 * (1 - side), tag=5)
    buf = m.malloc(1024)
    for comm in (local, inter):
        me = m.comm_rank(comm)
        peer = 1 - me if comm is local else me
        for poll in (False, True):
            reqs = [m.irecv(buf + 64 * i, 1, dt.INT, C.ANY_SOURCE, i, comm)
                    for i in range(3)]
            # one on the world communicator in the same array
            reqs.append(m.irecv(buf + 256, 1, dt.INT, C.ANY_SOURCE, 9))
            for i in range(3):
                yield from m.send(buf + 512, 1, dt.INT, peer, i, comm)
            yield from m.send(buf + 512, 1, dt.INT, m.rank ^ 1, 9)
            yield from m.waitany(reqs)
            done = 1
            while done < 4:
                idxs, _sts = yield from (m.testsome(reqs) if poll
                                         else m.waitsome(reqs))
                done += len(idxs or ())
    flag, _idx, _st = yield from m.testany(reqs)
    assert flag


ARMS = dict(TOUR,
            listed_twice_and_null=(2, listed_twice_and_null),
            idup_completed_by_waitall_and_test=(
                3, idup_completed_by_waitall_and_test),
            any_and_some_off_world=(4, any_and_some_off_world))

#: every function that hands the tracer a request it has not seen before
CREATES_A_REQUEST = frozenset(
    fname for fname, spec in F.FUNCS.items()
    if any(p.kind == F.K_REQUEST and p.direction == F.OUT
           for p in spec.params))


@pytest.mark.parametrize("pools", [True, False], ids=["pools", "one-pool"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_every_shape_matches_call_by_call(arm, pools, monkeypatch):
    nprocs, program = ARMS[arm]
    cap = _capture(nprocs, program)
    options = {"per_signature_request_pools": pools}
    assert _compare(cap, *_pair(cap, **options)) == cap.n_calls
    # a request the tracer never saw created: its id is drawn where it
    # is first met — Start, Cancel, a poll that leaves it pending, a
    # completion of a persistent one — under that call's signature
    unseen = sum(ev[2] not in CREATES_A_REQUEST for ev in cap.events
                 if ev[0] == _CALL)
    assert _compare(cap, *_pair(cap, **options),
                    skip=CREATES_A_REQUEST) == unseen
    # and with every cache and memo cleared every other call
    monkeypatch.setattr(encoder_mod, "_SIG_CACHE_CAP", 2)
    monkeypatch.setattr(encoder_mod, "_SIG_MEMO_CAP", 2)
    assert _compare(cap, *_pair(cap, **options)) == cap.n_calls


def test_the_arms_reach_the_shapes_they_name():
    def calls(arm, fname):
        nprocs, program = ARMS[arm]
        return [ev for ev in _capture(nprocs, program).events
                if ev[0] == _CALL and ev[2] == fname]

    waitalls = calls("listed_twice_and_null", "MPI_Waitall")
    assert any(len(v[1]) > len(set(map(id, v[1]))) > 1 and None in v[1]
               for _, _, _, v, *_ in waitalls)
    assert any(v[1] == [] for _, _, _, v, *_ in waitalls)
    assert any(v[2] is None and v[1] for _, _, _, v, *_ in waitalls)
    assert CREATES_A_REQUEST >= {"MPI_Isend", "MPI_Recv_init",
                                 "MPI_Comm_idup", "MPI_Ibarrier"}
    assert not CREATES_A_REQUEST & {"MPI_Start", "MPI_Wait", "MPI_Cancel"}
    # off-world: statuses whose request is on a communicator the caller's
    # rank differs in, through an index and through an index array
    cap = _capture(*ARMS["any_and_some_off_world"])
    cids = {fname: set() for fname in ("MPI_Waitany", "MPI_Testsome",
                                       "MPI_Waitsome")}
    for ev in cap.events:
        if ev[0] == _CALL and ev[2] in cids:
            cids[ev[2]] |= {r.comm_cid for r in ev[3][1]}
    inter = {c.cid for c in cap.sim._comms.values()
             if c.remote_group is not None}
    assert inter and all(len(seen) >= 3 and seen & inter
                         for seen in cids.values())
    # the idup'ed communicators got their ids at release: three per rank
    cap = _capture(*ARMS["idup_completed_by_waitall_and_test"])
    prod, oracle = _pair(cap)
    _compare(cap, prod, oracle)
    assert prod.comm_space.count == 1 + 3
