"""Differential tests: the one-flow encoder against the walk it replaced.

Until PR 17 ``PerRankEncoder`` built signatures two ways: a full walk
over a call's registry parameters that encoded requests and statuses
inline (``_encode_walk``, the whole product path under
``signature_cache=False``), and the cached template + per-call dynamic
slots.  The walk left ``src/`` when the cached flow became the only one
(a miss builds the entry, then takes the hit's path); it lives on here,
verbatim, as the oracle — no cache, no template, no memo.  Trace by
trace and signature by signature the product must agree with it.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Optional

import pytest

from repro.bench.capture import (_CALL, CapturedRun, _RecordingHooks,
                                 _restore)
from repro.core import encoder as encoder_mod
from repro.core.backends import TracerOptions, make_tracer
from repro.core.encoder import (PTR_HEAP, PTR_STACK, PerRankEncoder,
                                _plan_for)
from repro.core.relative import encode_rank, encode_rankish
from repro.core.shard import RankCompressor
from repro.core.tracer import TIMING_AGGREGATE, TIMING_LOSSY, PilgrimTracer
from repro.mpisim import SimMPI, constants as C, datatypes as dt, funcs as F
from repro.mpisim.comm import Comm
from repro.mpisim.ops import Op
from repro.workloads import REGISTRY, make

BENCH_FAMILIES = ("stencil2d", "osu_latency", "npb_mg", "flash_sedov",
                  "milc_su3_rmd")


# -- the oracle: the parent's full uncached walk, kept verbatim -------------------------


class OracleEncoder(PerRankEncoder):
    """``encode_call`` is the parent's walk, then ``_post_call``."""

    def encode_call(self, fname: str, args: dict[str, Any]) -> tuple:
        sig = self._encode_walk(_plan_for(fname), args)[0]
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


class OracleRank(RankCompressor):
    """A rank whose encoder is the oracle, plugged in through the
    ``encoder=`` parameter the product leaves for exactly this."""

    def __init__(self, rank, comm_space, *, win_space=None,
                 relative_ranks=True, per_signature_request_pools=True,
                 **kwargs):
        super().__init__(rank, comm_space, encoder=OracleEncoder(
            rank, comm_space, win_space=win_space,
            relative_ranks=relative_ranks,
            per_signature_request_pools=per_signature_request_pools),
            **kwargs)


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
    for batch_size, watermark, jobs in product((1, 256), (None, 37), (1, 2)):
        got = _run(make_tracer("pilgrim", TracerOptions(
            lossy_timing=lossy, batch_size=batch_size,
            memory_watermark=watermark, jobs=jobs)), family)
        assert got == want, (batch_size, watermark, jobs)


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


def _pair(cap: CapturedRun):
    """A product and an oracle tracer, started on the captured run."""
    tracers = PilgrimTracer(), OracleTracer()
    for tracer in tracers:
        tracer.on_run_start(cap.sim)
    return tracers


def _compare(cap: CapturedRun, prod, oracle, before_event=None) -> int:
    """Feed the stream to both; every signature must be equal.  Returns
    the number of signatures compared."""
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
        rank, fname, args = ev[1], ev[2], ev[3]
        got = prod.encoders[rank].encode_call(fname, args)
        want = oracle.encoders[rank].encode_call(fname, args)
        assert got == want, (i, rank, fname)
        compared += 1
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
        for p in F.FUNCS[ev[2]].params:
            addr = ev[3].get(p.name)
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
    rec = _RecordingHooks()
    SimMPI(3, seed=1, tracer=rec).run(_lifecycle_program)
    n_calls = sum(ev[0] == _CALL for ev in rec.events)
    cap = CapturedRun(family="lifecycle", nprocs=3, sim=rec.sim,
                      events=rec.events, n_calls=n_calls)
    prod, oracle = _pair(cap)
    assert _compare(cap, prod, oracle) == n_calls
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
    args = {"lock_type": [1, 2], "rank": 1, "assert": 0, "win": None}
    for _ in range(2):
        got = prod.encoders[0].encode_call("MPI_Win_lock", args)
        assert got == oracle.encoders[0].encode_call("MPI_Win_lock", args)
        assert got[1] == [1, 2]
        # the key cannot be hashed, so the entry is built and not stored
        assert prod.encoders[0].cache_size == 0
