"""What a finished trace keeps alive: a finished trace is its bytes.

``finalize`` seals every rank: the logs, timing clocks, CST index and
encoder (whose comm resolver holds the whole simulated world) go, and
the rank keeps numbers — its call count, per-signature counts and
durations, and its row of the merged signature table.  Its ``freeze()``
rebuilds, from the trace bytes parsed once per tracer, the very shard
finalize reduced.  A rank the run lost keeps its own shard: the trace
holds only a placeholder for it.  :func:`~repro.core.verify.
verify_roundtrip` takes its uncompressed side from the ``raw`` backend
beside the tracer, so the tracer ``api.verify`` checks is sealed like
any other.  A streaming client's ranks drop their working sets once
their last flush has left.
"""

from __future__ import annotations

import gc
import tracemalloc
import types
import weakref

import pytest

from repro import api
from repro.core.backends import TracerOptions
from repro.core.cst import CST, MergedCST
from repro.core.encoder import PerRankEncoder
from repro.core.grammar import Grammar, TermLog
from repro.core.pipeline import TracePipeline
from repro.core.shard import RankShard
from repro.core.timing import TimingCompressor
from repro.core.trace_format import TraceFile
from repro.core.tracer import PilgrimTracer
from repro.workloads import REGISTRY

#: one family with lossy timing, one aggregate
CASES = [("flash_cellular", True, {"iters": 4}),
         ("stencil2d", False, {"iters": 5})]

_WORKING_SET = (TermLog, TimingCompressor, PerRankEncoder)
#: what a finished trace holds only once someone calls ``freeze()``
_VIEWS = (TraceFile, MergedCST, RankShard, Grammar)
_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, str, bytes, int, float)


def reachable(root) -> list:
    """Every object reachable from *root*, not walking into modules,
    classes or functions (those reach the whole interpreter)."""
    seen = {id(root)}
    todo, out = [root], []
    while todo:
        obj = todo.pop()
        out.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                todo.append(ref)
    return out


@pytest.fixture
def traced(monkeypatch):
    """Trace a case, returning the result, a weak reference to its
    simulator and the shards its finalize reduced.  ``run.tracers``
    lists every tracer a run started."""
    sims, reduced, tracers = [], [], []
    start, reduce = PilgrimTracer.on_run_start, TracePipeline.reduce

    def on_run_start(self, sim):
        sims.append(weakref.ref(sim))
        tracers.append(self)
        return start(self, sim)

    def spy_reduce(self, shards):
        reduced.append(list(shards))
        return reduce(self, shards)

    monkeypatch.setattr(PilgrimTracer, "on_run_start", on_run_start)
    monkeypatch.setattr(TracePipeline, "reduce", spy_reduce)

    def run(family, lossy, params, nprocs=8, extra=None, fault_plan=None):
        result = api.trace(family, nprocs, seed=3, params=params,
                           options=TracerOptions(lossy_timing=lossy,
                                                 extra=extra or {}),
                           fault_plan=fault_plan)
        gc.collect()
        (sim,), (shards,) = sims, reduced
        return result, sim, shards

    run.tracers = tracers
    return run


@pytest.mark.parametrize("family,lossy,params", CASES,
                         ids=[c[0] for c in CASES])
def test_a_finished_rank_keeps_its_shard_alone(traced, family, lossy,
                                               params):
    result, sim, shards = traced(family, lossy, params)
    tracer = result.tracer
    assert [rc.freeze().to_bytes() for rc in tracer.ranks] == \
        [s.to_bytes() for s in shards]
    assert all((s.timing_duration is not None) == lossy for s in shards)
    assert [rc.observed_calls for rc in tracer.ranks] == \
        result.result.per_rank_calls
    left = [type(o).__name__ for o in reachable(result)
            if isinstance(o, _WORKING_SET)]
    assert left == []
    assert not (tracer.encoders or tracer.timing
                or tracer._observe)
    assert sim() is None
    assert tracer.finalize() is result.result
    # what the result answers with is untouched
    assert api.decode(result.trace_bytes).call_count() == result.total_calls


@pytest.mark.parametrize("family,lossy,params", CASES,
                         ids=[c[0] for c in CASES])
def test_verify_seals_its_tracer(traced, family, lossy, params):
    result, sim, shards = traced(family, lossy, params)
    assert api.verify(family, 8, seed=3, **params,
                      options=TracerOptions(lossy_timing=lossy)).ok
    _, checked = traced.tracers
    assert checked.result.trace_bytes == result.trace_bytes
    left = [type(o).__name__ for o in reachable(checked)
            if isinstance(o, _WORKING_SET)]
    assert left == []
    assert not (checked.encoders or checked.timing
                or checked._observe)
    assert [rc.freeze().to_bytes() for rc in checked.ranks] == \
        [s.to_bytes() for s in shards]


@pytest.mark.parametrize("family,lossy,params", CASES,
                         ids=[c[0] for c in CASES])
def test_a_finished_trace_is_its_bytes(traced, monkeypatch, family, lossy,
                                       params):
    parses = []
    parse = TraceFile.from_bytes.__func__
    monkeypatch.setattr(TraceFile, "from_bytes", classmethod(
        lambda cls, *a, **kw: parses.append(1) or parse(cls, *a, **kw)))
    result, _, shards = traced(family, lossy, params)
    sigs = {id(sig) for s in shards for sig in s.sigs}
    held = reachable(result)
    assert [type(o).__name__ for o in held if isinstance(o, _VIEWS)] == []
    assert [o for o in held if id(o) in sigs] == []
    assert parses == [], "finalize parses nothing"
    ranks = result.tracer.ranks
    for _ in range(2):
        assert [rc.freeze().to_bytes() for rc in ranks] == \
            [s.to_bytes() for s in shards]
    assert parses == [1], "one parse, shared by every rank"


def _nprocs(family: str) -> int:
    return 9 if family in ("npb_bt", "npb_sp") else 4


#: every registry family, aggregate and lossy, then the two ablations
#: that change what the merged CFG holds
REBUILDS = [(f, lossy, {}) for f in sorted(REGISTRY)
            for lossy in (False, True)] + \
    [(f, True, extra) for f in ("flash_cellular", "stencil2d")
     for extra in ({"cfg_dedup": False}, {"loop_detection": False})]


@pytest.mark.parametrize(
    "family,lossy,extra", REBUILDS,
    ids=[f"{f}-{'lossy' if lossy else 'aggregate'}"
         f"{''.join(f'-{k}' for k in extra)}" for f, lossy, extra in REBUILDS])
def test_a_sealed_rank_rebuilds_the_shard_reduce_received(traced, family,
                                                          lossy, extra):
    result, _, shards = traced(family, lossy, {}, nprocs=_nprocs(family),
                               extra=extra)
    assert [rc.freeze().to_bytes() for rc in result.tracer.ranks] == \
        [s.to_bytes() for s in shards]


@pytest.mark.parametrize("family,lossy,params", CASES,
                         ids=[c[0] for c in CASES])
def test_a_sealed_rank_compresses_to_the_grammars_reduce_received(
        traced, family, lossy, params):
    """``compress()`` and ``freeze()`` agree on a sealed rank: the call
    grammar and, under lossy timing, the two timing grammars."""
    result, _, shards = traced(family, lossy, params)
    for rc, s in zip(result.tracer.ranks, shards):
        want = [gs.per_rank()[0] for gs in (
            s.cfg, s.timing_duration, s.timing_interval) if gs is not None]
        g, timing = rc.compress()
        assert [g, *(timing or ())] == want
        assert (timing is not None) == lossy


def test_a_lost_rank_keeps_its_own_shard(traced):
    result, _, shards = traced("flash_cellular", True, {"iters": 4},
                               nprocs=4,
                               fault_plan="kill@shard.freeze*forever:rank=3")
    assert result.degraded and result.salvage.lost_ranks == [3]
    kept = [o for o in reachable(result) if isinstance(o, RankShard)]
    assert [(s.base_rank, s.calls) for s in kept] == \
        [(3, [result.salvage.lost_calls[3]])]
    got = [rc.freeze().to_bytes() for rc in result.tracer.ranks]
    assert got[:3] == [s.to_bytes() for s in shards[:3]]
    # the reduce received a placeholder for rank 3; the rank froze itself
    assert shards[3].calls == [0]
    intact = api.trace("flash_cellular", 4, seed=3, params={"iters": 4},
                       options=TracerOptions(lossy_timing=True))
    assert got[3] == intact.tracer.ranks[3].freeze().to_bytes()


#: KiB a finished ``flash_cellular``/8 lossy result may keep alive:
#: twice the 125 KiB it keeps (its trace is 11.1 KB).  While its ranks
#: kept their shards and its result the parsed trace, it kept 1 539 KiB
RETAINED_KIB = 250


def test_a_finished_result_keeps_about_its_bytes():
    def run():
        return api.trace("flash_cellular", 8, seed=1,
                         options=TracerOptions(lossy_timing=True))

    run()  # the first run builds the lazily made tables (encoder plans)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        kib = (tracemalloc.get_traced_memory()[0] - before) / 1024
    finally:
        tracemalloc.stop()
    assert result.trace_size > 10_000
    assert kib < RETAINED_KIB


def test_push_leaves_no_working_set_behind():
    """A streaming client's ranks drop their encoders, CSTs and logs once
    the last flush has left: nothing of them waits for the cyclic
    collector (the simulated world itself may)."""
    with api.serve() as server:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            out = api.push("flash_sedov", 8, port=server.port,
                           params={"iters": 8})
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage
                    if isinstance(o, (PerRankEncoder, TermLog, CST))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert left == []
    assert out.total_calls == sum(out.per_rank_calls) > 0
