"""What a finished trace keeps alive.

``finalize`` seals every rank: a finished rank keeps exactly what its
``freeze()`` answers with — its shard — and the logs, timing clocks, CST
index and encoder (whose comm resolver holds the whole simulated world)
go.  There is no exception: :func:`~repro.core.verify.verify_roundtrip`
takes its uncompressed side from the ``raw`` backend beside the tracer,
so the tracer ``api.verify`` checks is sealed like any other.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro import api
from repro.core.backends import TracerOptions
from repro.core.encoder import PerRankEncoder
from repro.core.grammar import TermLog
from repro.core.pipeline import TracePipeline
from repro.core.timing import TimingCompressor
from repro.core.tracer import PilgrimTracer

#: one family with lossy timing, one aggregate
CASES = [("flash_cellular", True, {"iters": 4}),
         ("stencil2d", False, {"iters": 5})]

_WORKING_SET = (TermLog, TimingCompressor, PerRankEncoder)
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

    def run(family, lossy, params):
        result = api.trace(family, 8, seed=3, params=params,
                           options=TracerOptions(lossy_timing=lossy))
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
