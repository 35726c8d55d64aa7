"""Python frames per simulated MPI call: the success-path budget of the
simulator, and of the tracer and the replayer on top of it, as a count.

``sys.setprofile`` ``call`` events (function entries and generator
resumes; C calls are other events) over one run, divided by the MPI
calls the run made.  The count is exact for a seed — no timer, no
machine, nothing to flake — so it is a ceiling a change either keeps or
visibly raises.  A ceiling and not an equality: an interpreter that
inlines comprehensions (3.12) reads lower.

**Untraced** (null backend; what a change to ``repro.mpisim`` moves).
Readings before / after the success-path rework (seed 1, CPython 3.11),
in the order of ``BUDGETS``: 31.5 / 8.7, 35.2 / 9.6, 33.1 / 18.0,
21.9 / 10.9, 33.6 / 10.6.  The ceilings leave a helper or two of room
above the second number, and none of the way back to the first.

**Traced** (pilgrim backend minus null backend: what ``on_call`` adds —
hook, encode, CST, Sequitur).  Readings with the interpreted call plan
over a ``{name: value}`` dict / with one generated closure per function
over the positional tuple: 15.8 / 9.4, 26.9 / 20.3, 12.2 / 11.2,
8.3 / 7.3, 15.2 / 9.8.  Same rule: room for a helper above the second
number, and every ceiling below the first — for a function with
nothing dynamic ``on_call`` → ``observe`` → ``encode_call`` → ``key_fn``
became ``on_call`` → ``observe`` → ``encode``, one frame fewer, so that
is all the room the collective-only and RMA rows have.

**Replayed** (a directed ``api.replay`` of the family's trace — decode,
set-up, the compiled bodies, the comparator — minus the null run, per
replayed call).  Readings with every argument resolved on every call /
with a terminal's arguments bound once per rank and the comparator's
common case in line: 9.3 / 2.5, 11.0 / 5.1, 5.9 / 1.7, 6.3 / 2.6,
9.1 / 2.5.  What is left is ``run``, ``on_call`` and one ``_release``
per completed request (``flash_cellular`` also binds 1 276 times for
6 537 calls: 997 terminals).  Room for a helper above the second number.
With one per-signature table read by position (no ``DecodedCall`` per
rank and terminal): 2.4, 4.6, 1.7, 2.6, 2.5.
"""

import sys

import pytest

import repro
from repro.core.backends import make_tracer
from repro.workloads import make

#: family, ranks, parameters, frames-per-call ceiling: untraced, what
#: tracing may add, what a directed replay may add
BUDGETS = [
    ("stencil2d", 16, {"iters": 30}, 12.0, 10.5, 3.5),
    ("flash_cellular", 27, {"iters": 12}, 13.0, 21.5, 6.1),
    ("osu_allreduce", 4, {}, 22.0, 11.7, 2.8),
    ("stencil2d_rma", 4, {}, 14.0, 7.8, 3.6),
    ("milc_su3_rmd", 4, {}, 14.0, 11.0, 3.6),
]
IDS = [b[0] for b in BUDGETS]


def frames_in(fn) -> tuple:
    """``(fn(), Python frames entered while it ran)``."""
    frames = 0

    def count(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, frames


def frames_per_call(family: str, nprocs: int, params: dict,
                    backend: str = "null") -> float:
    workload = make(family, nprocs, **params)
    tracer = make_tracer(backend)
    _run, frames = frames_in(lambda: workload.run(seed=1, tracer=tracer))
    return frames / tracer.total_calls


def replay_frames_per_call(family: str, nprocs: int, params: dict) -> float:
    blob = repro.trace(family, nprocs, seed=1, params=params).trace_bytes
    res, frames = frames_in(lambda: repro.replay(blob))
    assert not res.diverged
    return frames / res.report.counts["replayed"]


@pytest.mark.parametrize("family,nprocs,params,ceiling,_traced,_replayed",
                         BUDGETS, ids=IDS)
def test_frames_per_call_stay_under_the_ceiling(family, nprocs, params,
                                                ceiling, _traced, _replayed):
    assert frames_per_call(family, nprocs, params) <= ceiling


@pytest.mark.parametrize("family,nprocs,params,_untraced,ceiling,_replayed",
                         BUDGETS, ids=IDS)
def test_frames_tracing_adds_stay_under_the_ceiling(family, nprocs, params,
                                                    _untraced, ceiling,
                                                    _replayed):
    added = frames_per_call(family, nprocs, params, "pilgrim") \
        - frames_per_call(family, nprocs, params)
    assert added <= ceiling


@pytest.mark.parametrize("family,nprocs,params,_untraced,_traced,ceiling",
                         BUDGETS, ids=IDS)
def test_frames_replay_adds_stay_under_the_ceiling(family, nprocs, params,
                                                   _untraced, _traced,
                                                   ceiling):
    added = replay_frames_per_call(family, nprocs, params) \
        - frames_per_call(family, nprocs, params)
    assert added <= ceiling
