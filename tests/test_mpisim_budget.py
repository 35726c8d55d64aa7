"""Python frames per simulated MPI call: the simulator's success-path
budget, as a count.

``sys.setprofile`` ``call`` events (function entries and generator
resumes; C calls are other events) over one null-backend run, divided
by the MPI calls the run made.  The count is exact for a seed — no
timer, no machine, nothing to flake — so it is a ceiling a change to
``repro.mpisim`` either keeps or visibly raises.  A ceiling and not an
equality: an interpreter that inlines comprehensions (3.12) reads lower.

Readings before / after the success-path rework (seed 1, CPython 3.11),
in the order of ``BUDGETS``: 31.5 / 8.7, 35.2 / 9.6, 33.1 / 18.0,
21.9 / 10.9, 33.6 / 10.6.  The ceilings leave a helper or two of room
above the second number, and none of the way back to the first.
"""

import sys

import pytest

from repro.core.backends import make_tracer
from repro.workloads import make

#: family, ranks, parameters, frames-per-call ceiling
BUDGETS = [
    ("stencil2d", 16, {"iters": 30}, 12.0),
    ("flash_cellular", 27, {"iters": 12}, 13.0),
    ("osu_allreduce", 4, {}, 22.0),
    ("stencil2d_rma", 4, {}, 14.0),
    ("milc_su3_rmd", 4, {}, 14.0),
]


def frames_per_call(family: str, nprocs: int, params: dict) -> float:
    workload = make(family, nprocs, **params)
    tracer = make_tracer("null")
    frames = 0

    def count(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(count)
    try:
        workload.run(seed=1, tracer=tracer)
    finally:
        sys.setprofile(None)
    return frames / tracer.total_calls


@pytest.mark.parametrize("family,nprocs,params,ceiling", BUDGETS,
                         ids=[b[0] for b in BUDGETS])
def test_frames_per_call_stay_under_the_ceiling(family, nprocs, params,
                                                ceiling):
    assert frames_per_call(family, nprocs, params) <= ceiling
