"""The simulator's observable behaviour, pinned (``repro.mpisim``).

``tests/data/mpisim_golden.json`` was recorded on the commit it names
(``recorded_on``: the parent of the PR that reworked the simulator's
per-call success path) by running this file as a script against that
checkout's source::

    PYTHONPATH=<checkout>/src python tests/test_mpisim_golden.py

It is what "same float operations, same RNG draws, same scheduling
order" means in executable form:

* every registered family and every stop of the API tour
  (``test_replay_registry.TOUR`` — every registry function but two),
  at two seeds, under aggregate and lossy timing: ``sha256`` of the
  trace, ``RunResult.steps`` and every rank's final clock as
  ``float.hex``;
* the full ``EventLog`` stream of three families, and of one with a
  ``sched.progress`` event after every resume (the ready-queue length
  after each scheduler turn);
* per family one directed ``api.replay`` and one what-if replay under
  another network model: the whole report document, plus the replayed
  run's steps and clocks (the ``directed_*`` arms only run here).

Re-record only from a commit whose simulator is the reference, and say
which in ``recorded_on``.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import api
from repro.core.backends import TracerOptions, make_tracer
from repro.mpisim import SimMPI, scheduler
from repro.obs import EventLog
from repro.replay import ReplayOptions
from repro.workloads import REGISTRY, make
from test_replay_registry import TOUR

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "mpisim_golden.json")
NPROCS = 4
SEEDS = (1, 2)
MODES = {"aggregate": False, "lossy_timing": True}
EVENT_FAMILIES = ("mw_sweep", "npb_cg", "npb_lu")
WHATIF_NET = "alpha=4e-6,beta=8e-10"


def _run_doc(result) -> dict:
    return {"steps": result.steps,
            "rank_times": [t.hex() for t in result.rank_times]}


def observe_traces(run) -> dict:
    """``run(tracer) -> RunResult`` under both timing modes."""
    doc: dict = {}
    for mode, lossy in MODES.items():
        tracer = make_tracer("pilgrim", TracerOptions(lossy_timing=lossy))
        doc[mode] = dict(
            _run_doc(run(tracer)),
            sha256=hashlib.sha256(tracer.result.trace_bytes).hexdigest())
    return doc


def observe_family(family: str, seed: int) -> dict:
    return observe_traces(
        lambda tracer: make(family, NPROCS).run(seed=seed, tracer=tracer))


def observe_stop(stop: str, seed: int) -> dict:
    nprocs, program = TOUR[stop]
    return observe_traces(
        lambda tracer: SimMPI(nprocs, seed=seed, tracer=tracer).run(program))


def observe_events(family: str) -> list:
    log = EventLog()
    make(family, NPROCS).run(seed=1, tracer=make_tracer("null"), events=log)
    assert log.dropped == 0
    return log.records()


def observe_every_turn() -> list:
    """``mw_sweep`` with a progress event after every scheduler turn."""
    saved = scheduler.PROGRESS_SAMPLE
    scheduler.PROGRESS_SAMPLE = 1
    try:
        return observe_events("mw_sweep")
    finally:
        scheduler.PROGRESS_SAMPLE = saved


def observe_replays(family: str) -> dict:
    blob = api.trace(family, NPROCS, seed=1).trace_bytes
    doc = {}
    for name, options in (("directed", None),
                          ("whatif", ReplayOptions(net=WHATIF_NET))):
        res = api.replay(blob, options=options)
        doc[name] = dict(_run_doc(res.run), report=res.report_dict())
    return doc


def observe_all() -> dict:
    return {
        "families": {f: {str(s): observe_family(f, s) for s in SEEDS}
                     for f in sorted(REGISTRY)},
        "tour": {stop: {str(s): observe_stop(stop, s) for s in SEEDS}
                 for stop in sorted(TOUR)},
        "events": {f: observe_events(f) for f in EVENT_FAMILIES},
        "every_turn": observe_every_turn(),
        "replays": {f: observe_replays(f) for f in sorted(REGISTRY)},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_the_golden_names_its_commit_and_covers_the_registries(golden):
    assert len(golden["recorded_on"]) == 40
    assert sorted(golden["families"]) == sorted(REGISTRY)
    assert len(REGISTRY) == 26
    assert sorted(golden["tour"]) == sorted(TOUR)
    assert sorted(golden["replays"]) == sorted(REGISTRY)


@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_family_traces_steps_and_clocks(family, golden):
    for seed in SEEDS:
        assert observe_family(family, seed) \
            == golden["families"][family][str(seed)], (family, seed)


@pytest.mark.parametrize("stop", sorted(TOUR))
def test_tour_traces_steps_and_clocks(stop, golden):
    for seed in SEEDS:
        assert observe_stop(stop, seed) \
            == golden["tour"][stop][str(seed)], (stop, seed)


@pytest.mark.parametrize("family", EVENT_FAMILIES)
def test_event_stream(family, golden):
    # through JSON, as the golden went: tuples are lists there
    assert json.loads(json.dumps(observe_events(family))) \
        == golden["events"][family]


def test_scheduler_turn_by_turn(golden):
    assert json.loads(json.dumps(observe_every_turn())) \
        == golden["every_turn"]


@pytest.mark.parametrize("family", sorted(REGISTRY))
def test_directed_and_whatif_replay(family, golden):
    assert json.loads(json.dumps(observe_replays(family))) \
        == golden["replays"][family]


if __name__ == "__main__":
    src = os.path.dirname(os.path.dirname(api.__file__))
    commit = subprocess.run(
        ["git", "-C", src, "rev-parse", "HEAD"], check=True,
        capture_output=True, text=True).stdout.strip()
    doc = dict(recorded_on=commit, **observe_all())
    out = sys.argv[1] if len(sys.argv) > 1 else GOLDEN
    with open(out, "w") as fh:  # one line per family / stop
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: " + (json.dumps(v) if not isinstance(v, dict)
                                   else "{\n" + ",\n".join(
                f"  {json.dumps(k2)}: {json.dumps(v[k2], sort_keys=True)}"
                for k2 in sorted(v)) + "\n}")
            for k, v in doc.items()) + "\n}\n")
    print(f"recorded {out} on {commit}")
