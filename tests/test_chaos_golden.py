"""Which faults fire, and what a run under them keeps, pinned.

``tests/data/chaos_golden.json`` was recorded on the commit it names
(``recorded_on``) by running this file as a script against that
checkout's source::

    PYTHONPATH=<checkout>/src python tests/test_chaos_golden.py

The chaos property (:mod:`repro.resilience.chaos`) only asserts that a
run under faults recovers byte-identically or degrades with conserving
accounting.  This golden pins *how*: for ``stencil2d`` and ``npb_mg`` at
8 ranks, under aggregate and lossy timing, for the seeded random plans
100–111 and a set of explicit merge-site plans, it holds the chaos
outcome, the fired-fault log, the detail line, the surviving and lost
calls, the ``sha256`` of the trace bytes, the whole salvage report and
the run's ``pipeline.*`` counters.  A change to the reduce, the retry
supervisor or the salvage path that moves any of them moved a fault
sequence, a retry or a loss.

The rows whose plan names the ``merge`` site (random 105, 110 and 111
and the explicit plans) were re-recorded when the reduce became one
pass, whose ``merge`` site is one rank's absorb rather than a tree
level's pair merge; every other row is byte for byte the named commit's
recording, read through :data:`RETIRED`.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro import api
from repro.core import pipeline
from repro.core.backends import TracerOptions
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan
from repro.resilience.chaos import run_chaos_case
from repro.resilience.retry import TaskSupervisor

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "chaos_golden.json")
WORKLOADS = ("stencil2d", "npb_mg")
NPROCS = 8
MODES = {"aggregate": False, "lossy": True}
RANDOM_SEEDS = range(100, 112)
EXPLICIT = ("kill@merge*2:rank=0", "stall@merge*2", "corrupt@merge:rank=1",
            "truncate@merge", "oserror@merge*forever",
            "oserror@merge*forever:rank=5")
#: counters the recording commit emitted and this tree no longer has:
#: the circuit breaker that abandoned a merge process pool for serial
#: merging went with the pool, and the per-pair ``merge.tasks`` count
#: with the pair-merge tree (each absorb is a ``merge.task`` span)
RETIRED = frozenset({"pipeline.breaker_trips", "pipeline.merge.tasks"})


def plans() -> dict:
    out = {f"random:{s}": FaultPlan.random(s, NPROCS) for s in RANDOM_SEEDS}
    out.update((text, FaultPlan.parse(text)) for text in EXPLICIT)
    return out


def _salvage_doc(report) -> dict:
    if report is None:
        return None
    return {"lost_ranks": report.lost_ranks,
            "lost_sections": report.lost_sections,
            "lost_calls": {str(r): c
                           for r, c in sorted(report.lost_calls.items())},
            "notes": report.notes}


def observe_row(workload: str, mode: str) -> dict:
    """Every plan's case for one (workload, timing mode)."""
    opts = TracerOptions(lossy_timing=MODES[mode])
    reference = api.trace(workload, NPROCS, options=opts)
    row = {}
    for name, plan in plans().items():
        case = run_chaos_case(workload, NPROCS, plan, options=opts,
                              reference=reference)
        metrics = MetricsRegistry()
        run = api.trace(workload, NPROCS, options=replace(opts,
                                                          metrics=metrics),
                        fault_plan=plan)
        counters = metrics.snapshot()["counters"]
        row[name] = {
            "outcome": case.outcome, "fired": case.fired,
            "detail": case.detail, "surviving_calls": case.surviving_calls,
            "lost_calls": case.lost_calls,
            "sha256": hashlib.sha256(run.trace_bytes).hexdigest(),
            "rerun_fired": run.fired_faults,
            "salvage": _salvage_doc(run.salvage),
            "pipeline": {k: v for k, v in sorted(counters.items())
                         if k.startswith("pipeline.")},
        }
    return row


def observe_all() -> dict:
    return {f"{wl}/{mode}": observe_row(wl, mode)
            for wl in WORKLOADS for mode in MODES}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_the_golden_names_its_commit_and_covers_the_matrix(golden):
    assert len(golden["recorded_on"]) == 40
    rows = {k: v for k, v in golden.items() if k != "recorded_on"}
    assert sorted(rows) == sorted(f"{wl}/{m}" for wl in WORKLOADS
                                  for m in MODES)
    for row in rows.values():
        assert sorted(row) == sorted(plans())
        # the matrix exercises both classified outcomes, merge faults
        # included, and never fails
        assert {c["outcome"] for c in row.values()} \
            == {"recovered", "degraded"}
        assert row["oserror@merge*forever"]["outcome"] == "degraded"
        assert all(c["fired"] for name, c in row.items()
                   if name in EXPLICIT)


def test_every_plan_conserves_calls(golden):
    """What a run keeps and what its salvage report says it lost add up
    to the fault-free run's calls, on every plan, and a lost call is
    one the report names."""
    for row in (v for k, v in golden.items() if k != "recorded_on"):
        total = max(c["surviving_calls"] for c in row.values())
        for name, case in row.items():
            assert case["surviving_calls"] + case["lost_calls"] == total, \
                name
            lost = case["salvage"]["lost_calls"] if case["salvage"] else {}
            assert case["lost_calls"] == sum(lost.values()), name


@pytest.fixture
def no_backoff_sleep(monkeypatch):
    """Retry backoff without the wall-clock wait: the jittered delays
    are still drawn (and recorded as spans), so every fault sequence,
    retry and counter is the one a sleeping supervisor produces."""
    monkeypatch.setattr(pipeline, "TaskSupervisor", functools.partial(
        TaskSupervisor, sleep=lambda _delay: None))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_fired_faults_salvage_and_counters(workload, mode, golden,
                                           no_backoff_sleep):
    want = golden[f"{workload}/{mode}"]
    got = observe_row(workload, mode)
    for name, case in want.items():
        case = dict(case, pipeline={k: v for k, v in case["pipeline"].items()
                                    if k not in RETIRED})
        assert got[name] == case, (workload, mode, name)


if __name__ == "__main__":
    src = os.path.dirname(os.path.dirname(api.__file__))
    commit = subprocess.run(
        ["git", "-C", src, "rev-parse", "HEAD"], check=True,
        capture_output=True, text=True).stdout.strip()
    doc = dict(recorded_on=commit, **observe_all())
    out = sys.argv[1] if len(sys.argv) > 1 else GOLDEN
    with open(out, "w") as fh:  # one line per case
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: " + (json.dumps(v) if not isinstance(v, dict)
                                   else "{\n" + ",\n".join(
                f"  {json.dumps(k2)}: {json.dumps(v[k2], sort_keys=True)}"
                for k2 in sorted(v)) + "\n}")
            for k, v in doc.items()) + "\n}\n")
    print(f"recorded {out} on {commit}")
