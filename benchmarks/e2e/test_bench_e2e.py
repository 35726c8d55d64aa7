"""Schema of the whole-chain benchmark.  Not collected by tier-1
(``testpaths = ["tests"]``); run it explicitly:

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

The last test runs the ``--quick`` command on one workload for real.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables():
    assert len(spec.WORKLOADS) == 4
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    names += [w.name for w in spec.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(m.unit), m
        assert m.better in ("lower", "higher"), m
    for m in spec.END_TO_END:
        assert m.bound is not None and 0 < m.bound <= 0.25, m
    assert [m for m in spec.END_TO_END if m.name == "setup_s"] == [
        spec.Metric("setup_s", "s", "lower",
                    max(m.bound for m in spec.END_TO_END))]


def test_manifest_matches_spec():
    doc = _manifest()
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in spec.WORKLOADS]
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in spec.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]
    import run
    assert doc["run_seconds"] == run.RUN_SECONDS


def test_seeds_derive_from_seed_only():
    for w in spec.WORKLOADS:
        assert w.units(7) == w.units(7)
        assert [u.seed for u in w.units(7)] != [u.seed for u in w.units(8)]
    assert len(spec.BY_NAME["fleet_small"].units(1)) == 26
    assert len(spec.BY_NAME["ingest_stream"].units(1)) == 4


def test_quick_command_prints_exactly_the_listed_metrics():
    doc = _manifest()
    for trace, listed in ((0, doc["end_to_end"]), (1, doc["per_layer"])):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--quick",
             "--workload", "fleet_small", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
