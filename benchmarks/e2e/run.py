"""Whole-chain benchmark: four workloads, one chain, every metric by name.

    python3 benchmarks/e2e/run.py --seed N              all four workloads
    python3 benchmarks/e2e/run.py --seed N --quick      smoke: 2 repeats
    python3 benchmarks/e2e/run.py --seed N --check-repeat
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form is what ``BENCHMARK.json`` names: one workload, one kind
of pass, and as the last line of output one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every workload runs in a fresh subprocess (``harness.py``) with
``PYTHONHASHSEED=0`` and this checkout's ``src`` first on
``PYTHONPATH``.  See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402  (data only; needs no repro import)

ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, "_work")

#: seconds of timed repeats per pass kind, as in BENCHMARK.json
RUN_SECONDS = 20
#: timed repeats never drop below these, whatever ``--seconds`` says
MIN_REPEATS = 7
MIN_TRACED_REPEATS = 3
QUICK_REPEATS = 2
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def spawn(workload: str, seed: int, *, trace: int, seconds: float,
          min_repeats: int) -> dict:
    """One fresh harness process; returns its result document."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, os.path.join(HERE, "harness.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-repeats", str(min_repeats),
           "--trace", str(trace), "--t0", repr(time.time()),
           "--workdir",
           os.path.join(WORK, f"{workload}-{trace}-{os.getpid()}"),
           "--out", OUT]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        os.rmdir(WORK)          # the harness removed its own directory
    except OSError:
        pass
    if done.returncode != 0:
        raise SystemExit(f"harness failed on {workload} "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, *, trace: int, seconds: float,
             quick: bool = False) -> dict:
    """One workload, one kind of pass.  Untraced runs set up ``SETUPS``
    times in fresh processes; ``setup_s`` is the median."""
    if trace:
        return spawn(workload, seed, trace=1, seconds=seconds,
                     min_repeats=1 if quick else MIN_TRACED_REPEATS)
    setups = [spawn(workload, seed, trace=0, seconds=0, min_repeats=0)
              for _ in range(0 if quick else SETUPS - 1)]
    doc = spawn(workload, seed, trace=0, seconds=seconds,
                min_repeats=QUICK_REPEATS if quick else MIN_REPEATS)
    samples = sorted(d["metrics"]["setup_s"]["value"]
                     for d in setups + [doc])
    doc["metrics"]["setup_s"] = {
        "value": statistics.median(samples),
        "median": statistics.median(samples), "q1": samples[0],
        "q3": samples[-1], "n": len(samples)}
    for d in setups:
        doc["attempted"] += d["attempted"]
        doc["failed"] += d["failed"]
    return doc


def driver_line(doc: dict, metrics: tuple) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m.name: {"value": doc["metrics"][m.name]["value"],
                             "unit": m.unit} for m in metrics}})


def _fmt(x: float) -> str:
    return f"{x:.5g}"


def print_table(title: str, docs: dict, metrics: tuple) -> None:
    """Rows: metrics; per workload: value | median [q1, q3] n."""
    print(f"\n== {title}: value | median [q1, q3] n ==")
    names = [w.name for w in spec.WORKLOADS]
    print(f"{'metric':30} {'unit':8} {'better':6} {'bound':5} "
          + " ".join(f"{n:>46}" for n in names))
    for m in metrics:
        cells = []
        for n in names:
            s = docs[n]["metrics"][m.name]
            cells.append(f"{_fmt(s['value'])} | {_fmt(s['median'])} "
                         f"[{_fmt(s['q1'])}, {_fmt(s['q3'])}] {s['n']}")
        bound = "-" if m.bound is None else f"{m.bound:g}"
        print(f"{m.name:30} {m.unit:8} {m.better:6} {bound:5} "
              + " ".join(f"{c:>46}" for c in cells))


def run_set(seed: int, seconds: float, quick: bool) -> tuple[dict, dict]:
    """Every workload, untraced then traced.  ``--quick`` is a smoke
    run, not a measurement: there the two passes run side by side."""
    plain, traced = {}, {}
    with ThreadPoolExecutor(max_workers=2 if quick else 1) as pool:
        for w in spec.WORKLOADS:
            print(f"[{w.name}] ...", file=sys.stderr, flush=True)
            both = [pool.submit(run_pass, w.name, seed, trace=trace,
                                seconds=seconds, quick=quick)
                    for trace in (0, 1)]
            plain[w.name], traced[w.name] = (f.result() for f in both)
    return plain, traced


def report(plain: dict, traced: dict) -> int:
    """Print both tables; returns the number of failed checks."""
    print_table("end to end (runs with no spans)", plain, spec.END_TO_END)
    print_table("per layer (traced pass)", traced, spec.PER_LAYER)
    failed = 0
    print()
    for name in plain:
        a = plain[name]["attempted"] + traced[name]["attempted"]
        f = plain[name]["failed"] + traced[name]["failed"]
        failed += f
        print(f"{name}: failed_fraction {f}/{a} = {f / a:g}  "
              f"(repeats: {plain[name]['repeats']} untraced, "
              f"{traced[name]['repeats']} traced)")
    return failed


def check_repeat(first: tuple, second: tuple) -> int:
    """Two sets of the same code: every end-to-end median within its
    own bound, every count identical.  Returns the number of misses."""
    misses = 0
    print("\n== check-repeat: relative gap between the two sets ==")
    for w in spec.WORKLOADS:
        for kind, metrics in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            for m in metrics:
                a = first[kind][w.name]["metrics"][m.name]["value"]
                b = second[kind][w.name]["metrics"][m.name]["value"]
                gap = abs(b - a) / abs(a) if a else float(b != a)
                if m.exact:
                    ok = a == b
                elif m.bound is not None:
                    ok = gap <= m.bound
                else:
                    continue
                misses += not ok
                limit = "exact" if m.exact else f"{m.bound:g}"
                print(f"{w.name:14} {m.name:28} {_fmt(a):>12} "
                      f"{_fmt(b):>12} gap {gap:8.4f} limit {limit:6} "
                      f"{'ok' if ok else 'MISS'}")
    return misses


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    # --quick stops at its two repeats however short they were
    seconds = 0 if args.quick else args.seconds
    if args.workload:
        doc = run_pass(args.workload, args.seed, trace=args.trace,
                       seconds=seconds, quick=args.quick)
        print(driver_line(doc, spec.PER_LAYER if args.trace
                          else spec.END_TO_END))
        return 0 if doc["failed"] == 0 else 1

    first = run_set(args.seed, seconds, args.quick)
    failed = report(*first)
    misses = 0
    if args.check_repeat:
        second = run_set(args.seed, seconds, args.quick)
        failed += report(*second)
        misses = check_repeat(first, second)
        print(f"check-repeat: {misses} metric(s) outside their limit")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w") as fh:
        json.dump({"seed": args.seed, "end_to_end": first[0],
                   "per_layer": first[1]}, fh, indent=1, sort_keys=True)
    return 0 if failed == 0 and misses == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
