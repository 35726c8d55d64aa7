#!/usr/bin/env python3
"""Replay a trace and generate a proxy mini-app from it (paper §6).

Traces MILC, replays the trace on a fresh simulated world (completing
non-blocking operations in the recorded order), verifies the replay is a
structural fixed point, then generates a standalone mini-app whose
control flow *is* the trace's compressed grammar — and runs that too.

    python examples/miniapp_generator.py [--out miniapp.py]
"""

import argparse

from repro.core import PilgrimTracer
from repro.mpisim import SimMPI
from repro.replay import (generate_miniapp, load_miniapp, replay_trace,
                          structurally_equal)
from repro.workloads import make


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="", help="write mini-app source here")
    ap.add_argument("--procs", type=int, default=16)
    args = ap.parse_args()

    # 1. trace the original application
    tracer = PilgrimTracer()
    make("milc_su3_rmd", args.procs, steps=2, cg_iters=5).run(
        seed=1, tracer=tracer)
    blob = tracer.result.trace_bytes
    print(f"traced MILC on {args.procs} ranks: "
          f"{tracer.result.total_calls} calls -> {len(blob)} bytes")

    # 2. replay it, re-trace the replay, compare
    retracer = PilgrimTracer()
    result = replay_trace(blob, seed=99, tracer=retracer)
    fixed = structurally_equal(blob, retracer.result.trace_bytes)
    print(f"replayed on a fresh world (seed 99): "
          f"{retracer.result.total_calls} calls, "
          f"virtual makespan {result.app_time * 1e3:.2f} ms")
    print(f"structural fixed point (replay trace == original): {fixed}")
    assert fixed

    # 3. generate the mini-app
    source = generate_miniapp(blob)
    n_loops = source.count("for _ in range(")
    print(f"\ngenerated mini-app: {len(source.splitlines())} lines, "
          f"{n_loops} loops recovered from the grammar")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(source)
        print(f"written to {args.out} — run it with: python {args.out}")

    # 4. run the mini-app and verify it too reproduces the pattern
    ns = load_miniapp(source)
    mini_tracer = PilgrimTracer()
    state = ns["ReplayState"](ns["NPROCS"])
    sim = SimMPI(ns["NPROCS"], seed=5, tracer=mini_tracer)
    sim.run(ns["make_program"](state))
    print(f"mini-app fixed point: "
          f"{structurally_equal(blob, mini_tracer.result.trace_bytes)}")

    print("\n--- a taste of the generated control flow ---")
    lines = source.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("def class_0"))
    print("\n".join(lines[start:start + 12]))


if __name__ == "__main__":
    main()
