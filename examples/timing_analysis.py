#!/usr/bin/env python3
"""Non-aggregated (lossy) timing: compress, decode, reconstruct, and
check the error bound (paper §3.2 / §4.4).

Runs MILC with the lossy timing mode (b = 1.2, i.e. at most 20% relative
error), reconstructs per-call (t_start, t_end) from the decoded duration
and interval grammars, and reports the actual reconstruction error
against ground truth.

    python examples/timing_analysis.py [--procs 16] [--base 1.2]
"""

import argparse

from repro.analysis import fmt_kb, print_table
from repro.core import (PilgrimTracer, TIMING_LOSSY, TraceDecoder,
                        reconstruct_times)
from repro.mpisim import SimMPI
from repro.workloads import make


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--procs", type=int, default=16)
    ap.add_argument("--base", type=float, default=1.2)
    args = ap.parse_args()

    tracer = PilgrimTracer(timing_mode=TIMING_LOSSY, timing_base=args.base)
    # record each call's true start time for the error check
    starts = [[] for _ in range(args.procs)]
    on_call = tracer.on_call

    def recording(rank, fname, values, t0, t1):
        starts[rank].append(t0)
        on_call(rank, fname, values, t0, t1)

    tracer.on_call = recording
    wl = make("milc_su3_rmd", args.procs, steps=3, cg_iters=6)
    wl.run(seed=3, tracer=tracer)

    r = tracer.result
    sizes = r.section_sizes()
    print_table(
        f"trace sections (MILC, {args.procs} ranks, b={args.base})",
        ["section", "bytes"],
        [(k, fmt_kb(v)) for k, v in sizes.items()])
    raw = 8 * r.total_calls
    print(f"  raw timing would be 2 x {fmt_kb(raw)} "
          f"(8B per call per stream); compressed "
          f"{fmt_kb(sizes['timing_duration'] + sizes['timing_interval'])}")

    # decode and reconstruct rank 2's timeline
    rank = min(2, args.procs - 1)
    dec = TraceDecoder.from_bytes(r.trace_bytes)
    terms = dec.rank_terminals(rank)
    td, ti = dec.trace.timing_duration, dec.trace.timing_interval
    dbins = td.unique[td.rank_uid[rank]].expand()
    ibins = ti.unique[ti.rank_uid[rank]].expand()
    recon = reconstruct_times(dbins, ibins, terms, base=args.base)

    worst = 0.0
    for (ts, _te), t0 in zip(recon, starts[rank]):
        if t0 > 1e-9:
            worst = max(worst, abs(ts - t0) / t0)
    bound = args.base - 1
    print(f"\nrank {rank}: reconstructed {len(recon)} call timestamps")
    print(f"  worst relative t_start error: {worst:.4f} "
          f"(guaranteed bound: {bound:.2f})")
    assert worst <= bound + 1e-9

    print("\nfirst five reconstructed calls of that rank:")
    names = [c.fname for c in dec.rank_calls(rank)]
    for i, ((ts, te), fname) in enumerate(zip(recon, names)):
        print(f"  {fname:<16s} t_start={ts * 1e6:9.2f}us "
              f"dur={(te - ts) * 1e6:7.2f}us")
        if i >= 4:
            break


if __name__ == "__main__":
    main()
