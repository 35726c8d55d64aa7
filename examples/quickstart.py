#!/usr/bin/env python3
"""Quickstart: trace an MPI program with Pilgrim and look inside the trace.

Runs a 2D halo-exchange stencil on 16 simulated ranks, compresses the
trace, verifies the lossless round trip, and decodes a few records.

    python examples/quickstart.py
"""

from repro.core import PilgrimTracer, RoundTrip, TraceDecoder, verify_roundtrip
from repro.mpisim import SimMPI, constants as C, datatypes as dt, ops


def stencil(m):
    """One simulated rank of a 1D halo exchange + reduction loop."""
    me = m.comm_rank()
    n = m.comm_size()
    left = me - 1 if me > 0 else C.PROC_NULL
    right = me + 1 if me < n - 1 else C.PROC_NULL

    halo = m.malloc(4096)          # intercepted: Pilgrim tracks the segment
    for step in range(100):
        m.compute(5e-6)            # model local work (not an MPI call)
        reqs = [
            m.irecv(halo, 256, dt.DOUBLE, source=left, tag=20001),
            m.irecv(halo + 2048, 256, dt.DOUBLE, source=right, tag=20001),
            m.isend(halo, 256, dt.DOUBLE, dest=left, tag=20001),
            m.isend(halo + 2048, 256, dt.DOUBLE, dest=right, tag=20001),
        ]
        yield from m.waitall(reqs)
        if step % 10 == 0:
            yield from m.allreduce(halo, halo, 1, dt.DOUBLE, ops.MAX,
                                   data=float(me))
    m.free(halo)


def main():
    # the tee runs the uncompressed ``raw`` backend beside Pilgrim: the
    # reference the lossless check compares the decoded trace against
    tee = RoundTrip(PilgrimTracer())
    sim = SimMPI(nprocs=16, seed=42, tracer=tee)
    sim.run(stencil)

    r = tee.result
    print(f"ranks:            {sim.nprocs}")
    print(f"MPI calls traced: {r.total_calls}")
    print(f"call signatures:  {r.n_signatures}")
    print(f"unique grammars:  {r.n_unique_grammars} "
          f"(boundary classes: left edge, right edge, interior)")
    print(f"trace size:       {r.trace_size} bytes "
          f"({r.total_calls * 50 // max(r.trace_size, 1)}x+ vs ~50B/call raw)")
    print(f"sections:         {r.section_sizes()}")

    report = verify_roundtrip(tee)
    print(f"lossless check:   {'OK' if report.ok else report.mismatches[:3]}")

    # the trace is plain bytes — write it, read it back, decode it
    decoder = TraceDecoder.from_bytes(r.trace_bytes)
    print("\nper-function call counts (from the decoded trace):")
    for fname, count in sorted(decoder.function_histogram().items()):
        print(f"  {fname:<16s} {count}")

    print("\nfirst calls of rank 1, decoded:")
    for i, call in enumerate(decoder.rank_calls(1)):
        print(f"  {call}")
        if i >= 5:
            break

    print("\nrank 1's first Irecv, with relative ranks materialized:")
    irecv = next(c for c in decoder.rank_calls(1) if c.fname == "MPI_Irecv")
    print(f"  encoded:      {irecv.params}")
    print(f"  materialized: {irecv.materialized()}")


if __name__ == "__main__":
    main()
