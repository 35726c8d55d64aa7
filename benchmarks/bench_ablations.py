"""Ablations of the design choices DESIGN.md §5 calls out.

Not a paper figure — these benches quantify each optimization's
contribution, the way the paper argues for them in §2.2 / §3.4 / §3.5.
"""

from __future__ import annotations

import time

from conftest import once, save_results
from repro.analysis import fmt_kb, print_table, run_experiment
from repro.core import Sequitur


def test_ablation_relative_ranks(benchmark):
    """§3.4.2: without relative ranks a stencil's signature count grows
    with P and the grammars stop deduplicating."""
    def run():
        out = {}
        for P in (16, 64, 144):
            on = run_experiment("stencil2d", P, iters=15, scalatrace=False,
                                baseline=False)
            off = run_experiment("stencil2d", P, iters=15, scalatrace=False,
                                 baseline=False,
                                 pilgrim_kwargs={"relative_ranks": False})
            out[P] = (on, off)
        return out

    rows = once(benchmark, run)
    print_table(
        "Ablation: relative-rank encoding (2D stencil)",
        ["procs", "sigs on", "sigs off", "uniqG on", "uniqG off",
         "size on", "size off"],
        [(P, on.n_signatures, off.n_signatures, on.n_unique_grammars,
          off.n_unique_grammars, fmt_kb(on.pilgrim_size),
          fmt_kb(off.pilgrim_size)) for P, (on, off) in rows.items()],
        note="paper: 2 signatures instead of 2N for the 1-D pattern")
    save_results("ablation_relative", {
        P: {"on": vars(on), "off": vars(off)}
        for P, (on, off) in rows.items()})

    for P, (on, off) in rows.items():
        assert on.n_signatures < off.n_signatures
        assert on.n_unique_grammars == 9
        assert off.n_unique_grammars == P
    # and the gap widens with P: off grows, on is flat
    assert rows[144][1].n_signatures > rows[16][1].n_signatures * 3
    assert rows[144][0].n_signatures == rows[16][0].n_signatures


def test_ablation_runlength_sequitur(benchmark):
    """§2.2: exponents turn O(log N) loop rules into O(1) tokens; loop
    detection turns O(body) work per iteration into O(1) compares."""
    body = list(range(12))

    def run():
        out = {}
        for n in (100, 1000, 10000):
            seq = body * n
            s = Sequitur(loop_detection=True)
            t0 = time.perf_counter()
            for v in seq:
                s.append(v)
            t_fast = time.perf_counter() - t0
            s.flush()
            s2 = Sequitur(loop_detection=False)
            t0 = time.perf_counter()
            for v in seq:
                s2.append(v)
            t_slow = time.perf_counter() - t0
            s2.flush()
            out[n] = (s.n_tokens(), t_fast, s2.n_tokens(), t_slow)
        return out

    rows = once(benchmark, run)
    print_table(
        "Ablation: run-length Sequitur + loop detection (12-symbol body)",
        ["iterations", "tokens", "t loop-detect", "t plain", "speedup"],
        [(n, tk, f"{tf * 1e3:.1f}ms", f"{ts * 1e3:.1f}ms",
          f"{ts / tf:.1f}x") for n, (tk, tf, tk2, ts) in rows.items()])
    for n, (tk, tf, tk2, ts) in rows.items():
        assert tk == tk2          # identical grammars
        assert tk < 20            # O(1) in iteration count
    assert rows[10000][3] > rows[10000][1]  # loop detection pays off


def test_ablation_request_pools(benchmark):
    """§3.4.3: per-signature request pools keep the signature population
    independent of the non-deterministic completion order."""
    from repro.core import RawTracer
    from repro.mpisim import SimMPI, datatypes as dt

    def prog(m):
        peer = 1 - m.rank
        buf = m.malloc(2048)
        reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                for t in range(4)]
        next_tag = 4
        for t in range(40):
            yield from m.send(buf + 1024, 1, dt.DOUBLE, dest=peer, tag=t)
        consumed = 0
        while consumed < 36:
            idx, _ = yield from m.waitany(reqs)
            consumed += 1
            reqs[idx] = m.irecv(buf, 1, dt.DOUBLE, source=peer,
                                tag=next_tag % 40)
            next_tag += 1
        yield from m.waitall(reqs)

    def run():
        def creation_sigs(per_sig):
            counts = set()
            for seed in range(5):
                tr = RawTracer(per_signature_request_pools=per_sig)
                SimMPI(2, seed=seed, tracer=tr).run(prog)
                from repro.mpisim import funcs as F
                fid = F.FUNCS["MPI_Irecv"].fid
                sigs = frozenset(s for s in tr.streams[0] if s[0] == fid)
                counts.add(sigs)
            return counts

        return len(creation_sigs(True)), len(creation_sigs(False))

    stable, unstable = once(benchmark, run)
    print_table(
        "Ablation: per-signature request-id pools (sliding window, 5 seeds)",
        ["variant", "distinct irecv-signature sets across seeds"],
        [("per-signature pools", stable), ("single pool", unstable)],
        note="paper: one pool per signature makes ids independent of "
             "completion order")
    assert stable == 1
    assert unstable > 1


def test_ablation_cfg_dedup(benchmark):
    """§3.5.2: the identical-grammar check shrinks both the final trace
    and the final Sequitur pass's runtime."""
    def run():
        on = run_experiment("milc_su3_rmd", 256, steps=3, cg_iters=6,
                            scalatrace=False, baseline=False)
        off = run_experiment("milc_su3_rmd", 256, steps=3, cg_iters=6,
                             scalatrace=False, baseline=False,
                             pilgrim_kwargs={"cfg_dedup": False})
        return on, off

    on, off = once(benchmark, run)
    print_table(
        "Ablation: identical-grammar fast path (MILC, 256 procs)",
        ["variant", "uniq grammars", "trace size", "CFG merge time"],
        [("identity check on", on.n_unique_grammars,
          fmt_kb(on.pilgrim_size), f"{on.time_cfg_merge:.3f}s"),
         ("identity check off", off.n_unique_grammars,
          fmt_kb(off.pilgrim_size), f"{off.time_cfg_merge:.3f}s")])
    assert on.n_unique_grammars < off.n_unique_grammars
    assert on.pilgrim_size < off.pilgrim_size
    # merge *time* differences are sub-millisecond at repo scale and too
    # noisy to assert; the structural work saved (above) is the claim
