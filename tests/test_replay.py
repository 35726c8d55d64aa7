"""Replay engine + mini-app generator tests (paper §6).

The headline property is the structural fixed point: trace → replay →
re-trace yields the same per-rank signature streams.
"""

import pytest

from repro.core import PilgrimTracer, TraceDecoder
from repro.mpisim import SimMPI, constants as C, datatypes as dt
from repro.replay import (generate_miniapp, load_miniapp, replay_trace,
                          structurally_equal)
from repro.replay.engine import ReplayState
from repro.workloads import make


def trace_of(workload, nprocs, seed=1, **params) -> bytes:
    tracer = PilgrimTracer()
    make(workload, nprocs, **params).run(seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


def retrace_replay(blob: bytes, seed=9) -> bytes:
    tracer = PilgrimTracer()
    replay_trace(blob, seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


REPLAY_MATRIX = [
    ("stencil2d", 9, {"iters": 8}),
    ("stencil3d", 8, {"iters": 5}),
    ("osu_latency", 2, {"iters": 3}),
    ("osu_bw", 2, {"iters": 2}),
    ("osu_allreduce", 4, {"iters": 2}),
    ("npb_is", 4, {"iters": 3}),
    ("npb_mg", 8, {"iters": 3}),
    ("npb_cg", 8, {"iters": 4}),
    ("npb_lu", 4, {"iters": 4}),
    ("npb_sp", 9, {"iters": 4}),
    ("flash_stirturb", 8, {"iters": 6}),
    ("flash_sedov", 8, {"iters": 12}),
    ("flash_cellular", 8, {"iters": 12}),
    ("milc_su3_rmd", 16, {"steps": 2, "cg_iters": 3}),
]


class TestFixedPoint:
    @pytest.mark.parametrize("workload,nprocs,params", REPLAY_MATRIX)
    def test_replay_fixed_point(self, workload, nprocs, params):
        blob = trace_of(workload, nprocs, **params)
        assert structurally_equal(blob, retrace_replay(blob))

    def test_replay_seed_independent(self):
        """Directed replay pins the non-determinism: any replay seed
        reproduces the recorded behaviour."""
        blob = trace_of("stencil2d", 9, iters=6)
        for seed in (0, 7, 123):
            assert structurally_equal(blob, retrace_replay(blob, seed=seed))

    def test_structural_equality_discriminates(self):
        a = trace_of("stencil2d", 9, iters=6)
        b = trace_of("stencil2d", 9, iters=7)
        assert not structurally_equal(a, b)
        c = trace_of("stencil2d", 4, iters=6)
        assert not structurally_equal(a, c)


class TestDirectedReplay:
    def test_waitany_order_replayed(self):
        """Replay completes requests in the recorded order, not the
        replay scheduler's — the intro's replay-in-proper-order claim."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(512)
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in range(4)]
            for t in range(4):
                yield from m.send(buf + 256, 1, dt.DOUBLE, dest=peer, tag=t)
            yield from m.barrier()
            for _ in range(4):
                idx, _st = yield from m.waitany(reqs)

        def waitany_indices(blob):
            dec = TraceDecoder.from_bytes(blob)
            return [c.params["index"] for c in dec.rank_calls(0)
                    if c.fname == "MPI_Waitany"]

        tracer = PilgrimTracer()
        SimMPI(2, seed=3, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        recorded = waitany_indices(blob)

        replay_blob = retrace_replay(blob, seed=99)
        assert waitany_indices(replay_blob) == recorded
        assert structurally_equal(blob, replay_blob)

    def test_intro_testsome_pattern_fixed_point(self):
        """The paper's introduction example end to end: a Testsome-driven
        completion loop replays to the exact same trace — including the
        fruitless polls (flag=False Testsome calls)."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(512)
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in range(5)]
            for t in range(5):
                yield from m.send(buf + 256, 1, dt.DOUBLE, dest=peer, tag=t)
            done = 0
            while done < 5:
                idxs, _ = yield from m.testsome(reqs)
                done += len(idxs)

        tracer = PilgrimTracer()
        SimMPI(2, seed=3, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        assert structurally_equal(blob, retrace_replay(blob, seed=77))

    def test_any_source_recv_directed(self):
        def prog(m):
            buf = m.malloc(64)
            if m.rank == 0:
                for _ in range(2):
                    _ = yield from m.recv(buf, 1, dt.DOUBLE,
                                          source=C.ANY_SOURCE, tag=1)
            else:
                m.compute(1e-6 * m.rank)
                yield from m.send(buf, 1, dt.DOUBLE, dest=0, tag=1)

        tracer = PilgrimTracer()
        SimMPI(3, seed=2, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        assert structurally_equal(blob, retrace_replay(blob))

    def test_comm_construction_replayed(self):
        def prog(m):
            sub = yield from m.comm_split(color=m.rank % 2, key=m.rank)
            dup = yield from m.comm_dup(sub)
            yield from m.barrier(dup)
            req = m.comm_idup()
            yield from m.wait(req)
            yield from m.barrier(req.value)
            cart = yield from m.cart_create(None, (2, 2), (True, False))
            if cart is not None:
                yield from m.barrier(cart)

        tracer = PilgrimTracer()
        SimMPI(4, seed=1, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        assert structurally_equal(blob, retrace_replay(blob))

    def test_datatype_construction_replayed(self):
        def prog(m):
            t = m.type_vector(4, 2, 8, dt.DOUBLE)
            m.type_commit(t)
            buf = m.malloc(2048)
            yield from m.send(buf, 1, t, dest=C.PROC_NULL, tag=1)
            m.type_free(t)

        tracer = PilgrimTracer()
        SimMPI(2, seed=1, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        assert structurally_equal(blob, retrace_replay(blob))

    def test_device_buffers_replayed(self):
        def prog(m):
            d = m.cuda_malloc(4096, device=1)
            yield from m.send(d + 128, 1, dt.DOUBLE, dest=C.PROC_NULL,
                              tag=1)
            m.cuda_free(d)

        tracer = PilgrimTracer()
        SimMPI(1, seed=1, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        assert structurally_equal(blob, retrace_replay(blob))


class TestMiniApp:
    def _miniapp_blob(self, blob, seed=4):
        ns = load_miniapp(generate_miniapp(blob))
        tracer = PilgrimTracer()
        state = ReplayState(ns["NPROCS"])
        sim = SimMPI(ns["NPROCS"], seed=seed, tracer=tracer)
        sim.run(ns["make_program"](state))
        return tracer.result.trace_bytes

    @pytest.mark.parametrize("workload,nprocs,params", [
        ("stencil2d", 9, {"iters": 8}),
        ("npb_lu", 4, {"iters": 4}),
        ("flash_sedov", 8, {"iters": 12}),
    ])
    def test_miniapp_fixed_point(self, workload, nprocs, params):
        blob = trace_of(workload, nprocs, **params)
        assert structurally_equal(blob, self._miniapp_blob(blob))

    def test_generated_source_shape(self):
        blob = trace_of("stencil2d", 9, iters=20)
        src = generate_miniapp(blob)
        # the compressed grammar is visible as loops in the source
        assert "for _ in range(" in src
        assert "def class_0():" in src
        assert "RANK_CLASS" in src
        # iteration count appears as a loop bound, not 20x unrolled code
        assert src.count("yield 4") < 20

    def test_generated_source_loop_bound_scales(self):
        short = generate_miniapp(trace_of("stencil2d", 9, iters=10))
        long = generate_miniapp(trace_of("stencil2d", 9, iters=300))
        # 30x the iterations: essentially identical source size
        assert abs(len(long) - len(short)) < 64

    def test_miniapp_runs_via_main(self):
        blob = trace_of("osu_barrier", 4, iters=2)
        ns = load_miniapp(generate_miniapp(blob))
        result = ns["main"](seed=0)
        assert result.nprocs == 4


class TestReplayValidation:
    def test_replay_rejects_garbage(self):
        with pytest.raises(ValueError):
            replay_trace(b"not a trace")

    def test_replay_detects_unknown_comm(self):
        """A trace whose first comm use predates its creation record is
        rejected with a *structured* trace error (it indicates
        corruption), never a bare simulator error."""
        from repro.core import ReplayFormatError
        from repro.core.cst import MergedCST
        from repro.core.grammar import Grammar
        from repro.core.interproc import merge_grammars
        from repro.core.sequitur import Sequitur
        from repro.core.trace_format import TraceFile
        from repro.mpisim import funcs as F
        sig = (F.FUNCS["MPI_Barrier"].fid, 5)  # comm id 5 never created
        cst = MergedCST(sigs=[sig], counts=[1], dur_sums=[0.0], remaps=[])
        s = Sequitur()
        s.append(0)
        cfg = merge_grammars([Grammar.freeze(s)])
        blob = TraceFile(nprocs=1, cst=cst, cfg=cfg).to_bytes()
        with pytest.raises(ReplayFormatError):
            replay_trace(blob)
