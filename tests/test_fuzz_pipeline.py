"""Whole-pipeline fuzzing: random (but deadlock-free) MPI programs are
traced, round-trip verified, replayed, and fixed-point checked.

Program generation: all ranks derive the same random *schedule* from a
shared seed (so collectives and matching sends/receives line up), with
rank-dependent but symmetric parameters — the SPMD structure real codes
have.  The per-run RNG seed additionally varies the completion orders the
scheduler picks, so Waitany/Waitsome/Testsome nondeterminism is exercised
throughout.
"""

import random

import pytest

from repro.core import PilgrimTracer, verify_roundtrip
from repro.mpisim import SimMPI, constants as C, datatypes as dt, ops
from repro.replay import replay_trace, structurally_equal

OPS = [ops.SUM, ops.MAX, ops.MIN]


def make_random_program(schedule_seed: int, steps: int = 25):
    """A generator-of-generators: every rank follows the same random
    schedule; peers are ring neighbours so every send has a receive."""

    def program(m):
        rng = random.Random(schedule_seed)  # identical on every rank
        n = m.comm_size()
        me = m.comm_rank()
        buf = m.malloc(1 << 14)
        comms = [None]  # None = world
        types = [dt.INT, dt.DOUBLE, dt.BYTE]
        outstanding = []

        for step in range(steps):
            # ALL schedule randomness is drawn unconditionally up front:
            # branch guards depend on rank-local state (sub-comm sizes,
            # outstanding counts), and any conditional draw would
            # desynchronise the shared SPMD schedule
            action = rng.choice(
                ["ring", "coll", "wildcard", "nonblocking", "drain",
                 "split", "datatype", "sendrecv", "rma"])
            comm = rng.choice(comms)
            dtype = rng.choice(types)
            count = rng.choice([1, 7, 64])
            tag = rng.choice([20001, 20002, 20003])
            kind = rng.choice(["barrier", "allreduce", "bcast",
                               "allgather", "alltoall"])
            op = rng.choice(OPS)
            root_raw = rng.randrange(1024)
            k = rng.randrange(1, 4)
            mode = rng.choice(["waitall", "waitany", "waitsome",
                               "testsome"])
            modulus = rng.choice([2, 3])
            vec_n = rng.randrange(1, 5)

            size_comm = m.comm_size(comm) if comm else n
            me_c = m.comm_rank(comm) if comm else me

            if action == "ring" and size_comm > 1:
                right = (me_c + 1) % size_comm
                left = (me_c - 1) % size_comm
                reqs = [m.irecv(buf, 64, dt.DOUBLE, source=left, tag=tag,
                                comm=comm),
                        m.isend(buf + 8192, count, dtype, dest=right,
                                tag=tag, comm=comm)]
                yield from m.waitall(reqs)
            elif action == "coll":
                if kind == "barrier":
                    yield from m.barrier(comm)
                elif kind == "allreduce":
                    yield from m.allreduce(buf, buf, count, dtype, op,
                                           comm, data=me)
                elif kind == "bcast":
                    root = root_raw % size_comm
                    yield from m.bcast(buf, count, dtype, root, comm,
                                       data=("x" if me_c == root else None))
                elif kind == "allgather":
                    yield from m.allgather(buf, 1, dtype, buf, 1, dtype,
                                           comm, data=me)
                else:
                    yield from m.alltoall(buf, 1, dtype, buf, 1, dtype,
                                          comm, data=[me] * size_comm)
            elif action == "wildcard" and size_comm > 1:
                right = (me_c + 1) % size_comm
                yield from m.send(buf, count, dtype, dest=right, tag=tag,
                                  comm=comm)
                _ = yield from m.recv(buf, 64, dt.DOUBLE,
                                      source=C.ANY_SOURCE, tag=tag,
                                      comm=comm)
            elif action == "nonblocking" and size_comm > 1:
                right = (me_c + 1) % size_comm
                left = (me_c - 1) % size_comm
                for j in range(k):
                    outstanding.append(
                        m.irecv(buf, 64, dt.DOUBLE, source=left,
                                tag=20010 + j, comm=comm))
                    m.isend(buf + 8192, count, dtype, dest=right,
                            tag=20010 + j, comm=comm)
            elif action == "drain" and outstanding:
                if mode == "waitall":
                    yield from m.waitall(outstanding)
                    outstanding.clear()
                elif mode == "waitany":
                    idx, _ = yield from m.waitany(outstanding)
                    if idx != C.UNDEFINED:
                        outstanding.pop(idx)
                elif mode == "waitsome":
                    idxs, _ = yield from m.waitsome(outstanding)
                    if idxs is not None:
                        for i in sorted(idxs, reverse=True):
                            outstanding.pop(i)
                else:
                    remaining = len(outstanding)
                    guard = 0
                    while remaining and guard < 10_000:
                        idxs, _ = yield from m.testsome(outstanding)
                        remaining -= len(idxs or ())
                        guard += 1
                    outstanding.clear()
            elif action == "split" and len(comms) < 3:
                color = me % modulus
                sub = yield from m.comm_split(comm=None, color=color,
                                              key=me)
                comms.append(sub)
            elif action == "datatype":
                t = m.type_vector(vec_n, 2, 4, dtype)
                m.type_commit(t)
                yield from m.send(buf, 1, t, dest=C.PROC_NULL, tag=1)
                m.type_free(t)
            elif action == "sendrecv" and size_comm > 1:
                right = (me_c + 1) % size_comm
                left = (me_c - 1) % size_comm
                yield from m.sendrecv(buf, count, dtype, right, tag,
                                      buf + 8192, 64, dt.DOUBLE, left, tag,
                                      comm=comm)
            elif action == "rma" and comm is None and n >= 2:
                win = yield from m.win_create(buf, 1 << 14, 8)
                yield from m.win_fence(win)
                peer = (me + 1) % n
                m.put(buf, count, dtype, peer, 0, count, dtype, win)
                yield from m.win_fence(win)
                yield from m.win_free(win)
        # drain any leftovers so the run terminates cleanly
        if outstanding:
            yield from m.waitall(outstanding)
        m.free(buf)

    return program


@pytest.mark.parametrize("schedule_seed", range(8))
def test_fuzzed_program_roundtrip_and_replay(schedule_seed):
    program = make_random_program(schedule_seed)
    nprocs = 3 + schedule_seed % 4
    tracer = PilgrimTracer(keep_raw=True)
    SimMPI(nprocs, seed=schedule_seed * 17 + 1, tracer=tracer).run(program)

    report = verify_roundtrip(tracer)
    assert report.ok, report.mismatches[:3]

    blob = tracer.result.trace_bytes
    retrace = PilgrimTracer()
    replay_trace(blob, seed=schedule_seed + 100, tracer=retrace)
    assert structurally_equal(blob, retrace.result.trace_bytes)


@pytest.mark.parametrize("run_seed", [1, 2, 3])
def test_fuzzed_nondeterminism_always_roundtrips(run_seed):
    """Same schedule, different completion orders: every run must verify
    (the trace content differs per run, the losslessness must not)."""
    program = make_random_program(4, steps=30)
    tracer = PilgrimTracer(keep_raw=True)
    SimMPI(4, seed=run_seed, tracer=tracer).run(program)
    assert verify_roundtrip(tracer).ok


def test_fuzzed_miniapp_roundtrip():
    from repro.mpisim import SimMPI as _SimMPI
    from repro.replay import generate_miniapp, load_miniapp
    from repro.replay.engine import ReplayState

    program = make_random_program(2, steps=20)
    tracer = PilgrimTracer()
    SimMPI(4, seed=5, tracer=tracer).run(program)
    blob = tracer.result.trace_bytes
    ns = load_miniapp(generate_miniapp(blob))
    retrace = PilgrimTracer()
    state = ReplayState(ns["NPROCS"])
    sim = _SimMPI(ns["NPROCS"], seed=9, tracer=retrace)
    sim.run(ns["make_program"](state))
    assert structurally_equal(blob, retrace.result.trace_bytes)
