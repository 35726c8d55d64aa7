"""Replay is the registry read backwards (``repro.replay.engine``).

Three layers of evidence that nothing about replay is enumerated per
function any more:

* **completeness** — every registry function compiles (or is declared
  not re-issued / not replayable / runtime-emitted), every simulator
  parameter resolves to a registry parameter or a declared replay-only
  keyword, every parameter kind has a resolver or a binder;
* **the API tour** — small rank programs that between them record every
  registry function, each replayed to the structural fixed point.  A
  function added to ``funcs.py`` without a tour stop fails
  ``test_tour_covers_the_registry``;
* **hostile input** — the replay fuzzer over every tour trace, and every
  recorded value of every tour signature swapped for junk: structured
  errors or a clean replay, never a crash.
"""

import inspect

import pytest

import repro
from repro.core import PilgrimTracer, TraceDecoder
from repro.core.errors import TraceFormatError
from repro.core.trace_format import TraceFile
from repro.mpisim import SimMPI, constants as C, datatypes as dt, funcs as F
from repro.mpisim import ops
from repro.mpisim.runtime import RankAPI
from repro.mpisim.win import LOCK_EXCLUSIVE, LOCK_SHARED
from repro.replay import replay_trace, run_replay_fuzz, structurally_equal
from repro.replay import comparator, engine
from test_replay_plan import (assert_reports_identical,
                              assert_setup_matches_oracle)


def trace_of(nprocs, program, seed=1) -> bytes:
    tracer = PilgrimTracer()
    SimMPI(nprocs, seed=seed, tracer=tracer).run(program)
    return tracer.result.trace_bytes


def retrace(blob: bytes, seed=9) -> bytes:
    tracer = PilgrimTracer()
    replay_trace(blob, seed=seed, tracer=tracer)
    return tracer.result.trace_bytes


def recorded_functions(blob: bytes) -> set:
    dec = TraceDecoder.from_bytes(blob)
    return {call.fname for rank in range(dec.nprocs)
            for call in dec.rank_calls(rank).table.values()}


def assert_fixed_point(blob: bytes) -> None:
    res = repro.replay(blob)
    assert not res.diverged, res.summary()
    assert res.report.counts["skipped"] == 0
    assert structurally_equal(blob, retrace(blob))


# -- (a) completeness -------------------------------------------------------------------


class TestCompleteness:
    def test_every_function_is_compiled_or_declared(self, monkeypatch):
        declared = (engine.NOT_REISSUED | engine.NOT_REPLAYABLE
                    | engine.RUNTIME_EMITTED)
        assert declared <= set(F.FUNCS)
        assert engine.NOT_REISSUED == {"MPI_Get_count"}
        assert comparator.NOT_REISSUED is engine.NOT_REISSUED
        sources = []
        monkeypatch.setattr(engine, "compile", lambda src, *a: (
            sources.append(src), compile(src, *a))[1], raising=False)
        for fname, spec in F.FUNCS.items():
            if fname in engine.NOT_REISSUED | engine.RUNTIME_EMITTED:
                assert engine._runner(fname) is None, fname
                continue
            # compiled from the registry, not looked up in a table — in
            # two halves: bound once per (rank, terminal), run per call
            planned = engine._runner(fname)
            sources.clear()
            bind, run = engine._compile_runner(fname)
            assert planned.__code__.co_code == bind.__code__.co_code, fname
            assert inspect.isgeneratorfunction(run), fname
            assert not inspect.isgeneratorfunction(bind), fname
            if fname in engine.NOT_REPLAYABLE:
                continue
            (src,) = sources
            bind_src, run_src = src.split("def run(r, m, a):")
            # the per-call half never sees the signature ...
            assert "p" not in run.__code__.co_varnames + run.__code__.co_names
            # ... the bound half nothing a call can change
            for per_call in ("req_map", "_wildcard_source", "_release",
                             "yield", f"m.{fname[4:].lower()}("):
                assert per_call not in bind_src, (fname, per_call)
            # and no parameter kind is resolved in both (what follows
            # the call binds results, it resolves nothing)
            resolving = bind_src, run_src.split("if ret.__class__")[0]
            for prm in spec.params:
                stem = engine._RESOLVERS.get(prm.kind, "").split("{v}")[0]
                assert not stem or not all(
                    stem in half for half in resolving), (fname, prm)

    def test_every_simulator_parameter_resolves(self, monkeypatch):
        """By the registry's own name (``assert`` is a keyword: the one
        alias), or as a declared replay-only keyword — what
        ``_compile_runner`` raises on."""
        assert engine._ALIASES == {"assert_": ("assert",)}
        for fname, spec in F.FUNCS.items():
            if fname in engine.RUNTIME_EMITTED:
                continue
            names = {p.name for p in spec.params}
            sim = inspect.signature(getattr(RankAPI, fname[4:].lower()))
            for sp in list(sim.parameters)[1:]:
                if sp in engine._REPLAY_ONLY or sp in engine._DIRECTED:
                    continue
                assert names & {sp, *engine._ALIASES.get(sp, ())}, \
                    (fname, sp)
        monkeypatch.delitem(engine._ALIASES, "assert_")
        with pytest.raises(KeyError, match="no registry counterpart"):
            engine._compile_runner("MPI_Win_fence")

    def test_every_kind_has_a_resolver_or_a_binder(self):
        for spec in F.FUNCS.values():
            for p in spec.params:
                assert p.kind in engine._RESOLVERS \
                    or p.kind in engine._BINDERS, (spec.name, p.name)
        # every pinned outcome names a kind the registry has
        kinds = {p.kind for spec in F.FUNCS.values() for p in spec.params}
        assert {kind for kind, _expr in engine._DIRECTED.values()} <= kinds
        assert set(engine._SPECIAL) <= set(F.FUNCS)

    def test_the_shared_rules_live_beside_the_registry(self):
        """Context rank, completion shape: one definition, read by both
        the encoder and replay."""
        assert F.FUNCS["MPI_Send"].ctx_comm == "comm"
        assert F.FUNCS["MPI_Cart_create"].ctx_comm == "comm_old"
        assert F.FUNCS["MPI_Intercomm_create"].ctx_comm == "local_comm"
        assert F.FUNCS["MPI_Intercomm_merge"].ctx_comm == "intercomm"
        for fname in ("MPI_Put", "MPI_Win_lock", "MPI_Group_incl",
                      "MPI_Wait", "MPI_Comm_compare"):
            assert F.FUNCS[fname].ctx_comm is None
        shapes = {fname: spec.status_picks.name
                  for fname, spec in F.FUNCS.items()
                  if spec.status_picks is not None}
        assert shapes == {
            "MPI_Waitany": "index", "MPI_Testany": "index",
            "MPI_Waitsome": "array_of_indices",
            "MPI_Testsome": "array_of_indices"}


# -- (b) the API tour --------------------------------------------------------------------


def send_modes(m):
    buf = m.malloc(256)
    if m.rank == 0:
        yield from m.send(buf, 1, dt.DOUBLE, 1, tag=1)
        yield from m.ssend(buf, 1, dt.DOUBLE, 1, tag=2)
        yield from m.bsend(buf, 1, dt.DOUBLE, 1, tag=3)
        yield from m.rsend(buf, 1, dt.DOUBLE, 1, tag=4)
        r1 = m.isend(buf, 2, dt.INT, 1, tag=5)
        r2 = m.issend(buf, 2, dt.INT, 1, tag=6)
        yield from m.wait(r1)
        yield from m.wait(r2, status=None)
    else:
        for tag in (1, 2, 3, 4):
            yield from m.recv(buf, 1, dt.DOUBLE, 0, tag)
        req = m.irecv(buf, 2, dt.INT, 0, tag=5)
        yield from m.wait(req)
        yield from m.recv(buf, 2, dt.INT, 0, 6, status=None)


def probes(m):
    buf = m.malloc(64)
    if m.rank == 0:
        for _ in range(2):
            st = yield from m.probe(C.ANY_SOURCE, 7)
            yield from m.recv(buf, 1, dt.INT, st.MPI_SOURCE, 7)
        yield from m.barrier()
        # sent before the barrier: there by now, whatever the schedule
        flag, _st = m.iprobe(1, 9)
        assert flag
        yield from m.recv(buf, 1, dt.INT, 1, 9)
        flag, _st = m.iprobe(2, 11)  # never sent
        assert not flag
    else:
        m.compute(1e-6 * m.rank)
        yield from m.send(buf, 1, dt.INT, 0, 7)
        if m.rank == 1:
            yield from m.send(buf, 1, dt.INT, 0, 9)
        yield from m.barrier()


def completion_polls(m):
    peer = 1 - m.rank
    buf = m.malloc(512)
    reqs = [m.irecv(buf, 1, dt.DOUBLE, peer, tag=t) for t in range(5)]
    m.compute(2e-6 * m.rank)
    for t in range(5):
        yield from m.send(buf + 256, 1, dt.DOUBLE, peer, tag=t)
    flag = False
    while not flag:
        flag, _st = yield from m.test(reqs[0])
    flag = False
    while not flag:
        flag, _idx, _st = yield from m.testany(reqs[1:3])
    done = 0
    while done < 2:
        idxs, _sts = yield from m.testsome(reqs[3:], array_of_statuses=None)
        done += len(idxs)
    flag = False
    while not flag:  # the consumed entries are MPI_REQUEST_NULL by now
        flag, _sts = yield from m.testall(reqs)


def request_lifecycle(m):
    peer = 1 - m.rank
    buf = m.malloc(64)
    req = m.isend(buf, 1, dt.INT, peer, 1)
    flag, _st = m.request_get_status(req)  # eager: complete at once
    assert flag
    m.request_free(req)
    yield from m.recv(buf, 1, dt.INT, peer, 1)
    req = m.irecv(buf, 1, dt.INT, peer, 99)  # never matched
    flag, _st = m.request_get_status(req)
    assert not flag
    m.cancel(req)
    yield from m.wait(req)
    m.initialized()
    m.get_processor_name()


def empty_request_arrays(m):
    yield from m.waitany([])
    yield from m.waitsome([])
    yield from m.testany([])
    yield from m.testsome([])
    yield from m.waitall([])
    yield from m.testall([])
    m.startall([])


def rooted_and_v_collectives(m):
    n = 4
    buf = m.malloc(4096)
    rbuf = m.malloc(4096)
    yield from m.barrier()
    yield from m.bcast(buf, 4, dt.INT, 1)
    yield from m.reduce(buf, rbuf, 2, dt.DOUBLE, ops.SUM, 2)
    yield from m.allreduce(buf, rbuf, 2, dt.DOUBLE, ops.MAX)
    yield from m.gather(buf, 1, dt.INT, rbuf, 1, dt.INT, 0)
    yield from m.gatherv(buf, m.rank + 1, dt.INT, rbuf,
                         [1, 2, 3, 4] if m.rank == 3 else None,
                         [0, 1, 3, 6] if m.rank == 3 else None, dt.INT, 3)
    yield from m.scatter(buf, 1, dt.INT, rbuf, 1, dt.INT, m.rank * 0)
    yield from m.scatterv(buf, [1] * n if m.rank == 1 else None,
                          list(range(n)) if m.rank == 1 else None, dt.INT,
                          rbuf, 1, dt.INT, 1)
    yield from m.allgather(buf, 1, dt.INT, rbuf, 1, dt.INT)
    yield from m.allgatherv(buf, 1, dt.INT, rbuf, [1] * n, list(range(n)),
                            dt.INT)
    yield from m.alltoall(buf, 1, dt.INT, rbuf, 1, dt.INT)
    yield from m.alltoallv(buf, [1] * n, list(range(n)), dt.INT,
                           rbuf, [1] * n, list(range(n)), dt.INT)


def prefix_reductions(m):
    buf = m.malloc(1024)
    rbuf = m.malloc(1024)
    yield from m.scan(buf, rbuf, 2, dt.INT, ops.SUM)
    yield from m.exscan(buf, rbuf, 2, dt.INT, ops.SUM)
    yield from m.reduce_scatter(buf, rbuf, [1, 2, 1, 2], dt.DOUBLE, ops.SUM)
    yield from m.reduce_scatter_block(buf, rbuf, 2, dt.DOUBLE, ops.MIN)


def nonblocking_collectives(m):
    buf = m.malloc(1024)
    rbuf = m.malloc(1024)
    reqs = [m.ibarrier(),
            m.ibcast(buf, 2, dt.INT, 0),
            m.iallreduce(buf, rbuf, 1, dt.DOUBLE, ops.SUM),
            m.iallgather(buf, 1, dt.INT, rbuf, 1, dt.INT),
            m.ialltoall(buf, 1, dt.INT, rbuf, 1, dt.INT)]
    yield from m.waitall(reqs[:2], array_of_statuses=None)
    for _ in range(3):
        yield from m.waitany(reqs)


def group_algebra(m):
    world = m.comm_group()
    m.group_size(world)
    m.group_rank(world)
    evens = m.group_incl(world, [0, 2])
    odds = m.group_excl(world, [0, 2])
    both = m.group_union(evens, odds)
    m.group_intersection(both, evens)
    m.group_difference(both, evens)
    m.group_range_incl(world, [(0, 2, 2), (3, 3, 1)])
    m.group_translate_ranks(evens, [0, 1], world)
    m.group_compare(both, world)
    m.group_free(odds)
    m.group_rank(m.group_excl(world, [1]))  # re-hands the freed id
    sub = yield from m.comm_create(m.world, evens)
    m.comm_size()
    m.comm_rank()
    if sub is not None:
        m.comm_set_name(sub, "evens")
        m.comm_get_name(sub)
        m.comm_compare(sub, m.world)
        m.comm_test_inter(sub)
        m.comm_rank(sub)
        yield from m.barrier(sub)
        m.comm_free(sub)


def derived_datatypes(m):
    peer = 1 - m.rank
    buf = m.malloc(8192)
    contig = m.type_contiguous(4, dt.DOUBLE)
    vec = m.type_vector(2, 1, 4, dt.INT)
    idx = m.type_indexed([1, 2], [0, 4], dt.DOUBLE)
    for t in (contig, vec, idx):
        m.type_commit(t)
        m.type_size(t)
        m.type_get_extent(t)
    struct = m.type_create_struct([1, 2], [0, 64], [contig, dt.INT])
    m.type_commit(struct)
    yield from m.sendrecv(buf, 1, struct, peer, 3,
                          buf + 4096, 1, struct, peer, 3)
    yield from m.sendrecv(buf, 1, idx, peer, 4,
                          buf + 4096, 1, idx, C.ANY_SOURCE, 4)
    yield from m.send(buf, 1, vec, C.PROC_NULL, 5)
    m.type_free(struct)
    # the freed id is re-handed: a struct of a struct-free world
    again = m.type_create_struct([1], [0], [vec])
    m.type_commit(again)
    for t in (contig, vec, idx, again):
        m.type_free(t)


def persistent_requests(m):
    peer = 1 - m.rank
    buf = m.malloc(256)
    sreq = m.send_init(buf, 1, dt.DOUBLE, peer, 1)
    rreq = m.recv_init(buf + 128, 1, dt.DOUBLE, peer, 1)
    for _ in range(2):
        m.start(rreq)
        m.start(sreq)
        yield from m.wait(sreq)
        yield from m.wait(rreq)
        m.startall([rreq, sreq])
        yield from m.waitall([rreq, sreq])
    m.request_free(sreq)
    m.request_free(rreq)


def intercommunicators(m):
    side = m.rank // 2
    local = yield from m.comm_split(color=side, key=m.rank)
    inter = yield from m.intercomm_create(local, 0, m.world,
                                          2 * (1 - side), tag=5)
    m.comm_test_inter(inter)
    m.comm_remote_size(inter)
    me = m.comm_rank(inter)
    buf = m.malloc(64)
    # p2p ranks on an inter-communicator address the remote group
    if side == 0:
        yield from m.send(buf, 1, dt.INT, me, 2, inter)
        yield from m.recv(buf, 1, dt.INT, me, 3, inter)
    else:
        yield from m.recv(buf, 1, dt.INT, C.ANY_SOURCE, 2, inter)
        yield from m.send(buf, 1, dt.INT, me, 3, inter)
    merged = yield from m.intercomm_merge(inter, high=bool(side))
    yield from m.barrier(merged)
    m.comm_free(merged)
    m.comm_free(inter)


def cartesian_topology(m):
    dims = m.dims_create(4, 2)
    m.dims_create(4, 2, [0, 1])
    cart = yield from m.cart_create(None, dims, (True, False))
    me = m.comm_rank(cart)
    coords = m.cart_coords(cart, me)
    m.cart_coords(cart, (me + 1) % 4)
    assert m.cart_rank(cart, coords) == me
    m.cart_rank(cart, [coords[0] + 1, coords[1]])
    src, dst = m.cart_shift(cart, 0, 1)
    buf = m.malloc(128)
    yield from m.sendrecv(buf, 1, dt.DOUBLE, dst, 1,
                          buf + 64, 1, dt.DOUBLE, src, 1, cart)
    row = yield from m.cart_sub(cart, (False, True))
    yield from m.allreduce(buf, buf + 64, 1, dt.INT, ops.SUM, row)
    node = yield from m.comm_split_type(cart, key=m.rank)
    yield from m.barrier(node)


def rma_on(split):
    def program(m):
        comm = m.world
        if split:
            comm = yield from m.comm_split(color=m.rank // 2, key=m.rank)
        me, n = m.comm_rank(comm), m.comm_size(comm)
        peer = (me + 1) % n
        base = m.malloc(256)
        win = yield from m.win_create(base, 64, 1, comm)
        m.win_set_name(win, "halo")
        yield from m.win_fence(win)
        m.put(base + 128, 1, dt.DOUBLE, peer, 0, 1, dt.DOUBLE, win)
        m.accumulate(base + 128, 1, dt.DOUBLE, peer, 8, 1, dt.DOUBLE,
                     ops.SUM, win)
        yield from m.win_fence(win, 1)
        m.get(base + 192, 1, dt.DOUBLE, peer, 0, 1, dt.DOUBLE, win)
        yield from m.win_fence(win)
        yield from m.win_lock(LOCK_SHARED, peer, win)
        m.get(base + 192, 2, dt.INT, peer, 8, 2, dt.INT, win)
        m.win_unlock(peer, win)
        yield from m.win_free(win)
        mem, win = yield from m.win_allocate(128, 8, comm)
        yield from m.win_lock(LOCK_EXCLUSIVE, me, win)
        m.put(mem + 16, 1, dt.DOUBLE, me, 1, 1, dt.DOUBLE, win)
        m.win_unlock(me, win)
        yield from m.barrier(comm)
        yield from m.win_free(win)
    return program


def waitsome_over_wildcards(m):
    buf = m.malloc(1024)
    if m.rank == 0:
        for _round in range(2):  # the second round reuses the pool slots
            reqs = [m.irecv(buf + 64 * i, 1, dt.DOUBLE, C.ANY_SOURCE, 1)
                    for i in range(3)]
            done = 0
            while done < 3:
                idxs, _sts = yield from m.waitsome(reqs)
                done += len(idxs)
    else:
        for _round in range(2):
            m.compute(1e-6 * ((m.rank * 7) % 5))
            yield from m.send(buf, 1, dt.DOUBLE, 0, 1)


def wildcard_completed_by_test(m):
    buf = m.malloc(64)
    if m.rank == 0:
        for _ in range(2):
            req = m.irecv(buf, 1, dt.DOUBLE, C.ANY_SOURCE, 1)
            flag = False
            while not flag:
                flag, _st = yield from m.test(req)
    else:
        if m.rank == 1:
            for _ in range(5):
                yield from m.yield_to_scheduler()
        yield from m.send(buf, 1, dt.DOUBLE, 0, 1)


def communicator_duplication(m):
    dup = yield from m.comm_dup()
    req = m.comm_idup(dup)
    yield from m.wait(req)
    yield from m.barrier(req.value)
    req = m.comm_idup()
    flag = False
    while not flag:
        flag, _st = yield from m.test(req)
    sub = yield from m.comm_split(req.value,
                                  color=C.UNDEFINED if m.rank == 0 else 1,
                                  key=-m.rank)
    if sub is not None:
        yield from m.barrier(sub)


TOUR = {
    "send_modes": (2, send_modes),
    "probes": (3, probes),
    "completion_polls": (2, completion_polls),
    "request_lifecycle": (2, request_lifecycle),
    "empty_request_arrays": (1, empty_request_arrays),
    "rooted_and_v_collectives": (4, rooted_and_v_collectives),
    "prefix_reductions": (4, prefix_reductions),
    "nonblocking_collectives": (4, nonblocking_collectives),
    "group_algebra": (4, group_algebra),
    "derived_datatypes": (2, derived_datatypes),
    "persistent_requests": (2, persistent_requests),
    "intercommunicators": (4, intercommunicators),
    "cartesian_topology": (4, cartesian_topology),
    "rma_on_world": (4, rma_on(split=False)),
    "rma_on_a_split": (4, rma_on(split=True)),
    "waitsome_over_wildcards": (4, waitsome_over_wildcards),
    "wildcard_completed_by_test": (3, wildcard_completed_by_test),
    "communicator_duplication": (4, communicator_duplication),
}


@pytest.fixture(scope="module")
def tour_traces() -> dict:
    return {name: trace_of(nprocs, program)
            for name, (nprocs, program) in TOUR.items()}


class TestApiTour:
    @pytest.mark.parametrize("stop", sorted(TOUR))
    def test_stop_replays_to_the_fixed_point(self, stop, tour_traces):
        assert_fixed_point(tour_traces[stop])

    def test_tour_covers_the_registry(self, tour_traces):
        """A function added to ``funcs.py`` needs a tour stop."""
        toured = set().union(*map(recorded_functions, tour_traces.values()))
        assert toured == set(F.FUNCS) - engine.NOT_REISSUED \
            - engine.NOT_REPLAYABLE

    @pytest.mark.parametrize("stop", sorted(TOUR))
    def test_setup_matches_the_per_call_walk(self, stop, tour_traces):
        """Segments and wildcard bookkeeping against PR 13's oracle."""
        assert_setup_matches_oracle(
            TraceDecoder.from_bytes(tour_traces[stop]))

    @pytest.mark.parametrize("stop", sorted(TOUR))
    def test_stop_matches_the_per_call_engine(self, stop, tour_traces,
                                              monkeypatch):
        """Call log, segments and report against the 6561f71 engine."""
        doc = assert_reports_identical(
            tour_traces[stop], repro.ReplayOptions(seed=5), monkeypatch)
        assert not doc["diverged"]

    def test_seed_independent(self, tour_traces):
        """Every recorded choice is pinned: any replay seed will do."""
        for stop in ("waitsome_over_wildcards", "nonblocking_collectives",
                     "completion_polls", "probes"):
            blob = tour_traces[stop]
            for seed in (0, 3, 77):
                assert structurally_equal(blob, retrace(blob, seed=seed))


# -- the five defects, as they were reported ----------------------------------------------


class TestFiveDefects:
    def test_rma_on_a_split_communicator_replays(self, tour_traces):
        """The context rank is one rule: the encoder takes a window
        call's from the world rank, so replay does too (it decoded
        against ``win.comm``: ``target rank -2 not in win#1``)."""
        def prog(m):
            sub = yield from m.comm_split(color=m.rank // 2, key=m.rank)
            base = m.malloc(128)
            win = yield from m.win_create(base, 64, 1, sub)
            yield from m.win_fence(win)
            m.put(base + 64, 1, dt.DOUBLE, 1 - m.comm_rank(sub), 0, 1,
                  dt.DOUBLE, win)
            yield from m.win_fence(win)
            yield from m.win_free(win)

        assert_fixed_point(trace_of(4, prog))

    def test_wildcard_irecv_completed_by_test_is_directed(self, tour_traces):
        """The prescan pairs requests with statuses by parameter kind,
        so ``MPI_Test`` is covered like the other seven completions."""
        blob = tour_traces["wildcard_completed_by_test"]
        dec = TraceDecoder.from_bytes(blob)
        sources = [call.params["status"][0] for call in dec.rank_calls(0)
                   if call.fname == "MPI_Test" and call.params["flag"]]
        assert sources == [(1, 2), (1, 1)]  # the delayed sender came last
        _state, replayers, _prog = engine.build_rank_programs(dec)
        assert list(replayers[0]._any_sources.values()) == sources
        assert_fixed_point(blob)

    def test_compare_translate_and_get_status_are_reissued(self):
        def prog(m):
            world = m.comm_group()
            m.comm_compare(m.world, m.world)
            m.group_compare(world, world)
            m.group_translate_ranks(world, [m.rank], world)
            req = m.isend(m.malloc(8), 1, dt.INT, C.PROC_NULL, 1)
            m.request_get_status(req)
            yield from m.wait(req)

        blob = trace_of(2, prog)
        assert recorded_functions(blob) >= {
            "MPI_Comm_compare", "MPI_Group_compare",
            "MPI_Group_translate_ranks", "MPI_Request_get_status"}
        assert_fixed_point(blob)

    def test_empty_request_arrays_are_passed_as_recorded(self, tour_traces):
        blob = tour_traces["empty_request_arrays"]
        replayed = TraceDecoder.from_bytes(retrace(blob))
        counts = {call.fname: call.params.get("count",
                                              call.params.get("incount"))
                  for call in replayed.rank_calls(0)
                  if "array_of_requests" in call.params}
        assert len(counts) == 7 and set(counts.values()) == {0}

    def test_type_create_struct_is_traceable(self, tour_traces):
        """``array_of_types`` is a datatype array, encoded element-wise
        through the handle table (it was ``K_INTV``: live ``Datatype``
        objects in the signature, a bare ``TypeError`` at finalize)."""
        assert F.FUNCS["MPI_Type_create_struct"].param(
            "array_of_types").kind == F.K_DATATYPEV
        dec = TraceDecoder.from_bytes(tour_traces["derived_datatypes"])
        structs = [call.params for call in dec.rank_calls(0)
                   if call.fname == "MPI_Type_create_struct"]
        # symbolic ids: the first derived type and a builtin; then the
        # struct's own freed id re-handed
        assert structs[0]["array_of_types"] == (0, dt.INT.handle)
        assert structs[1]["array_of_types"] == (1,)
        assert structs[0]["newtype"] == structs[1]["newtype"] == 3

    def test_get_count_is_the_one_call_not_reissued(self):
        def prog(m):
            buf = m.malloc(64)
            _data, st = yield from m.sendrecv(buf, 2, dt.INT, m.rank, 1,
                                              buf + 32, 2, dt.INT, m.rank, 1)
            m.get_count(st, dt.INT)

        res = repro.replay(trace_of(1, prog))
        assert not res.diverged
        assert res.report.counts["skipped"] == 1 and res.report.conserved()


# -- (c) hostile input -------------------------------------------------------------------


#: junk of every shape the codec can carry
HOSTILE_VALUES = (None, -7, 1 << 40, "x", (), (9, 9, 9, 9, 9))


def hostile_entries(blob: bytes):
    """Every recorded value of every signature, swapped for junk and
    re-sealed (every section CRC valid)."""
    trace = TraceFile.from_bytes(blob)
    sigs = trace.cst.sigs
    for term, sig in enumerate(sigs):
        for pos in range(1, len(sig)):
            for junk in HOSTILE_VALUES:
                if junk == sig[pos]:
                    continue
                sigs[term] = sig[:pos] + (junk,) + sig[pos + 1:]
                yield (f"{F.BY_ID[sig[0]].name}[{pos}]={junk!r}",
                       trace.to_bytes())
        sigs[term] = sig


class TestHostileInput:
    @pytest.mark.parametrize("stop", sorted(TOUR))
    def test_replay_fuzz_over_the_tour(self, stop, tour_traces):
        report = run_replay_fuzz(tour_traces[stop], n_random=24)
        assert report.ok, report.failures
        assert report.total > 24

    @pytest.mark.parametrize("stop", sorted(TOUR))
    def test_hostile_cst_entries_fail_structurally(self, stop, tour_traces):
        for desc, mut in hostile_entries(tour_traces[stop]):
            try:
                replay_trace(mut)
            except TraceFormatError:
                pass
            except Exception as e:  # noqa: BLE001 — the whole point
                pytest.fail(f"{stop}: {desc}: {type(e).__name__}: {e}")
