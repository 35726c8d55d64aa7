"""Tracer corner cases the paper calls out explicitly (§3.3):
non-blocking communicator creation, inter-communicators, persistent
requests, derived datatypes in flight, device memory, stack buffers."""


from repro.core import PilgrimTracer, RoundTrip, TraceDecoder, verify_roundtrip
from repro.core.encoder import PTR_DEVICE, PTR_HEAP, PTR_STACK
from repro.mpisim import SimMPI, constants as C, datatypes as dt, ops


def traced(nprocs, prog, seed=1, **kw):
    tee = RoundTrip(PilgrimTracer(**kw))
    SimMPI(nprocs, seed=seed, tracer=tee).run(prog)
    return tee


class TestCommIdupTracing:
    def test_idup_roundtrip_and_id_agreement(self):
        def prog(m):
            req = m.comm_idup()
            yield from m.allreduce(0, 0, 1, dt.INT, ops.SUM, data=1)
            yield from m.wait(req)
            newcomm = req.value
            yield from m.barrier(newcomm)
            yield from m.barrier(newcomm)

        tracer = traced(4, prog)
        assert verify_roundtrip(tracer).ok
        # the barrier on the idup'ed comm must use ONE symbolic comm id
        # on every rank (assigned at Wait time, §3.3.1)
        from repro.mpisim import funcs as F
        fid = F.FUNCS["MPI_Barrier"].fid
        ids = set()
        for r in range(4):
            sigs = tracer.raw.streams[r]
            ids.update(s[1] for s in sigs if s[0] == fid and s[1] != 0)
        assert len(ids) == 1

    def test_idup_produces_identical_grammars(self):
        def prog(m):
            req = m.comm_idup()
            yield from m.wait(req)
            for _ in range(5):
                yield from m.barrier(req.value)

        tracer = traced(8, prog)
        assert tracer.result.n_unique_grammars == 1


class TestIntercommTracing:
    def test_intercomm_create_merge_roundtrip(self):
        def prog(m):
            half = yield from m.comm_split(color=m.rank // 2, key=m.rank)
            remote_leader = 2 if m.rank < 2 else 0
            ic = yield from m.intercomm_create(half, 0, m.world,
                                               remote_leader, tag=11)
            merged = yield from m.intercomm_merge(ic, high=(m.rank >= 2))
            yield from m.barrier(merged)
            buf = m.malloc(16)
            peer = m.rank % 2
            yield from m.sendrecv(buf, 1, dt.INT, peer, 1, buf, 1, dt.INT,
                                  peer, 1, comm=ic)

        tracer = traced(4, prog)
        assert verify_roundtrip(tracer).ok


class TestPersistentRequestTracing:
    def test_persistent_ids_stable_across_rounds(self):
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(64)
            sreq = m.send_init(buf, 1, dt.DOUBLE, dest=peer, tag=5)
            rreq = m.recv_init(buf + 32, 1, dt.DOUBLE, source=peer, tag=5)
            for _ in range(6):
                m.startall([sreq, rreq])
                yield from m.waitall([sreq, rreq])
            m.request_free(sreq)
            m.request_free(rreq)

        tracer = traced(2, prog)
        assert verify_roundtrip(tracer).ok
        # the Start/Waitall loop uses the SAME persistent-request ids each
        # round, so six rounds collapse into a compressed loop: signature
        # count is independent of the round count
        longer = traced(2, _persistent_prog(20))
        assert longer.result.n_signatures == tracer.result.n_signatures

    def test_persistent_not_released_at_wait(self):
        def prog(m):
            buf = m.malloc(8)
            req = m.send_init(buf, 1, dt.DOUBLE, dest=C.PROC_NULL, tag=1)
            m.start(req)
            yield from m.wait(req)
            m.start(req)       # restartable: wait must not have freed it
            yield from m.wait(req)
            m.request_free(req)

        tracer = traced(1, prog)
        assert verify_roundtrip(tracer).ok


def _persistent_prog(rounds):
    def prog(m):
        peer = 1 - m.rank
        buf = m.malloc(64)
        sreq = m.send_init(buf, 1, dt.DOUBLE, dest=peer, tag=5)
        rreq = m.recv_init(buf + 32, 1, dt.DOUBLE, source=peer, tag=5)
        for _ in range(rounds):
            m.startall([sreq, rreq])
            yield from m.waitall([sreq, rreq])
        m.request_free(sreq)
        m.request_free(rreq)
    return prog


class TestDatatypeTracing:
    def test_type_lifecycle_ids_recycled(self):
        def prog(m):
            buf = m.malloc(4096)
            for _ in range(4):
                t = m.type_vector(4, 2, 8, dt.DOUBLE)
                m.type_commit(t)
                yield from m.send(buf, 1, t, dest=C.PROC_NULL, tag=1)
                m.type_free(t)

        tracer = traced(2, prog)
        assert verify_roundtrip(tracer).ok
        # create/use/free loops reuse symbolic id 0: the four iterations
        # produce ONE set of signatures
        from repro.mpisim import funcs as F
        fid = F.FUNCS["MPI_Type_vector"].fid
        sigs = {s for s in tracer.raw.streams[0] if s[0] == fid}
        assert len(sigs) == 1

    def test_nested_derived_types(self):
        def prog(m):
            inner = m.type_contiguous(3, dt.INT)
            m.type_commit(inner)
            outer = m.type_indexed([1, 2], [0, 4], inner)
            m.type_commit(outer)
            buf = m.malloc(4096)
            yield from m.send(buf, 1, outer, dest=C.PROC_NULL, tag=1)
            m.type_free(outer)
            m.type_free(inner)

        tracer = traced(1, prog)
        assert verify_roundtrip(tracer).ok


class TestMemoryTracing:
    def test_realloc_and_device_pointers(self):
        def prog(m):
            a = m.malloc(64)
            a = m.realloc(a, 256)
            d = m.cuda_malloc(1024, device=1)
            yield from m.send(a + 16, 1, dt.DOUBLE, dest=C.PROC_NULL, tag=1)
            yield from m.send(d + 8, 1, dt.DOUBLE, dest=C.PROC_NULL, tag=2)
            m.cuda_free(d)
            m.free(a)

        tracer = traced(1, prog)
        assert verify_roundtrip(tracer).ok
        from repro.mpisim import funcs as F
        fid = F.FUNCS["MPI_Send"].fid
        sends = [s for s in tracer.raw.streams[0] if s[0] == fid]
        assert sends[0][1][0] == PTR_HEAP
        assert sends[0][1][2] == 16            # displacement preserved
        assert sends[1][1][0] == PTR_DEVICE
        assert sends[1][1][1] == 1             # device ordinal preserved

    def test_stack_buffer_fallback(self):
        def prog(m):
            # an address never malloc'ed: the paper's stack-variable case
            yield from m.send(0x100, 1, dt.DOUBLE, dest=C.PROC_NULL, tag=1)
            yield from m.send(0x100, 1, dt.DOUBLE, dest=C.PROC_NULL, tag=1)

        tracer = traced(1, prog)
        from repro.mpisim import funcs as F
        fid = F.FUNCS["MPI_Send"].fid
        sends = [s for s in tracer.raw.streams[0] if s[0] == fid]
        assert sends[0][1] == (PTR_STACK, 0)
        assert len({s[1] for s in sends}) == 1  # stable first-touch id


class TestStatusIgnore:
    def test_status_ignore_recorded_as_such(self):
        def prog(m):
            buf = m.malloc(8)
            if m.rank == 0:
                yield from m.send(buf, 1, dt.DOUBLE, dest=1, tag=1)
            else:
                _, st = yield from m.recv(buf, 1, dt.DOUBLE, source=0,
                                          tag=1, status=None)
                assert st is None

        tracer = traced(2, prog)
        assert verify_roundtrip(tracer).ok
        dec = TraceDecoder.from_bytes(tracer.result.trace_bytes)
        recv = next(c for c in dec.rank_calls(1) if c.fname == "MPI_Recv")
        assert recv.params["status"] is None  # STATUS_IGNORE preserved


class TestTimingModes:
    def test_per_function_base_end_to_end(self):
        def prog(m):
            buf = m.malloc(8)
            for _ in range(10):
                yield from m.allreduce(buf, buf, 1, dt.DOUBLE, ops.SUM)
                yield from m.barrier()

        t1 = traced(4, prog, timing_mode="lossy", timing_base=1.2)
        t2 = traced(4, prog, timing_mode="lossy", timing_base=1.2,
                    per_function_base={"MPI_Barrier": 3.0})
        assert verify_roundtrip(t1).ok and verify_roundtrip(t2).ok
        # a coarser per-function base cannot enlarge the duration grammar
        s1 = t1.result.section_sizes()["timing_duration"]
        s2 = t2.result.section_sizes()["timing_duration"]
        assert s2 <= s1 + 32
