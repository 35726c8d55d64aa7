"""Signature-encoding tests: symbolic ids, relative ranks, pointers,
request pools, communicator id agreement."""


from conftest import trace_program
from repro.core import PilgrimTracer, RoundTrip
from repro.core.encoder import (PTR_DEVICE, PTR_HEAP, PTR_NULL, PTR_STACK,
                                CommIdSpace, MemoryTable)
from repro.mpisim import SimMPI, constants as C, datatypes as dt
from repro.mpisim.comm import Comm
from repro.mpisim.group import Group


class TestMemoryTable:
    def test_null_pointer(self):
        t = MemoryTable()
        assert t.encode_ptr(0) == (PTR_NULL,)

    def test_heap_pointer_with_displacement(self):
        t = MemoryTable()
        t.on_alloc(0x200000, 1024)
        assert t.encode_ptr(0x200000) == (PTR_HEAP, 0, 0)
        assert t.encode_ptr(0x200100) == (PTR_HEAP, 0, 0x100)

    def test_freed_segment_id_reused(self):
        t = MemoryTable()
        t.on_alloc(0x200000, 64)
        t.on_free(0x200000)
        t.on_alloc(0x300000, 64)
        assert t.encode_ptr(0x300000) == (PTR_HEAP, 0, 0)

    def test_stack_fallback_first_touch(self):
        t = MemoryTable()
        assert t.encode_ptr(0x50) == (PTR_STACK, 0)
        assert t.encode_ptr(0x60) == (PTR_STACK, 1)
        assert t.encode_ptr(0x50) == (PTR_STACK, 0)  # stable

    def test_device_pointer(self):
        t = MemoryTable()
        t.on_alloc(0x900000, 4096, device=2)
        assert t.encode_ptr(0x900010) == (PTR_DEVICE, 2, 0, 0x10)

    def test_free_unknown_is_noop(self):
        t = MemoryTable()
        assert t.on_free(0x1234) is None


class TestCommIdSpace:
    def test_world_is_zero(self):
        s = CommIdSpace(4)
        world = Comm(0, Group(range(4)))
        assert s.sym_for(world) == 0

    def test_group_wide_max_plus_one(self):
        s = CommIdSpace(4)
        s.sym_for(Comm(0, Group(range(4))))
        a = Comm(1, Group([0, 1]))
        b = Comm(2, Group([2, 3]))
        # disjoint groups: both get 1 — same id for "first sub-comm", the
        # cross-rank alignment §3.3.1 is designed for
        assert s.sym_for(a) == 1
        assert s.sym_for(b) == 1
        # a comm spanning both halves must exceed both locals
        c = Comm(3, Group(range(4)))
        assert s.sym_for(c) == 2

    def test_idempotent(self):
        s = CommIdSpace(2)
        c = Comm(5, Group([0, 1]))
        assert s.sym_for(c) == s.sym_for(c)

    def test_intercomm_uses_both_groups(self):
        s = CommIdSpace(4)
        left = Comm(1, Group([0, 1]))
        s.sym_for(left)   # left half now at max 1
        inter = Comm(2, Group([0, 1]), Group([2, 3]))
        assert s.sym_for(inter) == 2  # exceeds the left half's max


def _sig_stream(tee, rank):
    return tee.raw.streams[rank]


class TestEndToEndEncoding:
    def test_comm_rank_output_relative(self):
        def prog(m):
            m.comm_rank()
            yield from m.barrier()
        tr = trace_program(4, prog)
        sigs = {r: _sig_stream(tr, r) for r in range(4)}
        # the comm_rank signature must be identical on every rank
        assert sigs[0][1] == sigs[1][1] == sigs[2][1] == sigs[3][1]

    def test_buffer_ids_align_across_ranks(self):
        def prog(m):
            a = m.malloc(100)
            b = m.malloc(200)
            yield from m.send(b + 8, 1, dt.DOUBLE, dest=C.PROC_NULL, tag=1)
            m.free(a)
            m.free(b)
            yield from m.barrier()
        tr = trace_program(3, prog)
        send0 = _sig_stream(tr, 0)[1]
        send2 = _sig_stream(tr, 2)[1]
        assert send0 == send2
        # buf param of MPI_Send is parts[1]: (PTR_HEAP, segid=1, disp=8)
        assert send0[1] == (PTR_HEAP, 1, 8)

    def test_datatype_creation_and_use_share_id(self):
        def prog(m):
            t = m.type_vector(4, 2, 8, dt.DOUBLE)
            m.type_commit(t)
            buf = m.malloc(1024)
            yield from m.send(buf, 1, t, dest=C.PROC_NULL, tag=1)
            m.type_free(t)
            yield from m.barrier()
        tr = trace_program(1, prog)
        sigs = _sig_stream(tr, 0)
        create = next(s for s in sigs if s[0] ==
                      _fid("MPI_Type_vector"))
        send = next(s for s in sigs if s[0] == _fid("MPI_Send"))
        newtype_id = create[-1]
        used_id = send[3]
        assert newtype_id == used_id >= 0

    def test_request_ids_stable_across_seeds(self):
        """The §3.4.3 guarantee: per-signature pools give the same ids no
        matter the completion order (scheduler seed)."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(256)
            for _ in range(4):
                reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                        for t in range(3)]
                for t in range(3):
                    yield from m.send(buf + 128, 1, dt.DOUBLE, dest=peer,
                                      tag=t)
                done = 0
                while done < 3:
                    idxs, _ = yield from m.waitsome(reqs)
                    done += len(idxs)

        def irecv_sigs(seed):
            tr = RoundTrip(PilgrimTracer())
            SimMPI(2, seed=seed, tracer=tr).run(prog)
            return [s for s in _sig_stream(tr, 0)
                    if s[0] == _fid("MPI_Irecv")]

        a, b = irecv_sigs(1), irecv_sigs(99)
        assert a == b  # identical irecv signatures despite seed change

    def test_global_pool_ablation_unstable(self):
        """Without per-signature pools, creation-time ids leak the
        completion order (the §3.4.3 defect): in a sliding-window loop the
        replacement request takes over whichever slot the non-
        deterministically-completed request freed."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(1024)
            # a sliding window of 3 outstanding irecvs, refilled as they
            # complete; tags cycle so creation signatures are distinct
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in range(3)]
            tags = [0, 1, 2]
            next_tag = 3
            for t in range(24):
                yield from m.send(buf + 512, 1, dt.DOUBLE, dest=peer,
                                  tag=t)
            consumed = 0
            while consumed < 21:
                idx, _ = yield from m.waitany(reqs)
                consumed += 1
                reqs[idx] = m.irecv(buf, 1, dt.DOUBLE, source=peer,
                                    tag=next_tag % 24)
                tags[idx] = next_tag
                next_tag += 1
            yield from m.waitall(reqs)

        def irecv_sig_set(seed, per_sig):
            tr = RoundTrip(PilgrimTracer(
                per_signature_request_pools=per_sig))
            SimMPI(2, seed=seed, tracer=tr).run(prog)
            return frozenset(s for s in _sig_stream(tr, 0)
                             if s[0] == _fid("MPI_Irecv"))

        with_pools = {irecv_sig_set(s, True) for s in range(4)}
        without = {irecv_sig_set(s, False) for s in range(4)}
        assert len(with_pools) == 1      # stable creation signatures
        assert len(without) > 1          # single pool leaks the order

    def test_comm_split_same_symbolic_id_all_members(self):
        def prog(m):
            sub = yield from m.comm_split(color=m.rank % 2, key=m.rank)
            yield from m.barrier(sub)
        tr = trace_program(4, prog)
        barrier_sigs = {r: [s for s in _sig_stream(tr, r)
                            if s[0] == _fid("MPI_Barrier")][0]
                        for r in range(4)}
        # both sub-comms get symbolic id 1 on their members
        assert len({barrier_sigs[r][1] for r in range(4)}) == 1

    def test_statuses_keep_source_and_tag_only(self):
        def prog(m):
            buf = m.malloc(8)
            if m.rank == 0:
                yield from m.send(buf, 1, dt.DOUBLE, dest=1, tag=9)
            else:
                _ = yield from m.recv(buf, 1, dt.DOUBLE, source=0, tag=9)
        tr = trace_program(2, prog)
        recv = next(s for s in _sig_stream(tr, 1)
                    if s[0] == _fid("MPI_Recv"))
        status_enc = recv[-1]
        assert status_enc == ((1, -1), 9)  # (relative source, tag), no more


def _fid(name):
    from repro.mpisim import funcs as F
    return F.FUNCS[name].fid
