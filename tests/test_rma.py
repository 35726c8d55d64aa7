"""One-sided communication (RMA) tests: windows, epochs, locks, data
semantics, tracing, and replay."""

import pytest

from conftest import run_program
from repro.core import PilgrimTracer, RoundTrip, verify_roundtrip
from repro.mpisim import DeadlockError, SimMPI, datatypes as dt, ops
from repro.mpisim.errors import RankProgramError
from repro.mpisim.win import LOCK_EXCLUSIVE, LOCK_SHARED
from repro.replay import replay_trace, structurally_equal


class TestWindowLifecycle:
    def test_create_and_free(self):
        def prog(m):
            buf = m.malloc(256)
            win = yield from m.win_create(buf, 256, 8)
            assert win.sizes[m.comm_rank()] == 256
            yield from m.win_free(win)
        run_program(4, prog)

    def test_allocate(self):
        def prog(m):
            base, win = yield from m.win_allocate(128)
            assert base > 0
            yield from m.win_free(win)
        run_program(2, prog)

    def test_freed_window_unusable(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            yield from m.win_free(win)
            yield from m.win_fence(win)
        with pytest.raises(RankProgramError):
            run_program(2, prog)

    def test_bad_args_rejected(self):
        def prog(m):
            buf = m.malloc(64)
            yield from m.win_create(buf, -1)
        with pytest.raises(RankProgramError):
            run_program(1, prog)

    def test_set_name(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            m.win_set_name(win, "halo-window")
            assert win.name == "halo-window"
            yield from m.win_free(win)
        run_program(2, prog)


class TestActiveTarget:
    def test_put_visible_after_fence(self):
        def prog(m):
            n = m.comm_size()
            me = m.comm_rank()
            buf = m.malloc(256)
            win = yield from m.win_create(buf, 256, 8)
            yield from m.win_fence(win)
            peer = (me + 1) % n
            m.put(buf, 1, dt.DOUBLE, peer, 0, 1, dt.DOUBLE, win, data=me)
            # not visible before the closing fence
            assert m.get(buf, 1, dt.DOUBLE, peer, 0, 1, dt.DOUBLE,
                         win) is None
            yield from m.win_fence(win)
            got = m.get(buf, 1, dt.DOUBLE, me, 0, 1, dt.DOUBLE, win)
            assert got == (me - 1) % n
            yield from m.win_free(win)
        run_program(4, prog)

    def test_accumulate_sums_contributions(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            yield from m.win_fence(win)
            # everyone accumulates into rank 0's slot 0
            m.accumulate(buf, 1, dt.INT, 0, 0, 1, dt.INT, ops.SUM, win,
                         data=m.rank + 1)
            yield from m.win_fence(win)
            if m.comm_rank() == 0:
                total = m.get(buf, 1, dt.INT, 0, 0, 1, dt.INT, win)
                assert total == sum(range(1, m.comm_size() + 1))
            yield from m.win_free(win)
        run_program(4, prog)

    def test_partial_fence_deadlocks(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            if m.rank != 1:
                yield from m.win_fence(win)
        with pytest.raises(DeadlockError):
            run_program(3, prog)

    def test_put_bad_target_rejected(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            m.put(buf, 1, dt.INT, 9, 0, 1, dt.INT, win)
        with pytest.raises(RankProgramError):
            run_program(2, prog)


class TestPassiveTarget:
    def test_lock_put_unlock_visible(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            if m.rank == 0:
                yield from m.win_lock(LOCK_EXCLUSIVE, 1, win)
                m.put(buf, 1, dt.INT, 1, 0, 1, dt.INT, win, data="x")
                m.win_unlock(1, win)
                yield from m.barrier()
            else:
                yield from m.barrier()
                if m.rank == 1:
                    got = m.get(buf, 1, dt.INT, 1, 0, 1, dt.INT, win)
                    assert got == "x"
            yield from m.win_free(win)
        run_program(3, prog)

    def test_exclusive_lock_blocks_second_locker(self):
        order = []

        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            if m.rank == 0:
                yield from m.win_lock(LOCK_EXCLUSIVE, 2, win)
                order.append(("acquire", 0))
                # ssend blocks (holding the lock) until rank 1's recv —
                # which rank 1 posts BEFORE its own lock attempt
                yield from m.ssend(buf, 1, dt.INT, dest=1, tag=1)
                m.win_unlock(2, win)
                order.append(("release", 0))
            elif m.rank == 1:
                _ = yield from m.recv(buf, 1, dt.INT, source=0, tag=1)
                yield from m.win_lock(LOCK_EXCLUSIVE, 2, win)
                order.append(("acquire", 1))
                m.win_unlock(2, win)
                order.append(("release", 1))
            yield from m.win_free(win)

        run_program(3, prog)
        assert order.index(("acquire", 0)) < order.index(("acquire", 1))
        assert order.index(("release", 0)) < order.index(("acquire", 1))

    def test_shared_locks_coexist(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            yield from m.win_lock(LOCK_SHARED, 0, win)
            yield from m.barrier()  # everyone holds the shared lock at once
            m.win_unlock(0, win)
            yield from m.win_free(win)
        run_program(4, prog)

    def test_unlock_without_lock_rejected(self):
        def prog(m):
            buf = m.malloc(64)
            win = yield from m.win_create(buf, 64)
            m.win_unlock(0, win)
            yield
        with pytest.raises(RankProgramError):
            run_program(2, prog)


class TestRMATracing:
    def _rma_prog(self, m):
        n = m.comm_size()
        me = m.comm_rank()
        buf = m.malloc(512)
        win = yield from m.win_create(buf, 512, 8)
        for _ in range(5):
            yield from m.win_fence(win)
            peer = (me + 1) % n
            m.put(buf, 4, dt.DOUBLE, peer, 0, 4, dt.DOUBLE, win)
            m.accumulate(buf, 1, dt.DOUBLE, peer, 32, 1, dt.DOUBLE,
                         ops.SUM, win)
            yield from m.win_fence(win)
            m.get(buf, 4, dt.DOUBLE, peer, 0, 4, dt.DOUBLE, win)
        yield from m.win_free(win)

    def test_roundtrip_lossless(self):
        tee = RoundTrip(PilgrimTracer())
        SimMPI(4, seed=1, tracer=tee).run(self._rma_prog)
        assert verify_roundtrip(tee).ok

    def test_ring_rma_grammars_collapse(self):
        """Relative target ranks: an RMA ring produces ONE grammar class
        on a periodic ring of any size."""
        tracer = PilgrimTracer()
        SimMPI(8, seed=1, tracer=tracer).run(self._rma_prog)
        t16 = PilgrimTracer()
        SimMPI(16, seed=1, tracer=t16).run(self._rma_prog)
        # two classes on a periodic ring: interior (+1) and the wrapping
        # last rank — constant at any ring size
        assert tracer.result.n_unique_grammars == \
            t16.result.n_unique_grammars == 2
        assert abs(t16.result.trace_size - tracer.result.trace_size) < 32

    def test_window_ids_agree_across_ranks(self):
        tee = RoundTrip(PilgrimTracer())
        SimMPI(4, seed=1, tracer=tee).run(self._rma_prog)
        from repro.mpisim import funcs as F
        fid = F.FUNCS["MPI_Win_fence"].fid
        ids = set()
        for r in range(4):
            sigs = tee.raw.streams[r]
            ids.update(s[2] for s in sigs if s[0] == fid)
        assert ids == {0}  # one window, same symbolic id everywhere

    def test_scalatrace_does_not_record_rma(self):
        from repro.scalatrace import ScalaTraceTracer
        st = ScalaTraceTracer()
        SimMPI(4, seed=1, tracer=st).run(self._rma_prog)
        assert st.result.recorded_calls < st.result.total_calls

    def test_replay_fixed_point(self):
        tracer = PilgrimTracer()
        SimMPI(4, seed=1, tracer=tracer).run(self._rma_prog)
        blob = tracer.result.trace_bytes
        retrace = PilgrimTracer()
        replay_trace(blob, seed=9, tracer=retrace)
        assert structurally_equal(blob, retrace.result.trace_bytes)

    def test_replay_fixed_point_win_allocate(self):
        def prog(m):
            base, win = yield from m.win_allocate(256, 8)
            yield from m.win_fence(win)
            peer = (m.comm_rank() + 1) % m.comm_size()
            m.put(base, 1, dt.DOUBLE, peer, 0, 1, dt.DOUBLE, win)
            yield from m.win_fence(win)
            yield from m.win_free(win)

        tracer = PilgrimTracer()
        SimMPI(4, seed=1, tracer=tracer).run(prog)
        blob = tracer.result.trace_bytes
        retrace = PilgrimTracer()
        replay_trace(blob, seed=2, tracer=retrace)
        assert structurally_equal(blob, retrace.result.trace_bytes)
