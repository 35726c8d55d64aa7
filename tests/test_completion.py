"""Wait*/Test* family semantics, including the non-determinism the paper
insists a lossless tracer must capture."""


from conftest import run_program
from repro.mpisim import constants as C, datatypes as dt


def _post_pair(m, peer, tag=1):
    buf = m.malloc(64)
    rr = m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=tag)
    sr = m.isend(buf + 32, 1, dt.DOUBLE, dest=peer, tag=tag)
    return rr, sr


class TestWait:
    def test_wait_on_null_returns_empty(self):
        def prog(m):
            st = yield from m.wait(None)
            assert st.MPI_SOURCE == C.PROC_NULL
        run_program(1, prog)

    def test_double_wait_second_is_null(self):
        def prog(m):
            rr, sr = _post_pair(m, 1 - m.rank)
            st1 = yield from m.wait(rr)
            assert st1.MPI_SOURCE == 1 - m.rank
            st2 = yield from m.wait(rr)  # consumed: behaves like NULL
            assert st2.MPI_SOURCE == C.PROC_NULL
            yield from m.wait(sr)
        run_program(2, prog)

    def test_status_ignore(self):
        def prog(m):
            rr, sr = _post_pair(m, 1 - m.rank)
            st = yield from m.wait(rr, status=None)
            assert st is None
            yield from m.wait(sr)
        run_program(2, prog)


class TestWaitall:
    def test_statuses_in_request_order(self):
        """Unlike Waitsome indices, Waitall statuses align 1:1 with the
        request array regardless of completion order."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(64)
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in (5, 6, 7)]
            for t in (7, 5, 6):  # send in scrambled order
                yield from m.send(buf + 32, 1, dt.DOUBLE, dest=peer, tag=t)
            sts = yield from m.waitall(reqs)
            assert [s.MPI_TAG for s in sts] == [5, 6, 7]
        run_program(2, prog)

    def test_mixed_null_entries(self):
        def prog(m):
            rr, sr = _post_pair(m, 1 - m.rank)
            sts = yield from m.waitall([None, rr, None, sr])
            assert sts[0].MPI_SOURCE == C.PROC_NULL
            assert sts[1].MPI_SOURCE == 1 - m.rank
        run_program(2, prog)

    def test_empty_list(self):
        def prog(m):
            sts = yield from m.waitall([])
            assert sts == []
        run_program(1, prog)


class TestWaitany:
    def test_all_null_returns_undefined(self):
        def prog(m):
            idx, st = yield from m.waitany([None, None])
            assert idx == C.UNDEFINED
        run_program(1, prog)

    def test_consumes_exactly_one(self):
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(64)
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in (1, 2)]
            yield from m.send(buf + 32, 1, dt.DOUBLE, dest=peer, tag=1)
            yield from m.send(buf + 32, 1, dt.DOUBLE, dest=peer, tag=2)
            idx1, st1 = yield from m.waitany(reqs)
            idx2, st2 = yield from m.waitany(reqs)
            assert {idx1, idx2} == {0, 1}
            assert {st1.MPI_TAG, st2.MPI_TAG} == {1, 2}
            idx3, _ = yield from m.waitany(reqs)
            assert idx3 == C.UNDEFINED
        run_program(2, prog)

    def test_completion_choice_depends_on_seed(self):
        """With several complete requests, the pick is RNG-driven —
        modelling network non-determinism (§3.4.3's motivation)."""
        def make_prog(record):
            def prog(m):
                peer = 1 - m.rank
                buf = m.malloc(128)
                reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                        for t in range(8)]
                for t in range(8):
                    yield from m.send(buf + 64, 1, dt.DOUBLE, dest=peer,
                                      tag=t)
                yield from m.barrier()  # all eight now complete
                order = []
                for _ in range(8):
                    idx, _st = yield from m.waitany(reqs)
                    order.append(idx)
                if m.rank == 0:
                    record.append(tuple(order))
            return prog

        orders = set()
        for seed in range(6):
            rec = []
            run_program(2, make_prog(rec), seed=seed)
            orders.add(rec[0])
        assert len(orders) > 1  # genuinely seed-dependent

    def test_same_seed_reproducible(self):
        def make_prog(record):
            def prog(m):
                peer = 1 - m.rank
                buf = m.malloc(128)
                reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                        for t in range(6)]
                for t in range(6):
                    yield from m.send(buf + 64, 1, dt.DOUBLE, dest=peer,
                                      tag=t)
                yield from m.barrier()
                order = []
                for _ in range(6):
                    idx, _ = yield from m.waitany(reqs)
                    order.append(idx)
                record.append(tuple(order))
            return prog

        runs = []
        for _ in range(2):
            rec = []
            run_program(2, make_prog(rec), seed=42)
            runs.append(rec)
        assert runs[0] == runs[1]


class TestBlockedWaitLeavesNoCallbackBehind:
    """Master/worker with a "shutdown" receive that stays pending across
    every blocked Waitany/Waitsome: each blocked call hung one more
    callback (holding a dead aggregate future) on it, all fired at its
    completion — 500 after 500 calls."""

    ROUNDS = 500

    def _master_worker(self, wait, seen):
        def prog(m):
            buf = m.malloc(256)
            if m.rank == 0:
                slow = m.irecv(buf, 1, dt.INT, source=2, tag=99)
                for _ in range(self.ROUNDS):
                    yield from m.send(buf + 64, 1, dt.INT, dest=1, tag=1)
                    fast = m.irecv(buf + 128, 1, dt.INT, source=1, tag=2)
                    picked = yield from wait(m, [slow, fast])
                    assert picked == 1  # blocked, then the worker's reply
                    seen.append(len(slow.callbacks))
                yield from m.send(buf + 64, 1, dt.INT, dest=2, tag=3)
                yield from m.wait(slow)
                seen.append(len(slow.callbacks))
            elif m.rank == 1:
                for _ in range(self.ROUNDS):
                    yield from m.recv(buf, 1, dt.INT, source=0, tag=1)
                    yield from m.send(buf + 64, 1, dt.INT, dest=0, tag=2)
            else:
                yield from m.recv(buf, 1, dt.INT, source=0, tag=3)
                yield from m.send(buf + 64, 1, dt.INT, dest=0, tag=99)
        return prog

    def test_waitany(self):
        def wait(m, reqs):
            idx, _st = yield from m.waitany(reqs)
            return idx

        seen = []
        _sim, res = run_program(3, self._master_worker(wait, seen))
        assert len(seen) == self.ROUNDS + 1 and max(seen) <= 1
        assert res.steps > 2 * self.ROUNDS  # the calls did block

    def test_waitsome(self):
        def wait(m, reqs):
            idxs, _sts = yield from m.waitsome(reqs)
            assert len(idxs) == 1
            return idxs[0]

        seen = []
        run_program(3, self._master_worker(wait, seen))
        assert len(seen) == self.ROUNDS + 1 and max(seen) <= 1

    def test_an_entry_listed_twice_is_cleared_too(self):
        def prog(m):
            buf = m.malloc(64)
            if m.rank == 0:
                slow = m.irecv(buf, 1, dt.INT, source=1, tag=9)
                fast = m.irecv(buf + 32, 1, dt.INT, source=1, tag=1)
                idx, _st = yield from m.waitany([slow, slow, fast, fast])
                assert idx in (2, 3) and slow.callbacks == []
                yield from m.send(buf, 1, dt.INT, dest=1, tag=2)
                yield from m.wait(slow)
            else:
                yield from m.send(buf, 1, dt.INT, dest=0, tag=1)
                yield from m.recv(buf, 1, dt.INT, source=0, tag=2)
                yield from m.send(buf, 1, dt.INT, dest=0, tag=9)
        run_program(2, prog)


class TestWaitsome:
    def test_returns_all_completed(self):
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(64)
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in (1, 2, 3)]
            for t in (1, 2, 3):
                yield from m.send(buf + 32, 1, dt.DOUBLE, dest=peer, tag=t)
            yield from m.barrier()
            idxs, sts = yield from m.waitsome(reqs)
            assert sorted(idxs) == [0, 1, 2]
            assert len(sts) == 3
            idxs2, _ = yield from m.waitsome(reqs)
            assert idxs2 is None  # everything already consumed
        run_program(2, prog)

    def test_intro_testsome_loop_pattern(self):
        """The paper's introduction example: loop Testsome over a request
        array until all requests finish."""
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(256)
            incount = 6
            reqs = [m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=t)
                    for t in range(incount)]
            for t in range(incount):
                yield from m.send(buf + 128, 1, dt.DOUBLE, dest=peer, tag=t)
            done = 0
            rounds = 0
            while done < incount:
                idxs, sts = yield from m.testsome(reqs)
                assert idxs is not None
                done += len(idxs)
                rounds += 1
                assert rounds < 10_000
            idxs, _ = yield from m.testsome(reqs)
            assert idxs is None  # all consumed => MPI_UNDEFINED
        run_program(2, prog)


class TestTest:
    def test_flag_false_does_not_consume(self):
        def prog(m):
            buf = m.malloc(8)
            if m.rank == 0:
                req = m.irecv(buf, 1, dt.DOUBLE, source=1, tag=1)
                flag, st = yield from m.test(req)
                assert flag is False and st is None
                yield from m.barrier()
                # eventually completes and a later wait sees it
                st = yield from m.wait(req)
                assert st.MPI_SOURCE == 1
            else:
                yield from m.barrier()
                yield from m.send(buf, 1, dt.DOUBLE, dest=0, tag=1)
        run_program(2, prog)

    def test_null_request_flag_true(self):
        def prog(m):
            flag, st = yield from m.test(None)
            assert flag is True
            assert st.MPI_SOURCE == C.PROC_NULL
        run_program(1, prog)

    def test_testall_partial_consumes_nothing(self):
        def prog(m):
            buf = m.malloc(64)
            if m.rank == 0:
                done_req = m.irecv(buf, 1, dt.DOUBLE, source=1, tag=1)
                pending = m.irecv(buf + 32, 1, dt.DOUBLE, source=1, tag=2)
                yield from m.barrier()   # tag 1 sent, tag 2 not yet
                yield from m.wait(done_req)
                flag, sts = yield from m.testall([pending])
                # not all complete: nothing consumed, no statuses
                yield from m.barrier()
                flag2, sts2 = yield from m.testall([pending])
                while not flag2:
                    flag2, sts2 = yield from m.testall([pending])
                assert sts2[0].MPI_TAG == 2
            else:
                yield from m.send(buf, 1, dt.DOUBLE, dest=0, tag=1)
                yield from m.barrier()
                yield from m.barrier()
                yield from m.send(buf, 1, dt.DOUBLE, dest=0, tag=2)
        run_program(2, prog)

    def test_testany_undefined_when_all_null(self):
        def prog(m):
            flag, idx, st = yield from m.testany([None])
            assert flag is True and idx == C.UNDEFINED
        run_program(1, prog)


class TestRequestQueries:
    def test_request_get_status_does_not_consume(self):
        def prog(m):
            peer = 1 - m.rank
            buf = m.malloc(64)
            rr = m.irecv(buf, 1, dt.DOUBLE, source=peer, tag=1)
            yield from m.send(buf + 32, 1, dt.DOUBLE, dest=peer, tag=1)
            yield from m.barrier()
            flag, st = m.request_get_status(rr)
            assert flag and st.MPI_TAG == 1
            # still consumable by wait
            st2 = yield from m.wait(rr)
            assert st2.MPI_TAG == 1
        run_program(2, prog)
