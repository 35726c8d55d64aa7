"""The simulator's failure texts, pinned against the commit
``tests/data/mpisim_golden.json`` names (``recorded_on``).

The success path builds no diagnostic: request and future descriptions
and the name of the call a rank is parked in are put together when a
``DeadlockError`` / ``InvalidHandleError`` asks for them, and argument
validation hands over to the checking helpers only once a test has
failed.  Every string below was copied from that commit's output, where
this file passes unchanged — so it pins the texts, and which error wins
when two arguments are wrong at once.
"""

import inspect

import pytest

from repro.mpisim import SimMPI, constants as C, datatypes as dt, ops
from repro.mpisim.errors import DeadlockError, RankProgramError


def blocked_of(nprocs, program, **kw) -> dict:
    with pytest.raises(DeadlockError) as ei:
        SimMPI(nprocs, seed=0, **kw).run(program)
    lines = [f"deadlock: {len(ei.value.blocked)} rank(s) blocked with no "
             f"runnable work"]
    lines += [f"  rank {r}: waiting on {d}"
              for r, d in sorted(ei.value.blocked.items())]
    assert str(ei.value) == "\n".join(lines)
    return ei.value.blocked


def raised_by(nprocs, program):
    """``(rank, exception class name, text)`` of what a rank raised."""
    with pytest.raises(RankProgramError) as ei:
        SimMPI(nprocs, seed=0).run(program)
    err = ei.value
    assert str(err) == (f"rank {err.rank} raised "
                        f"{type(err.original).__name__}: {err.original}")
    return err.rank, type(err.original).__name__, str(err.original)


class TestDeadlockReports:
    def test_head_to_head_ssend(self):
        def prog(m):
            yield from m.ssend(m.malloc(8), 1, dt.DOUBLE, 1 - m.rank, tag=3)

        assert blocked_of(2, prog) == {
            0: "issend req#1 rank=0 (last MPI call: MPI_Ssend)",
            1: "issend req#1 rank=1 (last MPI call: MPI_Ssend)"}

    def test_a_collective_one_rank_never_joins(self):
        def prog(m):
            dup = yield from m.comm_dup()
            m.comm_set_name(dup, "halo")
            if m.rank != 0:
                yield from m.allreduce(0, 0, 1, dt.INT, ops.SUM, dup)

        assert blocked_of(3, prog) == {
            0: "barrier@MPI_COMM_WORLD rank=0 (last MPI call: MPI_Barrier)",
            1: "allreduce@halo rank=1 (last MPI call: MPI_Allreduce)",
            2: "allreduce@halo rank=2 (last MPI call: MPI_Allreduce)"}

    def test_the_report_names_the_communicator_as_it_was_called(self):
        """Renamed after the others parked: their text keeps the name
        the call was made under."""
        def prog(m):
            dup = yield from m.comm_dup()
            if m.rank == 0:
                yield from m.yield_to_scheduler()
                m.comm_set_name(dup, "late")
                yield from m.gatherv(0, 1, dt.INT, 0, None, None, dt.INT, 1,
                                     m.world)
            else:
                yield from m.gatherv(0, 1, dt.INT, 0, [1, 1], [0, 1],
                                     dt.INT, 1, dup)

        assert blocked_of(2, prog) == {
            0: "gather@MPI_COMM_WORLD rank=0 (last MPI call: MPI_Gather)",
            1: "gather@comm#1 rank=1 (last MPI call: MPI_Gather)"}

    def test_blocked_waitany(self):
        def prog(m):
            if m.rank == 0:
                buf = m.malloc(64)
                reqs = [m.irecv(buf, 1, dt.INT, 1, tag=t) for t in (1, 2)]
                yield from m.waitany(reqs)

        assert blocked_of(2, prog) == {
            0: "wait-any(2 reqs) rank=0 (last MPI call: MPI_Waitany)",
            1: "barrier@MPI_COMM_WORLD rank=1 (last MPI call: MPI_Barrier)"}

    def test_blocked_wait_probe_and_window_calls(self):
        def prog(m):
            base, win = yield from m.win_allocate(64, 8)
            if m.rank == 0:
                req = m.irecv(m.malloc(8), 1, dt.DOUBLE, 1, tag=1)
                yield from m.wait(req)
            elif m.rank == 1:
                yield from m.wait(m.ibarrier())
            elif m.rank == 2:
                yield from m.probe(C.ANY_SOURCE, 5)
            else:
                yield from m.win_fence(win)

        assert blocked_of(4, prog) == {
            0: "irecv req#1 rank=0 (last MPI call: MPI_Wait)",
            1: "icoll:barrier req#1 rank=1 (last MPI call: MPI_Wait)",
            2: "probe(src=-2,tag=5)@MPI_COMM_WORLD rank=2 "
               "(last MPI call: MPI_Probe)",
            3: "win_fence@win#0-sync rank=3 (last MPI call: MPI_Win_fence)"}

    def test_livelock_report(self):
        def prog(m):
            if m.rank == 0:
                req = m.irecv(m.malloc(8), 1, dt.DOUBLE, C.ANY_SOURCE, tag=1)
                flag = False
                while not flag:
                    flag, _ = yield from m.test(req)

        assert blocked_of(2, prog, spin_limit=3000) == {
            0: "Test*/Iprobe spin loop (livelock) parked in MPI_Test; "
               "no progress for 3000 steps",
            1: "barrier@MPI_COMM_WORLD rank=1 (last MPI call: MPI_Barrier)"}


class TestRaisedTexts:
    def test_mismatched_collective_op(self):
        def prog(m):
            if m.rank == 0:
                yield from m.bcast(0, 1, dt.INT, 0)
            else:
                yield from m.reduce(0, 0, 1, dt.INT, ops.SUM, 0)

        assert raised_by(2, prog) == (
            1, "CollectiveMismatchError",
            "MPI_COMM_WORLD: rank 1 called reduce while others called "
            "bcast (collective #0)")

    def test_mismatched_collective_arguments(self):
        def prog(m):
            yield from m.bcast(0, 1, dt.INT, root=m.rank)

        assert raised_by(2, prog) == (
            1, "CollectiveMismatchError",
            "MPI_COMM_WORLD: mismatched arguments in collective bcast #0: "
            "('bcast', 0) vs ('bcast', 1)")

    @pytest.mark.parametrize("use", ["cancel", "start", "request_free",
                                     "request_get_status"])
    def test_freed_request(self, use):
        def prog(m):
            m.isend(m.malloc(8), 1, dt.INT, C.PROC_NULL, 1)
            req = m.isend(m.malloc(8), 1, dt.INT, C.PROC_NULL, 1)
            m.request_free(req)
            getattr(m, use)(req)
            yield from m.barrier()

        assert raised_by(1, prog) == (
            0, "InvalidHandleError", "request isend req#2 rank=0 was freed")


# -- _check_p2p_args: every branch, from every caller --------------------------------

BUF = 4096


def _sendrecv_send_side(m, comm, peer, count, datatype, tag):
    return m.sendrecv(BUF, count, datatype, peer, tag,
                      BUF, 1, dt.INT, 0, 1, comm)


def _sendrecv_recv_side(m, comm, peer, count, datatype, tag):
    return m.sendrecv(BUF, 1, dt.INT, 0, 1,
                      BUF, count, datatype, peer, tag, comm)


#: caller -> (the call, whether it validates as a receive)
CALLERS = {
    "isend": (lambda m, comm, peer, count, datatype, tag:
              m.isend(BUF, count, datatype, peer, tag, comm), False),
    "issend": (lambda m, comm, peer, count, datatype, tag:
               m.issend(BUF, count, datatype, peer, tag, comm), False),
    "irecv": (lambda m, comm, peer, count, datatype, tag:
              m.irecv(BUF, count, datatype, peer, tag, comm), True),
    "send": (lambda m, comm, peer, count, datatype, tag:
             m.send(BUF, count, datatype, peer, tag, comm), False),
    "ssend": (lambda m, comm, peer, count, datatype, tag:
              m.ssend(BUF, count, datatype, peer, tag, comm), False),
    "recv": (lambda m, comm, peer, count, datatype, tag:
             m.recv(BUF, count, datatype, peer, tag, comm), True),
    "sendrecv[send]": (_sendrecv_send_side, False),
    "sendrecv[recv]": (_sendrecv_recv_side, True),
    "send_init": (lambda m, comm, peer, count, datatype, tag:
                  m.send_init(BUF, count, datatype, peer, tag, comm), False),
    "recv_init": (lambda m, comm, peer, count, datatype, tag:
                  m.recv_init(BUF, count, datatype, peer, tag, comm), True),
}

#: branch -> (the bad argument, error class, text on a send, on a receive;
#: None where the value is legal in that direction), in the order the
#: checks run
BRANCHES = {
    "freed communicator": (
        "comm", "InvalidHandleError",
        "communicator comm#1 was freed", "communicator comm#1 was freed"),
    "freed datatype": (
        "datatype", "InvalidHandleError",
        "datatype contiguous(2,MPI_INT) was freed",
        "datatype contiguous(2,MPI_INT) was freed"),
    "uncommitted datatype": (
        "datatype", "InvalidArgumentError",
        "derived datatype vector(2,1,4,MPI_INT) used before MPI_Type_commit",
        "derived datatype vector(2,1,4,MPI_INT) used before MPI_Type_commit"),
    "negative count": (
        "count", "InvalidArgumentError",
        "negative count -1", "negative count -1"),
    "tag above TAG_UB": (
        "tag", "InvalidArgumentError",
        "invalid send tag 32768", "invalid recv tag 32768"),
    "negative tag": (
        "tag", "InvalidArgumentError",
        "invalid send tag -1", "invalid recv tag -1"),
    "ANY_TAG": (
        "tag", "InvalidArgumentError", "invalid send tag -4", None),
    "peer out of range": (
        "peer", "InvalidArgumentError",
        "peer rank 1 out of range for MPI_COMM_WORLD (size 1)",
        "peer rank 1 out of range for MPI_COMM_WORLD (size 1)"),
    "negative peer": (
        "peer", "InvalidArgumentError",
        "peer rank -7 out of range for MPI_COMM_WORLD (size 1)",
        "peer rank -7 out of range for MPI_COMM_WORLD (size 1)"),
    "ANY_SOURCE": (
        "peer", "InvalidArgumentError",
        "peer rank -2 out of range for MPI_COMM_WORLD (size 1)", None),
}
BAD_VALUES = {"tag above TAG_UB": C.TAG_UB + 1, "negative tag": -1,
              "ANY_TAG": C.ANY_TAG, "negative count": -1,
              "peer out of range": 1, "negative peer": -7,
              "ANY_SOURCE": C.ANY_SOURCE}


def outcome(caller: str, *branches: str):
    """Run *caller* on one rank with the named arguments wrong."""
    call, _is_recv = CALLERS[caller]

    def prog(m):
        args = dict(comm=None, peer=0, count=1, datatype=dt.INT, tag=1)
        for branch in branches:
            if branch == "freed communicator":
                bad = yield from m.comm_dup()
                m.comm_free(bad)
            elif branch == "freed datatype":
                bad = m.type_contiguous(2, dt.INT)
                m.type_commit(bad)
                m.type_free(bad)
            elif branch == "uncommitted datatype":
                bad = m.type_vector(2, 1, 4, dt.INT)
            else:
                bad = BAD_VALUES[branch]
            args[BRANCHES[branch][0]] = bad
        ret = call(m, **args)
        if inspect.isgenerator(ret):
            yield from ret
        raise AssertionError(f"{caller} accepted {branches}")

    _rank, cls, text = raised_by(1, prog)
    return cls, text


def expected(caller: str, branch: str):
    _arg, cls, on_send, on_recv = BRANCHES[branch]
    text = on_recv if CALLERS[caller][1] else on_send
    return None if text is None else (cls, text)


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("caller", CALLERS)
def test_every_branch_from_every_caller(caller, branch):
    want = expected(caller, branch)
    if want is None:
        pytest.skip(f"{branch} is legal on a receive")
    assert outcome(caller, branch) == want


def _pairs():
    names = list(BRANCHES)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            if BRANCHES[first][0] != BRANCHES[second][0]:
                yield first, second


@pytest.mark.parametrize("first,second", list(_pairs()))
@pytest.mark.parametrize("caller", ["isend", "irecv", "send", "recv",
                                    "sendrecv[send]", "sendrecv[recv]",
                                    "send_init", "recv_init"])
def test_two_wrong_arguments_report_the_first_check(caller, first, second):
    """communicator, datatype, count, tag, peer: that order."""
    want = expected(caller, first) or expected(caller, second)
    if want is None:
        pytest.skip("both values are legal on a receive")
    assert outcome(caller, first, second) == want


def test_sendrecv_reports_its_send_side_first():
    def prog(m):
        yield from m.sendrecv(BUF, -1, dt.INT, 0, 1, BUF, 1, dt.INT, 9, 1)

    assert raised_by(1, prog)[1:] == ("InvalidArgumentError",
                                      "negative count -1")


def test_peer_range_on_an_inter_communicator_is_the_remote_group():
    def prog(m):
        side = 0 if m.rank < 3 else 1  # three ranks face one
        local = yield from m.comm_split(color=side, key=m.rank)
        inter = yield from m.intercomm_create(local, 0, m.world,
                                              3 if side == 0 else 0, tag=5)
        m.comm_set_name(inter, "bridge")
        if m.rank == 3:
            m.isend(BUF, 1, dt.INT, 2, 1, inter)  # legal: remote has three
            m.irecv(BUF, 1, dt.INT, 3, 1, inter)
        yield from m.barrier()

    assert raised_by(4, prog) == (
        3, "InvalidArgumentError",
        "peer rank 3 out of range for bridge (size 3)")
