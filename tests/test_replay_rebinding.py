"""Same terminal, rebound symbol: what keeps a bound argument honest.

Replay binds a terminal's arguments once per rank
(``RankReplayer.bound``) and drops the whole table whenever a symbol is
rebound (``RankReplayer._rebound`` — ``PerRankEncoder._sig_cache``'s
rule read backwards).  Of the sites that call it, the rest of the suite
guards only the datatype ones (the API tour's ``derived_datatypes`` stop
and ``tests/test_fuzz_pipeline.py`` free and re-create a type): with
every other ``_rebound()`` skipped, everything outside this file passes,
because no family calls one terminal on both sides of such a rebinding.
These six programs do.  Each is held at the simulator boundary — the
live value a symbol's *use* receives must be the one its latest
*creation* returned — and each must fail that check (or hand the
simulator a freed object) once the ``_rebound()`` calls that guard it
are dropped.

What a real trace can rebind is what the tracer re-hands: datatype and
group ids (``IdPool``) and heap segment ids.  Communicator and window
ids are agreed group-wide by max + 1 (§3.3.1) and never come back on a
rank, so a recorded stream calls no terminal across such a rebinding;
the stream a re-handing tracer *would* record is folded from the real
one (``fold_ids``) and replayed with ``strict_ids=False``, the mode that
accepts recorded ids the construction order does not derive.  An
``MPI_Comm_idup``'s communicator is bound under the id *derived* at
delivery and only if the rank does not hold it yet (``_release``): a
first binding, which nothing bound can have resolved.  That site cannot
rebind, so it has no ``_rebound()`` to drop; its program is here to
show a delivered communicator reaching its uses all the same.
"""

import sys

import pytest

import repro
from repro.core import TraceDecoder
from repro.core.decoder import RankStream
from repro.core.errors import ReplayFormatError
from repro.core.records import DecodedCall
from repro.mpisim import SimMPI, datatypes as dt, funcs as F
from repro.mpisim.hooks import TracerHooks
from repro.replay import replay_trace, structurally_equal
from repro.replay.engine import RankReplayer, ReplayState, run_replay
from test_replay_registry import retrace, trace_of

ROUNDS = 4


def datatype_program(m):
    peer = 1 - m.rank
    buf = m.malloc(4096)
    for i in range(ROUNDS):
        t = m.type_vector(2, 1 + i % 2, 4, dt.INT)  # the freed id, re-handed
        m.type_commit(t)
        yield from m.sendrecv(buf, 1, t, peer, 1, buf + 2048, 1, t, peer, 1)
        m.type_free(t)


def group_program(m):
    world = m.comm_group()
    for i in range(ROUNDS):
        g = m.group_incl(world, [0, 1] if i % 2 else [1, 0])
        m.group_rank(g)
        m.group_free(g)


def comm_program(m):
    for i in range(ROUNDS):
        sub = yield from m.comm_split(color=0, key=m.rank)
        yield from m.barrier(sub)
        m.comm_free(sub)


def win_program(m):
    base = m.malloc(256)
    for i in range(ROUNDS):
        win = yield from m.win_create(base, 64, 1)
        yield from m.win_fence(win)
        yield from m.win_free(win)


def idup_program(m):
    for i in range(ROUNDS):
        req = m.comm_idup()
        yield from m.wait(req)
        yield from m.barrier(req.value)
        m.comm_free(req.value)


def segment_program(m):
    peer = 1 - m.rank
    for i in range(ROUNDS):
        mem, win = yield from m.win_allocate(128 + 64 * i, 8)
        yield from m.sendrecv(mem, 1, dt.DOUBLE, peer, 1,
                              mem + 64, 1, dt.DOUBLE, peer, 1)
        yield from m.win_free(win)
        m.free(mem)  # the tracer re-hands the segment id


#: name -> (program, the call and parameter that create the symbol, the
#: call and parameter that use it, the kinds whose ids to fold and the
#: first folded id (None: the recorded stream rebinds by itself), the
#: ``_rebound()`` sites guarding it: a ``RankReplayer`` method or the
#: generated body of an MPI function)
CASES = {
    "datatype": (datatype_program, ("MPI_Type_vector", "newtype"),
                 ("MPI_Sendrecv", "sendtype"), None,
                 ("MPI_Type_vector", "MPI_Type_free")),
    "group": (group_program, ("MPI_Group_incl", "newgroup"),
              ("MPI_Group_rank", "group"), None,
              ("MPI_Group_incl", "MPI_Group_free")),
    "split communicator": (comm_program, ("MPI_Comm_split", "newcomm"),
                           ("MPI_Barrier", "comm"),
                           ((F.K_COMM, F.K_NEWCOMM), 1), ("bind_comm",)),
    "window": (win_program, ("MPI_Win_create", "win"),
               ("MPI_Win_fence", "win"),
               ((F.K_WIN, F.K_NEWWIN), 0), ("bind_win",)),
    "idup delivered by its Wait": (idup_program, ("MPI_Wait", "request"),
                                   ("MPI_Barrier", "comm"), None, ()),
    "Win_allocate segment": (segment_program,
                             ("MPI_Win_allocate", "baseptr"),
                             ("MPI_Sendrecv", "sendbuf"), None,
                             # the window the call returns is bound next
                             ("_bind_allocated", "bind_win")),
}


class _Uses(TracerHooks):
    """Per rank: the live value every *user* call received, next to the
    one the latest *creator* call returned."""

    def __init__(self, creator, user):
        (self.creator, cpos), (self.user, upos) = (
            (fname, F.FUNCS[fname].pos[name]) for fname, name in
            (creator, user))
        self.cpos, self.upos = cpos, upos
        self.latest = {}
        self.pairs = []

    def on_call(self, rank, fname, values, t0, t1):
        if fname == self.creator:
            v = values[self.cpos]
            # an idup's communicator arrives in its completed request
            self.latest[rank] = getattr(v, "value", v)
        elif fname == self.user:
            self.pairs.append((values[self.upos], self.latest[rank]))

    def assert_every_use_got_the_latest(self):
        assert len(self.pairs) == 2 * ROUNDS
        for got, want in self.pairs:
            assert got is want or got == want and isinstance(got, int)


def fold_ids(stream: RankStream, kinds: tuple, first: int) -> RankStream:
    """*stream* as a tracer that re-hands freed ids of *kinds* would have
    recorded it: every id past *first* is *first* again."""
    table, terms, seen = {}, [], {}
    for call in stream:
        params = {
            p.name: min(call.params[p.name], first) if p.kind in kinds
            else call.params[p.name] for p in F.FUNCS[call.fname].params}
        term = seen.setdefault((call.fname, repr(params)), len(seen))
        table[term] = DecodedCall(call.rank, call.fname, params)
        terms.append(term)
    return RankStream(terms, table)


def replay_observed(name: str, blob: bytes) -> _Uses:
    _program, creator, user, fold, _sites = CASES[name]
    uses = _Uses(creator, user)
    if fold is None:
        replay_trace(blob, tracer=uses)
        return uses
    dec = TraceDecoder.from_bytes(blob)
    state = ReplayState(dec.nprocs)
    replayers = []
    for rank in range(dec.nprocs):
        stream = fold_ids(dec.rank_calls(rank), *fold)
        assert len(stream.table) < len(dec.rank_calls(rank).table)
        replayers.append(RankReplayer(rank, state, stream,
                                      strict_ids=False))
    run_replay(SimMPI(dec.nprocs, tracer=uses),
               lambda m: replayers[m.rank].program(m))
    return uses


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_rebound_symbol_reaches_the_simulator_live(name):
    program, _creator, (user, _name), fold, sites = CASES[name]
    blob = trace_of(2, program)
    replay_observed(name, blob).assert_every_use_got_the_latest()
    stream = TraceDecoder.from_bytes(blob).rank_calls(0)
    if fold is not None:
        stream = fold_ids(stream, *fold)
    # the point of the program: one terminal, called across a rebinding
    users = {term for term, call in stream.table.items()
             if call.fname == user}
    assert (len(users) < ROUNDS) == bool(sites)
    if fold is not None:
        return
    res = repro.replay(blob)
    assert not res.diverged, res.summary()
    rebinds = res.counters["replay.plan.rebinds"]
    assert rebinds >= 2 * ROUNDS if sites else rebinds == 0
    if name != "Win_allocate segment":
        assert structurally_equal(blob, retrace(blob))
    # (a replay re-issues no free(), so it cannot re-hand a segment id:
    # that program matches its record without being a fixed point — as
    # it did before anything was bound)


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][-1]))
def test_the_clearing_rule_is_what_keeps_it_live(name, monkeypatch):
    sites = CASES[name][-1]
    real = RankReplayer._rebound

    def rebound(self):
        code = sys._getframe(1).f_code
        # generated bodies are compiled as "<replay MPI_X>"
        if code.co_name not in sites and code.co_filename[8:-1] not in sites:
            real(self)

    monkeypatch.setattr(RankReplayer, "_rebound", rebound)
    blob = trace_of(2, CASES[name][0])
    with pytest.raises((AssertionError, ReplayFormatError)):
        replay_observed(name, blob).assert_every_use_got_the_latest()
