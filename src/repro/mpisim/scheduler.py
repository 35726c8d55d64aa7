"""Cooperative rank scheduler.

Every simulated rank is a Python generator.  The scheduler drives runnable
ranks round-robin; a rank that must block yields a
:class:`~repro.mpisim.future.Future` and is parked until some other rank's
progress resolves it.  All blocking therefore reduces to explicit dataflow,
which gives us exact deadlock detection for free: if the ready queue drains
while ranks remain unfinished, the program is deadlocked and we can report
precisely which operation each rank is stuck in.

The design scales to tens of thousands of ranks (a generator is ~200 bytes)
— this is what lets the MILC experiment (Fig 9) run at paper-like process
counts where one OS thread per rank would be infeasible.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from .clock import RankClock
from .errors import DeadlockError, RankProgramError
from .future import _UNSET, Future

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import EventLog

#: emit one ``sched.progress`` event every this many resume steps when an
#: event log is attached (coarse enough to stay cheap on million-step runs)
PROGRESS_SAMPLE = 8192


class RankContext:
    """Execution state of one simulated rank."""

    __slots__ = ("rank", "gen", "finished", "clock", "waiting_on",
                 "last_call")

    def __init__(self, rank: int, gen: Generator, clock: RankClock):
        self.rank = rank
        self.gen = gen
        self.finished = False
        self.clock = clock
        self.waiting_on: Optional[Future] = None
        #: the MPI call this rank last entered or completed (diagnostics,
        #: read through :func:`call_name`): a function name, or the bare
        #: operation a collective rendezvous parked the rank under
        self.last_call: Optional[str] = None


def call_name(mark: str) -> str:
    """The MPI function a ``RankContext.last_call`` mark stands for."""
    return mark if mark.startswith("MPI_") else f"MPI_{mark.capitalize()}"


class Scheduler:
    """Round-robin driver over rank generators.

    ``faults`` (an armed :class:`~repro.resilience.faults.FaultInjector`
    with scheduler-site specs) perturbs scheduling deterministically: a
    ``delay`` fault requeues the picked rank at the tail of the ready
    queue instead of resuming it, and a ``drop`` fault suppresses the
    next runtime-event emission.  Neither touches rank state, so on
    workloads whose semantics don't depend on completion order (no
    wildcard receives / Waitany) the produced trace stays byte-identical
    — exactly the property the chaos tests pin down.  With ``faults``
    unset the main loop is unchanged.
    """

    def __init__(self, spin_limit: int = 2_000_000,
                 events: Optional["EventLog"] = None,
                 faults=None) -> None:
        self._ready: deque[tuple[RankContext, object]] = deque()
        self.contexts: list[RankContext] = []
        #: total number of scheduler resume steps (a cheap progress metric)
        self.steps = 0
        #: steps at the time of the last future resolution; used to detect
        #: livelock (Test* spin loops that can never be satisfied)
        self._last_progress = 0
        self._spin_limit = spin_limit
        #: optional runtime event log (None => zero event overhead)
        self.events = events if events is not None and events.enabled \
            else None
        #: optional fault injector (None => no per-step check at all)
        self.faults = faults
        self._drop_events = 0

    # -- wiring ----------------------------------------------------------------

    def add_rank(self, ctx: RankContext) -> None:
        self.contexts.append(ctx)
        self._ready.append((ctx, None))

    def resolve(self, future: Future, value=None) -> None:
        """Resolve a future: fire its callbacks, then make its waiters
        runnable (in that order — a callback may wake a wait-any)."""
        assert future._value is _UNSET, \
            f"double resolve of future {future.desc}"
        self._last_progress = self.steps
        future._value = value
        callbacks = future.callbacks
        if callbacks:
            future.callbacks = []
            for cb in callbacks:
                cb(future)
        waiters = future.waiters
        if waiters:
            future.waiters = []
            for ctx in waiters:
                ctx.waiting_on = None
                self._ready.append((ctx, value))

    def complete_request(self, req, status, when: float, value=None) -> None:
        """Complete a request at virtual time *when* and wake its waiters."""
        req.status = status
        req.complete_time = when
        req.active = False
        self.resolve(req, value)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> None:
        """Run until every rank finishes; raise on deadlock or rank error."""
        ready = self._ready
        events = self.events
        faults = self.faults
        while ready:
            ctx, value = ready.popleft()
            if faults is not None:
                action = faults.sched_action(ctx.rank)
                if action == "delay":
                    # skip this rank's turn: every other runnable rank
                    # goes first (fault specs are bounded, so a delayed
                    # sole survivor always gets rescheduled eventually)
                    ready.append((ctx, value))
                    continue
                if action == "drop":
                    self._drop_events += 1
            self._drive(ctx, value)
            if events is not None and self.steps % PROGRESS_SAMPLE < 1:
                if self._drop_events:
                    self._drop_events -= 1
                else:
                    events.emit(
                        "sched.progress", steps=self.steps,
                        ready=len(ready),
                        finished=sum(c.finished for c in self.contexts))
            if self.steps - self._last_progress > self._spin_limit:
                raise self._spin_deadlock()
        unfinished = [c for c in self.contexts if not c.finished]
        if unfinished:
            blocked = {}
            for c in unfinished:
                desc = (c.waiting_on.desc if c.waiting_on is not None
                        else "<not scheduled>")
                if c.last_call is not None:
                    desc += f" (last MPI call: {call_name(c.last_call)})"
                blocked[c.rank] = desc
            if events is not None:
                events.emit("sched.deadlock", blocked=dict(blocked),
                            steps=self.steps)
            raise DeadlockError(blocked)

    def _spin_deadlock(self) -> DeadlockError:
        """Build the livelock diagnostic: which ranks are spinning and in
        which MPI call each is parked (per-rank call trail + event log)."""
        blocked = {}
        for c in self.contexts:
            if c.finished:
                continue
            where = call_name(c.last_call) if c.last_call \
                else "<no MPI call recorded>"
            if c.waiting_on is not None:
                blocked[c.rank] = (f"{c.waiting_on.desc} "
                                   f"(last MPI call: {where})")
            else:
                blocked[c.rank] = (
                    f"Test*/Iprobe spin loop (livelock) parked in {where}; "
                    f"no progress for {self._spin_limit} steps")
        if self.events is not None:
            self.events.emit(
                "sched.spin_limit", steps=self.steps,
                spin_limit=self._spin_limit,
                blocked={r: d for r, d in blocked.items()})
        return DeadlockError(blocked)

    def _drive(self, ctx: RankContext, value) -> None:
        """Resume one rank, fast-pathing through already-resolved futures."""
        gen = ctx.gen
        while True:
            self.steps += 1
            try:
                fut = gen.send(value)
            except StopIteration:
                ctx.finished = True
                self._last_progress = self.steps
                if self.events is not None:
                    self.events.emit("sched.rank_done", rank=ctx.rank,
                                     steps=self.steps, vtime=ctx.clock.now)
                return
            except DeadlockError:
                raise
            except RankProgramError:
                raise
            except Exception as exc:  # surface with rank context
                raise RankProgramError(ctx.rank, exc) from exc
            if fut is None:
                # Cooperative yield (Test*/Iprobe spin loops): requeue at
                # the tail so every other runnable rank gets a turn first.
                self._ready.append((ctx, None))
                return
            value = fut._value
            if value is not _UNSET:
                continue
            fut.waiters.append(ctx)
            ctx.waiting_on = fut
            return
