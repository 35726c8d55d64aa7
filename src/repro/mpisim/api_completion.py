"""Completion operations: the MPI_Wait* and MPI_Test* families.

These are the calls the paper singles out in its introduction: a tracer
that drops ``MPI_Testsome`` (as ScalaTrace and Cypress do) cannot recover
the true completion order of non-blocking communication.  The simulator
therefore implements the full family with faithful semantics:

* null / already-consumed / inactive-persistent entries behave like
  ``MPI_REQUEST_NULL`` (empty status, never block);
* ``Waitany``/``Waitsome``/``Testany`` pick among *currently completed*
  requests using the runtime RNG, modelling network completion-order
  non-determinism (this is what exercises Pilgrim's per-signature request
  id pools, §3.4.3);
* ``Testall`` with an incomplete set consumes nothing, per the standard;
* every ``Test*`` call cooperatively yields to the scheduler so that spin
  loops make global progress, standing in for MPI's progress engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import constants as C
from .api_base import ApiBase
from .future import _UNSET, Future
from .request import Request
from .status import EMPTY, Status


class ApiCompletion(ApiBase):
    """Wait/Test mixin."""

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _target(req: Optional[Request]) -> Optional[Request]:
        """The operation a completion call acts on for one array entry;
        None where the entry behaves like ``MPI_REQUEST_NULL`` (absent,
        consumed, freed, or an inactive persistent request) and completes
        immediately with an empty status.  Only the owner's own calls
        change the answer, so a call classifies each entry once."""
        if req is None or req.consumed or req.freed:
            return None
        return req.current if req.persistent else req

    def _consume(self, req: Request, target: Request) -> Status:
        """Extract the status of a completed request and deactivate it."""
        if req.persistent:
            req.current = None
            req.active = False
        else:
            req.consumed = True
        if target.complete_time > self.clock.now:
            self.clock.now = target.complete_time
        return target.status

    def _wait_any_future(self, targets: list[Request]) -> Future:
        """A future resolved as soon as any of *targets* (all pending)
        completes; it then takes its callback back off the others, so a
        request that outlives many blocked calls carries none of them."""
        agg = Future(("wait-any(%s reqs) rank=%s", len(targets), self.rank))
        sched = self._sched

        def on_done(fut):
            if agg._value is _UNSET:
                for target in targets:
                    if target is not fut:
                        target.callbacks.remove(on_done)
                sched.resolve(agg, None)

        for target in targets:
            target.callbacks.append(on_done)
        return agg

    # -- wait family --------------------------------------------------------------

    def wait(self, request: Optional[Request], status=True):
        t0 = self.clock.now
        self.clock.now = t0 + self._overhead
        self._ctx.last_call = "MPI_Wait"
        target = self._target(request)
        if target is None:
            st = Status(*EMPTY)
        else:
            if target._value is _UNSET:
                yield target
            st = self._consume(request, target)
        out_st = st if status is not None else None
        self._rec("MPI_Wait", t0, (request, out_st))
        return out_st

    def waitall(self, array_of_requests: Sequence[Optional[Request]],
                array_of_statuses=True):
        clock = self.clock
        t0 = clock.now
        clock.now = t0 + self._overhead
        self._ctx.last_call = "MPI_Waitall"
        reqs = list(array_of_requests)
        sts = []
        # one pass, _target and _consume spelled out: an entry is
        # classified, waited for and consumed before the next is looked at
        # (so one listed twice reads as null the second time)
        for req in reqs:
            if req is None or req.consumed or req.freed:
                target = None
            else:
                target = req.current if req.persistent else req
            if target is None:
                sts.append(Status(*EMPTY))
                continue
            if target._value is _UNSET:
                yield target
            if req.persistent:
                req.current = None
                req.active = False
            else:
                req.consumed = True
            if target.complete_time > clock.now:
                clock.now = target.complete_time
            sts.append(target.status)
        out = sts if array_of_statuses is not None else None
        self._rec("MPI_Waitall", t0, (len(reqs), reqs, out))
        return out

    def waitany(self, array_of_requests: Sequence[Optional[Request]],
                status=True, *, directed_index: Optional[int] = None):
        """Returns ``(index, status)``; index is UNDEFINED if all null.

        ``directed_index`` (replay support): complete exactly that entry —
        a legal Waitany outcome — instead of an RNG pick."""
        t0 = self._tick()
        self._ctx.last_call = "MPI_Waitany"
        reqs = list(array_of_requests)
        targets = [self._target(r) for r in reqs]
        if directed_index is not None and directed_index >= 0 \
                and targets[directed_index] is not None:
            live = [directed_index]
            if targets[directed_index]._value is _UNSET:
                yield targets[directed_index]
        else:
            live = [i for i, t in enumerate(targets) if t is not None]
        while live:
            done = [i for i in live if targets[i]._value is not _UNSET]
            if done:
                idx = done[self.rt.rng.randrange(len(done))] \
                    if len(done) > 1 else done[0]
                st = self._consume(reqs[idx], targets[idx])
                out_st = st if status is not None else None
                self._rec("MPI_Waitany", t0, (len(reqs), reqs, idx, out_st))
                return idx, out_st
            yield self._wait_any_future([targets[i] for i in live])
        st = Status(*EMPTY) if status is not None else None
        self._rec("MPI_Waitany", t0, (len(reqs), reqs, C.UNDEFINED, st))
        return C.UNDEFINED, st

    def _rec_some(self, fname: str, t0: float, reqs: list, indices,
                  sts: list, array_of_statuses):
        """Record a Waitsome/Testsome that completed *indices*, in that
        order; returns what the call returns."""
        out = sts if array_of_statuses is not None else None
        self._rec(fname, t0, (
            len(reqs), reqs, len(indices), list(indices), out))
        return list(indices), out

    def waitsome(self, array_of_requests: Sequence[Optional[Request]],
                 array_of_statuses=True,
                 *, directed_indices: Optional[Sequence[int]] = None):
        """Returns ``(indices, statuses)``; indices is None if all null
        (MPI returns outcount=MPI_UNDEFINED in that case).

        ``directed_indices`` (replay support): complete exactly those
        entries, in that order."""
        t0 = self._tick()
        self._ctx.last_call = "MPI_Waitsome"
        reqs = list(array_of_requests)
        if directed_indices is not None:
            sts = []
            for idx in directed_indices:
                target = reqs[idx].wait_target()
                if target._value is _UNSET:
                    yield target
                sts.append(self._consume(reqs[idx], target))
            return self._rec_some("MPI_Waitsome", t0, reqs, directed_indices,
                                  sts, array_of_statuses)
        targets = [self._target(r) for r in reqs]
        live = [i for i, t in enumerate(targets) if t is not None]
        while live:
            done = [i for i in live if targets[i]._value is not _UNSET]
            if done:
                # Completion order is non-deterministic: report completed
                # entries in a seeded-random order, as a real NIC would.
                self.rt.rng.shuffle(done)
                sts = [self._consume(reqs[i], targets[i]) for i in done]
                return self._rec_some("MPI_Waitsome", t0, reqs, done, sts,
                                      array_of_statuses)
            yield self._wait_any_future([targets[i] for i in live])
        self._rec("MPI_Waitsome", t0, (
            len(reqs), reqs, C.UNDEFINED, None, None))
        return None, None

    # -- test family -----------------------------------------------------------------

    def test(self, request: Optional[Request], status=True, *,
             directed_flag: Optional[bool] = None):
        t0 = self._tick()
        yield None  # cooperative progress
        if directed_flag is False:
            self._rec("MPI_Test", t0, (request, False, None))
            return False, None
        target = self._target(request)
        if target is None:
            flag, st = True, Status(*EMPTY)
        else:
            if directed_flag is True and target._value is _UNSET:
                yield target
            if target._value is not _UNSET:
                flag, st = True, self._consume(request, target)
            else:
                flag, st = False, None
        out_st = st if status is not None else None
        self._rec("MPI_Test", t0, (request, flag, out_st))
        return flag, out_st

    def testall(self, array_of_requests: Sequence[Optional[Request]],
                array_of_statuses=True,
                *, directed_flag: Optional[bool] = None):
        t0 = self._tick()
        yield None
        reqs = list(array_of_requests)
        if directed_flag is not False:
            targets = [self._target(r) for r in reqs]
            if directed_flag is True:
                for target in targets:
                    if target is not None and target._value is _UNSET:
                        yield target
            if all(t is None or t._value is not _UNSET for t in targets):
                # classified again as each is consumed: an entry listed
                # twice reads as null the second time
                sts = [Status(*EMPTY) if (t := self._target(r)) is None
                       else self._consume(r, t) for r in reqs]
                out = sts if array_of_statuses is not None else None
                self._rec("MPI_Testall", t0, (len(reqs), reqs, True, out))
                return True, out
        self._rec("MPI_Testall", t0, (len(reqs), reqs, False, None))
        return False, None

    def testany(self, array_of_requests: Sequence[Optional[Request]],
                status=True, *, directed_index: Optional[int] = None,
                directed_flag: Optional[bool] = None):
        t0 = self._tick()
        yield None
        reqs = list(array_of_requests)
        flag, idx, st = False, C.UNDEFINED, None
        if directed_flag is not False:
            targets = [self._target(r) for r in reqs]
            if directed_index is not None and directed_index >= 0 \
                    and targets[directed_index] is not None:
                done = [directed_index]
                if targets[directed_index]._value is _UNSET:
                    yield targets[directed_index]
            else:
                done = [i for i, t in enumerate(targets)
                        if t is not None and t._value is not _UNSET]
            if done:
                idx = done[self.rt.rng.randrange(len(done))] \
                    if len(done) > 1 else done[0]
                flag, st = True, self._consume(reqs[idx], targets[idx])
            elif not any(targets):  # all null
                flag, st = True, Status(*EMPTY)
        out_st = st if status is not None else None
        self._rec("MPI_Testany", t0, (len(reqs), reqs, idx, flag, out_st))
        return flag, idx, out_st

    def testsome(self, array_of_requests: Sequence[Optional[Request]],
                 array_of_statuses=True,
                 *, directed_indices: Optional[Sequence[int]] = None):
        t0 = self._tick()
        yield None
        reqs = list(array_of_requests)
        if directed_indices is not None:
            sts = []
            for idx in directed_indices:
                target = reqs[idx].wait_target()
                if target._value is _UNSET:
                    yield target
                sts.append(self._consume(reqs[idx], target))
            return self._rec_some("MPI_Testsome", t0, reqs, directed_indices,
                                  sts, array_of_statuses)
        targets = [self._target(r) for r in reqs]
        if not any(targets):  # all null
            self._rec("MPI_Testsome", t0, (
                len(reqs), reqs, C.UNDEFINED, None, None))
            return None, None
        done = [i for i, t in enumerate(targets)
                if t is not None and t._value is not _UNSET]
        self.rt.rng.shuffle(done)
        sts = [self._consume(reqs[i], targets[i]) for i in done]
        return self._rec_some("MPI_Testsome", t0, reqs, done, sts,
                              array_of_statuses)
