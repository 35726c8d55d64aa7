"""One-sided (RMA) operations mixin.

Covers the window lifecycle and the core RMA surface: ``Win_create``,
``Win_allocate``, ``Win_free``, ``Win_fence``, ``Put``, ``Get``,
``Accumulate``, ``Win_lock``/``Win_unlock``, ``Win_set_name``.
"""

from __future__ import annotations

from typing import Any, Optional

from . import constants as C
from . import datatypes as dt
from .api_base import ApiBase
from .comm import Comm
from .errors import InvalidArgumentError
from .future import Future
from .ops import Op
from .win import LOCK_EXCLUSIVE, LOCK_SHARED, Win


def _c_win_create(g, c, rt):
    bases, sizes, units = {}, {}, {}
    for i, w in enumerate(c.group.ranks):
        bases[i], sizes[i], units[i] = g.arrived[w][0]
    win = Win(rt.next_win_id(), c, bases, sizes, units)
    win.sync_comm = rt.make_comm(type(c.group)(c.group.ranks),
                                 name=f"{win.name}-sync")
    return {w: win for w in g.arrived}


def _c_win_fence(g, c, win: Win):
    win.apply_effects()
    win.fence_count += 1


class ApiRMA(ApiBase):
    """RMA mixin."""

    # -- lifecycle ----------------------------------------------------------------

    def win_create(self, base: int, size: int, disp_unit: int = 1,
                   comm: Optional[Comm] = None):
        """Collective window creation over *comm*."""
        comm = comm or self.world
        if size < 0 or disp_unit <= 0:
            raise InvalidArgumentError("bad win size/disp_unit")
        t0 = self._tick()
        win = yield self._coll("win_create", comm, (base, size, disp_unit), 0,
                               _c_win_create, None, (self.rt,))
        self._rec("MPI_Win_create", t0, (base, size, disp_unit, comm, win))
        return win

    def win_allocate(self, size: int, disp_unit: int = 1,
                     comm: Optional[Comm] = None):
        """Collective allocate-and-expose: the simulator mallocs the
        backing buffer (intercepted) and creates the window."""
        comm = comm or self.world
        base = self.malloc(max(size, 1))
        t0 = self._tick()
        win = yield self._coll("win_create", comm, (base, size, disp_unit), 0,
                               _c_win_create, None, (self.rt,))
        self._rec("MPI_Win_allocate", t0, (size, disp_unit, comm, base, win))
        return base, win

    def win_free(self, win: Win):
        """Collective window destruction (synchronising, per standard)."""
        win.check_usable()
        t0 = self._tick()
        yield self._coll("win_free", win.sync_comm, None, 0, None)
        win.freed = True
        self._rec("MPI_Win_free", t0, (win,))

    def win_set_name(self, win: Win, win_name: str) -> None:
        win.check_usable()
        t0 = self._tick()
        win.name = win_name[:C.MAX_OBJECT_NAME]
        self._rec("MPI_Win_set_name", t0, (win, win_name))

    # -- active target synchronisation -----------------------------------------------

    def win_fence(self, win: Win, assert_: int = 0):
        """Collective fence: closes the current epoch (queued RMA effects
        land in window memory) and opens the next."""
        if win.freed:
            win.check_usable()
        t0 = self._tick()
        yield self._coll("win_fence", win.sync_comm, None, 0, _c_win_fence,
                         ("win_fence", win.wid), (win,))
        self._rec("MPI_Win_fence", t0, (assert_, win))

    # -- RMA operations ---------------------------------------------------------------

    def _rma_common(self, win: Win, target_rank: int, target_count: int,
                    target_datatype: dt.Datatype) -> int:
        """Validate an RMA call (helpers as the failure branch, in the
        order they have always run); returns the bytes it moves."""
        if win.freed:
            win.check_usable()
        if target_rank not in win.bases:
            win.check_target(target_rank)
        if target_datatype.freed or not target_datatype.committed:
            target_datatype.check_usable()
        return target_count * target_datatype.size

    def _queue_effect(self, win: Win, op: str, target_rank: int,
                      target_disp: int, nbytes: int, data: Any) -> None:
        """Charge the injection cost of a Put/Accumulate and queue its
        effect for the closing synchronisation."""
        net = self._net  # NetworkModel.send_overhead, in line
        cost = net.overhead + net.beta * min(max(nbytes, 0), 8192)
        if cost > 0:
            self.clock.now += cost
        win.queue_effect(target_rank, (self._views[win.comm].rank, op,
                                       target_disp, data))

    def put(self, origin_addr: int, origin_count: int,
            origin_datatype: dt.Datatype, target_rank: int,
            target_disp: int, target_count: int,
            target_datatype: dt.Datatype, win: Win,
            data: Any = None) -> None:
        nbytes = self._rma_common(win, target_rank, target_count,
                                  target_datatype)
        t0 = self._tick()
        self._queue_effect(win, "put", target_rank, target_disp, nbytes, data)
        self._rec("MPI_Put", t0, (
            origin_addr, origin_count, origin_datatype, target_rank,
            target_disp, target_count, target_datatype, win))

    def get(self, origin_addr: int, origin_count: int,
            origin_datatype: dt.Datatype, target_rank: int,
            target_disp: int, target_count: int,
            target_datatype: dt.Datatype, win: Win) -> Any:
        """Returns the target's value at that displacement as of the last
        closed epoch (None for metadata-only windows)."""
        nbytes = self._rma_common(win, target_rank, target_count,
                                  target_datatype)
        t0 = self._tick()
        net = self._net  # NetworkModel.p2p_time, in line
        cost = net.alpha + net.beta * max(nbytes, 0)
        if cost > 0:
            self.clock.now += cost
        value = win.memory[target_rank].get(target_disp)
        self._rec("MPI_Get", t0, (
            origin_addr, origin_count, origin_datatype, target_rank,
            target_disp, target_count, target_datatype, win))
        return value

    def accumulate(self, origin_addr: int, origin_count: int,
                   origin_datatype: dt.Datatype, target_rank: int,
                   target_disp: int, target_count: int,
                   target_datatype: dt.Datatype, op: Op, win: Win,
                   data: Any = None) -> None:
        nbytes = self._rma_common(win, target_rank, target_count,
                                  target_datatype)
        t0 = self._tick()
        self._queue_effect(win, "acc", target_rank, target_disp, nbytes, data)
        self._rec("MPI_Accumulate", t0, (
            origin_addr, origin_count, origin_datatype, target_rank,
            target_disp, target_count, target_datatype, op, win))

    # -- passive target synchronisation ------------------------------------------------

    def win_lock(self, lock_type: int, rank: int, win: Win,
                 assert_: int = 0):
        """Acquire a shared/exclusive lock on rank *rank*'s window
        portion; blocks while an incompatible holder exists."""
        win.check_usable()
        win.check_target(rank)
        if lock_type not in (LOCK_EXCLUSIVE, LOCK_SHARED):
            raise InvalidArgumentError(f"bad lock type {lock_type}")
        t0 = self._tick()
        st = win.lock_state(rank)
        me = self.rank
        while True:
            holders, mode = st["holders"], st["mode"]
            compatible = (not holders) or (
                mode == LOCK_SHARED and lock_type == LOCK_SHARED)
            if compatible:
                st["holders"].add(me)
                st["mode"] = lock_type
                break
            fut = Future(("win_lock(%s,target=%s) rank=%s", win.name,
                          rank, me))
            st["waiters"].append(fut)
            yield fut
        self._rec("MPI_Win_lock", t0, (lock_type, rank, assert_, win))

    def win_unlock(self, rank: int, win: Win) -> None:
        """Release the lock; queued effects on that target land now."""
        win.check_usable()
        t0 = self._tick()
        st = win.lock_state(rank)
        if self.rank not in st["holders"]:
            raise InvalidArgumentError(
                f"rank {self.rank} does not hold the lock on "
                f"{win.name}[{rank}]")
        win.apply_effects(rank)
        st["holders"].discard(self.rank)
        if not st["holders"]:
            st["mode"] = 0
            while st["waiters"]:
                self._sched.resolve(st["waiters"].popleft(), None)
        self._rec("MPI_Win_unlock", t0, (rank, win))
