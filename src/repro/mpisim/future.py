"""The synchronisation primitive connecting rank coroutines to the scheduler.

A rank program is a Python generator.  Whenever it must block it yields a
:class:`Future`; the scheduler parks the rank until the future resolves and
then resumes the generator with the future's value.  Everything blocking in
the simulator — receives, waits, collectives — bottoms out in a future.
Resolution is the scheduler's (:meth:`Scheduler.resolve`): it owns the
ready queue the waiters go back to.
"""

from __future__ import annotations

from typing import Any, Callable

_UNSET = object()


class Future:
    """A one-shot resolvable value with waiters and callbacks."""

    __slots__ = ("_value", "waiters", "callbacks", "_desc")

    def __init__(self, desc: tuple = ("?",)):
        self._value: Any = _UNSET
        #: rank contexts parked on this future (managed by the scheduler)
        self.waiters: list = []
        #: callbacks fired on resolution, e.g. wait-any aggregation
        self.callbacks: list[Callable[["Future"], None]] = []
        #: ``(template, *args)`` of the description below: a future is
        #: made per blocking call, its text only read by a deadlock report
        self._desc = desc

    @property
    def desc(self) -> str:
        """Human-readable description, surfaced in deadlock reports."""
        return self._desc[0] % self._desc[1:]

    @property
    def done(self) -> bool:
        return self._value is not _UNSET

    @property
    def value(self) -> Any:
        assert self._value is not _UNSET, "future read before resolution"
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"pending({len(self.waiters)} waiters)"
        return f"<Future {self.desc} {state}>"
