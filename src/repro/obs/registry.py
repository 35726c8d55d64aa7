"""Process-wide metrics registry (counters, gauges, timers).

This is the reproduction's self-instrumentation substrate — the analogue
of the counters the real Pilgrim authors read off their cluster runs to
produce the Fig 7/8 overhead decomposition.  Everything is dependency-free
and deterministic: a snapshot is a plain dict with sorted keys, so two
snapshots of the same state compare equal and serialize identically.

Instruments:

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge`   — last-write-wins scalar (trace size, rank count, ...).
* :class:`Timer`   — accumulated wall seconds + call count, fed by
  :meth:`Timer.add` from code that takes its own timestamps.

A registry built with ``enabled=False`` hands out *null* instruments whose
mutators are no-ops; hot paths can additionally guard on
``registry.enabled`` to skip even the call.  :data:`NULL_REGISTRY` is the
shared disabled instance used as the default everywhere so that attaching
observability is always opt-in.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def record(self) -> dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def record(self) -> dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self.value}


class Timer:
    """Accumulated wall seconds + count."""

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        self.total += seconds
        self.count += count

    def record(self) -> dict[str, Any]:
        return {"type": "timer", "name": self.name,
                "count": self.count, "seconds": self.total}


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullTimer(Timer):
    __slots__ = ()

    def add(self, seconds: float, count: int = 1) -> None:
        pass


class MetricsRegistry:
    """Named instruments under one namespace.

    Instruments are created on first use and returned by name thereafter
    (get-or-create), so callers never need to coordinate construction.
    Asking a name to be two different instrument kinds is an error.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Any] = {}
        self._null_counter = _NullCounter("")
        self._null_gauge = _NullGauge("")
        self._null_timer = _NullTimer("")

    # -- instrument factories ------------------------------------------------------

    def _get(self, name: str, cls, factory):
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return self._null_counter
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        return self._get(name, Gauge, lambda: Gauge(name))

    def timer(self, name: str) -> Timer:
        if not self.enabled:
            return self._null_timer
        return self._get(name, Timer, lambda: Timer(name))

    def scope(self, prefix: str) -> "Scope":
        return Scope(self, prefix)

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def records(self) -> list[dict[str, Any]]:
        """One JSON-able dict per instrument, sorted by name."""
        return [self._instruments[n].record() for n in self.names()]

    def snapshot(self) -> dict[str, Any]:
        """Deterministic nested view: kind -> name -> state."""
        snap: dict[str, dict[str, Any]] = {
            "counters": {}, "gauges": {}, "timers": {}}
        for rec in self.records():
            kind = rec.pop("type")
            name = rec.pop("name")
            snap[kind + "s"][name] = rec if len(rec) > 1 else rec["value"]
        return snap


class Scope:
    """A name-prefixing view of a registry (``scope.counter("x")`` creates
    ``"<prefix>.x"``).  Scopes nest: ``scope.scope("y")``."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self.prefix = prefix

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self.prefix}.{name}")

    def timer(self, name: str) -> Timer:
        return self._registry.timer(f"{self.prefix}.{name}")

    def scope(self, prefix: str) -> "Scope":
        return Scope(self._registry, f"{self.prefix}.{prefix}")


#: shared always-disabled registry; the default wherever observability is
#: optional, so the un-instrumented path stays allocation-free
NULL_REGISTRY = MetricsRegistry(enabled=False)

SCHEMA = "repro.obs/v1"


def write_metrics_jsonl(path: str, registry: MetricsRegistry, *,
                        meta: Optional[dict[str, Any]] = None,
                        events: Optional[Iterable[dict[str, Any]]] = None,
                        spans: Optional[Iterable[dict[str, Any]]] = None
                        ) -> int:
    """Dump a registry snapshot (+ optional event and span records) as
    JSON lines.

    Line 1 is a ``{"type": "meta", "schema": ...}`` header; every further
    line is one instrument, event, or span record.  Returns the line
    count.
    """
    lines = [{"type": "meta", "schema": SCHEMA, **(meta or {})}]
    lines.extend(registry.records())
    if events is not None:
        lines.extend(events)
    if spans is not None:
        lines.extend(spans)
    with open(path, "w") as fh:
        for rec in lines:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(lines)


def read_metrics_jsonl(path: str) -> list[dict[str, Any]]:
    """Read back a metrics/events JSONL file (skipping blank lines)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
