"""Hierarchical span telemetry (the timeline companion to the registry).

A :class:`Span` is one timed region — name, scope, wall-clock start/end
in nanoseconds, free-form attributes, a parent id, and the OS process id
that recorded it.  A :class:`SpanRecorder` hands out spans as context
managers and keeps a stack so nested ``with`` blocks parent naturally::

    rec = SpanRecorder()
    with rec.span("finalize", scope="pilgrim"):
        with rec.span("cst_merge"):
            ...                       # -> child of "finalize"

Spans export as plain JSON-able dicts, the form the JSONL dump and the
Chrome trace exporter read back.  Timestamps use ``time.time_ns()``
(wall epoch) rather than a monotonic clock, so dumps recorded by
different processes share one timeline; each span carries its
recorder's process id, and exporters render one track per process.

Disabled mode is a null object: :data:`NULL_RECORDER` hands out a shared
inert block whose enter/exit do nothing, so instrumented code pays one
attribute check and no allocation when telemetry is off.
"""

from __future__ import annotations

import os
import time as _time
from typing import Any, Iterable, Optional

#: schema tag stamped on span JSONL dumps
SPAN_SCHEMA = "repro.spans/v1"


class Span:
    """One timed region of the run."""

    __slots__ = ("span_id", "parent_id", "name", "scope", "start_ns",
                 "end_ns", "pid", "attrs")

    def __init__(self, span_id: int, name: str, *,
                 parent_id: Optional[int] = None, scope: str = "",
                 start_ns: int = 0, end_ns: int = 0, pid: int = 0,
                 attrs: Optional[dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.scope = scope
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.pid = pid
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}

    @property
    def dur_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    @property
    def dur_s(self) -> float:
        return self.dur_ns / 1e9

    def to_dict(self) -> dict[str, Any]:
        """JSON-able record (``type: span``), the JSONL/transport form."""
        rec: dict[str, Any] = {
            "type": "span", "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "scope": self.scope, "start_ns": self.start_ns,
            "end_ns": self.end_ns, "pid": self.pid,
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec

    @classmethod
    def from_dict(cls, rec: dict[str, Any]) -> "Span":
        return cls(rec["span_id"], rec["name"],
                   parent_id=rec.get("parent_id"),
                   scope=rec.get("scope", ""),
                   start_ns=rec.get("start_ns", 0),
                   end_ns=rec.get("end_ns", 0),
                   pid=rec.get("pid", 0),
                   attrs=dict(rec.get("attrs", {})))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, dur={self.dur_ns}ns)")


class _SpanBlock:
    """Context manager for one recorded span."""

    __slots__ = ("_rec", "span")

    def __init__(self, rec: "SpanRecorder", span: Span):
        self._rec = rec
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self._rec._close(self.span)


class _NullSpanBlock:
    """Shared inert block for disabled recorders."""

    __slots__ = ("span",)

    def __init__(self) -> None:
        self.span = Span(0, "")

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_BLOCK = _NullSpanBlock()


class SpanRecorder:
    """Collects spans for one process, with a stack for nesting."""

    __slots__ = ("enabled", "pid", "spans", "_stack", "_next_id")

    def __init__(self, enabled: bool = True, pid: Optional[int] = None):
        self.enabled = enabled
        self.pid = pid if pid is not None else os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------------------

    @property
    def current_id(self) -> Optional[int]:
        """Id of the innermost open span (None at top level)."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, scope: str = "", **attrs: Any):
        """``with rec.span("cst_merge") as sp: ...`` — starts now, ends on
        exit, parented under the innermost open span."""
        if not self.enabled:
            return _NULL_BLOCK
        sp = Span(self._next_id, name, parent_id=self.current_id,
                  scope=scope, start_ns=_time.time_ns(), pid=self.pid,
                  attrs=attrs or None)
        self._next_id += 1
        self.spans.append(sp)
        self._stack.append(sp.span_id)
        return _SpanBlock(self, sp)

    def _close(self, sp: Span) -> None:
        sp.end_ns = _time.time_ns()
        # tolerate out-of-order exits: pop back to (and including) sp
        while self._stack:
            top = self._stack.pop()
            if top == sp.span_id:
                break

    def record(self, name: str, *, dur_s: float, scope: str = "",
               end_ns: Optional[int] = None,
               **attrs: Any) -> Optional[Span]:
        """Record a *synthetic* span for an externally measured duration
        (per-call accumulators folded at finalize).  It is anchored so it
        ends at *end_ns* (default: now) and parents under the innermost
        open span; ``attrs['synthetic']`` marks it for consumers."""
        if not self.enabled:
            return None
        end = _time.time_ns() if end_ns is None else end_ns
        attrs.setdefault("synthetic", True)
        sp = Span(self._next_id, name, parent_id=self.current_id,
                  scope=scope, start_ns=end - max(0, int(dur_s * 1e9)),
                  end_ns=end, pid=self.pid, attrs=attrs)
        self._next_id += 1
        self.spans.append(sp)
        return sp

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def export(self) -> list[dict[str, Any]]:
        """All spans as JSON-able dicts, recording order."""
        return [sp.to_dict() for sp in self.spans]


#: shared always-disabled recorder (the default everywhere)
NULL_RECORDER = SpanRecorder(enabled=False)


# -- trees ---------------------------------------------------------------------------


def build_span_tree(spans: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Nest exported span dicts into a forest.

    Returns a list of root nodes ``{"span": <dict>, "children": [...]}``,
    children ordered by start time.  Spans whose parent id is unknown
    (e.g. the parent was evicted or the dump was filtered) become roots,
    so a partial dump still renders.
    """
    nodes: dict[int, dict[str, Any]] = {}
    order: list[dict[str, Any]] = []
    for rec in spans:
        node = {"span": rec, "children": []}
        nodes[rec["span_id"]] = node
        order.append(node)
    roots: list[dict[str, Any]] = []
    for node in order:
        pid = node["span"].get("parent_id")
        parent = nodes.get(pid) if pid is not None else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def _start(n: dict[str, Any]) -> int:
        return n["span"].get("start_ns", 0)
    for node in order:
        node["children"].sort(key=_start)
    roots.sort(key=_start)
    return roots


def span_self_ns(node: dict[str, Any]) -> int:
    """Self time of a tree node: own duration minus direct children's."""
    rec = node["span"]
    dur = max(0, rec.get("end_ns", 0) - rec.get("start_ns", 0))
    child = sum(max(0, c["span"].get("end_ns", 0)
                    - c["span"].get("start_ns", 0))
                for c in node["children"])
    return max(0, dur - child)
