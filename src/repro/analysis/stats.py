"""Aggregation and rendering of ``repro.obs`` metrics/event JSONL dumps.

``repro trace --metrics out.jsonl`` writes one instrument or event record
per line (see :mod:`repro.obs.registry`); this module turns such a file
back into tables — most importantly the Fig 8-style *overhead
decomposition*: for each tracer scope found (``pilgrim``,
``scalatrace``), the per-phase wall seconds and their share of the
phase sum, which is the tracer's measured overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .report import fmt_count, fmt_time, print_table


@dataclass
class MetricsSummary:
    """Structured view of one metrics/events JSONL file."""

    meta: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> {"count", "seconds"}
    timers: dict[str, dict[str, Any]] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    #: raw span records (``type: span``), in file order — render with
    #: :func:`render_spans`
    spans: list[dict[str, Any]] = field(default_factory=list)

    @property
    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            k = e.get("kind", "?")
            counts[k] = counts.get(k, 0) + 1
        return counts

    def scopes(self) -> list[str]:
        """Tracer scopes that published a phase decomposition."""
        found = set()
        for name in self.timers:
            head, _, rest = name.partition(".")
            if rest.startswith("phase."):
                found.add(head)
        return sorted(found)

    def phase_table(self, scope: str) -> list[tuple[str, float, int, float]]:
        """``(phase, wall seconds, count, share)`` rows for one tracer
        scope, largest first; the share denominator is the phase sum."""
        prefix = f"{scope}.phase."
        rows = [(name[len(prefix):], t["seconds"], t["count"])
                for name, t in self.timers.items() if name.startswith(prefix)]
        denom = sum(r[1] for r in rows) or 1.0
        rows.sort(key=lambda r: -r[1])
        return [(name, secs, count, secs / denom)
                for name, secs, count in rows]

    def as_dict(self) -> dict[str, Any]:
        """JSON-able aggregate (the ``repro stats --json`` payload)."""
        return {
            "meta": self.meta,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": dict(sorted(self.timers.items())),
            "event_counts": dict(sorted(self.event_counts.items())),
            "n_events": len(self.events),
            "n_spans": len(self.spans),
            "decomposition": {
                scope: [{"phase": p, "seconds": s, "count": c, "share": sh}
                        for p, s, c, sh in self.phase_table(scope)]
                for scope in self.scopes()},
        }


def summarize_metrics(records: list[dict[str, Any]]) -> MetricsSummary:
    """Fold raw JSONL records (dicts with a ``type`` field) into a
    :class:`MetricsSummary`.  Repeated metric names accumulate, so
    snapshots from several runs can be concatenated into one file."""
    s = MetricsSummary()
    for rec in records:
        kind = rec.get("type")
        if kind == "meta":
            meta = {k: v for k, v in rec.items() if k != "type"}
            s.meta.update(meta)
        elif kind == "counter":
            s.counters[rec["name"]] = \
                s.counters.get(rec["name"], 0) + rec["value"]
        elif kind == "gauge":
            s.gauges[rec["name"]] = rec["value"]
        elif kind == "timer":
            t = s.timers.setdefault(rec["name"],
                                    {"count": 0, "seconds": 0.0})
            t["count"] += rec["count"]
            t["seconds"] += rec["seconds"]
        elif kind == "event":
            s.events.append({k: v for k, v in rec.items() if k != "type"})
        elif kind == "span":
            s.spans.append(rec)
        # unknown types are ignored: forward compatibility
    return s


def render_spans(spans: list[dict[str, Any]]) -> None:
    """Render span records as an indented tree with total and *self*
    wall time per span (the ``repro stats --spans`` view).  A span
    recorded by another process than the first root's is tagged with
    its pid."""
    from ..obs import build_span_tree, span_self_ns
    if not spans:
        print("no span records found (trace with --metrics, or pass a "
              "--spans JSONL dump)")
        return
    roots = build_span_tree(spans)
    parent_pid = roots[0]["span"].get("pid", 0) if roots else 0
    rows: list[tuple[str, str, str, str, str]] = []

    def walk(node: dict[str, Any], depth: int) -> None:
        rec = node["span"]
        dur_s = max(0, rec.get("end_ns", 0) - rec.get("start_ns", 0)) / 1e9
        attrs = rec.get("attrs", {})
        tags = []
        if rec.get("pid") != parent_pid:
            tags.append(f"pid {rec.get('pid')}")
        if attrs.get("synthetic"):
            tags.append("synthetic")
        rows.append(("  " * depth + rec.get("name", "?"),
                     fmt_time(dur_s), fmt_time(span_self_ns(node) / 1e9),
                     fmt_count(len(node["children"])), ", ".join(tags)))
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    print_table(f"span tree ({len(spans)} spans)",
                ["span", "total", "self", "children", "notes"], rows)


def load_stats(path: str) -> MetricsSummary:
    from ..obs import read_metrics_jsonl
    return summarize_metrics(read_metrics_jsonl(path))


def render_stats(s: MetricsSummary, source: str = "",
                 top_events: int = 0) -> None:
    """Print the paper-style tables for one summary."""
    title_sfx = f" ({source})" if source else ""

    if s.counters or s.gauges:
        rows = [(k, fmt_count(v) if isinstance(v, int) else v)
                for k, v in sorted(s.counters.items())]
        rows += [(k, v) for k, v in sorted(s.gauges.items())]
        print_table(f"counters & gauges{title_sfx}", ["metric", "value"],
                    rows)

    for scope in s.scopes():
        table = s.phase_table(scope)
        print_table(
            f"{scope}: overhead decomposition (Fig 8 style)",
            ["phase", "wall", "calls", "share"],
            [(p, fmt_time(secs), fmt_count(c), f"{100 * share:.1f}%")
             for p, secs, c, share in table])

    other = {n: t for n, t in s.timers.items() if ".phase." not in n}
    if other:
        print_table(f"timers{title_sfx}",
                    ["timer", "count", "total", "mean"],
                    [(n, fmt_count(t["count"]),
                      fmt_time(t["seconds"]),
                      fmt_time(t["seconds"] / t["count"])
                      if t["count"] else "-")
                     for n, t in sorted(other.items())])

    if s.events:
        print_table(f"runtime events{title_sfx}", ["kind", "count"],
                    sorted(s.event_counts.items()))
        if top_events:
            tail = s.events[-top_events:]
            print_table(f"last {len(tail)} events", ["seq", "kind", "detail"],
                        [(e.get("seq", "-"), e.get("kind", "?"),
                          ", ".join(f"{k}={v}" for k, v in e.items()
                                    if k not in ("seq", "kind")))
                         for e in tail])
