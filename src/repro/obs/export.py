"""Exporters for span telemetry: Chrome trace-event JSON, span JSONL,
and per-run manifests.

* :func:`to_chrome_trace` renders exported spans as a Chrome
  trace-event document (the ``{"traceEvents": [...]}`` object format)
  loadable in Perfetto / ``chrome://tracing`` — one track per recording
  process.
* :func:`write_spans_jsonl` dumps spans one JSON object per line with a
  schema header, the archival form ``repro timeline`` and
  ``repro stats --spans`` read back.
* :class:`RunManifest` is the self-describing sidecar written next to
  every trace (and benchmark result): run id, configuration snapshot,
  git version, wall/CPU seconds, peak RSS, resilience counters, output
  sizes.

The Chrome output is validated against :data:`CHROME_TRACE_SCHEMA`, a
JSON-Schema document checked by the dependency-free
:func:`validate_json` (the subset of JSON Schema the trace format
needs), so CI can assert the artifact parses *and* conforms.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time as _time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .spans import SPAN_SCHEMA

MANIFEST_SCHEMA = "repro.manifest/v1"

#: JSON Schema for the Chrome trace-event object format (the subset this
#: exporter emits: complete "X" events and "M" metadata events)
CHROME_TRACE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string", "enum": ["X", "M", "B", "E", "i"]},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "cat": {"type": "string"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
    },
}


def validate_json(instance: Any, schema: dict[str, Any],
                  path: str = "$") -> None:
    """Validate *instance* against the JSON-Schema subset used here
    (type / required / properties / items / enum / minimum).  Raises
    ``ValueError`` naming the offending path; returns None when valid."""
    typ = schema.get("type")
    if typ is not None:
        checkers = {"object": dict, "array": list, "string": str,
                    "integer": int, "boolean": bool}
        if typ == "number":
            ok = isinstance(instance, (int, float)) \
                and not isinstance(instance, bool)
        elif typ == "integer":
            ok = isinstance(instance, int) and not isinstance(instance, bool)
        else:
            ok = isinstance(instance, checkers[typ])
        if not ok:
            raise ValueError(f"{path}: expected {typ}, "
                             f"got {type(instance).__name__}")
    if "enum" in schema and instance not in schema["enum"]:
        raise ValueError(f"{path}: {instance!r} not one of {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) \
            and instance < schema["minimum"]:
        raise ValueError(f"{path}: {instance!r} < minimum "
                         f"{schema['minimum']}")
    if isinstance(instance, dict):
        for req in schema.get("required", ()):
            if req not in instance:
                raise ValueError(f"{path}: missing required key {req!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in instance:
                validate_json(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate_json(item, schema["items"], f"{path}[{i}]")


# -- Chrome trace-event export -------------------------------------------------------


def to_chrome_trace(spans: Iterable[dict[str, Any]], *,
                    meta: Optional[dict[str, Any]] = None,
                    parent_pid: Optional[int] = None) -> dict[str, Any]:
    """Exported span dicts -> Chrome trace-event document.

    Timestamps are rebased to the earliest span (microseconds, as the
    format expects).  Each recording process becomes a named track:
    the parent process (``parent_pid``, default the lowest pid seen)
    is labeled ``parent``, every other pid ``worker``.
    """
    spans = list(spans)
    t0 = min((s.get("start_ns", 0) for s in spans), default=0)
    pids: list[int] = []
    events: list[dict[str, Any]] = []
    for s in spans:
        pid = int(s.get("pid", 0))
        if pid not in pids:
            pids.append(pid)
        args: dict[str, Any] = {"span_id": s.get("span_id")}
        if s.get("scope"):
            args["scope"] = s["scope"]
        args.update(s.get("attrs", {}))
        events.append({
            "name": s.get("name", "?"),
            "cat": s.get("scope") or "span",
            "ph": "X",
            "ts": round((s.get("start_ns", 0) - t0) / 1e3, 3),
            "dur": round(max(0, s.get("end_ns", 0)
                             - s.get("start_ns", 0)) / 1e3, 3),
            "pid": pid,
            "tid": 0,
            "args": args,
        })
    if parent_pid is None:
        parent_pid = min(pids, default=0)
    for pid in sorted(pids):
        label = "parent" if pid == parent_pid else f"worker-{pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    doc: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if meta:
        doc["otherData"] = dict(meta)
    return doc


def write_chrome_trace(path: str, spans: Iterable[dict[str, Any]], *,
                       meta: Optional[dict[str, Any]] = None) -> int:
    """Validate and write the Chrome trace document; returns the event
    count."""
    doc = to_chrome_trace(spans, meta=meta)
    validate_json(doc, CHROME_TRACE_SCHEMA)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return len(doc["traceEvents"])


# -- span JSONL ----------------------------------------------------------------------


def write_spans_jsonl(path: str, spans: Iterable[dict[str, Any]], *,
                      meta: Optional[dict[str, Any]] = None) -> int:
    """Dump spans as JSON lines under a schema header; returns the line
    count (header included)."""
    lines: list[dict[str, Any]] = [
        {"type": "meta", "schema": SPAN_SCHEMA, **(meta or {})}]
    lines.extend(spans)
    with open(path, "w") as fh:
        for rec in lines:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(lines)


def read_spans_jsonl(path: str) -> list[dict[str, Any]]:
    """Read back the ``type == "span"`` records of a JSONL dump (metric
    and event lines sharing the file are skipped)."""
    out: list[dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "span":
                out.append(rec)
    return out


# -- run manifest --------------------------------------------------------------------


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, or None
    when not in a repository (or git is unavailable)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KB (None where the
    ``resource`` module is unavailable, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes; normalize to KB
    if platform.system() == "Darwin":  # pragma: no cover - platform
        rss //= 1024
    return int(rss)


def _json_safe(value: Any) -> Any:
    """Force a value into JSON-able form (configuration snapshots hold
    live objects like registries and injectors; record their repr)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


@dataclass
class RunManifest:
    """The self-describing sidecar for one run's artifacts."""

    #: what produced this manifest: "trace", "bench", ...
    command: str
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    created_unix: float = field(
        default_factory=lambda: round(_time.time(), 3))
    schema: str = MANIFEST_SCHEMA
    workload: Optional[str] = None
    nprocs: Optional[int] = None
    backend: Optional[str] = None
    seed: Optional[int] = None
    #: TracerOptions (or benchmark params) snapshot, JSON-safe
    options: dict[str, Any] = field(default_factory=dict)
    git: Optional[str] = None
    environment: dict[str, Any] = field(default_factory=dict)
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    peak_rss_kb: Optional[int] = None
    #: fault/retry/salvage counters (pipeline.* scope) and fired faults
    counters: dict[str, Any] = field(default_factory=dict)
    #: run totals: calls, signatures, unique grammars, span count, ...
    totals: dict[str, Any] = field(default_factory=dict)
    #: artifact byte sizes: trace total plus per-section breakdown
    outputs: dict[str, Any] = field(default_factory=dict)
    degraded: bool = False
    salvage: Optional[str] = None
    fired_faults: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema, "run_id": self.run_id,
            "created_unix": self.created_unix, "command": self.command,
            "workload": self.workload, "nprocs": self.nprocs,
            "backend": self.backend, "seed": self.seed,
            "options": _json_safe(self.options), "git": self.git,
            "environment": _json_safe(self.environment),
            "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "counters": _json_safe(self.counters),
            "totals": _json_safe(self.totals),
            "outputs": _json_safe(self.outputs),
            "degraded": self.degraded, "salvage": self.salvage,
            "fired_faults": list(self.fired_faults),
        }

    def write(self, path: str) -> str:
        """Write the manifest as pretty JSON; returns *path*."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @staticmethod
    def default_path(trace_path: str) -> str:
        """Where the sidecar lands for a given trace file."""
        return f"{trace_path}.manifest.json"

    @classmethod
    def load(cls, path: str) -> dict[str, Any]:
        """Read a manifest file back as a dict (schema-checked)."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"{path} is not a {MANIFEST_SCHEMA} manifest")
        return doc


def host_environment() -> dict[str, Any]:
    """The environment block every manifest carries."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "pid": os.getpid(),
    }
