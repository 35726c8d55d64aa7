"""``repro.obs`` — the self-instrumentation layer.

Dependency-free observability for the reproduction itself: a process-wide
metrics registry (:class:`MetricsRegistry`), a pipeline phase profiler
(:class:`PhaseProfiler`) that produces the Fig 8-style overhead
decomposition, hierarchical span telemetry (:class:`SpanRecorder`) with
cross-process collection and Chrome-trace/JSONL exporters, per-run
:class:`RunManifest` sidecars, and a bounded runtime event log
(:class:`EventLog`) for the simulated MPI runtime.  Everything defaults
to *disabled* (:data:`NULL_REGISTRY`, :data:`NULL_RECORDER`) so
observability is strictly opt-in and the benchmarked hot paths pay
nothing when it is off.
"""

from .events import EventLog
from .export import (CHROME_TRACE_SCHEMA, MANIFEST_SCHEMA, RunManifest,
                     git_describe, host_environment, peak_rss_kb,
                     read_spans_jsonl, to_chrome_trace, validate_json,
                     write_chrome_trace, write_spans_jsonl)
from .profiler import PhaseProfiler
from .registry import (NULL_REGISTRY, SCHEMA, Counter, Gauge, MetricsRegistry,
                       Scope, Timer, read_metrics_jsonl, write_metrics_jsonl)
from .spans import (NULL_RECORDER, SPAN_SCHEMA, Span, SpanRecorder,
                    build_span_tree, span_self_ns)

__all__ = [
    "CHROME_TRACE_SCHEMA", "Counter", "EventLog",
    "Gauge", "MANIFEST_SCHEMA", "MetricsRegistry", "NULL_RECORDER",
    "NULL_REGISTRY", "PhaseProfiler", "RunManifest", "SCHEMA",
    "SPAN_SCHEMA", "Scope", "Span", "SpanRecorder", "Timer",
    "build_span_tree", "git_describe", "host_environment", "peak_rss_kb",
    "read_metrics_jsonl", "read_spans_jsonl", "span_self_ns",
    "to_chrome_trace", "validate_json", "write_chrome_trace",
    "write_metrics_jsonl", "write_spans_jsonl",
]
