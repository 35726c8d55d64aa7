"""Tests for the span-telemetry subsystem: the recorder, the
Chrome-trace/JSONL/manifest exporters, the finalize span tree, and the
surfacing through ``repro.api`` and the CLI.

Includes the regression tests for the merge-task telemetry (one
``merge.task`` span per rank's absorb into the reduce):

* parity — the supervised absorb (armed by a retry policy) and the
  plain one record the same spans and counters;
* no duplicate spans from killed-and-retried absorbs under fault
  injection.
"""

import json
from collections import Counter

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.core import PilgrimTracer, TracerOptions
from repro.obs import (CHROME_TRACE_SCHEMA, MANIFEST_SCHEMA, NULL_RECORDER,
                       MetricsRegistry, PhaseProfiler, RunManifest, Span,
                       SpanRecorder, build_span_tree, read_spans_jsonl,
                       span_self_ns, to_chrome_trace, validate_json,
                       write_chrome_trace, write_spans_jsonl)
from repro.resilience import FaultPlan, RetryPolicy
from repro.workloads import make


class TestSpanRecorder:
    def test_nesting_parents_spans(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner2", scope="x", k=1):
                pass
        outer, inner, inner2 = rec.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner2.parent_id == outer.span_id
        assert inner2.scope == "x" and inner2.attrs == {"k": 1}
        assert outer.end_ns >= inner2.end_ns >= inner2.start_ns

    def test_synthetic_record_parents_under_open_span(self):
        rec = SpanRecorder()
        with rec.span("root"):
            sp = rec.record("folded", dur_s=0.5)
        assert sp.parent_id == rec.spans[0].span_id
        assert sp.attrs["synthetic"] is True
        assert sp.end_ns - sp.start_ns == pytest.approx(5e8, rel=1e-6)

    def test_disabled_recorder_is_inert(self):
        rec = SpanRecorder(enabled=False)
        with rec.span("x"):
            pass
        assert rec.record("y", dur_s=1.0) is None
        assert rec.export() == [] and len(rec) == 0
        assert NULL_RECORDER.enabled is False

    def test_round_trip_dict(self):
        sp = Span(7, "n", parent_id=3, scope="s", start_ns=10,
                  end_ns=30, pid=9, attrs={"a": 1})
        back = Span.from_dict(sp.to_dict())
        assert back.to_dict() == sp.to_dict()
        assert back.dur_ns == 20

    def test_tree_and_self_time(self):
        rec = SpanRecorder()
        with rec.span("root"):
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        roots = build_span_tree(rec.export())
        assert len(roots) == 1
        root = roots[0]
        assert [c["span"]["name"] for c in root["children"]] == ["a", "b"]
        child_ns = sum(max(0, c["span"]["end_ns"] - c["span"]["start_ns"])
                       for c in root["children"])
        total_ns = root["span"]["end_ns"] - root["span"]["start_ns"]
        assert span_self_ns(root) == total_ns - child_ns

    def test_orphan_spans_become_roots(self):
        roots = build_span_tree([
            {"span_id": 5, "parent_id": 99, "name": "orphan",
             "start_ns": 0, "end_ns": 1}])
        assert len(roots) == 1 and roots[0]["span"]["name"] == "orphan"


class TestExporters:
    def _spans(self):
        """Spans from two processes: one track each in the exports."""
        rec = SpanRecorder(pid=100)
        with rec.span("finalize", scope="pilgrim"):
            with rec.span("merge", scope="phase"):
                pass
        other = SpanRecorder(pid=200)
        with other.span("merge.task", scope="pipeline"):
            pass
        return rec.export() + other.export()

    def test_chrome_trace_shape_and_schema(self):
        doc = to_chrome_trace(self._spans())
        validate_json(doc, CHROME_TRACE_SCHEMA)
        assert doc["displayTimeUnit"] == "ms"
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"parent", "worker-200"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        assert min(e["ts"] for e in xs) == 0  # rebased to earliest span

    def test_chrome_trace_file_round_trips(self, tmp_path):
        path = tmp_path / "t.json"
        n = write_chrome_trace(str(path), self._spans())
        doc = json.load(open(path))
        assert len(doc["traceEvents"]) == n
        validate_json(doc, CHROME_TRACE_SCHEMA)

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_json({}, CHROME_TRACE_SCHEMA)
        with pytest.raises(ValueError, match=r"ph"):
            validate_json({"traceEvents": [{"name": "x", "ph": "Q",
                                            "pid": 1, "tid": 0}]},
                          CHROME_TRACE_SCHEMA)
        with pytest.raises(ValueError, match="minimum"):
            validate_json({"traceEvents": [{"name": "x", "ph": "X",
                                            "pid": 1, "tid": 0,
                                            "ts": -1}]},
                          CHROME_TRACE_SCHEMA)
        with pytest.raises(ValueError, match="expected array"):
            validate_json({"traceEvents": {}}, CHROME_TRACE_SCHEMA)

    def test_spans_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        spans = self._spans()
        n = write_spans_jsonl(str(path), spans, meta={"workload": "w"})
        assert n == len(spans) + 1  # header line
        back = read_spans_jsonl(str(path))
        assert back == spans

    def test_manifest_write_and_load(self, tmp_path):
        m = RunManifest(command="trace", workload="w", nprocs=4,
                        options={"lossy_timing": True},
                        totals={"calls": 10})
        path = RunManifest.default_path(str(tmp_path / "out.pilgrim"))
        m.write(path)
        doc = RunManifest.load(path)
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["workload"] == "w" and doc["totals"] == {"calls": 10}
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError):
            RunManifest.load(str(bad))


class TestProfilerSpans:
    def test_phase_blocks_record_nested_spans(self):
        reg = MetricsRegistry()
        rec = SpanRecorder()
        prof = PhaseProfiler(reg.scope("p"), recorder=rec)
        with rec.span("root"):
            with prof.phase("cst_merge"):
                pass
            prof.add("intra", 0.25, count=10)
        names = [s.name for s in rec.spans]
        assert names == ["root", "cst_merge", "intra"]
        assert rec.spans[1].parent_id == rec.spans[0].span_id
        assert rec.spans[2].attrs["synthetic"] is True
        # the flat phase dict is unchanged by span recording
        assert set(prof.phases()) == {"cst_merge", "intra"}
        assert prof.wall("intra") == 0.25
        assert reg.timer("p.phase.intra").count == 10

    def test_profiler_without_recorder_records_nothing(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        assert prof.recorder is NULL_RECORDER
        assert prof.recorder.export() == []


def _run(nprocs=8, fault_plan=None, seed=1, retry=None):
    reg = MetricsRegistry()
    opts = TracerOptions(metrics=reg, fault_plan=fault_plan, retry=retry)
    res = api.trace("stencil2d", nprocs, options=opts, seed=seed)
    return res, reg


def _merge_keys(spans):
    return Counter(s["attrs"].get("rank")
                   for s in spans if s["name"] == "merge.task")


class TestCrossProcessCollection:
    def test_single_tree_with_worker_spans(self):
        res, _ = _run(nprocs=8)
        spans = res.spans
        roots = build_span_tree(spans)
        assert len(roots) == 1
        assert roots[0]["span"]["name"] == "finalize"
        # 8 shards -> 8 absorbs, each exactly one span
        assert _merge_keys(spans) == Counter(range(8))

    def test_parallel_metric_parity_with_serial(self):
        """The supervised absorb (armed here by a bare retry policy) and
        the plain one report the same merge-task spans and counters."""
        plain, reg1 = _run(nprocs=8)
        supervised, reg2 = _run(nprocs=8, retry=RetryPolicy())
        assert supervised.trace_bytes == plain.trace_bytes
        assert reg1.snapshot()["counters"] == reg2.snapshot()["counters"]
        assert _merge_keys(supervised.spans) == _merge_keys(plain.spans) \
            == Counter(range(8))

    def test_parity_under_fault_injection(self):
        clean, _ = _run(nprocs=8)
        res, reg = _run(nprocs=8, fault_plan="kill@merge*2")
        counters = reg.snapshot()["counters"]
        assert counters["pipeline.retries"] == 2
        assert counters["pipeline.worker_deaths"] == 2
        assert _merge_keys(res.spans) == _merge_keys(clean.spans)

    def test_no_duplicate_spans_from_killed_workers(self):
        """A killed-and-retried merge appears exactly once in the tree:
        the failed attempt records nothing, the recompute is what
        counts."""
        res, reg = _run(nprocs=8,
                        fault_plan=FaultPlan.parse("kill@merge*2", seed=7))
        assert len(res.fired_faults) == 2
        keys = _merge_keys(res.spans)
        assert sum(keys.values()) == 8
        dups = {k: v for k, v in keys.items() if v > 1}
        assert not dups, f"duplicated merges {dups}"
        assert reg.snapshot()["counters"]["pipeline.worker_deaths"] == 2

    def test_disabled_telemetry_records_nothing(self):
        res = api.trace("stencil2d", 8, options=TracerOptions())
        assert res.spans == []
        assert res.tracer.recorder.enabled is False

    def test_spans_do_not_change_trace_bytes(self):
        plain = api.trace("stencil2d", 8, seed=3).trace_bytes
        res, _ = _run(nprocs=8, seed=3)
        assert res.trace_bytes == plain


class TestApiSurfacing:
    def test_manifest_contents(self):
        res, reg = _run(nprocs=8)
        m = res.manifest()
        doc = m.to_dict()
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["workload"] == "stencil2d" and doc["nprocs"] == 8
        assert doc["wall_s"] > 0 and doc["cpu_s"] > 0
        assert doc["peak_rss_kb"] > 0
        assert doc["counters"] == reg.snapshot()["counters"]
        assert doc["totals"]["calls"] == res.total_calls
        assert doc["totals"]["spans"] == len(res.spans)
        assert doc["outputs"]["trace_bytes"] == res.trace_size
        assert doc["options"]["lossy_timing"] is False
        json.dumps(doc)  # JSON-safe throughout

    def test_write_emits_manifest_sidecar(self, tmp_path):
        res, _ = _run(nprocs=8)
        out = tmp_path / "out.pilgrim"
        res.write(out)
        doc = RunManifest.load(str(out) + ".manifest.json")
        assert doc["outputs"]["trace_bytes"] == res.trace_size
        (tmp_path / "no_manifest.pilgrim").unlink(missing_ok=True)
        res.write(tmp_path / "no_manifest.pilgrim", manifest=False)
        assert not (tmp_path / "no_manifest.pilgrim.manifest.json").exists()

    def test_write_timeline_requires_spans(self, tmp_path):
        res = api.trace("stencil2d", 8)
        with pytest.raises(ValueError, match="no spans"):
            res.write_timeline(tmp_path / "t.json")

    def test_write_spans_jsonl(self, tmp_path):
        res, _ = _run(nprocs=8)
        path = tmp_path / "s.jsonl"
        res.write_spans(path)
        assert read_spans_jsonl(str(path)) == res.spans


class TestCli:
    def test_trace_timeline_and_spans_flags(self, tmp_path, capsys):
        out = tmp_path / "t.pilgrim"
        tl = tmp_path / "timeline.json"
        sp = tmp_path / "spans.jsonl"
        rc = cli_main(["trace", "stencil2d", "-n", "8",
                       "-o", str(out), "--timeline", str(tl),
                       "--spans", str(sp)])
        assert rc == 0
        doc = json.load(open(tl))
        validate_json(doc, CHROME_TRACE_SCHEMA)
        assert read_spans_jsonl(str(sp))
        assert (tmp_path / "t.pilgrim.manifest.json").exists()

    def test_timeline_verb_validates_and_converts(self, tmp_path, capsys):
        sp = tmp_path / "spans.jsonl"
        tl = tmp_path / "timeline.json"
        assert cli_main(["trace", "stencil2d", "-n", "4",
                         "-o", str(tmp_path / "t.pilgrim"),
                         "--timeline", str(tl), "--spans", str(sp)]) == 0
        capsys.readouterr()
        assert cli_main(["timeline", str(tl)]) == 0
        assert "valid Chrome trace-event JSON" in capsys.readouterr().out
        conv = tmp_path / "conv.json"
        assert cli_main(["timeline", str(sp), "-o", str(conv)]) == 0
        validate_json(json.load(open(conv)), CHROME_TRACE_SCHEMA)

    def test_timeline_verb_rejects_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert cli_main(["timeline", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["timeline", str(empty)]) == 1

    def test_stats_spans_tree(self, tmp_path, capsys):
        sp = tmp_path / "spans.jsonl"
        assert cli_main(["trace", "stencil2d", "-n", "8",
                         "-o", str(tmp_path / "t.pilgrim"),
                         "--spans", str(sp)]) == 0
        capsys.readouterr()
        assert cli_main(["stats", "--spans", str(sp)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "finalize" in out and "merge.task" in out

    def test_metrics_dump_carries_spans(self, tmp_path):
        mx = tmp_path / "m.jsonl"
        assert cli_main(["trace", "stencil2d", "-n", "4",
                         "-o", str(tmp_path / "t.pilgrim"),
                         "--metrics", str(mx)]) == 0
        from repro.obs import read_metrics_jsonl
        types = Counter(r.get("type")
                        for r in read_metrics_jsonl(str(mx)))
        assert types["span"] > 0 and types["counter"] > 0


class TestBenchManifest:
    def test_write_results_emits_manifest(self, tmp_path, monkeypatch):
        from repro.bench import bench_manifest, write_results
        doc = {"benchmark": "dummy", "repeats": 1, "warmup": 0,
               "params": {"nprocs": 4, "seed": 1},
               "metrics": {"per_call_us": 1.5}, "stats": {}}
        monkeypatch.chdir(tmp_path)
        paths = write_results(doc, str(tmp_path / "results"))
        side = [p for p in paths if str(p).endswith(".manifest.json")]
        assert len(side) == 1
        m = RunManifest.load(str(side[0]))
        assert m["command"] == "bench"
        assert m["totals"]["metrics"] == {"per_call_us": 1.5}
        assert bench_manifest(doc).nprocs == 4


class TestTracerDirect:
    def test_finalize_idempotent_spans(self):
        reg = MetricsRegistry()
        tracer = PilgrimTracer(metrics=reg)
        make("stencil2d", 4).run(seed=1, tracer=tracer)
        first = tracer.finalize()
        again = tracer.finalize()
        assert again is first
        assert len(first.spans) == len(tracer.recorder.spans)
        keys = _merge_keys(first.spans)
        assert keys == Counter(range(4))  # 4 shards -> 4 absorbs
