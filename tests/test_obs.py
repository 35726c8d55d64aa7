"""Tests for the self-instrumentation layer: metrics registry, phase
profiler, JSONL dump/aggregation, and the stats/--json CLI surface."""

import json
from unittest import mock

import pytest

from repro.analysis import summarize_metrics
from repro.cli import main as cli_main
from repro.core import PilgrimTracer, shard
from repro.obs import (NULL_REGISTRY, EventLog, MetricsRegistry,
                      PhaseProfiler, read_metrics_jsonl, write_metrics_jsonl)
from repro.scalatrace import ScalaTraceTracer
from repro.workloads import make


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("calls")
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert reg.counter("calls") is c  # get-or-create

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("ranks")
        g.set(8)
        g.set(64)
        assert g.value == 64

    def test_timer_add_and_block(self):
        t = MetricsRegistry().timer("work")
        t.add(0.5, count=10)
        t.add(0.25)
        assert t.count == 11
        assert t.total == pytest.approx(0.75)
        assert t.record() == {"type": "timer", "name": "work",
                              "count": 11, "seconds": 0.75}

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.timer("x")

    def test_scope_prefixes_and_nests(self):
        reg = MetricsRegistry()
        s = reg.scope("pilgrim").scope("cst")
        s.counter("hits").inc()
        assert reg.names() == ["pilgrim.cst.hits"]


class TestSnapshotDeterminism:
    def _populate(self, reg):
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        reg.timer("t").add(1.5, count=3)
        reg.gauge("g").set(7)

    def test_identical_histories_identical_snapshots(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        self._populate(r1)
        self._populate(r2)
        assert r1.snapshot() == r2.snapshot()
        assert json.dumps(r1.snapshot(), sort_keys=True) == \
            json.dumps(r2.snapshot(), sort_keys=True)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        self._populate(reg)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1, "b": 2}
        assert snap["gauges"]["g"] == 7
        assert snap["timers"]["t"]["count"] == 3


class TestDisabledMode:
    def test_null_instruments_are_inert(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.gauge("g").set(1)
        reg.timer("t").add(2.0)
        assert len(reg) == 0
        assert reg.records() == []

    def test_null_registry_shared_and_disabled(self):
        assert not NULL_REGISTRY.enabled
        assert not NULL_REGISTRY.scope("x").enabled
        NULL_REGISTRY.counter("leak").inc()
        assert len(NULL_REGISTRY) == 0


class TestPhaseProfiler:
    def test_accumulates_and_publishes(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(reg.scope("pilgrim"))
        prof.add("intra", 0.25, count=100)
        prof.add("intra", 0.75, count=100)
        with prof.phase("merge") as ph:
            pass
        assert prof.wall("intra") == pytest.approx(1.0)
        assert prof.phases() == {"intra": pytest.approx(1.0),
                                 "merge": ph.wall}
        t = reg.timer("pilgrim.phase.intra")
        assert t.total == pytest.approx(1.0) and t.count == 200
        assert reg.timer("pilgrim.phase.merge").count == 1
        # one wall clock: a phase publishes one timer, no twin
        assert reg.names() == ["pilgrim.phase.intra", "pilgrim.phase.merge"]

    def test_measures_even_without_registry(self):
        prof = PhaseProfiler(None)
        with prof.phase("only") as ph:
            pass
        assert prof.wall("only") > 0
        assert prof.phases() == {"only": ph.wall}


class TestJsonlRoundTrip:
    def test_write_read_summarize(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("pilgrim.calls").inc(1000)
        reg.timer("pilgrim.phase.intra").add(0.6, count=1000)
        reg.timer("pilgrim.phase.cfg_merge").add(0.3)
        log = EventLog()
        log.emit("p2p.match", src=0, dst=1)
        path = str(tmp_path / "m.jsonl")
        n = write_metrics_jsonl(path, reg, meta={"workload": "stencil2d"},
                                events=log.records())
        records = read_metrics_jsonl(path)
        assert len(records) == n
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == "repro.obs/v1"
        # every line is valid standalone JSON with sorted keys
        for line in open(path):
            assert json.loads(line)

        s = summarize_metrics(records)
        assert s.meta["workload"] == "stencil2d"
        assert s.counters["pilgrim.calls"] == 1000
        assert s.event_counts == {"p2p.match": 1}
        table = s.phase_table("pilgrim")
        # sorted by wall seconds, shares of the phase sum
        assert [row[:3] for row in table] == [("intra", 0.6, 1000),
                                              ("cfg_merge", 0.3, 1)]
        assert table[0][3] == pytest.approx(2 / 3)
        assert sum(r[3] for r in table) == pytest.approx(1.0)

    def test_concatenated_files_accumulate(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc(5)
        reg.timer("t").add(1.0, count=2)
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_metrics_jsonl(p1, reg)
        write_metrics_jsonl(p2, reg)
        s = summarize_metrics(read_metrics_jsonl(p1) + read_metrics_jsonl(p2))
        assert s.counters["n"] == 10
        assert s.timers["t"] == {"count": 4, "seconds": 2.0}


class TestTracerIntegration:
    def _run(self, metrics=None, **kwargs):
        tracer = PilgrimTracer(metrics=metrics, **kwargs)
        make("stencil2d", 9, iters=3).run(seed=2, tracer=tracer)
        return tracer

    #: (tracer kwargs, ``shard.LOG_LIMIT``): both timing modes, with and
    #: without drains
    CONFIGS = [({}, shard.LOG_LIMIT),
               ({"timing_mode": "lossy"}, shard.LOG_LIMIT),
               ({}, 5),
               ({"timing_mode": "lossy"}, 3)]

    def test_enabled_and_disabled_traces_identical(self):
        for kwargs, log_limit in self.CONFIGS:
            with mock.patch.object(shard, "LOG_LIMIT", log_limit):
                plain = self._run(**kwargs)
                profiled = self._run(MetricsRegistry(), **kwargs)
            assert plain.result.trace_bytes == \
                profiled.result.trace_bytes, kwargs
            assert plain.result.per_rank_calls == \
                profiled.result.per_rank_calls, kwargs

    def test_phases_cover_measured_overhead(self):
        # the phase table is Fig 8's decomposition, exactly, with or
        # without a registry: intra-process (the hot path + the deferred
        # Sequitur), then the inter-process stages
        for kwargs, timing in [({}, []),
                               ({"timing_mode": "lossy"}, ["timing_merge"])]:
            reg = MetricsRegistry()
            plain = self._run(**kwargs).result
            profiled = self._run(reg, **kwargs).result
            keys = ["intra", "sequitur", "shard", "cst_merge", "cfg_merge",
                    *timing, "serialize"]
            assert list(plain.phases) == list(profiled.phases) == keys
            for r in (plain, profiled):
                assert r.phases["intra"] + r.phases["sequitur"] \
                    == r.time_intra, kwargs
                assert r.phases["shard"] + r.phases["cst_merge"] \
                    == r.time_cst_merge, kwargs
                assert r.phases["cfg_merge"] == r.time_cfg_merge, kwargs
            timers = reg.snapshot()["timers"]
            prefix = "pilgrim.phase."
            assert {n[len(prefix):]: t["seconds"] for n, t in timers.items()
                    if n.startswith(prefix)} == profiled.phases
            assert timers["pilgrim.phase.intra"]["count"] == \
                profiled.total_calls
            # no timer beside the phases: their sum is the overhead
            assert all(n.startswith(prefix) for n in timers
                       if n.startswith("pilgrim."))

    def test_scalatrace_phases_cover_measured_overhead(self):
        reg = MetricsRegistry()
        tracer = ScalaTraceTracer(metrics=reg)
        make("stencil2d", 9, iters=3).run(seed=2, tracer=tracer)
        r = tracer.result
        timers = reg.snapshot()["timers"]
        assert sorted(timers) == ["scalatrace.phase.intra",
                                  "scalatrace.phase.merge"]
        assert timers["scalatrace.phase.intra"]["seconds"] \
            + timers["scalatrace.phase.merge"]["seconds"] \
            == r.time_intra + r.time_merge
        assert timers["scalatrace.phase.intra"]["count"] == r.recorded_calls

    def test_disabled_mode_records_nothing(self):
        tracer = self._run()
        assert tracer.metrics is NULL_REGISTRY
        assert len(NULL_REGISTRY) == 0
        # coarse accounting still populated for PilgrimResult compat
        assert tracer.result.time_intra > 0
        assert tracer.result.phases["cfg_merge"] >= 0


class TestCli:
    def test_trace_metrics_then_stats(self, tmp_path, capsys):
        trace = str(tmp_path / "t.pilgrim")
        mfile = str(tmp_path / "m.jsonl")
        rc = cli_main(["trace", "stencil2d", "-n", "9", "-o", trace,
                       "--param", "iters=3", "--metrics", mfile,
                       "--events", mfile])
        assert rc == 0
        records = read_metrics_jsonl(mfile)
        assert records[0]["type"] == "meta"
        s = summarize_metrics(records)
        assert s.counters["pilgrim.calls"] > 0
        assert "p2p.match" in s.event_counts
        table = s.phase_table("pilgrim")
        assert sum(r[3] for r in table) == pytest.approx(1.0, abs=1e-9)
        capsys.readouterr()

        rc = cli_main(["stats", mfile, "--events", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overhead decomposition" in out
        assert "intra" in out and "sequitur" in out and "cfg_merge" in out

        assert cli_main(["stats", mfile, "--json"]) == 0
        decomp = json.loads(capsys.readouterr().out)["decomposition"]
        assert {row["phase"] for row in decomp["pilgrim"]} == {
            "intra", "sequitur", "shard", "cst_merge", "cfg_merge",
            "serialize"}
        assert sum(row["share"] for row in decomp["pilgrim"]) == \
            pytest.approx(1.0, abs=1e-9)

    def test_stats_json_mode(self, tmp_path, capsys):
        mfile = str(tmp_path / "m.jsonl")
        reg = MetricsRegistry()
        reg.timer("pilgrim.phase.intra").add(0.9)
        reg.timer("pilgrim.phase.sequitur").add(0.1)
        write_metrics_jsonl(mfile, reg)
        assert cli_main(["stats", mfile, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        decomp = payload["decomposition"]["pilgrim"]
        assert decomp[0]["phase"] == "intra"
        assert decomp[0]["share"] == pytest.approx(0.9)

    def test_info_json_mode(self, tmp_path, capsys):
        trace = str(tmp_path / "t.pilgrim")
        assert cli_main(["trace", "osu_barrier", "-n", "4", "-o", trace,
                         "--param", "iters=2"]) == 0
        capsys.readouterr()
        assert cli_main(["info", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranks"] == 4
        assert payload["total_calls"] > 0
        assert "MPI_Barrier" in payload["calls_per_function"]

    def test_compare_json_mode(self, capsys):
        assert cli_main(["compare", "osu_barrier", "-n", "4",
                         "--param", "iters=2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["nprocs"] == 4
        assert rows[0]["pilgrim_size"] > 0
