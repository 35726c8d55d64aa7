"""What-if replay + divergence report tests (``repro.replay.divergence``).

Two headline properties:

* **fixed point, report form** — identical-conditions replay of any
  workload family reports zero divergences with conserving call
  accounting (Hypothesis, across families × nprocs × timing modes);
* **injection-site precision** — a single injected scheduler delay on
  worker *w* of the master-worker farm diverges exactly at the master's
  first wildcard receive whose *recorded* completion source is *w*
  (computed independently from the decoded trace).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import fuzz
from repro.core import TraceDecoder, TracerOptions
from repro.core.errors import ReplayFormatError, TraceFormatError
from repro.core.relative import decode as rel_decode
from repro.mpisim import constants as C
from repro.mpisim.netmodel import NetworkModel
from repro.replay import (DIVERGENCE_REPORT_SCHEMA, ExtrapolationError,
                          ReplayOptions, parse_net)

#: the property sweep: ≥4 workload families with distinct call mixes
FAMILIES = ["stencil2d", "osu_latency", "npb_is", "milc_su3_rmd",
            "mw_sweep"]


def trace_of(workload, nprocs, seed=1, lossy=False, **params) -> bytes:
    return repro.trace(workload, nprocs, seed=seed, params=params,
                       options=TracerOptions(lossy_timing=lossy)
                       ).trace_bytes


def assert_conserved(report):
    c = report.counts
    assert report.conserved(), c
    assert c["recorded"] == (c["matched"] + c["skipped"]
                             + c["mismatched"] + c["unchecked"]), c


class TestIdenticalConditions:
    @settings(max_examples=12, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           nprocs=st.sampled_from([4, 8]),
           seed=st.integers(min_value=1, max_value=3),
           lossy=st.booleans())
    def test_fixed_point_reports_zero_divergences(self, family, nprocs,
                                                  seed, lossy):
        blob = trace_of(family, nprocs, seed=seed, lossy=lossy)
        res = repro.replay(blob)
        assert not res.diverged
        assert res.report.points == []
        assert res.report.counts["mismatched"] == 0
        assert res.report.counts["unchecked"] == 0
        assert_conserved(res.report)

    def test_api_replay_accepts_options_object(self):
        blob = trace_of("stencil2d", 4)
        res = repro.replay(blob, options=ReplayOptions(seed=7))
        assert not res.diverged
        assert res.options.seed == 7
        assert res.nprocs == res.recorded_nprocs == 4

    def test_spans_cover_the_replay_phases(self):
        blob = trace_of("osu_latency", 4)
        res = repro.replay(blob, options=ReplayOptions(spans=True))
        names = {sp["name"] for sp in res.spans}
        assert {"replay", "decode", "build", "execute",
                "compare"} <= names

    def test_report_validates_against_schema(self):
        from repro.obs import validate_json
        blob = trace_of("mw_sweep", 4)
        res = repro.replay(blob)
        validate_json(res.report_dict(), DIVERGENCE_REPORT_SCHEMA)


def first_wildcard_recv_from(blob: bytes, source: int) -> int:
    """Call index of the master's first ANY_SOURCE recv whose recorded
    completion source is *source* — computed from the decoded trace,
    independently of the comparator."""
    for idx, call in enumerate(TraceDecoder.from_bytes(blob).rank_calls(0)):
        if call.fname != "MPI_Recv":
            continue
        src_enc = call.params.get("source")
        if rel_decode(src_enc, 0) != C.ANY_SOURCE:
            continue
        stat = call.params.get("status")
        if stat and rel_decode(stat[0], 0) == source:
            return idx
    raise AssertionError(f"no recorded wildcard recv from {source}")


class TestFaultInjectionDivergence:
    @settings(max_examples=10, deadline=None)
    @given(worker=st.integers(min_value=1, max_value=3),
           times=st.sampled_from([1, 4]),
           seed=st.integers(min_value=1, max_value=3))
    def test_single_sched_delay_diverges_at_injection_site(self, worker,
                                                           times, seed):
        """Delaying worker *w* flips the master's wildcard matching at
        the first receive that recorded *w* as its source — the report
        must name exactly that rank and call index."""
        blob = trace_of("mw_sweep", 5, seed=seed)
        res = repro.replay(blob, options=ReplayOptions(
            fault_plan=f"delay@sched*{times}:rank={worker}"))
        assert res.fired_faults  # the plan actually fired
        assert_conserved(res.report)
        if not res.diverged:
            # boundary: the delayed worker was already the last arrival
            # everywhere, so arrival order never flipped
            return
        first = res.first
        assert first.rank == 0
        assert first.function == "MPI_Recv"
        assert first.field == "status.source"
        assert first.recorded == worker
        assert first.call_index == first_wildcard_recv_from(blob, worker)

    def test_known_case_diverges(self):
        """A pinned configuration that must diverge (guards against the
        property silently hitting only boundary cases)."""
        blob = trace_of("mw_sweep", 5, seed=3)
        res = repro.replay(blob, options=ReplayOptions(
            fault_plan="delay@sched*1:rank=2"))
        assert res.diverged
        assert res.first.recorded == 2
        assert res.first.live != 2

    def test_same_seed_byte_identical_report(self, tmp_path):
        blob = trace_of("mw_sweep", 4, seed=2)
        opts = ReplayOptions(fault_plan="delay@sched*4:rank=2", seed=5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        repro.replay(blob, options=opts).write_report(a)
        repro.replay(blob, options=opts).write_report(b)
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["diverged"] is True
        assert doc["fired_faults"]

    def test_divergence_freezes_downstream_checking(self):
        """After a rank's first divergence the tail is counted as
        unchecked, never reported as more points."""
        blob = trace_of("mw_sweep", 5, seed=3)
        res = repro.replay(blob, options=ReplayOptions(
            fault_plan="delay@sched*4:rank=1"))
        assert res.diverged
        per_rank_points = [p.rank for p in res.report.points]
        assert len(per_rank_points) == len(set(per_rank_points))
        assert res.report.counts["unchecked"] > 0


class TestNetworkWhatIf:
    def test_changed_alpha_beta_is_deterministic(self, tmp_path):
        blob = trace_of("mw_sweep", 4, seed=2)
        opts = ReplayOptions(net="alpha=1e-4,beta=1e-8")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        res = repro.replay(blob, options=opts)
        res.write_report(a)
        repro.replay(blob, options=opts).write_report(b)
        assert a.read_bytes() == b.read_bytes()
        assert_conserved(res.report)

    def test_net_timing_deltas_are_reported_not_divergences(self):
        """A wildly slower network on a deterministic workload changes
        timing, not structure: zero divergence points, nonzero timing
        delta."""
        blob = trace_of("stencil2d", 4)
        res = repro.replay(blob, options=ReplayOptions(
            net=NetworkModel(alpha=1e-3, beta=1e-7)))
        assert not res.diverged
        assert res.report.timing_abs_delta_s > 0


class TestExtrapolation:
    def test_spmd_trace_stretches_cleanly(self):
        blob = trace_of("osu_allreduce", 4)
        res = repro.replay(blob,
                           options=ReplayOptions(extrapolate_ranks=8))
        assert res.nprocs == 8 and res.recorded_nprocs == 4
        assert not res.diverged
        assert_conserved(res.report)
        # every replayed rank re-issued the full recorded pattern
        per_call = res.report.counts["recorded"] // 8
        assert res.report.counts["matched"] == per_call * 8

    def test_spmd_trace_shrinks_cleanly(self):
        blob = trace_of("osu_barrier", 4)
        res = repro.replay(blob,
                           options=ReplayOptions(extrapolate_ranks=2))
        assert res.nprocs == 2
        assert not res.diverged

    def test_multi_pattern_trace_is_refused(self):
        blob = trace_of("stencil2d", 4)
        with pytest.raises(ExtrapolationError):
            repro.replay(blob, options=ReplayOptions(extrapolate_ranks=8))


class TestOptionsValidation:
    def test_eager_validation(self):
        with pytest.raises(ValueError):
            ReplayOptions(noise=-1.0)
        with pytest.raises(ValueError):
            ReplayOptions(extrapolate_ranks=0)
        with pytest.raises(ValueError):
            ReplayOptions(seed="zero")
        with pytest.raises(ValueError):
            ReplayOptions(node_size=0)

    def test_bad_net_specs_fail_at_construction(self):
        with pytest.raises(ValueError):
            ReplayOptions(net="alpha=not-a-number")
        with pytest.raises(ValueError):
            ReplayOptions(net="gamma=1e-6")
        with pytest.raises(ValueError):
            ReplayOptions(net="alpha")
        with pytest.raises(ValueError):
            ReplayOptions(net={"alpha": -1.0})

    def test_net_spec_forms_agree(self):
        m = parse_net("alpha=2e-6,beta=4e-10")
        assert m == NetworkModel(alpha=2e-6, beta=4e-10)
        assert parse_net({"alpha": 2e-6, "beta": 4e-10}) == m
        assert parse_net(m) is m
        assert parse_net(None) is None

    def test_string_fault_plan_is_parsed_eagerly(self):
        from repro.resilience import FaultPlan
        opts = ReplayOptions(fault_plan="delay@sched*2:rank=1",
                             fault_seed=9)
        assert isinstance(opts.fault_plan, FaultPlan)
        assert opts.fault_plan.seed == 9
        with pytest.raises(ValueError):
            ReplayOptions(fault_plan="bogus syntax @@@")

    def test_what_if_flag(self):
        assert not ReplayOptions().what_if
        assert not ReplayOptions(seed=9, noise=0.1).what_if
        assert ReplayOptions(net="alpha=1e-6").what_if
        assert ReplayOptions(fault_plan="delay@sched*1").what_if
        assert ReplayOptions(extrapolate_ranks=8).what_if


class TestReplayStructuredErrors:
    def test_garbage_raises_trace_format_error(self):
        with pytest.raises(TraceFormatError):
            repro.replay(b"definitely not a trace")

    def test_replay_format_error_is_a_value_error(self):
        # legacy callers catch ValueError; the hierarchy must bottom out
        assert issubclass(ReplayFormatError, ValueError)
        assert issubclass(ReplayFormatError, TraceFormatError)

    def test_fuzzed_traces_never_crash_the_replayer(self):
        blob = trace_of("mw_sweep", 4, seed=1)
        report = fuzz.run(fuzz.replay_target(blob), seed=0, n_random=60)
        assert report.ok, report.summary()
        assert report.total > 0


class TestCliExitConvention:
    def run_cli(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "farm.pilgrim"
        path.write_bytes(trace_of("mw_sweep", 4, seed=2))
        assert self.run_cli("replay", str(path)) == 0
        assert self.run_cli("replay", str(path),
                            "--fault-plan", "delay@sched*4:rank=2") == 1
        assert self.run_cli("replay", str(path), "--net", "alpha=oops") == 2
        assert self.run_cli("replay", str(tmp_path / "missing")) == 2
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"\x00" * 64)
        assert self.run_cli("replay", str(garbage)) == 2
        capsys.readouterr()

    def test_json_report_matches_written_file(self, tmp_path, capsys):
        path = tmp_path / "farm.pilgrim"
        path.write_bytes(trace_of("mw_sweep", 4, seed=2))
        out = tmp_path / "report.json"
        rc = self.run_cli("replay", str(path),
                          "--fault-plan", "delay@sched*4:rank=2",
                          "--json", "--report", str(out))
        assert rc == 1
        stdout = capsys.readouterr().out
        assert json.loads(stdout) == json.loads(out.read_text())
