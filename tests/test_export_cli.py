"""Tests for the trace exporters (§6's format-converter direction) and
the command-line interface."""

import pytest

from repro.cli import main as cli_main
from repro.core import PilgrimTracer, TIMING_LOSSY
from repro.core.export import to_otf_events, to_text, write_otf_text
from repro.workloads import make


@pytest.fixture(scope="module")
def stencil_blob():
    tracer = PilgrimTracer()
    make("stencil2d", 9, iters=5).run(seed=1, tracer=tracer)
    return tracer.result.trace_bytes


@pytest.fixture(scope="module")
def timed_blob():
    tracer = PilgrimTracer(timing_mode=TIMING_LOSSY)
    make("osu_allreduce", 4, iters=2).run(seed=1, tracer=tracer)
    return tracer.result.trace_bytes


class TestTextExport:
    def test_one_line_per_call(self, stencil_blob):
        text = to_text(stencil_blob, ranks=[0])
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        from repro.core import TraceDecoder
        dec = TraceDecoder.from_bytes(stencil_blob)
        assert len(lines) == dec.call_count(0)

    def test_materialized_arguments(self, stencil_blob):
        text = to_text(stencil_blob, ranks=[4])  # interior rank of 3x3
        # relative sources resolved to absolute ranks
        assert "source=3" in text or "source=5" in text
        assert "MPI_Waitall" in text

    def test_limit_truncates(self, stencil_blob):
        text = to_text(stencil_blob, ranks=[0], max_calls_per_rank=3)
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(lines) == 3
        assert "truncated" in text

    def test_all_ranks_by_default(self, stencil_blob):
        text = to_text(stencil_blob)
        for r in range(9):
            assert f"# --- rank {r} ---" in text


class TestOtfExport:
    def test_definitions_precede_events(self, stencil_blob):
        events = list(to_otf_events(stencil_blob))
        first_enter = next(i for i, e in enumerate(events)
                           if e.kind == "ENTER")
        assert all(e.kind.startswith("DEFINE")
                   for e in events[:first_enter])

    def test_enter_leave_balanced(self, stencil_blob):
        events = [e for e in to_otf_events(stencil_blob, ranks=[2])]
        enters = [e for e in events if e.kind == "ENTER"]
        leaves = [e for e in events if e.kind == "LEAVE"]
        assert len(enters) == len(leaves) > 0

    def test_timestamps_monotone_per_rank(self, stencil_blob):
        last = -1.0
        for e in to_otf_events(stencil_blob, ranks=[0]):
            if e.kind in ("ENTER", "LEAVE"):
                assert e.timestamp >= last - 1e-12
                last = e.timestamp

    def test_lossy_timing_used_when_present(self, timed_blob):
        events = [e for e in to_otf_events(timed_blob, ranks=[1])
                  if e.kind == "ENTER"]
        stamps = [e.timestamp for e in events]
        # per-signature reconstructed clocks are independent, so ordering
        # is only guaranteed within the b-1 relative error bound (§3.2):
        # each timestamp may undercut its predecessor by at most ~20%
        for prev, cur in zip(stamps, stamps[1:]):
            assert cur >= prev * (1 - 0.25)
        assert stamps[-1] > 0

    def test_text_rendering(self, stencil_blob):
        text = write_otf_text(stencil_blob, ranks=[0])
        assert 'DEFINE_FUNCTION 0 "MPI_Init"' in text
        assert "ENTER rank=0" in text


class TestCLI:
    def test_trace_info_dump_replay_miniapp(self, tmp_path):
        trace = tmp_path / "t.pilgrim"
        assert cli_main(["trace", "stencil2d", "-n", "9",
                         "--param", "iters=5", "-o", str(trace)]) == 0
        assert cli_main(["verify", "stencil2d", "-n", "9",
                         "--param", "iters=5"]) == 0
        assert trace.exists()
        assert cli_main(["info", str(trace)]) == 0
        assert cli_main(["dump", str(trace), "--rank", "1",
                         "--limit", "4"]) == 0
        assert cli_main(["dump", str(trace), "--otf", "--rank", "0"]) == 0
        assert cli_main(["replay", str(trace), "--check"]) == 0
        mini = tmp_path / "mini.py"
        assert cli_main(["miniapp", str(trace), "-o", str(mini)]) == 0
        assert "def class_0():" in mini.read_text()

    def test_compare(self, capsys):
        assert cli_main(["compare", "npb_lu", "-n", "4", "8",
                         "--param", "iters=3"]) == 0
        out = capsys.readouterr().out
        assert "Pilgrim vs ScalaTrace" in out

    def test_analyze(self, tmp_path, capsys):
        trace = tmp_path / "t.pilgrim"
        assert cli_main(["trace", "npb_lu", "-n", "4",
                         "--param", "iters=3", "-o", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "p2p traffic" in out and "load balance" in out

    def test_workloads_listed(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "stencil2d" in out and "milc_su3_rmd" in out

    def test_bad_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["trace", "stencil2d", "--param", "oops",
                      "-o", str(tmp_path / "x")])

    def test_lossy_timing_flag(self, tmp_path):
        trace = tmp_path / "t.pilgrim"
        assert cli_main(["trace", "osu_barrier", "-n", "4",
                         "--param", "iters=2", "--lossy-timing",
                         "-o", str(trace)]) == 0
        from repro.core import TraceDecoder
        dec = TraceDecoder.from_bytes(trace.read_bytes())
        assert dec.trace.timing_duration is not None
