"""Replay leaves nothing for the cyclic collector, so it can run paused.

``run_divergence`` (``api.replay``) holds the collector off for the
whole replay.  That is safe only because nothing the replay builds — the
decoder, the signature table, the replayers, the comparator, the
simulated world — is a reference cycle: every object it allocates is
freed by its reference count.  The property is checked here on every
registry family and on the signature-heavy ``flash_cellular`` under
lossy timing, for a replay and for a plain decode; and the collector's
setting must come back as the caller had it, however the replay ends.
"""

import gc

import pytest

import repro
from repro import fuzz
from repro.core import TraceDecoder
from repro.core.backends import TracerOptions
from repro.core.errors import ReplayFormatError, TraceFormatError
from repro.replay import ReplayOptions
from repro.workloads import REGISTRY

CASES = [(family, 4, False) for family in sorted(REGISTRY)] \
    + [("flash_cellular", 8, True)]


def blob_of(family, nprocs, lossy=False) -> bytes:
    return repro.trace(family, nprocs, seed=1, options=TracerOptions(
        lossy_timing=lossy)).trace_bytes


def cyclic_garbage(fn, *args) -> int:
    """What the cyclic collector finds after ``fn(*args)``, run with the
    collector off (so nothing is collected behind the count)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("family,nprocs,lossy", CASES,
                         ids=[f"{f}-{n}{'-lossy' if lossy else ''}"
                              for f, n, lossy in CASES])
def test_replay_and_decode_leave_no_cyclic_garbage(family, nprocs, lossy):
    blob = blob_of(family, nprocs, lossy)
    assert cyclic_garbage(repro.replay, blob) == 0
    assert cyclic_garbage(
        lambda: TraceDecoder.from_bytes(blob).all_terminals()) == 0


class TestCollectorSetting:
    def test_replay_pauses_the_collector_while_it_runs(self, monkeypatch):
        from repro.replay import divergence
        seen = []
        real = divergence.run_replay

        def run_replay(sim, program):
            seen.append(gc.isenabled())
            return real(sim, program)

        monkeypatch.setattr(divergence, "run_replay", run_replay)
        assert gc.isenabled()
        assert not repro.replay(blob_of("stencil2d", 4)).diverged
        assert seen == [False] and gc.isenabled()

    def test_restored_after_a_corrupt_trace(self):
        blob = blob_of("stencil2d", 4)
        mut = dict(fuzz.trace_corpus(blob))[
            "the grammars reference a terminal past the end of the CST"]
        assert gc.isenabled()
        with pytest.raises(TraceFormatError, match="outside the"):
            repro.replay(mut)
        assert gc.isenabled()

    def test_restored_after_a_replay_format_error(self):
        blob = blob_of("stencil2d", 4)
        assert len(TraceDecoder.from_bytes(blob).trace.cfg.unique) > 1
        with pytest.raises(ReplayFormatError, match="cannot extrapolate"):
            repro.replay(blob, options=ReplayOptions(extrapolate_ranks=8))
        assert gc.isenabled()

    def test_left_off_when_the_caller_had_it_off(self):
        blob = blob_of("stencil2d", 4)
        gc.disable()
        try:
            assert not repro.replay(blob).diverged
            assert not gc.isenabled()
            with pytest.raises(ReplayFormatError):
                repro.replay(blob, options=ReplayOptions(
                    extrapolate_ranks=8))
            assert not gc.isenabled()
        finally:
            gc.enable()
