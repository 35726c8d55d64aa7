"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.core import PilgrimTracer, RoundTrip
from repro.mpisim import SimMPI


def run_program(nprocs: int, program, *, seed: int = 1, tracer=None,
                noise: float = 0.0, **kw):
    """Run a rank program on a fresh simulator; returns (sim, result)."""
    sim = SimMPI(nprocs, seed=seed, tracer=tracer, noise=noise, **kw)
    result = sim.run(program)
    return sim, result


def trace_program(nprocs: int, program, *, seed: int = 1, noise: float = 0.0,
                  **tracer_kw):
    """Run under a Pilgrim tracer beside the raw backend; returns the
    :class:`RoundTrip` (result populated, raw streams in ``.raw``)."""
    tee = RoundTrip(PilgrimTracer(**tracer_kw))
    SimMPI(nprocs, seed=seed, tracer=tee, noise=noise).run(program)
    return tee


@pytest.fixture
def two_ranks():
    """Factory fixture for 2-rank programs."""
    def runner(program, **kw):
        return run_program(2, program, **kw)
    return runner
