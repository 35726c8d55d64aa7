"""Consistency tests for the MPI function registry — the analogue of the
paper's "wrappers generated from the standard" completeness guarantee."""

import pytest

from conftest import run_program
from repro.core.encoder import DYNAMIC_KINDS, STATIC_KINDS, _plan_for
from repro.mpisim import funcs as F
from repro.mpisim.errors import MpiSimError, RankProgramError
from repro.mpisim.runtime import RankAPI

VALID_KINDS = {
    F.K_COMM, F.K_GROUP, F.K_DATATYPE, F.K_DATATYPEV, F.K_REQUEST,
    F.K_REQUESTV, F.K_OP, F.K_RANK, F.K_ROOT, F.K_TAG, F.K_COLOR, F.K_KEY,
    F.K_PTR, F.K_COUNT, F.K_INT, F.K_INTV, F.K_FLAG, F.K_STR, F.K_STATUS,
    F.K_STATUSV, F.K_INDEX, F.K_INDEXV, F.K_NEWCOMM, F.K_NEWTYPE, F.K_WIN,
    F.K_NEWWIN,
}
VALID_DIRECTIONS = {F.IN, F.OUT, F.INOUT}

#: pseudo-calls emitted by the runtime itself, not user-invokable methods
RUNTIME_EMITTED = {"MPI_Init", "MPI_Finalize"}


class TestRegistryShape:
    def test_ids_dense_and_unique(self):
        fids = [spec.fid for spec in F.FUNCS.values()]
        assert sorted(fids) == list(range(len(F.FUNCS)))

    def test_by_id_inverse(self):
        for name, spec in F.FUNCS.items():
            assert F.BY_ID[spec.fid] is spec

    def test_param_kinds_and_directions_valid(self):
        for spec in F.FUNCS.values():
            for p in spec.params:
                assert p.kind in VALID_KINDS, (spec.name, p.name, p.kind)
                assert p.direction in VALID_DIRECTIONS

    def test_param_names_unique_within_spec(self):
        for spec in F.FUNCS.values():
            names = [p.name for p in spec.params]
            assert len(set(names)) == len(names), spec.name

    def test_param_lookup(self):
        spec = F.FUNCS["MPI_Send"]
        assert spec.param("dest").kind == F.K_RANK
        with pytest.raises(KeyError):
            spec.param("nope")

    def test_catalog_constants_ordered(self):
        assert F.CYPRESS_SUPPORTED < F.SCALATRACE_SUPPORTED \
            < F.PILGRIM_SUPPORTED == F.TOTAL_MPI40_FUNCS
        assert F.SIM_FUNC_COUNT == len(F.FUNCS)

    def test_every_function_has_an_api_method(self):
        """Completeness by construction: each registry entry (except the
        runtime-emitted pseudo-calls) maps to a RankAPI method."""
        for fname in F.all_names():
            if fname in RUNTIME_EMITTED:
                continue
            method = fname[4:].lower()
            assert hasattr(RankAPI, method), fname

    def test_naming_convention(self):
        for fname in F.all_names():
            assert fname.startswith("MPI_")


class TestEncoderCoversTheRegistry:
    """"Generated from the standard": a parameter kind the encoder does
    not know must fail here, not be traced as a verbatim scalar."""

    def test_every_kind_is_static_or_dynamic(self):
        assert not DYNAMIC_KINDS & set(STATIC_KINDS)
        assert DYNAMIC_KINDS == {F.K_REQUEST, F.K_REQUESTV,
                                 F.K_STATUS, F.K_STATUSV}
        for spec in F.FUNCS.values():
            for p in spec.params:
                assert p.kind in STATIC_KINDS or p.kind in DYNAMIC_KINDS, \
                    (spec.name, p.name, p.kind)

    def test_key_fn_keys_exactly_the_static_parameters(self):
        for fname, spec in F.FUNCS.items():
            asked: list[str] = []
            key = _plan_for(fname).key_fn(asked.append)
            assert asked == [p.name for p in spec.params
                             if p.kind not in DYNAMIC_KINDS], fname
            assert key[0] == spec.fid and len(key) == 1 + len(asked)


class TestAbort:
    def test_abort_terminates_run(self):
        def prog(m):
            if m.rank == 0:
                m.abort(errorcode=7)
            yield from m.barrier()

        with pytest.raises((MpiSimError, RankProgramError)):
            run_program(2, prog)

    def test_abort_is_traced_before_teardown(self):
        from repro.core import PilgrimTracer
        from repro.mpisim import SimMPI

        def prog(m):
            m.abort(errorcode=3)
            yield

        tracer = PilgrimTracer()
        sim = SimMPI(1, seed=0, tracer=tracer)
        with pytest.raises((MpiSimError, RankProgramError)):
            sim.run(prog)
        # the call reached the tracer even though the run died
        assert tracer.total_calls >= 2  # MPI_Init + MPI_Abort
