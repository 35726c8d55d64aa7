"""Consistency tests for the MPI function registry — the analogue of the
paper's "wrappers generated from the standard" completeness guarantee."""

import ast
import builtins
import re
from pathlib import Path

import pytest

from conftest import run_program
from repro import mpisim
from repro.core import encoder
from repro.core.encoder import DYNAMIC_KINDS, PLANS, STATIC_KINDS
from repro.mpisim import SimMPI, datatypes as dt, funcs as F
from repro.mpisim.comm import Comm
from repro.mpisim.datatypes import Datatype
from repro.mpisim.errors import MpiSimError, RankProgramError
from repro.mpisim.group import Group
from repro.mpisim.hooks import TracerHooks
from repro.mpisim.ops import Op
from repro.mpisim.request import Request
from repro.mpisim.runtime import RankAPI
from repro.mpisim.status import Status
from repro.mpisim.win import Win
from test_replay_registry import TOUR

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

    def test_the_cache_key_reads_exactly_the_static_parameters(self):
        """Of every function's generated ``encode``: the key is the fid,
        then one expression per static parameter, each over that
        parameter's own argument, in registry order."""
        for fname, spec in F.FUNCS.items():
            tree = ast.parse(PLANS[fname]._source())
            key, = [n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Assign)
                    and ast.unparse(n.targets[0]) == "key"
                    and isinstance(n.value, ast.Tuple)]
            assert key.elts[0].value == spec.fid, fname
            reads = [{n.id for n in ast.walk(elt) if isinstance(n, ast.Name)
                      and re.fullmatch(r"a\d+", n.id)}
                     for elt in key.elts[1:]]
            assert reads == [{f"a{i}"} for i, p in enumerate(spec.params)
                             if p.kind not in DYNAMIC_KINDS], fname

    def test_the_generated_text_names_only_what_it_is_given(self):
        """A name missing from ``_NAMES`` would be a ``NameError`` on the
        first call that reaches it, not at generation."""
        for fname in F.FUNCS:
            names = [n for n in ast.walk(ast.parse(PLANS[fname]._source()))
                     if isinstance(n, ast.Name)]
            bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
            free = {n.id for n in names} - bound - {"enc", "values", "plan"}
            assert free <= set(encoder._NAMES) | set(dir(builtins)), fname

    def test_a_shape_without_an_encoder_fails_when_its_plan_is_made(
            self, monkeypatch):
        def spec(*kinds):
            return F.FuncSpec("MPI_New", 999, tuple(
                F.Param(f"p{i}", F.IN, k) for i, k in enumerate(kinds)))

        for kinds in ((F.K_STATUS, F.K_STATUSV),      # two statuses
                      (F.K_REQUEST, F.K_REQUESTV),    # two requests
                      (F.K_REQUESTV, F.K_STATUS),     # which request's?
                      (F.K_REQUEST, F.K_STATUSV)):
            monkeypatch.setitem(F.FUNCS, "MPI_New", spec(*kinds))
            with pytest.raises(NotImplementedError, match="MPI_New"):
                encoder._CallPlan("MPI_New")


# -- the PMPI boundary is positional: checked, not hoped -----------------------------------
#
# ``_rec(name, t0, values)`` hands the hook a bare tuple; nothing at run
# time says which value is which.  Arity is the AST walk's job, a swap
# across kinds the typed tour's, a swap within a kind (count <-> tag) the
# golden's (``tests/test_mpisim_golden.py``, recorded through the by-name
# dicts these tuples replaced).

_INT = (lambda v: type(v) is int, "an int")
_HANDLE = {F.K_COMM: Comm, F.K_NEWCOMM: Comm, F.K_GROUP: Group,
           F.K_DATATYPE: Datatype, F.K_NEWTYPE: Datatype, F.K_WIN: Win,
           F.K_NEWWIN: Win, F.K_REQUEST: Request, F.K_STATUS: Status}


def _seq_of(fits):
    return lambda v: v is None or (isinstance(v, (list, tuple))
                                   and all(map(fits, v)))


def _opt(cls):
    return lambda v: v is None or isinstance(v, cls)


#: parameter kind -> (does a live value fit it?, what it should be)
KIND_FITS = {
    **{kind: (_opt(cls), f"{cls.__name__} | None")
       for kind, cls in _HANDLE.items()},
    **{kind: _INT for kind in (
        F.K_RANK, F.K_ROOT, F.K_TAG, F.K_COLOR, F.K_KEY, F.K_PTR,
        F.K_COUNT, F.K_INT, F.K_INDEX)},
    F.K_FLAG: (lambda v: type(v) is bool, "a bool"),
    F.K_STR: (lambda v: type(v) is str, "a str"),
    F.K_OP: (lambda v: isinstance(v, Op), "an Op"),
    F.K_INTV: (_seq_of(lambda x: type(x) is int or (
        isinstance(x, tuple) and all(type(i) is int for i in x))),
        "ints (or int triples), or None"),
    F.K_INDEXV: (_seq_of(_INT[0]), "ints, or None"),
    F.K_DATATYPEV: (_seq_of(_opt(Datatype)), "Datatypes"),
    F.K_REQUESTV: (lambda v: isinstance(v, list) and all(
        map(_opt(Request), v)), "a list of Request | None"),
    F.K_STATUSV: (lambda v: v is None or (isinstance(v, list) and all(
        map(_opt(Status), v))), "a list of Status | None, or None"),
}


class _Sites(ast.NodeVisitor):
    """Every ``x._rec(name, t0, values)`` call, with the function it is
    written in; and every other call, by the attribute called."""

    def __init__(self):
        self.recs, self.calls, self._fn = [], {}, None

    def visit_FunctionDef(self, node):
        outer, self._fn = self._fn, node
        self.generic_visit(node)
        self._fn = outer

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "_rec":
                self.recs.append((self._fn, node))
            self.calls.setdefault(node.func.attr, []).append(node)
        self.generic_visit(node)


def rec_site_errors(sources: dict) -> list:
    """What is wrong with the ``_rec`` sites of *sources* (module name ->
    text): a list of ``where: what`` strings, empty when every site hands
    over a tuple literal of its function's arity."""
    sites = _Sites()
    for module, text in sources.items():
        for node in ast.walk(tree := ast.parse(text)):
            node.module = module
        sites.visit(tree)
    errors = []
    for fn, call in sites.recs:
        where = f"{call.module}:{call.lineno}"
        name, _t0, values = call.args
        if not isinstance(values, ast.Tuple):
            errors.append(f"{where}: values is not a tuple literal")
            continue
        if isinstance(name, ast.Constant):
            names = {name.value}
        else:
            # a helper recording on behalf of its callers: each passes a
            # literal name, and all of them declare the same parameters
            at = [a.arg for a in fn.args.args].index(name.id) - 1
            names = {c.args[at].value if isinstance(c.args[at], ast.Constant)
                     else None for c in sites.calls.get(fn.name, ())}
        if not names or not names <= set(F.FUNCS):
            errors.append(f"{where}: not every caller names a function")
            continue
        params = {tuple(F.FUNCS[n].pos) for n in names}
        if len(params) > 1:
            errors.append(f"{where}: {sorted(names)} differ in parameters")
        elif len(values.elts) != len(*params):
            errors.append(f"{where}: {len(values.elts)} values for "
                          f"{sorted(names)}{list(*params)}")
    return errors


class _TypedHooks(TracerHooks):
    """Checks every hooked call's values against its registry entry."""

    def __init__(self):
        self.seen, self.errors = set(), []

    def on_call(self, rank, fname, values, t0, t1):
        spec = F.FUNCS[fname]
        self.seen.add(fname)
        if not isinstance(values, tuple) or len(values) != len(spec.params):
            self.errors.append(f"{fname}: {values!r} is not a tuple of "
                               f"{len(spec.params)}")
            return
        for p, v in zip(spec.params, values):
            fits, what = KIND_FITS[p.kind]
            if not fits(v):
                self.errors.append(
                    f"{fname}.{p.name} ({p.kind}): {v!r} is not {what}")


def counted_receive(m):
    """The tour's one gap that runs to completion (replay does not
    re-issue ``MPI_Get_count``)."""
    buf = m.malloc(64)
    _data, st = yield from m.sendrecv(buf, 1, dt.INT, 1 - m.rank, 1,
                                      buf + 32, 1, dt.INT, 1 - m.rank, 1)
    assert m.get_count(st, dt.INT) == 1


def typed_tour(stops={**TOUR, "counted_receive": (2, counted_receive)}
               ) -> _TypedHooks:
    hooks = _TypedHooks()
    for nprocs, program in stops.values():
        SimMPI(nprocs, seed=1, tracer=hooks).run(program)
    return hooks


class TestThePositionalBoundary:
    SOURCES = {path.name: path.read_text() for path in
               sorted(Path(mpisim.__file__).parent.glob("*.py"))}

    def test_every_rec_site_passes_its_functions_arity(self):
        assert rec_site_errors(self.SOURCES) == []
        sites = _Sites()
        for text in self.SOURCES.values():
            sites.visit(ast.parse(text))
        literal = {call.args[0].value for _fn, call in sites.recs
                   if isinstance(call.args[0], ast.Constant)}
        helpers = {fn.name for fn, call in sites.recs
                   if not isinstance(call.args[0], ast.Constant)}
        assert helpers == {"_blocking_send", "_rec_some"}
        assert literal | {"MPI_Send", "MPI_Ssend", "MPI_Bsend", "MPI_Rsend",
                          "MPI_Testsome"} == set(F.FUNCS)

    def test_the_ast_arm_fails_on_a_dropped_element(self):
        text = self.SOURCES["api_p2p.py"]
        site = "buf, count, datatype, source, tag, comm, req))"
        assert site in text
        errors = rec_site_errors({"api_p2p.py": text.replace(
            site, "buf, count, datatype, source, comm, req))", 1)})
        assert len(errors) == 1 and "6 values for ['MPI_Irecv']" in errors[0]
        # a helper whose callers disagree, a name that is no function
        text = self.SOURCES["api_completion.py"]
        errors = rec_site_errors({"api_completion.py": text.replace(
            'self._rec_some("MPI_Testsome"', 'self._rec_some("MPI_Testall"')})
        assert any("differ in parameters" in e for e in errors)
        errors = rec_site_errors({"api_completion.py": text.replace(
            'self._rec("MPI_Wait",', 'self._rec("MPI_Wiat",')})
        assert any("names a function" in e for e in errors)

    def test_every_kind_says_what_fits_it(self):
        assert set(KIND_FITS) == VALID_KINDS

    def test_every_hooked_value_fits_its_parameters_kind(self):
        hooks = typed_tour()
        assert hooks.errors == []
        assert hooks.seen == set(F.FUNCS) - {"MPI_Abort"}

    def test_the_runtime_arm_fails_on_a_swap_across_kinds(self, monkeypatch):
        """``count`` and ``datatype`` of one call site, swapped."""
        from repro.mpisim.api_base import ApiBase
        rec = ApiBase._rec

        def swapped(self, fname, t0, values):
            if fname == "MPI_Irecv":
                buf, count, datatype, *rest = values
                values = (buf, datatype, count, *rest)
            rec(self, fname, t0, values)

        monkeypatch.setattr(ApiBase, "_rec", swapped)
        errors = typed_tour({"send_modes": TOUR["send_modes"]}).errors
        assert [e.split(":")[0] for e in errors] == [
            "MPI_Irecv.count (count)", "MPI_Irecv.datatype (datatype)"]


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
