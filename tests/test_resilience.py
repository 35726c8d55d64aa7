"""Resilience subsystem tests: fault plans, the injector, retry
supervision, the chaos recovery property and partial-trace salvage."""

import pytest

import repro
from repro import fuzz
from repro.core import (CorruptTraceError, MissingRankError, PilgrimTracer,
                        TraceDecoder, TracerOptions, TracePipeline)
from repro.resilience import (FOREVER, FaultInjector, FaultPlan, FaultSpec,
                              InjectedOSError, RetryPolicy, SalvageReport,
                              TaskSupervisor, WorkerDiedError, arm)
from repro.resilience.chaos import run_chaos_case, run_fault_matrix
from repro.workloads import make

WORKLOAD = "stencil2d"
NP = 4
PARAMS = {"iters": 3}


def trace(**kw):
    return repro.trace(WORKLOAD, NP, params=dict(PARAMS), **kw)


@pytest.fixture(scope="module")
def reference():
    return trace()


# -- fault plans -------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            "kill@merge*2;corrupt@shard.freeze:rank=1;"
            "oserror@serialize*forever", seed=7)
        assert plan.seed == 7
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["kill", "corrupt", "oserror"]
        assert plan.specs[0].times == 2
        assert plan.specs[1].rank == 1
        assert plan.specs[2].times == FOREVER

    def test_parse_rejects_garbage(self):
        # the reduce is one pass: there are no per-level merge sites
        for bad in ("explode@merge", "kill@nowhere", "kill@merge*0",
                    "kill@merge:p=2", "kill@merge:bogus=1",
                    "kill@merge.level.0"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_sched_kinds_only_on_sched_site(self):
        with pytest.raises(ValueError):
            FaultSpec("delay", "merge")
        with pytest.raises(ValueError):
            FaultSpec("kill", "sched")

    def test_sched_faults_must_be_bounded(self):
        # an unbounded delay could starve the last runnable rank forever
        with pytest.raises(ValueError):
            FaultSpec("delay", "sched", times=FOREVER)

    def test_random_plans_are_deterministic(self):
        a = FaultPlan.random(42, nprocs=8)
        b = FaultPlan.random(42, nprocs=8)
        assert a == b
        assert 1 <= len(a.specs) <= 3

    def test_empty_plan_arms_to_none(self):
        assert arm(None) is None
        assert arm(FaultPlan(())) is None
        inj = arm(FaultPlan.parse("kill@merge"))
        assert isinstance(inj, FaultInjector)
        assert arm(inj) is inj  # idempotent


class TestFaultInjector:
    def test_times_budget(self):
        inj = arm(FaultPlan.parse("oserror@merge*2"))
        with pytest.raises(InjectedOSError):
            inj.raise_failure("merge", 0)
        with pytest.raises(InjectedOSError):
            inj.raise_failure("merge", 1)
        inj.raise_failure("merge", 2)  # budget spent: no-op
        assert len(inj.fired) == 2
        assert inj.exhausted

    def test_rank_targeting(self):
        inj = arm(FaultPlan.parse("oserror@shard.freeze:rank=2;"
                                  "kill@merge:rank=5"))
        inj.raise_failure("shard.freeze", 0)  # wrong rank: no-op
        with pytest.raises(InjectedOSError):
            inj.raise_failure("shard.freeze", 2)
        inj.raise_failure("merge", 4)
        with pytest.raises(WorkerDiedError):
            inj.raise_failure("merge", 5)
        assert inj.fired[-1] == "kill@merge[rank=5]"

    def test_corrupt_bytes_preserves_header(self):
        inj = arm(FaultPlan.parse("corrupt@serialize;truncate@serialize",
                                  seed=5))
        data = bytes(range(200))
        damaged = inj.corrupt_bytes("serialize", data)
        assert damaged is not None and damaged != data
        assert damaged[:16] == data[:16]
        truncated = inj.corrupt_bytes("serialize", data)
        assert truncated is not None and len(truncated) >= 16
        assert inj.corrupt_bytes("serialize", data) is None  # spent

    def test_wants_sched(self):
        assert arm(FaultPlan.parse("delay@sched*3")).wants_sched
        assert not arm(FaultPlan.parse("kill@merge")).wants_sched


# -- retry supervision -------------------------------------------------------------


class TestSupervisor:
    def test_retries_then_succeeds(self):
        sup = TaskSupervisor(RetryPolicy(max_retries=3, backoff_base=0.0,
                                         backoff_cap=0.0),
                             (OSError,), sleep=lambda s: None)
        calls = []

        def thunk(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise OSError("transient")
            return "done"

        assert sup.run(thunk, site="merge") == "done"
        assert calls == [0, 1, 2]
        assert sup.stats.retries == 2

    def test_exhaustion_calls_fallback(self):
        sup = TaskSupervisor(RetryPolicy(max_retries=1, backoff_base=0.0,
                                         backoff_cap=0.0),
                             (OSError,), sleep=lambda s: None)

        def thunk(attempt):
            raise OSError("permanent")

        out = sup.run(thunk, site="shard.freeze",
                      on_exhausted=lambda exc: ("fallback", str(exc)))
        assert out == ("fallback", "permanent")
        assert sup.stats.gave_up == 1

    def test_exhaustion_reraises_without_fallback(self):
        sup = TaskSupervisor(RetryPolicy(max_retries=0),
                             (OSError,), sleep=lambda s: None)
        with pytest.raises(OSError):
            sup.run(lambda attempt: (_ for _ in ()).throw(OSError("x")),
                    site="serialize")

    def test_worker_deaths_are_retried_and_counted(self):
        sup = TaskSupervisor(
            RetryPolicy(max_retries=5, backoff_base=0.0, backoff_cap=0.0),
            (WorkerDiedError,), sleep=lambda s: None)
        deaths = iter([True, True, False])

        def thunk(attempt):
            if next(deaths):
                raise WorkerDiedError("worker died")
            return "ok"

        assert sup.run(thunk, site="merge") == "ok"
        assert sup.stats.worker_deaths == 2
        assert sup.stats.retries == 2

    @pytest.mark.parametrize("field", ["max_retries", "backoff_base",
                                       "backoff_cap"])
    def test_negative_policy_fields_rejected_by_name(self, field):
        # unchecked, a negative backoff passes construction and dies at
        # the first retry inside time.sleep, naming no field
        with pytest.raises(ValueError, match=f"RetryPolicy.{field}"):
            RetryPolicy(**{field: -0.01 if "backoff" in field else -1})

    def test_backoff_is_bounded_and_seeded(self):
        pol = RetryPolicy(backoff_base=0.01, backoff_cap=0.05, seed=3)
        a = TaskSupervisor(pol, (), sleep=lambda s: None)
        b = TaskSupervisor(pol, (), sleep=lambda s: None)
        da = [a.backoff(i) for i in range(6)]
        db = [b.backoff(i) for i in range(6)]
        assert da == db  # same seed, same jitter
        assert all(0 <= d <= 0.05 for d in da)

    def test_unretryable_error_escapes(self):
        sup = TaskSupervisor(RetryPolicy(max_retries=3),
                             (OSError,), sleep=lambda s: None)
        with pytest.raises(KeyError):
            sup.run(lambda attempt: (_ for _ in ()).throw(KeyError("x")),
                    site="merge")


# -- salvage report ----------------------------------------------------------------


class TestSalvageReport:
    def test_lose_rank_dedupes_and_keeps_max(self):
        rep = SalvageReport()
        rep.lose_rank(3, 10, "first")
        rep.lose_rank(3, 25, "second")
        assert rep.lost_ranks == [3]
        assert rep.call_deficit == 25

    def test_merge_and_survivors(self):
        a = SalvageReport()
        a.lose_rank(0, 5)
        b = SalvageReport()
        b.lose_rank(2, 7)
        b.lose_section("timing")
        a.merge(b)
        assert a.lost_ranks == [0, 2]
        assert a.call_deficit == 12
        assert a.lost_sections == ["timing"]
        assert a.surviving_ranks(4) == [1, 3]
        assert a.degraded

    def test_summary_renders_spans(self):
        rep = SalvageReport()
        for r in (0, 1, 2, 5):
            rep.lose_rank(r, 1)
        assert "0-2" in rep.summary() and "5" in rep.summary()

    def test_empty_is_not_degraded(self):
        rep = SalvageReport()
        assert not rep.degraded
        assert rep.call_deficit == 0


# -- the chaos property ------------------------------------------------------------


class TestChaosProperty:
    """Any seeded fault plan must end in byte-identical recovery OR a
    degraded result whose salvage report conserves calls — never an
    unhandled exception (the PR's headline property)."""

    @pytest.mark.parametrize("plan_seed", range(100, 112))
    def test_random_plan_recovers_or_degrades(self, plan_seed):
        plan = FaultPlan.random(plan_seed, nprocs=NP)
        case = run_chaos_case(WORKLOAD, NP, plan, params=dict(PARAMS))
        assert case.ok, case.describe()

    def test_matrix_helper(self):
        cases = run_fault_matrix([WORKLOAD], nprocs=NP, n_plans=4,
                                 params=dict(PARAMS))
        assert len(cases) == 4
        assert all(c.ok for c in cases)

    @pytest.mark.parametrize("plan", [
        "oserror@shard.freeze*3",
        "memoryerror@merge*2",
        "corrupt@serialize",
        "truncate@shard.freeze:rank=1",
        "kill@merge;stall@merge",
        "delay@sched*6;drop@sched*2",
    ])
    def test_transient_faults_recover_byte_identical(self, plan, reference):
        r = trace(fault_plan=plan)
        assert r.fired_faults, "plan never fired"
        assert not r.degraded
        assert r.trace_bytes == reference.trace_bytes

    def test_injection_points_are_noops_without_plan(self, reference):
        # a second fault-free run is byte-identical: arming machinery
        # does not perturb the pipeline
        assert trace().trace_bytes == reference.trace_bytes

    def test_permanent_kill_degrades_with_exact_accounting(self, reference):
        r = trace(fault_plan="kill@shard.freeze*forever:rank=2")
        assert r.degraded
        assert r.salvage is not None
        assert r.salvage.lost_ranks == [2]
        ref_dec = TraceDecoder.from_bytes(reference.trace_bytes)
        assert r.salvage.call_deficit == ref_dec.call_count(2)
        # the surviving ranks still decode to the reference streams
        # (compare signatures, not terminal ids — dropping a rank's shard
        # renumbers the merged CST)
        dec = TraceDecoder.from_bytes(r.trace_bytes, salvage=True)
        for rank in (0, 1, 3):
            got = [dec.trace.cst.sigs[t] for t in dec.rank_terminals(rank)]
            ref = [ref_dec.trace.cst.sigs[t]
                   for t in ref_dec.rank_terminals(rank)]
            assert got == ref

    def test_exhausted_absorb_loses_one_rank(self, reference):
        """A merge fault that never clears loses the rank it targets,
        not a merged span: the other ranks' absorbs go through."""
        r = trace(fault_plan="oserror@merge*forever:rank=2")
        assert r.degraded
        assert r.salvage.lost_ranks == [2]
        ref_dec = TraceDecoder.from_bytes(reference.trace_bytes)
        assert r.salvage.call_deficit == ref_dec.call_count(2)
        dec = TraceDecoder.from_bytes(r.trace_bytes, salvage=True)
        assert dec.call_count(2) == 0
        for rank in (0, 1, 3):
            assert dec.call_count(rank) == ref_dec.call_count(rank)

    def test_degraded_verify_passes_with_allow(self):
        rep = repro.verify(WORKLOAD, NP, **PARAMS,
                           fault_plan="kill@shard.freeze*forever:rank=2",
                           allow_degraded=True)
        assert rep.ok, rep.mismatches
        assert rep.checks["salvage_accounting"]

    def test_degraded_verify_fails_strict(self):
        rep = repro.verify(WORKLOAD, NP, **PARAMS,
                           fault_plan="kill@shard.freeze*forever:rank=2")
        assert not rep.ok
        assert rep.checks.get("degraded") is False

    def test_retry_counters_reach_metrics(self):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        r = trace(fault_plan="oserror@merge*2",
                  options=TracerOptions(metrics=metrics))
        assert not r.degraded
        counters = metrics.snapshot()["counters"]
        assert counters.get("pipeline.retries", 0) >= 2


# -- salvage decode ----------------------------------------------------------------


class TestSalvageDecode:
    def test_corpus_raises_missing_rank(self, reference):
        blob = reference.trace_bytes
        mutations = dict(fuzz.trace_corpus(blob))
        mut = mutations[
            "header declares one more rank than the rank map covers"]
        dec = TraceDecoder.from_bytes(mut, salvage=True)
        assert dec.salvage is not None
        assert dec.salvage.lost_ranks == [NP]
        with pytest.raises(MissingRankError) as exc:
            dec.rank_terminals(NP)
        assert exc.value.rank == NP
        with pytest.raises(IndexError):
            dec.rank_terminals(NP + 1)  # out of range: caller bug

    def test_phantom_ranks_are_one_span_and_a_huge_header_is_refused(
            self, reference):
        mutations = dict(fuzz.trace_corpus(reference.trace_bytes))
        dec = TraceDecoder.from_bytes(
            mutations["header declares 16 phantom ranks past the rank map"],
            salvage=True)
        assert dec.salvage.lost_ranks == list(range(NP, NP + 16))
        assert dec.salvage.notes == [
            f"ranks [{NP}, {NP + 16}): absent from rank map"]
        # nprocs is outside every CRC: a flipped high bit must not make
        # the report enumerate 2**40 ranks
        with pytest.raises(CorruptTraceError, match="at most"):
            TraceDecoder.from_bytes(
                mutations["header declares 2**40 ranks"], salvage=True)

    def test_truncated_blob_salvages_what_parses(self, reference):
        blob = reference.trace_bytes
        # cut inside the CFG section: the CST survives, everything that
        # depends on the CFG is reported lost
        dec = TraceDecoder.from_bytes(blob[:len(blob) - 10], salvage=True)
        assert dec.salvage is not None
        assert dec.salvage.degraded

    def test_salvage_fuzz_never_crashes(self, reference):
        report = fuzz.run(fuzz.salvage_target(reference.trace_bytes),
                          seed=0, n_random=80)
        assert report.ok, [str(f) for f in report.failures[:5]]
        assert report.salvaged > 0

    def test_strict_fuzz_still_structured(self, reference):
        report = fuzz.run(fuzz.trace_target(reference.trace_bytes),
                          seed=0, n_random=80)
        assert report.ok, [str(f) for f in report.failures[:5]]


# -- scheduler injection -----------------------------------------------------------


class TestSchedulerFaults:
    def test_delay_drop_preserve_trace(self, reference):
        r = trace(fault_plan="delay@sched*9;drop@sched*3")
        fired = [f for f in r.fired_faults if "sched" in f]
        assert fired
        assert r.trace_bytes == reference.trace_bytes

    def test_injector_shared_between_run_and_pipeline(self):
        # one plan, one injector: scheduler and pipeline fires land in
        # the same log with one global times= budget
        r = trace(fault_plan="delay@sched*2;oserror@merge")
        sites = {f.split("@")[1].split("[")[0] for f in r.fired_faults}
        assert "sched" in sites
        assert any(s.startswith("merge") for s in sites)


# -- pipeline plumbing -------------------------------------------------------------


class TestPipelinePlumbing:
    def test_pipeline_not_resilient_by_default(self):
        assert not TracePipeline().resilient

    def test_retry_policy_inherits_plan_seed(self):
        pipe = TracePipeline(faults=FaultPlan.parse("kill@merge", seed=9))
        assert pipe.resilient
        assert pipe.supervisor.policy.seed == 9

    def test_freeze_fallback_placeholder_keeps_shape(self):
        tracer = PilgrimTracer(
            fault_plan=FaultPlan.parse("kill@shard.freeze*forever:rank=0"))
        make(WORKLOAD, NP, **PARAMS).run(seed=1, tracer=tracer)
        res = tracer.result
        assert res.degraded
        dec = TraceDecoder.from_bytes(res.trace_bytes, salvage=True)
        assert dec.nprocs == NP
        assert dec.call_count(0) == 0  # placeholder: empty, not absent
