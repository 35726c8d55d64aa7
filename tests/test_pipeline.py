"""The sharded compression pipeline: shard artifacts, the one-pass
reduce and its tree oracle, and the tracer-backend registry.

The load-bearing property: :func:`repro.core.shard.merge_shards` is
associative, so *every* reduction shape — left fold, right fold, any
split point, the balanced tree — must produce byte-identical final
traces, and the product's one pass (:func:`repro.core.shard.
reduce_shards`) must produce the same bytes as all of them.
"""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (Grammar, GrammarSet, NullTracer, PilgrimTracer,
                        RankShard, RawTracer, TracePipeline, TracerOptions,
                        available_backends, make_tracer, merge_shards,
                        reduce_shards, register_backend, tree_reduce,
                        verify_workload)
from repro.core.backends import _BACKENDS, TracerOptions
from repro.core.errors import TraceFormatError
from repro.mpisim import SimMPI
from repro.obs import EventLog, MetricsRegistry
from repro.resilience.faults import InjectedOSError
from repro.scalatrace import ScalaTraceTracer
from repro.workloads import make

#: the four workload families every merge-order property is proven on
FAMILIES = [
    ("stencil2d", 8, {}),
    ("osu_latency", 4, {}),
    ("npb_mg", 8, {}),
    ("flash_sedov", 8, {"iters": 6}),
]


def _trace(name: str, nprocs: int, params: dict, *,
           lossy: bool = False, seed: int = 1) -> PilgrimTracer:
    tracer = PilgrimTracer(timing_mode="lossy" if lossy else "aggregate")
    make(name, nprocs, **params).run(seed=seed, tracer=tracer)
    return tracer


def _serialize(shard: RankShard, *, lossy: bool = False) -> bytes:
    return TracePipeline().serialize(shard).trace_bytes


def _fold_left(shards):
    acc = shards[0]
    for s in shards[1:]:
        acc = merge_shards(acc, s)
    return acc


def _fold_right(shards):
    acc = shards[-1]
    for s in reversed(shards[:-1]):
        acc = merge_shards(s, acc)
    return acc


class TestMergeAssociativity:
    """Every merge order/tree shape yields byte-identical traces."""

    @pytest.mark.parametrize("name,nprocs,params", FAMILIES)
    def test_all_tree_shapes_byte_identical(self, name, nprocs, params):
        tracer = _trace(name, nprocs, params)
        serial = tracer.result.trace_bytes
        shards = [rc.freeze() for rc in tracer.ranks]

        left = _serialize(_fold_left(shards))
        right = _serialize(_fold_right(shards))
        balanced = _serialize(tree_reduce(shards, merge_shards))
        assert left == serial
        assert right == serial
        assert balanced == serial
        assert _serialize(reduce_shards(shards)) == serial

    def test_lossy_timing_tree_shapes(self):
        tracer = _trace("stencil2d", 8, {}, lossy=True)
        serial = tracer.result.trace_bytes
        shards = [rc.freeze() for rc in tracer.ranks]
        assert _serialize(_fold_left(shards)) == serial
        assert _serialize(_fold_right(shards)) == serial
        assert _serialize(tree_reduce(shards, merge_shards)) == serial
        assert _serialize(reduce_shards(shards)) == serial

    def test_uneven_split_points(self):
        """Any split of the rank range reduces to the same trace: merge
        (0..k) with (k..P) for every k."""
        tracer = _trace("npb_mg", 8, {})
        serial = tracer.result.trace_bytes
        shards = [rc.freeze() for rc in tracer.ranks]
        for k in range(1, len(shards)):
            combined = merge_shards(_fold_left(shards[:k]),
                                    _fold_left(shards[k:]))
            assert _serialize(combined) == serial, f"split at {k}"

    def test_non_adjacent_merge_rejected(self):
        tracer = _trace("osu_latency", 4, {})
        shards = [rc.freeze() for rc in tracer.ranks]
        with pytest.raises(ValueError, match="not adjacent"):
            merge_shards(shards[0], shards[2])
        with pytest.raises(ValueError, match="not adjacent"):
            merge_shards(shards[1], shards[0])

    def test_merged_shard_accounting(self):
        tracer = _trace("stencil2d", 8, {})
        final = _fold_left([rc.freeze() for rc in tracer.ranks])
        assert final.nranks == 8
        assert final.total_calls == tracer.total_calls
        assert final.calls == tracer.result.per_rank_calls
        assert sum(final.counts) == tracer.total_calls

    def test_parallel_verify_workload(self):
        report = verify_workload("stencil2d", 8)
        assert report.ok, report.mismatches


class TestShardSerialization:
    def _roundtrip(self, shard: RankShard) -> RankShard:
        blob = shard.to_bytes()
        back = RankShard.from_bytes(blob)
        # the byte form is a fixed point of the reader
        assert back.to_bytes() == blob
        return back

    @pytest.mark.parametrize("lossy", [False, True])
    def test_single_rank_roundtrip(self, lossy):
        tracer = _trace("stencil2d", 4, {}, lossy=lossy)
        for rc in tracer.ranks:
            shard = rc.freeze()
            back = self._roundtrip(shard)
            assert back.sigs == shard.sigs
            assert back.counts == shard.counts
            assert back.dur_ns == shard.dur_ns
            assert back.calls == shard.calls
            assert back.cfg == shard.cfg
            assert back.timing_duration == shard.timing_duration
            assert (back.base_rank, back.nranks) == (rc.rank, 1)

    def test_merged_shard_roundtrip_preserves_trace(self):
        """A merged shard survives the wire: serializing the deserialized
        shard yields the same final trace bytes."""
        tracer = _trace("flash_sedov", 8, {"iters": 6})
        final = _fold_left([rc.freeze() for rc in tracer.ranks])
        back = self._roundtrip(final)
        assert _serialize(back) == tracer.result.trace_bytes

    def test_uncompressed_roundtrip(self):
        shard = _trace("osu_latency", 4, {}).ranks[0].freeze()
        blob = shard.to_bytes(compress=False)
        assert RankShard.from_bytes(blob).cfg == shard.cfg

    def test_corruption_raises_structured_errors(self):
        blob = _trace("osu_latency", 4, {}).ranks[0].freeze().to_bytes()
        for pos in range(len(blob)):
            for mutated in (blob[:pos], # every truncation
                            blob[:pos] + bytes([blob[pos] ^ 0x40])
                            + blob[pos + 1:]):  # and a bit flip
                try:
                    RankShard.from_bytes(mutated)
                except TraceFormatError:
                    pass  # structured rejection is the contract

    def test_bad_magic_and_version(self):
        blob = _trace("osu_latency", 4, {}).ranks[0].freeze().to_bytes()
        with pytest.raises(TraceFormatError, match="magic"):
            RankShard.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(TraceFormatError):
            RankShard.from_bytes(blob[:4] + b"\x63" + blob[5:])


class TestTreeReduce:
    """The generic scheduler, on a plain non-commutative monoid."""

    def test_matches_left_fold(self):
        items = [f"<{i}>" for i in range(11)]
        merges = []

        def merge(a, b):
            merges.append((a, b))
            return a + b

        assert tree_reduce(items, merge) == "".join(items)
        # ceil(log2 11) = 4 levels of 5, 3, 1 and 1 pair merges
        assert len(merges) == 10 and merges[5] == ("<0><1>", "<2><3>")

    def test_single_item_and_empty(self):
        assert tree_reduce(["x"], lambda a, b: a + b) == "x"
        with pytest.raises(ValueError):
            tree_reduce([], lambda a, b: a + b)

    def test_parallel_matches_serial(self):
        import operator
        items = [f"<{i}>" for i in range(13)]
        assert tree_reduce(items, operator.concat) == "".join(items)


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"pilgrim", "scalatrace", "raw", "null"} \
            <= set(available_backends())

    def test_make_tracer_types(self):
        assert isinstance(make_tracer("pilgrim"), PilgrimTracer)
        assert isinstance(make_tracer("scalatrace"), ScalaTraceTracer)
        assert isinstance(make_tracer("raw"), RawTracer)
        assert isinstance(make_tracer("null"), NullTracer)

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown tracer backend"):
            make_tracer("recorder")

    def test_options_and_overrides(self):
        opts = TracerOptions(lossy_timing=True, extra={"cfg_dedup": False})
        t = make_tracer("pilgrim", opts, lossy_timing=False)
        assert (t.timing_mode, t.cfg_dedup) == ("aggregate", False)
        # the shared options object is untouched
        assert opts.lossy_timing is True
        t = make_tracer("pilgrim", extra={"cfg_dedup": False})
        assert t.cfg_dedup is False

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("pilgrim", lambda opts: None)
        # replace=True is the explicit escape hatch
        original = _BACKENDS["pilgrim"]
        try:
            marker = lambda opts: NullTracer()  # noqa: E731
            register_backend("pilgrim", marker, replace=True)
            assert isinstance(make_tracer("pilgrim"), NullTracer)
        finally:
            _BACKENDS["pilgrim"] = original

    def test_null_and_raw_observe_every_call(self):
        pilgrim = _trace("stencil2d", 4, {})
        null = make_tracer("null")
        raw = make_tracer("raw")
        make("stencil2d", 4).run(seed=1, tracer=null)
        make("stencil2d", 4).run(seed=1, tracer=raw)
        assert null.result.total_calls == pilgrim.total_calls
        assert raw.result.total_calls == pilgrim.total_calls
        assert null.result.trace_bytes == b""
        assert null.result.trace_size == 0
        # raw is the uncompressed baseline: strictly larger than Pilgrim
        assert raw.result.trace_size > pilgrim.result.trace_size
        assert raw.result.per_rank_calls == pilgrim.result.per_rank_calls


class TestFinalizeIdempotence:
    def test_second_finalize_returns_cached(self):
        tracer = _trace("osu_latency", 4, {})
        first = tracer.result
        assert tracer.finalize() is first
        assert tracer.result is first

    def test_no_phase_double_counting(self):
        """A second finalize() must not re-fold the per-call accumulators
        into the profiler (the old behavior doubled every phase)."""
        tracer = PilgrimTracer(metrics=MetricsRegistry())
        make("osu_latency", 4).run(seed=1, tracer=tracer)
        phases = dict(tracer.profiler.phases())
        encode_count = tracer.profiler.count("encode")
        tracer.finalize()
        tracer.finalize()
        assert tracer.profiler.phases() == phases
        assert tracer.profiler.count("encode") == encode_count


class TestARunStartsOver:
    """``on_run_start`` begins a run: whatever the previous run on the
    same tracer accumulated is gone.  (A second ``stencil2d``/4 run used
    to return ``total_calls`` 248 over ``per_rank_calls`` summing to 124,
    on every backend, and the first run's seconds in its phases.)"""

    @pytest.mark.parametrize("backend",
                             ["pilgrim", "scalatrace", "raw", "null"])
    def test_a_second_run_reads_like_the_first(self, backend, monkeypatch):
        # a clock that ticks once per read: every timing a result carries
        # is exact, so the two results can be compared whole
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        tracer = make_tracer(backend,
                             TracerOptions(metrics=MetricsRegistry()))
        runs = []
        for _ in range(2):
            make("stencil2d", 4, iters=3).run(seed=1, tracer=tracer)
            runs.append({k: v for k, v in vars(tracer.result).items()
                         if k not in ("trace", "spans")})
        first, second = runs
        assert first["total_calls"] == 124
        assert second == first
        if "per_rank_calls" in first:
            assert sum(second["per_rank_calls"]) == second["total_calls"]
        if "phases" in first:  # one tick per stage per call
            assert second["phases"]["encode"] == second["total_calls"]


class TestEventLogNormalization:
    def test_disabled_log_not_wired_anywhere(self):
        log = EventLog(enabled=False)
        sim = SimMPI(nprocs=2, events=log)
        assert sim.events is None
        assert sim.scheduler.events is None

    def test_enabled_log_shared(self):
        log = EventLog()
        sim = SimMPI(nprocs=2, events=log)
        assert sim.events is log
        assert sim.scheduler.events is log


class TestPipelinePhases:
    def test_stage_phases_recorded(self):
        tracer = PilgrimTracer(metrics=MetricsRegistry())
        make("stencil2d", 8, ).run(seed=1, tracer=tracer)
        phases = tracer.result.phases
        # the reduce is one pass: one cst_merge phase, no per-level ones
        assert {"shard", "cst_merge", "cfg_merge", "serialize"} \
            <= set(phases)
        assert not [p for p in phases if ".level." in p]
        # one merge.task span per rank's absorb, inside cst_merge
        spans = tracer.result.spans
        reduce_span, = [s for s in spans if s["name"] == "cst_merge"]
        tasks = [s for s in spans if s["name"] == "merge.task"]
        assert [s["attrs"]["rank"] for s in tasks] == list(range(8))
        assert all(s["parent_id"] == reduce_span["span_id"] for s in tasks)

    def test_grammar_set_merge_dedups(self):
        tracer = _trace("stencil2d", 8, {})
        final = _fold_left([rc.freeze() for rc in tracer.ranks])
        assert len(final.cfg.unique) == tracer.result.n_unique_grammars
        assert len(final.cfg.uid) == 8
        assert final.cfg.per_rank()[0] is final.cfg.unique[final.cfg.uid[0]]


# -- the one pass against its tree oracle ------------------------------------------

#: a small signature pool, so rank tables overlap as often as not
SIG_POOL = [("MPI_Send", i) for i in range(5)] + [("MPI_Barrier",)]


@st.composite
def shard_lists(draw):
    """Adjacent shards from rank 0: single ranks with overlapping or
    disjoint tables and (from short columns over few symbols) often
    equal grammars, ``RankShard.empty`` placeholders, runs already
    merged into multi-rank shards; with or without lossy timing."""
    timing = draw(st.booleans())
    ranks = []
    for rank in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 4)) == 0:
            ranks.append(RankShard.empty(rank, 1, timing=timing))
            continue
        sigs = draw(st.lists(st.sampled_from(SIG_POOL), min_size=1,
                             max_size=4, unique=True))
        terms = draw(st.lists(st.integers(0, len(sigs) - 1), min_size=1,
                              max_size=10))
        shard = RankShard(
            base_rank=rank, nranks=1, sigs=sigs,
            counts=[terms.count(i) for i in range(len(sigs))],
            dur_ns=draw(st.lists(st.integers(0, 10 ** 9),
                                 min_size=len(sigs), max_size=len(sigs))),
            cfg=GrammarSet.single(Grammar.compress(terms)),
            calls=[len(terms)])
        if timing:
            bins = st.lists(st.integers(0, 3), min_size=len(terms),
                            max_size=len(terms))
            shard.timing_duration = GrammarSet.single(
                Grammar.compress(draw(bins)))
            shard.timing_interval = GrammarSet.single(
                Grammar.compress(draw(bins)))
        ranks.append(shard)
    cuts = sorted(draw(st.sets(st.integers(1, len(ranks) - 1)))
                  if len(ranks) > 1 else set())
    return [_fold_left(ranks[a:b])
            for a, b in zip([0, *cuts], [*cuts, len(ranks)])]


class TestOnePassOracle:
    """:func:`reduce_shards` is the product, the log P pair-merge tree
    its oracle: the same shard, byte for byte, on any shard list."""

    @settings(max_examples=150, deadline=None)
    @given(shard_lists())
    def test_one_pass_equals_the_tree(self, shards):
        want = tree_reduce(shards, merge_shards).to_bytes()
        assert reduce_shards(shards).to_bytes() == want

    def test_no_shards_reduce_to_an_empty_one(self):
        empty = reduce_shards([])
        assert (empty.nranks, empty.sigs, empty.cfg.uid) == (0, [], [])
        assert TracePipeline().reduce([]).to_bytes() == empty.to_bytes()

    def test_refuses_what_merge_shards_refuses(self):
        shards = [rc.freeze() for rc in _trace("osu_latency", 4, {}).ranks]
        with pytest.raises(ValueError, match="not adjacent"):
            reduce_shards([shards[0], shards[2]])
        lossy = _trace("osu_latency", 4, {}, lossy=True).ranks[1].freeze()
        with pytest.raises(ValueError, match="non-timing"):
            reduce_shards([shards[0], lossy])

    def test_a_failed_absorb_leaves_the_union_as_it_was(self, monkeypatch):
        """The retry contract: a fault in the middle of an absorb (after
        the signature pass, inside the grammar remap) leaves the union
        unchanged, so running the absorb again is the whole recovery."""
        from repro.core.shard import ShardUnion
        tracer = _trace("milc_su3_rmd", 8, {})  # every rank its own table
        shards = [rc.freeze() for rc in tracer.ranks]
        union = ShardUnion()
        for s in shards[:3]:
            union.absorb(s)
        before = union.shard.to_bytes()
        remap = Grammar.remap_terminals

        def failing(self, mapping):
            monkeypatch.setattr(Grammar, "remap_terminals", remap)
            raise InjectedOSError("injected oserror inside an absorb")

        monkeypatch.setattr(Grammar, "remap_terminals", failing)
        with pytest.raises(InjectedOSError):
            union.absorb(shards[3])
        assert union.shard.to_bytes() == before
        for s in shards[3:]:  # the retry, then the rest
            union.absorb(s)
        assert _serialize(union.shard) == tracer.result.trace_bytes
