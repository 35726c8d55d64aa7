"""CST interning/merging and inter-process grammar compression tests."""

from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.core.cst import CST, MergedCST
from repro.core.grammar import Grammar
from repro.core.interproc import expand_rank, merge_grammars
from repro.core.packing import Reader
from repro.core.sequitur import Sequitur


def merge_csts(csts: list[CST]) -> MergedCST:
    """Inter-process CST compression (§3.5.1), the paper's way: its
    ceil(log2 P) phases of pairwise merges, then the per-rank terminal
    remap tables from the final global numbering.  The tracer builds its
    table with the one-pass reduce (``repro.core.shard.reduce_shards``);
    this is the oracle the tests below and ``test_trace_format.py``
    build traces with."""
    nprocs = len(csts)
    # working copies: sig -> (count, dur_sum); global numbering grows as
    # novel signatures are appended during merges, preserving the lower
    # partner's numbering exactly as in Fig 3
    partial: list[Optional[dict[tuple, int]]] = []
    order: list[Optional[list[tuple]]] = []
    stats: dict[tuple, tuple[int, float]] = {}
    for cst in csts:
        d = dict(cst._table)
        partial.append(d)
        order.append(list(cst.sigs))
        for sig, c, s in zip(cst.sigs, cst.counts, cst.dur_sums):
            got = stats.get(sig)
            stats[sig] = (c, s) if got is None else (got[0] + c, got[1] + s)

    stride = 1
    while stride < nprocs:
        for left in range(0, nprocs, 2 * stride):
            right = left + stride
            if right >= nprocs:
                continue
            ltab, lorder = partial[left], order[left]
            for sig in order[right]:
                if sig not in ltab:
                    ltab[sig] = len(lorder)
                    lorder.append(sig)
            partial[right] = None
            order[right] = None
        stride *= 2

    final_order = order[0] if nprocs else []
    final_index = partial[0] if nprocs else {}
    remaps = []
    for cst in csts:
        remaps.append([final_index[sig] for sig in cst.sigs])
    return MergedCST(
        sigs=list(final_order),
        counts=[stats[s][0] for s in final_order],
        dur_sums=[stats[s][1] for s in final_order],
        remaps=remaps,
    )


def freeze(seq):
    s = Sequitur()
    for v in seq:
        s.append(v)
    return Grammar.freeze(s)


class TestCST:
    def test_intern_assigns_dense_terminals(self):
        c = CST()
        assert c.intern(("a",), 0.1) == 0
        assert c.intern(("b",), 0.2) == 1
        assert c.intern(("a",), 0.3) == 0
        assert len(c) == 2

    def test_stats_aggregate(self):
        c = CST()
        c.intern(("a",), 1.0)
        c.intern(("a",), 3.0)
        assert c.counts[0] == 2
        assert c.avg_duration(0) == 2.0

    def test_contains_lookup(self):
        c = CST()
        c.intern(("x", 1), 0.0)
        assert ("x", 1) in c
        assert c.lookup(("x", 1)) == 0
        assert c.lookup(("y",)) is None


class TestMergeCSTs:
    def _cst(self, sigs):
        c = CST()
        for s in sigs:
            c.intern(s, 1.0)
        return c

    def test_fig3_example(self):
        """The paper's Fig 3: two ranks sharing one signature."""
        r0 = self._cst([("barrier", "comm1"), ("barrier", "comm2")])
        r1 = self._cst([("barrier", "comm1"), ("barrier", "comm3")])
        merged = merge_csts([r0, r1])
        assert len(merged) == 3
        # rank 0's numbering is preserved; rank 1's comm3 gets terminal 2
        assert merged.sigs[0] == ("barrier", "comm1")
        assert merged.sigs[1] == ("barrier", "comm2")
        assert merged.sigs[2] == ("barrier", "comm3")
        assert merged.remaps[0] == [0, 1]
        assert merged.remaps[1] == [0, 2]

    def test_counts_summed_across_ranks(self):
        r0, r1 = self._cst([("a",)]), self._cst([("a",), ("b",)])
        r0.intern(("a",), 1.0)  # second occurrence on rank 0
        merged = merge_csts([r0, r1])
        assert merged.counts[merged.sigs.index(("a",))] == 3

    def test_identical_csts_collapse(self):
        csts = [self._cst([("a",), ("b",)]) for _ in range(8)]
        merged = merge_csts(csts)
        assert len(merged) == 2
        assert all(r == [0, 1] for r in merged.remaps)

    def test_non_power_of_two_ranks(self):
        csts = [self._cst([(f"r{i}",)]) for i in range(5)]
        merged = merge_csts(csts)
        assert len(merged) == 5
        for i, r in enumerate(merged.remaps):
            assert merged.sigs[r[0]] == (f"r{i}",)

    def test_serialization_roundtrip(self):
        merged = merge_csts([self._cst([("a", 1), ("b", (2, 3))])])
        out = bytearray()
        merged.write_to(out)
        back = MergedCST.read_from(Reader(bytes(out)))
        assert back.sigs == merged.sigs
        assert back.counts == merged.counts

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=10),
                    min_size=1, max_size=9))
    def test_merge_equals_union_property(self, rank_sigs):
        csts = [self._cst([(v,) for v in sigs]) for sigs in rank_sigs]
        merged = merge_csts(csts)
        expected = set()
        for sigs in rank_sigs:
            expected.update((v,) for v in sigs)
        assert set(merged.sigs) == expected
        # remaps must be consistent: remap[t] points at the same signature
        for cst, remap in zip(csts, merged.remaps):
            for local_t, global_t in enumerate(remap):
                assert merged.sigs[global_t] == cst.sigs[local_t]


class TestMergeGrammars:
    def test_identical_grammars_dedup(self):
        gs = [freeze([1, 2, 3] * 5)] * 8
        res = merge_grammars(gs)
        assert res.n_unique == 1
        assert res.rank_uid == [0] * 8

    def test_expansion_is_rank_concatenation(self):
        gs = [freeze([1, 2] * 3), freeze([3, 4]), freeze([1, 2] * 3)]
        res = merge_grammars(gs)
        assert res.final.expand() == [1, 2] * 3 + [3, 4] + [1, 2] * 3

    def test_expand_single_rank(self):
        gs = [freeze([i, i + 1] * 4) for i in range(5)]
        res = merge_grammars(gs)
        for r in range(5):
            assert expand_rank(res, r) == [r, r + 1] * 4

    def test_dedup_false_keeps_all(self):
        gs = [freeze([1, 2])] * 4
        res = merge_grammars(gs, dedup=False)
        assert res.n_unique == 4
        assert res.final.expand() == [1, 2] * 4

    def test_dedup_shrinks_output(self):
        gs = [freeze([1, 2, 3, 4] * 50)] * 64
        sizes = []
        for dedup in (True, False):
            out = bytearray()
            merge_grammars(gs, dedup=dedup).final.write_to(out)
            sizes.append(len(out))
        with_d, without = sizes
        assert with_d < without / 10

    def test_alternating_classes_compress_at_top(self):
        a, b = freeze([1] * 10), freeze([2] * 10)
        res = merge_grammars([a, b] * 16)
        assert res.n_unique == 2
        # 32 ranks cost only a handful of top-level tokens
        assert res.final.n_tokens < 16

    def test_blocked_classes_runlength_at_top(self):
        a, b = freeze([1] * 10), freeze([2] * 10)
        res = merge_grammars([a] * 500 + [b] * 500)
        assert res.final.n_tokens <= 6  # two exponent tokens + rules

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), max_size=12),
                    min_size=1, max_size=8))
    def test_concat_property(self, rank_seqs):
        gs = [freeze(seq) for seq in rank_seqs]
        res = merge_grammars(gs)
        expected = [v for seq in rank_seqs for v in seq]
        assert res.final.expand() == expected
        for r, seq in enumerate(rank_seqs):
            assert expand_rank(res, r) == seq
