"""Unit + property tests for run-length Sequitur (paper §2.2).

The two grammar invariants under test are the paper's P1 (digram
uniqueness) and P2 (rule utility), plus the run-length extension's
O(1)-for-regular-loops size claim and lossless expansion.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grammar import Grammar
from repro.core.sequitur import Sequitur


def compress(seq, ld=True):
    s = Sequitur(loop_detection=ld)
    for v in seq:
        s.append(v)
    return s


def roundtrip(seq, ld=True):
    s = compress(seq, ld)
    assert s.expand() == list(seq)
    s.flush()
    s.check_invariants()
    assert s.expand() == list(seq)
    return s


class TestBasics:
    def test_empty(self):
        s = Sequitur()
        assert s.expand() == []
        assert s.n_input == 0

    def test_single(self):
        roundtrip([5])

    def test_no_repetition(self):
        s = roundtrip([1, 2, 3, 4, 5])
        assert s.n_rules() == 1  # nothing to factor

    def test_negative_terminal_rejected(self):
        with pytest.raises(ValueError):
            Sequitur().append(-1)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            Sequitur().append(1, exp=0)

    def test_run_collapses_to_one_token(self):
        s = roundtrip([7] * 1000)
        assert s.n_tokens() == 1  # the paper's O(1) loop claim

    def test_digram_rule_formation(self):
        s = roundtrip([1, 2, 3, 1, 2])
        # "1 2" appears twice -> becomes a rule
        assert s.n_rules() == 2

    def test_rule_reuse_not_duplicate(self):
        # the second occurrence must reuse the existing rule (P1 handling
        # when the match is a whole rule body)
        s = roundtrip([1, 2, 9, 1, 2, 8, 1, 2])
        assert s.n_rules() == 2

    def test_rule_utility_inlining(self):
        # transient rules that end up used once must be inlined (P2)
        s = roundtrip([1, 2, 1, 3, 1, 2, 1, 3])
        s.check_invariants()

    def test_n_input_counts_expansions(self):
        s = Sequitur()
        s.append(1, exp=5)
        s.append(2)
        assert s.n_input == 6


class TestLoopCompression:
    def test_two_symbol_loop_constant_size(self):
        s = roundtrip([1, 2] * 500)
        assert s.n_tokens() <= 4

    def test_loop_size_independent_of_iterations(self):
        sizes = []
        for n in (10, 100, 1000):
            s = compress([1, 2, 3, 4, 5] * n)
            s.flush()
            sizes.append(s.n_tokens())
        assert sizes[0] == sizes[1] == sizes[2]  # O(1), not O(log N)

    def test_nested_loops(self):
        inner = [1, 2] * 10 + [3]
        seq = (inner * 8 + [4]) * 5
        s = roundtrip(seq)
        assert s.n_tokens() < 20

    def test_partial_tail_iteration_preserved(self):
        body = [1, 2, 3]
        seq = body * 10 + [1, 2]  # loop plus a partial iteration
        roundtrip(seq)

    def test_plain_sequitur_logn_vs_runlength_o1(self):
        # without exponents a loop costs O(log N) rules; with them O(1)
        seq = [1, 2, 3, 4] * 256
        rl = compress(seq, ld=False)
        rl.flush()
        assert rl.expand() == seq
        assert rl.n_tokens() <= 8

    def test_loop_detection_equivalent_grammar(self):
        # the loop-detection fast path must not change the final grammar
        for body in ([1], [1, 2], [1, 2, 3, 4, 5], [1, 2, 1, 3]):
            seq = body * 50 + [9] + body * 30
            g_fast = Grammar.freeze(compress(seq, ld=True))
            g_slow = Grammar.freeze(compress(seq, ld=False))
            assert g_fast.expand() == g_slow.expand() == seq

    def test_flush_idempotent(self):
        s = compress([1, 2, 3] * 20 + [1, 2])
        s.flush()
        before = s.expand()
        s.flush()
        assert s.expand() == before


class TestInvariants:
    @pytest.mark.parametrize("seq", [
        [1, 2, 1, 2, 1, 2],
        [0, 0, 1, 0, 0, 1, 0],
        [5, 4, 3, 2, 1] * 6,
        [1, 1, 2, 2, 1, 1, 2, 2],
        [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3],
    ])
    def test_invariants_after_each_append(self, seq):
        s = Sequitur()
        for v in seq:
            s.append(v)
            s.flush()
            s.check_invariants()
        assert s.expand() == seq

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=80))
    def test_roundtrip_property(self, seq):
        s = compress(seq)
        assert s.expand() == seq
        s.flush()
        s.check_invariants()
        assert s.expand() == seq

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=50),
           st.integers(2, 10))
    def test_repeated_body_roundtrip(self, body, reps):
        seq = body * reps
        s = compress(seq)
        assert s.expand() == seq
        s.flush()
        s.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4),
                              st.integers(1, 6)), min_size=1, max_size=40))
    def test_exponent_appends(self, tokens):
        s = Sequitur()
        expected = []
        for v, e in tokens:
            s.append(v, exp=e)
            expected.extend([v] * e)
        assert s.expand() == expected
        s.flush()
        s.check_invariants()


class TestGrammarSizeAccounting:
    def test_n_tokens_counts_rule_bodies(self):
        s = compress([1, 2] * 10)
        s.flush()
        total = sum(sum(1 for _ in r.tokens()) for r in s.rules.values())
        assert s.n_tokens() == total

    def test_compression_ratio_on_trace_like_input(self):
        # an MPI-trace-shaped input: long loop of a 13-call iteration body
        seq = list(range(13)) * 1000
        s = compress(seq)
        s.flush()
        assert s.n_tokens() < len(seq) / 400


class TestBatchAppend:
    """append_array must be byte-identical to scalar appends."""

    def _same_grammar(self, seq, chunks, ld=True):
        batched = Sequitur(loop_detection=ld)
        i = 0
        for c in chunks:
            batched.append_array(seq[i:i + c])
            i += c
        batched.append_array(seq[i:])
        scalar = compress(seq, ld)
        assert batched.expand() == scalar.expand() == list(seq)
        assert Grammar.freeze(batched).expand() == \
            Grammar.freeze(scalar).expand()

    def test_loopy_input_chunked(self):
        seq = [1, 2, 3] * 40 + [9] + [1, 2, 3] * 20
        self._same_grammar(seq, [1, 5, 17, 64])

    def test_chunk_boundary_mid_prediction(self):
        # a batch that ends inside a live loop prediction must save the
        # partial match and resume on the next batch
        seq = [1, 2, 3, 4] * 30
        self._same_grammar(seq, [10, 7])  # 17 = mid-iteration

    def test_expand_counts_partial_prediction(self):
        s = Sequitur()
        s.append_array([1, 2, 3] * 10 + [1, 2])  # ends mid-prediction
        assert s._predict is not None and s._predict_pos
        assert len(s.expand()) == s.n_input == 32

    def test_huge_exponent_falls_back_to_tuple_key(self):
        # exponents >= 2**32 were outside the range the digram key packed
        # into one int, when it did; the tuple it is now must keep the
        # grammar lossless all the same (loop detection off: arming a
        # prediction would materialize the 2**40 run)
        s = Sequitur(loop_detection=False)
        big = 1 << 40
        s.append(1, exp=big)
        s.append(2)
        s.append(1, exp=big)
        s.append(2)
        s.flush()
        s.check_invariants()
        assert s.n_input == 2 * (big + 1)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=80),
           st.integers(1, 80), st.booleans())
    def test_batched_equals_scalar_property(self, seq, chunk, ld):
        batched = Sequitur(loop_detection=ld)
        for i in range(0, len(seq), chunk):
            batched.append_array(seq[i:i + chunk])
        scalar = compress(seq, ld)
        assert batched.expand() == scalar.expand() == seq
        assert Grammar.freeze(batched).expand() == \
            Grammar.freeze(scalar).expand()
        batched.flush()
        batched.check_invariants()


# -- the run step: a run of the tail's terminal in one step ---------------------------

#: timing-bin-like streams: runs of 1–40 over a few recurring values,
#: laid out by a few run motifs that recur (and merge where one ends on
#: the value the next starts with), so the same run boundary comes back
#: with other run lengths and an indexed ``(left, v^e)`` key is met in
#: the middle of a run
_bin_streams = st.builds(
    lambda motifs, picks: [v for k in picks
                           for v, n in motifs[k % len(motifs)]
                           for _ in range(n)],
    st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40)),
                      min_size=1, max_size=4), min_size=1, max_size=5),
    st.lists(st.integers(0, 7), min_size=1, max_size=14))

#: a captured lossy duration-bin stream, run-length coded: ``flash_cellular``
#: on 8 ranks, ``iters=4``, seed 1, rank 0
_FLASH_CELLULAR_BINS = [
    v for v, n in [(4016, 5), (4023, 3), (4038, 1), (4041, 1),
                   (4016, 3), (4023, 3), (4045, 1), (4034, 1),
                   (4016, 3), (4023, 3), (4028, 1), (4046, 1),
                   (4016, 3), (4023, 3), (4033, 1), (4044, 1), (4029, 1)]
    for _ in range(n)]


class TestRunStep:
    """``append_array``'s run step against the scalar ``append`` oracle:
    the grammar and the digram index both."""

    @staticmethod
    def _assert_same(seq, chunks, ld):
        batched = Sequitur(loop_detection=ld)
        i = 0
        for c in chunks:
            batched.append_array(seq[i:i + c])
            i += c
        batched.append_array(seq[i:])
        scalar = compress(seq, ld)
        assert batched.n_input == scalar.n_input == len(seq)
        assert batched._digrams.keys() == scalar._digrams.keys()
        assert Grammar.freeze(batched) == Grammar.freeze(scalar)
        assert batched.expand() == seq
        batched.check_invariants()
        return batched, scalar

    @settings(max_examples=300, deadline=None)
    @given(_bin_streams, st.lists(st.integers(1, 60), max_size=20),
           st.booleans())
    def test_bin_streams_equal_scalar_append(self, seq, chunks, ld):
        self._assert_same(seq, chunks, ld)

    @pytest.mark.parametrize("ld", [True, False])
    @pytest.mark.parametrize("chunks", [[], [1] * 35, [4, 7, 2, 9], [17]])
    def test_captured_flash_cellular_bins(self, chunks, ld):
        self._assert_same(_FLASH_CELLULAR_BINS, chunks, ld)

    def test_a_run_that_opens_the_rule_is_one_token(self):
        s = Sequitur()
        s.append_array([3] * 50)
        s.append_array([3] * 50)
        assert list(s.start.tokens()) == [(3, 100)]
        assert not s._digrams


# -- the extension step: the second pass of a loop grows its rule in place ----------

#: loop bodies of 1–14 symbols, repeated 1–6 times, with a few symbols
#: overwritten and sometimes a noisy gap and a second loop after them
_loop_streams = st.builds(
    lambda body, reps, muts, gap, reps2: [
        muts.get(i, v) for i, v in enumerate(body * reps + gap + body * reps2)],
    st.lists(st.integers(0, 20), min_size=1, max_size=14),
    st.integers(1, 6),
    st.dictionaries(st.integers(0, 90), st.integers(0, 20), max_size=4),
    st.lists(st.integers(0, 5), max_size=8), st.integers(0, 3))

#: a captured call column (CST terminals): ``flash_cellular`` on 8 ranks,
#: ``iters=4``, seed 1, rank 0
_FLASH_CELLULAR_CALLS = [0, 1] + list(range(2, 10)) * 4 + [10]


def _counting(seq: Sequitur, name: str) -> list:
    """Wrap *seq*'s method *name*; the returned list collects each call's
    positional arguments."""
    calls, method = [], getattr(seq, name)

    def wrapper(*args):
        calls.append(args)
        return method(*args)
    setattr(seq, name, wrapper)
    return calls


class TestExtendStep:
    """``append_array``'s extension step against the scalar ``append``
    oracle: the grammar, the digram index, the rule ids and their order."""

    @staticmethod
    def _assert_same(seq, chunks, ld):
        batched, scalar = TestRunStep._assert_same(seq, chunks, ld)
        assert list(batched.rules) == list(scalar.rules)
        assert batched._next_rid == scalar._next_rid
        scalar.check_invariants()

    @settings(max_examples=300, deadline=None)
    @given(_loop_streams, st.lists(st.integers(1, 40), max_size=8),
           st.booleans())
    def test_loops_equal_scalar_append(self, seq, chunks, ld):
        self._assert_same(seq, chunks, ld)

    @pytest.mark.parametrize("ld", [True, False])
    @pytest.mark.parametrize("chunks", [[], [1] * 35, [3, 11, 5], [19]])
    def test_captured_flash_cellular_calls(self, chunks, ld):
        self._assert_same(_FLASH_CELLULAR_CALLS, chunks, ld)

    @pytest.mark.parametrize("ld,array,scalar", [(True, 2, 11),
                                                 (False, 3, 21)])
    def test_the_second_pass_builds_two_rules(self, ld, array, scalar):
        # scalar append makes a rule per symbol of the second pass; the
        # extension step grows the first one instead, so a step that
        # stops firing shows up as extra rules here
        seq = list(range(12)) * 3
        made = {}
        for path in ("array", "scalar"):
            s = Sequitur(loop_detection=ld)
            made[path] = _counting(s, "_new_rule")
            if path == "array":
                s.append_array(seq)
            else:
                for v in seq:
                    s.append(v)
            assert s.expand() == seq
        assert (len(made["array"]), len(made["scalar"])) == (array, scalar)

    def test_the_other_use_inside_another_rule(self):
        # without loop detection the third pass re-forms "0 1" inside the
        # loop rule and extends it there, its other use being in that rule
        seq = list(range(6)) * 3
        s = Sequitur(loop_detection=False)
        extend, owners = s._extend, []

        def owned(other, tail):
            head = other.prev
            while head.rule_of is None:
                head = head.prev
            took = extend(other, tail)
            owners.append((head.rule_of is s.start, took))
            return took
        s._extend = owned
        s.append_array(seq)
        assert (True, True) in owners and (False, True) in owners
        self._assert_same(seq, [], False)


# -- the digram key: the parent's packed int, kept verbatim as the oracle --------------

_PACK_LIM = 1 << 32   # exponents must stay below this for the packed form
_PACK_OFF = 1 << 31   # value bias so rule refs (negative) pack too


def _digram_key(v1, e1, v2, e2):
    """Flat-dict key for the token digram ``(v1^e1, v2^e2)``: both tokens
    packed into one int in the common range, the tuple outside it."""
    if e1 < _PACK_LIM and e2 < _PACK_LIM \
            and -_PACK_OFF <= v1 < _PACK_OFF and -_PACK_OFF <= v2 < _PACK_OFF:
        return ((((v1 + _PACK_OFF) << 32) | e1) << 64) \
            | (((v2 + _PACK_OFF) << 32) | e2)
    return (v1, e1, v2, e2)


class PackedKeySequitur(Sequitur):
    """The three places that build a digram key, as the parent had them.
    ``append_array`` feeds the scalar ``append``: its run step reads the
    index by tuple key."""

    def append_array(self, values) -> None:
        for v in values:
            self.append(v)

    @staticmethod
    def _key(left):
        right = left.next
        return _digram_key(left.value, left.exp, right.value, right.exp)

    def _delete_digram_at(self, left) -> None:
        if left is None or left.rule_of is not None:
            return
        right = left.next
        if right.rule_of is not None:
            return
        key = _digram_key(left.value, left.exp, right.value, right.exp)
        digrams = self._digrams
        if digrams.get(key) is left:
            del digrams[key]

    def _check(self, left) -> bool:
        if left is None or left.rule_of is not None:
            return False
        right = left.next
        if right.rule_of is not None:
            return False
        if left.value == right.value:
            self._delete_digram_at(left.prev)
            self._delete_digram_at(right)
            self._delete_digram_at(left)
            left.exp += right.exp
            self._unlink_merged(right)
            if not self._check(left.prev):
                self._check(left)
            return True
        key = _digram_key(left.value, left.exp, right.value, right.exp)
        digrams = self._digrams
        found = digrams.get(key)
        if found is None:
            digrams[key] = left
            return False
        if found is left:
            return False
        if found.next is left or left.next is found:
            return False
        self._match(left, found, key)
        return True


#: small alphabets, noisy loops and run-heavy streams — what CST
#: terminals and timing bins look like
_streams = st.one_of(
    st.lists(st.integers(0, 4), max_size=120),
    st.builds(lambda body, reps, noise: [
        v for i in range(reps) for v in (body + noise[i % len(noise):][:1])],
        st.lists(st.integers(0, 9), min_size=1, max_size=6),
        st.integers(1, 30), st.lists(st.integers(10, 12), min_size=1,
                                     max_size=5)),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9)), max_size=40)
    .map(lambda runs: [v for v, n in runs for _ in range(n)]))


class TestTupleKeyIsInvisible:
    @settings(max_examples=300, deadline=None)
    @given(_streams, st.booleans(), st.data())
    def test_same_grammar_as_the_packed_key(self, seq, ld, data):
        got, want = Sequitur(loop_detection=ld), \
            PackedKeySequitur(loop_detection=ld)
        i = 0
        while i < len(seq):     # a random mix of append and append_array
            n = data.draw(st.integers(0, 12))
            for s in (got, want):
                if n:
                    s.append_array(seq[i:i + n])
                else:
                    s.append(seq[i])
            i += n or 1
        assert Grammar.freeze(got) == Grammar.freeze(want)
        assert got.expand() == seq

    def test_beyond_the_packed_range(self):
        frozen = []
        for s in (Sequitur(loop_detection=False),
                  PackedKeySequitur(loop_detection=False)):
            for _ in range(3):
                s.append(1, exp=1 << 40)
                s.append(2)
            s.flush()
            s.check_invariants()
            frozen.append(Grammar.freeze(s))
        assert frozen[0] == frozen[1]
