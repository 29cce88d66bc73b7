"""Enumeration engine: threshold counts, distributions, event partition.

The independent oracle for threshold counting is a literal loop over
itertools.product sign patterns, written here and kept separate from both
engine paths.
"""

import contextlib
import inspect
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CASE2_KINDS,
    case2_vector,
    one_radicand_vector,
    random_case2,
    random_float_vector,
    rational_unit_vector,
)
from radsum import (
    EXACT,
    FLOAT,
    CaseTag,
    InputError,
    PartitionStats,
    SizeLimitError,
    WrongCaseError,
    canonicalize,
    case_of,
    exact_sqrt,
    from_squares,
    prefix_partition,
    sum_distribution,
    threshold_probability,
    threshold_probability_naive,
)
from radsum.algebraic import SqrtSum
from radsum.engine import _RAW_PAIRS_N


def product_oracle(values, t, strict=False) -> Fraction:
    """Count admissible sign patterns by brute itertools enumeration."""
    hits = 0
    n = len(values)
    for signs in itertools.product((-1, 1), repeat=n):
        s = sum((v if sg > 0 else -v) for sg, v in zip(signs, values))
        mag = -s if s < 0 else s
        if (mag < t) if strict else (mag <= t):
            hits += 1
    return Fraction(hits, 2**n)


def merged_count(values, t, mode, strict=False) -> int:
    """The meet-in-the-middle count over the merged halves at any n, where
    ``signed_sum_count`` counts every raw pair sum up to ``_RAW_PAIRS_N``
    weights."""
    from radsum.engine import _count_merged, _key_setup, _normalize_threshold

    keys, dtype, _, t, strict = _key_setup(list(values), _normalize_threshold(t, mode), mode, strict)
    return _count_merged(keys, dtype, t, strict)


def literal_float_halves(values) -> tuple[list, list]:
    """The float signed sums of the first ``n - n//2`` values and of the
    rest, each accumulated in index order from +0.0 by a literal loop."""
    split = len(values) - len(values) // 2
    halves = []
    for part in (values[:split], values[split:]):
        sums = []
        for signs in itertools.product((-1, 1), repeat=len(part)):
            s = 0.0
            for sg, v in zip(signs, part):
                s = s + v if sg > 0 else s - v
            sums.append(s)
        halves.append(sums)
    return tuple(halves)


def tie_row_oracle(x, tol=1e-12) -> tuple:
    """The float partition's boundary-tie rows by a literal walk of the
    sign tree (eps_1 = +1): prefix sums accumulated in index order, tail
    sums from the end.  A prefix still undecided at depth d >= 2 with sum s
    is a "prefix" tie when ``|(|s| - (1 - x_{d+1}))| <= tol``; a prefix
    settled at d (crossed, or d = n - 1) has one "final" tie ``s + r`` per
    distinct tail sum r of ``x[d:]`` within tol of ``-1 - s`` or ``1 - s``.
    Rows ``(kind, d, value, count)`` sorted by depth, kind and value."""
    n = len(x)
    tails = {n: {0.0}}
    for d in range(n - 1, 0, -1):
        tails[d] = {r + sign * x[d] for r in tails[d + 1] for sign in (-1, 1)}
    tails = {d: sorted(t) for d, t in tails.items()}
    rows = Counter()

    def visit(d, s):
        b = 1.0 - x[d]
        if d >= 2 and abs(abs(s) - b) <= tol:
            rows[d, "prefix", s] += 1
        if d < n - 1 and not (d >= 2 and abs(s) > b):
            for sign in (-1, 1):
                visit(d + 1, s + sign * x[d])
            return
        for end in (-1.0 - s, 1.0 - s):
            near = tails[d][bisect_left(tails[d], end - tol) : bisect_right(tails[d], end + tol)]
            for r in near:
                rows[d, "final", s + r] += 1

    visit(1, x[0])
    return tuple((kind, d, v, c) for (d, kind, v), c in sorted(rows.items()))


def float_partition_oracle(x) -> tuple[tuple, tuple]:
    """``(probs, joints)`` of the float partition for k = 2..n by a literal
    walk of the sign tree, as ``tie_row_oracle`` walks it: a prefix settled
    at d with sum s counts every tail sum r of ``x[d:]`` (accumulated from
    the end, with repeats) and, for the joint, those with ``fl(-1 - s) <= r
    <= fl(1 - s)``."""
    n = len(x)
    tails = {n: [0.0]}
    for d in range(n - 1, 0, -1):
        tails[d] = [r + sign * x[d] for r in tails[d + 1] for sign in (-1, 1)]
    counts, joints = Counter(), Counter()

    def visit(d, s):
        crossed = d >= 2 and abs(s) > 1.0 - x[d]
        if d < n - 1 and not crossed:
            for sign in (-1, 1):
                visit(d + 1, s + sign * x[d])
            return
        k = d if crossed else n
        counts[k] += len(tails[d])
        joints[k] += sum(-1.0 - s <= r <= 1.0 - s for r in tails[d])

    visit(1, x[0])
    ratio = lambda c: 2 * c / 2**n
    return tuple(ratio(counts[k]) for k in range(2, n + 1)), tuple(ratio(joints[k]) for k in range(2, n + 1))


class TestThresholdExamples:
    def test_single_weight(self):
        assert threshold_probability(canonicalize([1], EXACT), 1) == 1

    def test_two_equal_weights(self):
        w = from_squares([Fraction(1, 2)] * 2)
        assert threshold_probability(w, 1) == Fraction(1, 2)

    def test_three_equal_weights(self):
        w = from_squares([Fraction(1, 3)] * 3)
        oracle = product_oracle(w.values, Fraction(1))
        assert oracle == Fraction(3, 4)
        assert threshold_probability(w, 1) == oracle

    def test_uniform_nine_binomial_oracle(self):
        # sum = (2*heads - 9)/3; |sum| <= 1 iff heads in {3..6}
        w = from_squares([Fraction(1, 9)] * 9)
        hits = sum(math.comb(9, k) for k in range(3, 7))
        assert Fraction(hits, 512) == Fraction(105, 128)
        assert threshold_probability(w, 1) == Fraction(105, 128)

    def test_sharpness_instance_strict(self):
        w = from_squares([Fraction(1, 4)] * 4)
        assert threshold_probability(w, 1, strict=True) == Fraction(3, 8)
        assert threshold_probability(w, 1) == Fraction(7, 8)

    def test_float_mode_dyadic(self):
        w = canonicalize([0.5, 0.5, 0.5, 0.5], FLOAT)
        assert threshold_probability(w, 1.0) == 0.875

    def test_strict_zero_threshold_all_paths(self):
        # Pr(|s| < 0) is 0, even when sums hit 0 exactly, on every path.
        wi = from_squares([Fraction(1, 4)] * 4)      # rational -> int path
        assert threshold_probability(wi, 0, strict=True) == 0
        assert threshold_probability(wi, 0) == Fraction(3, 8)   # six zero sums
        wr = from_squares([Fraction(1, 2)] * 2)      # radical -> generic path
        assert threshold_probability(wr, 0, strict=True) == 0
        assert threshold_probability(wr, 0) == Fraction(1, 2)   # two zero sums
        wf = canonicalize([0.5] * 4, FLOAT)
        assert threshold_probability(wf, 0.0, strict=True) == 0.0
        assert threshold_probability(wf, 0.0) == 0.375
        assert threshold_probability_naive(wf, 0.0, strict=True) == 0.0

    def test_negative_t_rejected(self):
        with pytest.raises(InputError):
            threshold_probability(canonicalize([1], EXACT), -1)

    def test_float_t_rejected_in_exact_mode(self):
        with pytest.raises(InputError):
            threshold_probability(canonicalize([1], EXACT), 0.5)

    def test_size_limit_echoed(self):
        w = canonicalize(list(range(1, 42)), EXACT)
        with pytest.raises(SizeLimitError, match="40"):
            threshold_probability(w, 1)
        with pytest.raises(SizeLimitError, match="24"):
            threshold_probability_naive(canonicalize(list(range(1, 27)), EXACT), 1)


class TestOracleEquivalence:
    def test_mitm_equals_naive_rational(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            w = rational_unit_vector(rng, n)
            t = Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 8)))
            strict = bool(rng.integers(0, 2))
            a = threshold_probability(w, t, strict)
            b = threshold_probability_naive(w, t, strict)
            assert a == b == Fraction(merged_count(w.values, t, EXACT, strict), 2**n)

    def test_mitm_equals_naive_radical(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            qs = [Fraction(int(a), 64) for a in rng.integers(1, 20, size=n)]
            w = from_squares(qs)
            a = threshold_probability(w, 1)
            b = threshold_probability_naive(w, 1)
            assert a == b
            assert a == product_oracle(w.values, Fraction(1))

    def test_mitm_equals_naive_float(self, rng):
        # the naive oracle sums its own halves; a threshold at an achieved
        # sum, each half summed here from +0.0 in index order, shows any
        # other rounding of the halves the meet-in-the-middle adds
        for _ in range(20):
            n = int(rng.integers(1, 13))
            v = rng.standard_normal(n)
            w = canonicalize(list(v), FLOAT)
            halves = [0.0, 0.0]
            for i, (sign, x) in enumerate(zip(rng.choice([-1.0, 1.0], size=n).tolist(), w.values)):
                halves[i >= n - n // 2] += sign * x
            for t in (float(rng.uniform(0, 2)), abs(halves[0] + halves[1])):
                for strict in (False, True):
                    p = threshold_probability_naive(w, t, strict)
                    assert threshold_probability(w, t, strict) == p, (w.values, t, strict)
                    assert merged_count(w.values, t, FLOAT, strict) == p * 2**n, (w.values, t, strict)

    def test_exact_vs_float_on_dyadic_weights(self):
        we = from_squares([Fraction(1, 4)] * 4)
        wf = canonicalize([0.5] * 4, FLOAT)
        for t in (0, Fraction(1, 2), 1, 2):
            assert float(threshold_probability(we, t)) == threshold_probability(wf, float(t))

    def test_float_boundary_counting_stress(self, rng):
        # Dyadic raw values land sums exactly on dyadic thresholds, and at
        # these scales float arithmetic is exact, so the float searchsorted
        # refinement must agree bit for bit with brute force AND with the
        # exact engine.
        from radsum.engine import _half_sums, signed_sum_count

        for _ in range(30):
            n = int(rng.integers(1, 11))
            vals = [float(v) / 8.0 for v in rng.integers(-8, 9, size=n)]
            split = n - n // 2
            sums = np.abs(
                np.add.outer(
                    _half_sums(vals[:split], np.float64), _half_sums(vals[split:], np.float64)
                )
            ).ravel()
            fracs = [Fraction(v) for v in vals]
            for t in (0.0, 0.25, 0.5, 1.0, 1.125):
                for strict in (False, True):
                    expected = int(np.count_nonzero(sums < t if strict else sums <= t))
                    hits, total = signed_sum_count(vals, t, FLOAT, strict)
                    assert hits == expected == merged_count(vals, t, FLOAT, strict)
                    he, te = signed_sum_count(fracs, Fraction(t), EXACT, strict)
                    assert (hits, total) == (he, te)


class TestMergedHalves:
    """The meet-in-the-middle counts pairs of merged half distributions:
    sorted distinct sums with pattern counts."""

    @staticmethod
    def _tie_heavy_vectors(rng):
        for n in (1, 2, 7, 12, 17, 20):
            yield [float(v) / 16 for v in rng.integers(-16, 17, size=n)]  # dyadic
            yield [float(v) for v in rng.choice([0.1, 0.2, 0.3, 0.7], size=n)]  # repeated
            yield [1.0] * n
            half = [float(v) for v in rng.uniform(-3, 3, size=(n + 1) // 2)]
            cancel = half + [-v for v in half] + [0.0, -0.0]  # sums cancel to +-0.0
            yield [cancel[i] for i in rng.permutation(len(cancel))[:n]]

    def test_float_count_matches_index_order_brute_force(self, rng):
        # fl(left + right) of the index-order half sums, counted literally
        from radsum.engine import _half_sums, signed_sum_count

        for vals in self._tie_heavy_vectors(rng):
            split = len(vals) - len(vals) // 2
            sums = np.abs(
                np.add.outer(_half_sums(vals[:split], np.float64), _half_sums(vals[split:], np.float64))
            ).ravel()
            for t in (0.0, 1.0, float(sums[int(rng.integers(0, len(sums)))])):
                for strict in (False, True):
                    expected = int(np.count_nonzero(sums < t if strict else sums <= t))
                    assert signed_sum_count(vals, t, FLOAT, strict) == (expected, 2 ** len(vals)), (vals, t)
                    assert merged_count(vals, t, FLOAT, strict) == expected, (vals, t)

    def test_refine_prefix_len_matches_literal_count(self):
        """Each flat query of ``_refine_prefix_len`` counts the keys u whose
        chain, u plus its column of ``steps`` from the last row up, is
        ``<= bound`` (``<`` when strict), as a loop in Python floats does.
        Keys mix magnitudes from 2^-60 to 2^20 and offsets from 2^-30 to
        2^30, so a key's chain can round onto its neighbours' and the first
        searchsorted estimate is off; 0-3 rows, +0.0 rows among them as
        ``_float_joints`` pads shorter chains, and bounds at a key's chain
        and one ulp either side."""
        from radsum.engine import _padded, _refine_prefix_len

        seen = Counter()

        def floats(*exponents):
            mantissa, sign = st.integers(1, 2**20), st.sampled_from([-1.0, 1.0])
            return st.builds(lambda m, e, s: s * m * 2.0**e, mantissa, st.sampled_from(exponents), sign)

        def chain(u, column):
            for c in reversed(column):
                u += c
            return u

        @given(st.data())
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def check(data):
            keys = np.unique(data.draw(st.lists(st.just(0.0) | floats(-60, -30, 0), min_size=1, max_size=12)))
            rows, queries = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 12))
            steps = np.zeros((rows, queries))
            for r in range(rows):
                if data.draw(st.booleans()):  # else a +0.0 row
                    steps[r] = data.draw(st.lists(floats(-30, 0, 10), min_size=queries, max_size=queries))
            columns = steps.T.tolist()
            at = [(data.draw(st.sampled_from(keys.tolist())), data.draw(st.integers(-1, 1))) for _ in columns]
            bound = np.array([_ulps(chain(u, column), k) for (u, k), column in zip(at, columns)])
            inclusive = data.draw(st.booleans())
            below = (lambda a, b: a <= b) if inclusive else (lambda a, b: a < b)
            count = lambda chains, b: sum(below(c, b) for c in chains)
            want = [count((chain(u, column) for u in keys.tolist()), b) for column, b in zip(columns, bound)]
            assert _refine_prefix_len(_padded(keys), steps, bound, inclusive).tolist() == want, (keys, steps, bound)
            estimate = [count(keys.tolist(), b - chain(0.0, column)) for column, b in zip(columns, bound)]
            for kind, hit in (("zero-row queries", not rows), ("moved queries", estimate != want)):
                if hit:
                    seen[kind] += 1
                    event(kind)

        check()
        assert seen["zero-row queries"] and seen["moved queries"], seen

    @pytest.mark.parametrize("dtype, one", [(np.int64, 1), (object, 1), (np.float64, 1.0)])
    def test_merged_half_of_ones_is_binomial(self, dtype, one):
        from radsum.engine import _mirror, _nonneg_sums

        for k in (0, 1, 5, 8, 9, 20, 40):
            keys, counts = _mirror(*_nonneg_sums([one] * k, dtype, np.int64))
            assert keys.tolist() == list(range(-k, k + 1, 2))
            assert counts.tolist() == [math.comb(k, j) for j in range(k + 1)]

    @pytest.mark.parametrize("mode, one, t", [(EXACT, 1, 1), (FLOAT, 1.0, 1.0)])
    def test_ones_64_at_limit_64(self, monkeypatch, mode, one, t):
        # 2^64 patterns over 33 distinct sums per half; the count needs more
        # than int64.  Materialising a half would need 2^32 sums, so the
        # guard fails any attempt past 2^20.
        from radsum import engine

        real = engine._half_sums

        def guarded(values, dtype):
            assert len(values) <= 20, f"materialises 2^{len(values)} sums"
            return real(values, dtype)

        monkeypatch.setattr(engine, "_half_sums", guarded)
        n = 64
        w = canonicalize([one] * n, mode)  # x_i = 1/8: |eps . x| <= 1 iff |imbalance| <= 8
        for strict in (False, True):
            hits = sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) < 8 + (not strict))
            assert engine.admissible_count(w, t, strict, limit=n) == (hits, 2**n)
            p = threshold_probability(w, t, strict, limit=n)
            assert p == (Fraction(hits, 2**n) if mode == EXACT else hits / 2**n)


@st.composite
def _raw_cut_inputs(draw):
    """``(values, kind)``: n <= ``_RAW_PAIRS_N`` raw weights, generic,
    integer-valued, dyadic and all-ones floats, and integers that take int64
    or Python-int keys."""
    n = draw(st.integers(1, _RAW_PAIRS_N))
    kind = draw(st.sampled_from(["generic", "integer", "dyadic", "ones", "int64", "object"]))
    if kind == "ones":
        return [1.0] * n, kind
    pick = {
        "generic": st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        "integer": st.integers(-9, 9).map(float),
        "dyadic": st.integers(-64, 64).map(lambda i: i / 16),
        "int64": st.integers(-(10**6), 10**6),
        "object": st.tuples(st.sampled_from([-1, 1]), st.integers(0, 50)).map(lambda p: p[0] * (2**62 + p[1])),
    }[kind]
    return draw(st.lists(pick, min_size=n, max_size=n)), kind


class TestRawPairs:
    """Up to ``_RAW_PAIRS_N`` weights, integer and float keys are counted
    over every raw pair sum, with the merged halves' count."""

    @given(_raw_cut_inputs(), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_raw_and_merged_counts_agree(self, drawn, data):
        from radsum.engine import _count_merged, _count_raw, _key_setup, _pair_sums, signed_sum_count

        values, kind = drawn
        mode = EXACT if kind in ("int64", "object") else FLOAT
        n = len(values)
        keys, dtype, _, _, _ = _key_setup(values, 1.0 if mode == FLOAT else Fraction(1), mode)
        assert np.dtype(dtype).name == {FLOAT: "float64", EXACT: kind}[mode]
        sums = _pair_sums(keys, dtype)
        achieved = abs(sums[data.draw(st.integers(0, len(sums) - 1))])
        if mode == FLOAT:
            achieved = float(achieved)
            ts = [0.0, 1.0, achieved, math.nextafter(achieved, math.inf), math.nextafter(achieved, 0.0)]
        else:
            achieved = int(achieved)
            ts = [Fraction(t) for t in (0, 1, achieved, achieved + 1, max(achieved - 1, 0))]
            ts.append(Fraction(2 * achieved + 1, 2))
        for t in ts:
            for strict in (False, True):
                _, _, _, cut, cut_strict = _key_setup(values, t, mode, strict)
                raw = _count_raw(keys, dtype, cut, cut_strict)
                assert raw == _count_merged(keys, dtype, cut, cut_strict), (values, t, strict)
                assert signed_sum_count(values, t, mode, strict) == (raw, 2**n)


def _literal_half_sums(keys, dtype):
    """The doubling ``_half_sums`` replaced, kept as its oracle: from +0,
    each value turns the sums ``s`` into ``s - v`` followed by ``s + v``."""
    from radsum.engine import _extend, _zero

    sums = _zero(dtype)
    for v in keys:
        sums = _extend(sums, v)
    return sums


def _stackable_rows(draw, n):
    """Canonical float rows of length n with many ties and exact sums."""
    kind = draw(st.sampled_from(["repeated", "dyadic", "small", "generic"]))
    if kind == "repeated":  # [0.5]*4, [1/3]*9 and [0.2]*10 among them
        raw = [draw(st.sampled_from([0.5, 1 / 3, 0.2, 0.1, 0.3, 1.0]))] * n
    elif kind == "dyadic":  # pair sums land on +-1 exactly
        raw = draw(st.lists(st.integers(0, 8).map(lambda i: i / 8), min_size=n, max_size=n))
    elif kind == "small":
        raw = draw(st.lists(st.integers(0, 5).map(float), min_size=n, max_size=n))
    else:
        raw = draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    try:
        return canonicalize(raw, FLOAT)
    except InputError:
        return canonicalize([1.0] * n, FLOAT)


class TestHalfSums:
    """``_half_sums`` doubles its table in place and takes stacks of rows;
    every sum is the literal doubling's, bit for bit."""

    @pytest.mark.parametrize("kind", ["float64", "ties", "int64", "object", "radical"])
    def test_in_place_doubling_is_the_literal_doubling(self, rng, kind):
        from radsum.engine import _half_sums

        for k in range(17):
            for _ in range(3):
                signs = rng.integers(-1, 2, size=k).tolist()
                if kind == "ties":
                    values = [[0.5, 1 / 3, 0.2, 0.1][k % 4] * (s or 1) for s in signs]
                elif kind == "radical":
                    roots = from_squares([2, 3, 5, 2, 7, 6, 3, 10, 11, 5, 13, 1, 14, 15, 17, 2]).values
                    values = [s * roots[i] for i, s in enumerate(signs)]
                else:
                    values = _edge_values(kind, signs)
                keys, dtype = _keys_of("float64" if kind == "ties" else kind, values)
                got, want = _half_sums(keys, dtype), _literal_half_sums(keys, dtype)
                if kind == "radical":  # whole (f, c) rows
                    assert got.dtype == want.dtype and got.shape == want.shape == (1 << k, 2), k
                    assert got.tolist() == want.tolist(), k
                    continue
                stack = _half_sums(np.array([keys] * 3, dtype=dtype).reshape(3, k), dtype)
                assert stack.shape == (3, 1 << k)
                for sums in (got, *stack):
                    assert sums.dtype == want.dtype, k
                    if sums.dtype == np.float64:
                        assert sums.tobytes() == want.tobytes(), (k, values)  # +0.0 and -0.0 apart
                    else:
                        assert sums.tolist() == want.tolist(), k

    @given(st.integers(1, 14), st.sampled_from(["one", "three", "past the chunk"]), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @example(4, "three", None).via("[0.5]*4")
    @example(9, "three", None).via("[1/3]*9")
    @example(10, "past the chunk", None).via("[0.2]*10")
    def test_stacked_counts_are_the_engine_counts(self, n, size, data):
        from radsum import explore
        from radsum.engine import _count_raw, admissible_count, signed_sum_count

        if data is None:  # the explicit examples: one tie row, repeated
            rows = [canonicalize([{4: 0.5, 9: 1 / 3, 10: 0.2}[n]] * n, FLOAT)] * 3
        else:
            rows = [_stackable_rows(data.draw, n) for _ in range(1 if size == "one" else 3)]
        expected = [admissible_count(w, 1.0)[0] for w in rows]
        stack = np.array([w.values for w in rows])
        assert _count_raw(stack, np.float64, 1.0, False).tolist() == expected
        strict = [signed_sum_count(w.values, 1.0, FLOAT, strict=True)[0] for w in rows]
        assert _count_raw(stack, np.float64, 1.0, True).tolist() == strict
        if size == "past the chunk":
            per_call = max(1, explore._STACK_PAIRS >> (n - 1))
            many = [w.values for w in rows] * (per_call // len(rows) + 2)
            assert explore._hit_counts(many, explore.DEFAULT_MITM_LIMIT) == expected * (per_call // len(rows) + 2)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_complement_columns_are_exact_negations(self, data):
        """Column i of ``_half_sums`` and column ``2^k - 1 - i``, every sign
        flipped, are exact negations, the fact ``_pair_sums`` folds by: float
        sums bit for bit, with no -0.0 among them (``fl(a - a) = +0`` either
        way), over +-0.0, subnormals and values near overflow, and int64 and
        Python-int sums; one vector or a stack of rows."""
        from radsum.engine import _half_sums

        kind = data.draw(st.sampled_from(["float64", "int64", "object"]))
        k, rows = data.draw(st.integers(0, 12)), data.draw(st.sampled_from([None, 1, 3]))
        pick = {
            "float64": st.one_of(
                st.floats(-(2.0**1019), 2.0**1019, allow_nan=False),  # 12 of them sum below 2^1023
                st.floats(-(2.0**-1020), 2.0**-1020, allow_nan=False),  # sums among the subnormals
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-310, 2.0**1019, -1.5e307]),
                st.integers(-4, 4).map(float),
            ),
            "int64": st.integers(-(2**58), 2**58),
            "object": st.integers(-(2**80), 2**80),
        }[kind]
        dtype = {"float64": np.float64, "int64": np.int64, "object": object}[kind]
        values = [data.draw(st.lists(pick, min_size=k, max_size=k)) for _ in range(rows or 1)]
        sums = _half_sums(np.array(values if rows else values[0], dtype=dtype).reshape(*([rows] if rows else []), k), dtype)
        mirror = sums[..., ::-1]
        if kind == "float64":
            assert sums.tobytes() == (0.0 - mirror).tobytes(), values  # 0.0 - (+0.0) is +0.0
            event("a zero sum" if (sums == 0).any() else "no zero sum")
            event("a subnormal sum" if ((sums != 0) & (np.abs(sums) < 2.0**-1022)).any() else "no subnormal sum")
        else:
            assert sums.tolist() == (-mirror).tolist(), values

    @pytest.mark.parametrize("kind", ["float64", "ties", "int64", "object"])
    def test_folded_raw_counts_are_the_unfolded_counts(self, rng, kind):
        """``_count_raw`` over the folded pair sums equals the count of every
        pair sum ``|l + r|`` of the two unfolded halves (``np.add.outer``) for
        n = 0.._RAW_PAIRS_N, strict and not, at 0, 1 and thresholds on
        achieved sums and one ulp either side; a stack of rows counts each row
        alike."""
        from radsum.engine import _count_raw, _half_sums

        dtype = {"float64": np.float64, "ties": np.float64, "int64": np.int64, "object": object}[kind]
        for n in range(_RAW_PAIRS_N + 1):
            rows = []
            for _ in range(3):
                signs = rng.integers(-1, 2, size=n).tolist()
                if kind == "float64":
                    rows.append([s * float(v) for s, v in zip(signs, rng.standard_normal(n))])
                else:
                    rows.append(_edge_values("float64" if kind == "ties" else kind, signs))
            unfolded = []
            for row in rows:
                split = n - n // 2
                left, right = _half_sums(row[:split], dtype), _half_sums(row[split:], dtype)
                unfolded.append(np.abs(np.add.outer(left, right)).ravel())
            picks = [unfolded[0][i] for i in rng.integers(0, 1 << n, size=2)]
            if dtype is np.float64:
                ts = [0.0, 1.0] + [x for p in picks for x in (float(p), math.nextafter(p, math.inf), math.nextafter(p, 0.0))]
            else:
                ts = [0, 1] + [int(p) + d for p in picks for d in (-1, 0, 1)]
            stack = np.array(rows, dtype=dtype).reshape(3, n)
            for t in ts:
                for strict in (False, True):
                    want = [int(np.count_nonzero(sums < t if strict else sums <= t)) for sums in unfolded]
                    assert [int(_count_raw(row, dtype, t, strict)) for row in rows] == want, (rows, t, strict)
                    assert _count_raw(stack, dtype, t, strict).tolist() == want, (rows, t, strict)


def _full_table(values, dtype):
    """The full-table recurrence the nonnegative tables replaced, kept as
    their oracle: both halves of every table, sorted and merged."""
    from radsum.engine import _extend, _merge_equal, _zero

    keys, counts = _zero(dtype), np.ones(1, dtype=np.int64)
    for v in values:
        keys, counts = _merge_equal(_extend(keys, v), np.concatenate([counts, counts]))
    return keys, counts


@contextlib.contextmanager
def _table_forms(dtypes=False):
    """The form, "dense" or "sparse", of each table ``_table_steps`` yields
    while the block runs, with its count dtype when ``dtypes``."""
    from unittest import mock

    from radsum import engine

    real, seen = engine._table_steps, []

    def spy(*args):
        for keys, counts in real(*args):
            form = "dense" if keys is None else "sparse"
            seen.append((form, counts.dtype) if dtypes else form)
            yield keys, counts

    with mock.patch.object(engine, "_table_steps", spy):
        yield seen


def _long_lattice_int64(draw, family, k):
    """k int64 entries of structured families on lattices of up to about
    2^20 points, each times a drawn sign in {-1, 0, 1}: near-equal sizes,
    near multiples of one size, one size up to 2^20 among small ones, and a
    common factor g > 1 of near-equal sizes.  A drawn jitter, 2 to 2^16,
    sets how many distinct sums they have: from a few to nearly 2^k."""
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=k, max_size=k))
    jitter, size = 1 << draw(st.integers(1, 16)), (1 << 20) // k
    near = lambda: size + draw(st.integers(1 - min(jitter, size), jitter))
    if family == "near":
        sizes = [near() for _ in signs]
    elif family == "multiples":
        sizes = [(1 + i % 4) * (size // 3 + 1) + draw(st.integers(0, jitter)) for i in range(k)]
    elif family == "lopsided":
        sizes = [1 << draw(st.integers(0, 20))] + [draw(st.integers(1, jitter)) for _ in range(k - 1)]
    else:
        g = draw(st.integers(2, 12))
        sizes = [g * near() for _ in signs]
    return [s * a for s, a in zip(signs, sizes)]


KEY_KINDS = ("float64", "int64", "object", "radical")


def _edge_values(kind, signs):
    """Raw values of one key type, entry i times ``signs[i]`` in {-1, 0, 1}:
    zero and negative weights, and -0.0 among the floats."""
    if kind == "float64":
        base = [0.5, 1.25, 0.125, 3.0, 0.75, 0.25, 1.0, 0.375]  # dyadic: exact sums
        return [-0.0 if s == 0 and i % 2 else s * base[i % len(base)] for i, s in enumerate(signs)]
    if kind == "int64":
        return [s * (1 + i % 5) for i, s in enumerate(signs)]
    if kind == "object":
        return [s * (2**62 + 7 * i) for i, s in enumerate(signs)]
    roots = from_squares([2, 3, 5, 2, 7, 6, 3, 10, 11, 5, 13, 1, 14, 15]).values
    return [s * roots[i] for i, s in enumerate(signs)]


def _wide_int64(signs):
    """int64 entries in the thousands, entry i times ``signs[i]``: up to 14
    of them have fewer sign patterns than lattice points."""
    return [s * (2000 + 37 * i) for i, s in enumerate(signs)]


def _keys_of(kind, values):
    """``(keys, dtype)`` of raw ``values`` as keys of ``kind``."""
    from radsum.engine import _radical_keys

    if kind == "radical":
        return _radical_keys(values)
    return values, {"float64": np.float64, "int64": np.int64, "object": object}[kind]


class TestNonnegativeTables:
    """Every signed-sum table is built in nonnegative form and mirrored;
    the full-table recurrence and brute force are the references."""

    @staticmethod
    def _assert_same_table(table, expected, dtype):
        from radsum.engine import _Radical

        (keys, counts), (want, want_counts) = table, expected
        if isinstance(dtype, _Radical):
            # a full radical table comes in fixed-point order, the
            # recurrence's in code order: compare codes and counts in code
            # order
            assert keys.shape == (len(keys), 2) and keys.dtype == want.dtype == dtype.dtype
            assert np.all(np.diff(keys[:, 0]) >= 0)
            scale = Fraction(2) ** dtype.shift
            for f, c in keys.tolist():
                assert f - dtype.units < dtype.value(c, dtype.spread) * scale < f + dtype.units
            order = np.argsort(keys[:, 1])
            keys, counts, want = keys[order, 1], counts[order], want[:, 1]
        assert counts.tolist() == want_counts.tolist()
        if dtype is np.float64:
            assert keys.view(np.int64).tolist() == want.view(np.int64).tolist()
        else:
            assert keys.tolist() == want.tolist()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_tables_match_full_recurrence(self, data):
        from radsum.engine import _mirror, _nonneg_sums, _tail_distributions

        kind = data.draw(st.sampled_from(KEY_KINDS))
        n = data.draw(st.integers(0, 9 if kind == "radical" else 14))
        if kind == "float64":
            generic = st.integers(-(10**6), 10**6).map(lambda i: math.copysign(math.sqrt(abs(i)), i))
            pick = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]), st.floats(-3, 3), generic)
            values = data.draw(st.lists(pick, min_size=n, max_size=n))
        else:
            signs = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
            values = _edge_values(kind, signs)
            if kind == "int64" and data.draw(st.booleans()):
                values = _wide_int64(signs)
        keys, dtype = _keys_of(kind, values)
        self._assert_same_table(_mirror(*_nonneg_sums(keys, dtype, np.int64)), _full_table(keys, dtype), dtype)
        if n:
            *_, last = _tail_distributions(keys, dtype)
            self._assert_same_table(_mirror(*last), _full_table(keys[::-1], dtype), dtype)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_dense_tables_match_full_recurrence(self, data):
        # int64 keys in both forms: small entries, entries near 2^n/n
        # (near-equal sizes), entries near 1-4 times 2^n/(3n), one large
        # entry among small ones, and a common factor g > 1; each form is
        # forced through the rule's constants, for halves and for tails
        from unittest import mock

        from radsum import engine

        n = data.draw(st.integers(0, 14))
        family = data.draw(st.sampled_from(["small", "near", "multiples", "lopsided", "factor"]))
        signs = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
        if family == "small":
            values = _edge_values("int64", signs)
        elif family == "near":
            size = (1 << n) // max(n, 1) * data.draw(st.sampled_from([1, 2]))
            values = [s * (size + data.draw(st.integers(-2, 2))) for s in signs]
        elif family == "multiples":
            size = (1 << n) // max(3 * n, 1) + 1
            values = [s * ((1 + i % 4) * size + data.draw(st.integers(0, 3))) for i, s in enumerate(signs)]
        elif family == "lopsided":
            values = [s * (1 << data.draw(st.integers(0, n))) for s in signs[:1]] + _edge_values("int64", signs[1:])
        else:
            g = data.draw(st.integers(2, 12))
            values = [s * g * data.draw(st.integers(1, 40)) for s in signs]
        count_dtype = data.draw(st.sampled_from([np.int64, object]))
        full, full_counts = _full_table(values, np.int64)
        ran = set()
        for form, floor in (("dense", 1 << 62), ("sparse", 0)):
            with mock.patch.multiple(engine, _DENSE_FLOOR=floor, _DENSE_RATIO=0, _DENSE_RETURN=0):
                with _table_forms() as forms:
                    keys, counts = engine._nonneg_sums(values, np.int64, count_dtype)
                    tails = list(engine._tail_distributions(values, np.int64))
            assert set(forms) == ({form} if n else set())  # an empty table takes no step
            ran.update(forms)
            event(form)
            assert keys.dtype == np.int64 and counts.dtype == np.dtype(count_dtype)
            assert keys.tolist() == full[full >= 0].tolist()
            assert counts.tolist() == full_counts[full >= 0].tolist()
            for size, (keys, counts) in enumerate(tails, 1):
                want, want_counts = _full_table(values[::-1][:size], np.int64)
                assert keys.dtype == np.int64 and counts.dtype == np.int64
                assert keys.tolist() == want[want >= 0].tolist()
                assert counts.tolist() == want_counts[want >= 0].tolist()
        assert ran == ({"dense", "sparse"} if n else set())

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_dense_tables_stay_within_the_bound(self, data):
        """The guard of the per-step rule: at every step of an int64 table,
        a dense table is at most ``_DENSE_FLOOR + _DENSE_RATIO*held`` long,
        for the distinct sums ``>= 0`` held before the step, over
        structured sizes whose lattices run far past their sums (k <= 20)."""
        from unittest import mock

        from radsum import engine

        k = data.draw(st.integers(1, 20))
        family = data.draw(st.sampled_from(["near", "multiples", "lopsided", "factor"]))
        values = _long_lattice_int64(data.draw, family, k)
        real, steps = engine._table_steps, []

        def spy(keys, counts, values, step, span):
            held = len(engine._nonneg_form(keys, counts, step)[0])
            for keys, counts in real(keys, counts, values, step, span):
                steps.append((keys is None, len(counts), held))
                held = len(engine._nonneg_form(keys, counts, step)[0])  # held at the next step
                yield keys, counts

        with mock.patch.object(engine, "_table_steps", spy):
            engine._nonneg_sums(values, np.int64, np.int64)
            list(engine._tail_distributions(values, np.int64))
        for dense, length, held in steps:
            event("dense" if dense else "sparse")
            if dense:
                assert length <= engine._DENSE_FLOOR + engine._DENSE_RATIO * held, (values, length, held)

    def test_dense_rule(self):
        """Each step of an int64 table picks its form from the sums it holds:
        dense below the floor, sparse where the lattice runs far past them,
        and never dense for float, radical or Python-int keys.  An int64
        table starts dense, from the one sum 0, wherever its first step fits
        the rule, whatever its length; any other table of at most
        ``_RAW_PREFIX`` values is its raw sums and takes no step."""
        from radsum import engine

        with _table_forms(dtypes=True) as seen:
            # 64 ones: two halves of 32 ones, span 32, with object counts
            n = 64
            hits = sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) <= 8)
            assert engine.admissible_count(canonicalize([1] * n, EXACT), 1, limit=n) == (hits, 2**n)
            assert seen == [("dense", np.dtype(object))] * 64
            # the left half [2^30, 2^30, 1 x 30] is dense over its 30 ones (16
            # sums >= 0 on 31 points) and sparse over the two large sizes, whose
            # lattices pass 2^30 points; the right half of 32 ones is dense.
            # |s| <= |v| = 2^30.5 holds for exactly the patterns with opposite
            # signs on the two large entries.
            seen.clear()
            assert engine.admissible_count(canonicalize([2**30] * 2 + [1] * 62, EXACT), 1, limit=n) == (2**63, 2**64)
            assert [form for form, _ in seen] == ["dense"] * 30 + ["sparse"] * 2 + ["dense"] * 32
            # sizes 1, 1, 1, a (a factor g = 2 changes nothing), 19 three times
            # and 30 five times, and eight near-equal sizes: at most
            # _RAW_PREFIX values, on lattices of at most 208 points, so dense
            # from the first step, one per value
            seen.clear()
            for values in ([4, 1, -1, 1], [5, 1, -1, 1], [8, 2, -2, 2], [10, 2, -2, 2], [19] * 3 + [30] * 5):
                engine._nonneg_sums(values, np.int64, np.int64)
            engine._nonneg_sums([10 + i for i in range(8)], np.int64, np.int64)
            engine._nonneg_sums([20 + i for i in range(8)], np.int64, np.int64)
            assert seen == [("dense", np.dtype(np.int64))] * (4 * 4 + 8 * 3)
            # their tails step one value at a time, on lattices of at most 208
            # points: dense
            seen.clear()
            for values in ([4, 1, -1, 1], [10, 2, -2, 2], [19] * 3 + [30] * 5, [20 + i for i in range(8)]):
                list(engine._tail_distributions(values, np.int64))
            assert seen == [("dense", np.dtype(np.int64))] * (4 + 4 + 8 + 8)
            seen.clear()
            wide = [5000 + 37 * i for i in range(16)]  # more lattice points than patterns
            radical = from_squares([2, 3, 5, 7, 11, 13, 17, 19])
            for values, mode, t in (
                ([1.0] * 16, FLOAT, 1.0),
                ([2**62 + i for i in range(16)], EXACT, 2**62),
                (wide, EXACT, 1000),
                (radical.values, EXACT, 1),
            ):
                engine.signed_sum_count(values, t, mode)
            sum_distribution(radical)
            # halves of 8 floats, Python ints and radical values, and 8 radical
            # values: raw sums; the halves of ``wide``, on lattices of about
            # 41000 points, dense from the first step
            assert seen == [("dense", np.dtype(np.int64))] * 16
            seen.clear()
            # float, Python-int and radical tables that do step stay sparse: 4
            # steps per half of 12 Python ints, 4 for 12 radical values, 8 for
            # 16 floats on no lattice
            engine.signed_sum_count([2**62 + i for i in range(24)], 2**62, EXACT)
            sum_distribution(from_squares([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]))
            engine._nonneg_sums(np.random.default_rng(0).standard_normal(16).tolist(), np.float64, np.int64)
            assert seen == [("sparse", np.dtype(np.int64))] * (8 + 4 + 8)
            # 16 entries near 5000: dense while the lattice is at most the
            # floor (62443 points after twelve) and just past it (67887 points,
            # 150 sums >= 0 held), then sparse (73368 points, 189 held)
            seen.clear()
            sum_distribution(canonicalize(wide, EXACT))
            assert [form for form, _ in seen] == ["dense"] * 13 + ["sparse"] * 3
            # the bound itself: after a size 1 (one sum >= 0 held), a step onto
            # _DENSE_FLOOR + _DENSE_RATIO lattice points is dense, onto one
            # point more sparse
            seen.clear()
            edge = engine._DENSE_FLOOR + engine._DENSE_RATIO
            for size in (edge - 2, edge - 1):
                list(engine._tail_distributions([size, 1], np.int64))
            assert [form for form, _ in seen] == ["dense"] * 3 + ["sparse"]
            # and a sparse table (the one sum 0 to start a tail) turns dense
            # within _DENSE_FLOOR + _DENSE_RETURN lattice points only
            seen.clear()
            edge = engine._DENSE_FLOOR + engine._DENSE_RETURN
            for size in (edge - 1, edge):
                list(engine._tail_distributions([1, size], np.int64))
            assert [form for form, _ in seen] == ["dense"] * 2 + ["sparse"] * 2
            # one large entry among small ones, near-equal entries with and
            # without small ones before them, and entries just above 1 and just
            # below 2, 3 and 4 times one size, under the default limits: each
            # has at most a few thousand distinct sums on a lattice of millions
            # of points, so every step onto that lattice is sparse.  Tables
            # whose first size passes the floor start from their raw sums.
            for values, forms in (
                ([2**23 - 24] + [1] * 23, ["dense"] * 23 + ["sparse"]),
                ([699000 + i for i in range(24)], ["sparse"] * 16),
                ([1, 2, 3, 4] + [576000 + i for i in range(20)], ["dense"] * 4 + ["sparse"] * 20),
                ([270000 + i for i in range(6)] + [c * 270000 - 1 - i for c in (2, 3, 4) for i in range(6)], ["sparse"] * 16),
            ):
                seen.clear()
                sum_distribution(canonicalize(values, EXACT))
                assert [form for form, _ in seen] == forms, values

    @pytest.mark.parametrize("raw_prefix", [0, 8])
    @pytest.mark.parametrize("kind", KEY_KINDS)
    def test_edge_weight_counts(self, monkeypatch, rng, kind, raw_prefix):
        # zero, negative and -0.0 raw weights; with no raw prefix every
        # sparse table is built by nonnegative steps.  int64 tables start
        # dense or from their raw sums, and step dense or sparse, by the rule.
        from radsum import engine

        monkeypatch.setattr(engine, "_RAW_PREFIX", raw_prefix)
        mode = FLOAT if kind == "float64" else EXACT
        one = 1.0 if mode == FLOAT else Fraction(1)
        for n in (2, 5, 10):
            # two nonzero entries over distinct radicands keep radical keys
            signs = [1, -1] + [int(s) for s in rng.integers(-1, 2, size=n - 2)]
            for values in [_edge_values(kind, signs)] + [_wide_int64(signs)] * (kind == "int64"):
                dtype = engine._key_setup(values, one, mode)[1]
                assert ("radical" if isinstance(dtype, engine._Radical) else np.dtype(dtype).name) == kind
                for t in (0 * one, one):
                    for strict in (False, True):
                        expected = product_oracle(values, t, strict) * 2**n  # dyadic floats sum exactly
                        assert engine.signed_sum_count(values, t, mode, strict) == (expected, 2**n), (values, t, strict)
                        assert merged_count(values, t, mode, strict) == expected, (values, t, strict)

    @pytest.mark.parametrize("raw_prefix", [0, 8])
    @pytest.mark.parametrize("kind", KEY_KINDS)
    def test_no_negative_key_is_merged(self, monkeypatch, rng, kind, raw_prefix):
        """The halved work: every merge while a table is built sees only
        keys >= 0 by their sign key (and no float -0.0)."""
        from radsum import engine

        monkeypatch.setattr(engine, "_RAW_PREFIX", raw_prefix)
        real = engine._merge_equal
        merged = []

        def spy(keys, counts):
            sign = engine._sign_key(keys)
            assert np.all(sign >= 0)
            if kind == "float64":
                assert not np.any(np.signbit(keys))
            merged.append(len(sign))
            return real(keys, counts)

        monkeypatch.setattr(engine, "_merge_equal", spy)
        signs = [int(s) for s in rng.integers(-1, 2, size=12)]
        values = _wide_int64(signs) if kind == "int64" else _edge_values(kind, signs)
        keys, dtype = _keys_of(kind, values)

        def build():
            merged.clear()
            with _table_forms() as forms:
                engine._nonneg_sums(keys, dtype, np.int64)
                list(engine._tail_distributions(keys, dtype))
            return forms

        # one merge for the raw sums a table starts from, one per sparse
        # step; an int64 table whose first step fits the rule starts dense,
        # and a dense step merges nothing
        forms = build()
        assert len(merged) == (kind != "int64") + forms.count("sparse")
        if kind == "int64":  # every step forced sparse: the int64 table starts from its raw sums
            monkeypatch.setattr(engine, "_dense_fits", lambda *args, **kwargs: False)
            forms = build()
            assert set(forms) == {"sparse"}
        assert len(merged) == (1 + 12 - min(12, raw_prefix)) + 12

    def test_mass_slip_is_soundness_error(self, monkeypatch):
        # a bookkeeping slip in one step (a count lost) raises, which
        # python -O does not strip as it would an assert
        from radsum import SoundnessError, engine

        real = engine._nonneg_step

        def slip(keys, counts, v):
            keys, counts = real(keys, counts, v)
            counts[-1] -= 1
            return keys, counts

        half = list(canonicalize([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3], FLOAT).values)
        monkeypatch.setattr(engine, "_nonneg_step", slip)
        with pytest.raises(SoundnessError, match="mass"):
            engine._nonneg_sums(half, np.float64, np.int64)
        # weights on no lattice: the count is made over merged float halves
        w = canonicalize(np.random.default_rng(0).standard_normal(20).tolist(), FLOAT)
        with pytest.raises(SoundnessError, match="mass"):
            threshold_probability(w, 1.0, limit=20)
        # the first _RAW_PREFIX (8) weights take no step; entries in the
        # hundred thousands start past the dense floor, so the int64 table
        # starts from their raw sums and its ninth step is sparse
        with pytest.raises(SoundnessError, match="mass"):
            sum_distribution(canonicalize([301001, 103001, 207001, 509001, 401001, 107001, 211001, 601001, 307001], EXACT))

    def test_dense_mass_slip_is_soundness_error(self, monkeypatch):
        # a count lost in each dense step raises, for a whole table, for the
        # halves of a count and for the tail tables of the exact walk: six
        # weights near 10^5 keep its phase 2 sparse, and its last three, the
        # first ones stepped, take dense steps
        from radsum import SoundnessError, engine

        real = engine._table_steps

        def slip(*args):
            for keys, counts in real(*args):
                if keys is None:
                    counts[-1] -= 1
                yield keys, counts

        monkeypatch.setattr(engine, "_table_steps", slip)
        with pytest.raises(SoundnessError, match="mass"):
            sum_distribution(canonicalize([3, 1, 2, 5, 4, 1, 2, 6, 3], EXACT))
        with pytest.raises(SoundnessError, match="mass"):
            threshold_probability(canonicalize([1] * 20, EXACT), 1, limit=20)
        with pytest.raises(SoundnessError, match="mass"):
            prefix_partition(canonicalize([99991, 97003, 93001, 91007, 88001, 85003, 3, 2, 1], EXACT))

    def test_dense_count_matches_sparse_route_and_naive(self):
        """``_count_merged`` on int64 keys whose halves both end dense counts
        in the dense form (``_dense_count``), and the count equals that of the
        sparse route, every step forced sparse through ``_dense_fits``, and
        of the naive 2^n sweep.  Entries are multiples of a factor drawn per
        half, zeros and negative entries included, so the halves' gcds often
        differ; cut-offs -1, 0, ``sum|a_i|`` and one drawn between, strict
        and not.  Every half starts dense, short ones too, so only n = 1,
        whose right half is empty, takes the sparse route unforced.  64 ones
        at limit 64 take it with Python-int counts."""
        from unittest import mock

        from radsum import WeightVector, engine

        real, seen = engine._dense_count, Counter()

        @given(st.data())
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def check(data):
            n = data.draw(st.integers(1, 18))
            values = []
            for size in (n - n // 2, n // 2):
                factor = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
                values += data.draw(st.lists(st.integers(-9, 9).map(factor.__mul__), min_size=size, max_size=size))
            bound = sum(map(abs, values))
            cut = data.draw(st.sampled_from([-1, 0, bound, data.draw(st.integers(0, bound))]))
            strict = data.draw(st.booleans())
            calls = []
            spy = lambda *args: calls.append(args) or real(*args)
            with mock.patch.object(engine, "_dense_count", spy):
                dense = engine._count_merged(values, np.int64, cut, strict)
            with mock.patch.multiple(engine, _dense_fits=lambda *args, **kwargs: False, _dense_count=None):
                sparse = engine._count_merged(values, np.int64, cut, strict)
            exact = tuple(Fraction(abs(a)) for a in sorted(values, key=abs, reverse=True))
            w = WeightVector(exact, tuple(a * a for a in exact), EXACT, Fraction(1))
            naive = threshold_probability_naive(w, max(cut, 0), strict or cut < 0) * 2**n
            route = "dense" if calls else "sparse"
            seen[route] += 1
            event(route)
            assert dense == sparse == naive, (values, cut, strict, route)

        check()
        assert seen["dense"] and seen["sparse"], seen
        dtypes = []
        spy = lambda left, right, cut: dtypes.append((left.dtype, right.dtype)) or real(left, right, cut)
        with mock.patch.object(engine, "_dense_count", spy):
            p = threshold_probability(canonicalize([1] * 64, EXACT), 1, limit=64)
        assert p == Fraction(sum(math.comb(64, k) for k in range(65) if abs(64 - 2 * k) <= 8), 2**64)
        assert dtypes == [(np.dtype(object), np.dtype(object))]

    def test_corrupt_dense_half_is_soundness_error(self, monkeypatch):
        # one pattern added to the last table of the left half alone: each
        # dense half's mass is checked before the dense count, under -O too
        from radsum import SoundnessError, engine

        real, halves = engine._table_steps, []

        def corrupt(*args):
            halves.append(args)
            for keys, counts in real(*args):
                yield keys, counts
            if len(halves) == 1:  # resumed once more after the last table
                assert keys is None
                counts[0] += 1

        w = canonicalize([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3], EXACT)
        monkeypatch.setattr(engine, "_table_steps", corrupt)
        with pytest.raises(SoundnessError, match="mass"):
            threshold_probability(w, 1)
        assert len(halves) == 1


class TestDenseRule:
    """``_dense_fits`` is the one dense-or-sparse rule of int64 tables, of
    the walk's frontier and of its backward recurrence."""

    def test_forced_sparse_changes_no_result(self):
        """With ``_dense_fits`` forced false, int64 inputs give the same
        counts, distributions and partition reports, and no table starts or
        steps dense, and no ``_dense_count``, ``_dense_extend`` or
        ``_backward_joints`` runs; unforced, each of them runs on these
        inputs."""
        from unittest import mock

        from radsum import engine

        gen = np.random.default_rng(44)
        vectors = [
            canonicalize(sorted(gen.integers(1, 51, size=20).tolist(), reverse=True), EXACT),
            canonicalize([1] * 20, EXACT),
            one_radicand_vector(gen, 16),
            random_case2(gen, 12),
            random_case2(gen, 16, spread=1000),
        ]

        def results():
            out = []
            for w in vectors:
                for t in (0, Fraction(1, 2), 1):
                    out += [engine.signed_sum_count(w.values, t, EXACT, strict) for strict in (False, True)]
                d = sum_distribution(w)
                out.append((d.values.tolist(), d.counts.tolist(), d.scale))
                if case_of(w) is CaseTag.CASE2:
                    out.append(prefix_partition(w))
            return out

        spied = ("_dense_count", "_dense_extend", "_backward_joints")
        ran, real_steps = Counter(), engine._table_steps
        spies = {name: (lambda real, name: lambda *a: ran.update([name]) or real(*a))(getattr(engine, name), name) for name in spied}
        starts = lambda keys, *rest: ran.update(["dense start" if keys is None else "sparse start"]) or real_steps(keys, *rest)
        with mock.patch.multiple(engine, _table_steps=starts, **spies), _table_forms() as forms:
            want = results()
        assert set(ran) == {*spied, "dense start", "sparse start"} and set(forms) == {"dense", "sparse"}, (ran, set(forms))
        ran.clear()
        absent = dict.fromkeys(spied)  # a call raises TypeError
        with mock.patch.multiple(engine, _dense_fits=lambda *args, **kwargs: False, _table_steps=starts, **absent), _table_forms() as forms:
            got = results()
        assert set(ran) == {"sparse start"} and set(forms) == {"sparse"}, (ran, set(forms))
        assert got == want


def _square_norm(head) -> list:
    """``head`` and one more integer whose squares sum to a square: with an
    odd sum ``S`` of squares (the first entry raised by one if not), ``b =
    (S - 1)/2`` gives ``S + b^2 = (b + 1)^2``."""
    head = list(head)
    if sum(a * a for a in head) % 2 == 0:
        head[0] += 1
    return head + [(sum(a * a for a in head) - 1) // 2]


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` units in the last place, up for ``k > 0``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


ROUNDING_KINDS = ("small", "wide", "decimal", "square", "ones", "raw", "ulps", "normal")


@st.composite
def _rounding_inputs(draw, kind: str):
    """15 to 22 float weights of one class: canonical integers in [1, 9]
    ("small") or [1, 999] ("wide"), canonical 3-digit decimals (as the CLI
    reads a decimal list), canonical square norms (some signed sum is
    exactly 1 in real arithmetic), ones, raw small integers with zeros and
    negatives, canonical integers in [1, 999] with one weight moved by 1 to
    1000 ulps, and standard-normal draws."""
    n = draw(st.integers(15, 22))
    if kind == "ones":
        return [1.0] * n
    if kind == "raw":
        return draw(st.lists(st.integers(-5, 5).map(float), min_size=n, max_size=n))
    if kind == "normal":
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n).tolist()
    if kind == "decimal":
        digits = draw(st.lists(st.integers(1, 999), min_size=n, max_size=n))
        return list(canonicalize([float(f"0.{d:03d}") for d in digits], FLOAT).values)
    top = 9 if kind in ("small", "square") else 999
    m = n - (kind == "square")
    ints = draw(st.lists(st.integers(1, top), min_size=m, max_size=m))
    values = list(canonicalize(_square_norm(ints) if kind == "square" else ints, FLOAT).values)
    if kind == "ulps":
        i = draw(st.integers(0, n - 1))
        values[i] = _ulps(values[i], draw(st.integers(1, 1000)))
    return values


def _canonical_lattice(ints) -> tuple[list, list]:
    """``(values, expected)``: the canonical float weights of the positive
    integers ``ints`` and the integers ``_float_lattice`` should find for
    them, in the same order: ``ints`` sorted descending, over their gcd."""
    g = math.gcd(*ints)
    return list(canonicalize(ints, FLOAT).values), sorted((a // g for a in ints), reverse=True)


class TestRoundingClusters:
    """Float sums that differ from exact ones only by rounding gather in
    clusters about the points of an integer lattice: past ``_RAW_PAIRS_N``
    weights they are counted on that lattice when ``_float_lattice``'s
    error bound decides every pair, and over merged float halves
    otherwise."""

    def test_lattice_count_matches_literal(self):
        from radsum import engine
        from radsum.engine import signed_sum_count

        branches = Counter()

        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        def check(kind, values, data):
            sums = np.abs(np.add.outer(*literal_float_halves(values)))
            achieved = float(sums.flat[data.draw(st.integers(0, sums.size - 1))])
            for t in (0.0, 1.0, 0.3, achieved, math.nextafter(achieved, 0), math.nextafter(achieved, math.inf)):
                branch = "fallback" if engine._float_lattice(values, t) is None else "lattice"
                branches[branch] += 1
                event(f"{kind}: {branch}")
                for strict in (False, True):
                    expected = int(np.count_nonzero(sums < t if strict else sums <= t))
                    assert signed_sum_count(values, t, FLOAT, strict) == (expected, 2 ** len(values)), (values, t)
                    assert merged_count(values, t, FLOAT, strict) == expected, (values, t)

        for kind in ROUNDING_KINDS:
            given(st.just(kind), _rounding_inputs(kind), st.data())(check)()
        assert branches["lattice"] and branches["fallback"], branches

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_lattice_decides_sums_near_its_bound(self, data):
        # a few lattice points moved by up to 40 ulps each, so the residual
        # sum|v_i - a_i*c| can outweigh the rounding term, and thresholds
        # within a few error bounds of an achieved sum: whenever the lattice
        # answers, its integer count is the literal float count
        from radsum.engine import _float_lattice

        n = data.draw(st.integers(1, 6))
        scale = 1 / math.sqrt(data.draw(st.integers(2, 999)))
        ints = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        values = [_ulps(a * scale, data.draw(st.integers(-40, 40))) for a in ints]
        sums = np.abs(np.add.outer(*literal_float_halves(values)))
        size = 2.0**-52 * sum(values)
        t = float(sums.flat[data.draw(st.integers(0, sums.size - 1))]) + data.draw(st.integers(-4 * n, 4 * n)) * size
        found = _float_lattice(values, max(t, 0.0))
        event("lattice" if found else "fallback")
        if found:
            lattice, cutoff = found
            count = sum(abs(sum(e * a for e, a in zip(signs, lattice))) <= cutoff for signs in itertools.product((-1, 1), repeat=n))
            for strict in (False, True):
                assert count == np.count_nonzero(sums < t if strict else sums <= t), (values, t)

    @pytest.mark.parametrize("lo, hi", [(1, 9), (1, 999), (70000, 99999)])
    def test_lattice_recovers_the_integers(self, lo, hi):
        from radsum.engine import _float_lattice

        rng = np.random.default_rng(hi)
        for n in (16, 29, 40):
            ints = rng.integers(lo, hi + 1, size=n).tolist()
            assert math.isqrt(sum(a * a for a in ints)) ** 2 != sum(a * a for a in ints)
            values, expected = _canonical_lattice(ints)
            found = _float_lattice(values, 1.0)
            assert found is not None and found[0] == expected, (lo, hi, n)

    def test_lattice_of_decimals_and_none(self):
        from radsum.engine import _float_lattice

        rng = np.random.default_rng(3)
        digits = rng.integers(1, 1000, size=38).tolist()
        values = list(canonicalize([float(f"0.{d:03d}") for d in digits], FLOAT).values)
        g = math.gcd(*digits)
        assert _float_lattice(values, 1.0)[0] == sorted((d // g for d in digits), reverse=True)
        for seed in range(5):
            normal = np.random.default_rng(seed).standard_normal(24).tolist()
            assert _float_lattice(normal, 1.0) is None and _float_lattice(normal, 0.3) is None
        # some signed sum of a square norm is exactly 1, and 0 is a lattice point
        square, _ = _canonical_lattice(_square_norm([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8]))
        assert _float_lattice(square, 1.0) is None and _float_lattice(square, 0.9) is not None
        small, _ = _canonical_lattice([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
        assert _float_lattice(small, 0.0) is None and _float_lattice(small, 1.0) is not None

    def test_denominator_in_the_lcm_ends_the_search(self, monkeypatch):
        # 9/2 sets the lcm to 2, and 6/2, 4/2 and 3/2 lie on it: only the
        # first ratio runs a continued fraction
        from radsum import engine

        real, searched = engine._convergent, []

        def spy(x, y, most):
            searched.append(x / y)
            return real(x, y, most)

        monkeypatch.setattr(engine, "_convergent", spy)
        values, expected = _canonical_lattice([9, 6, 4, 3, 2] * 3)
        found = engine._float_lattice(values, 1.0)
        assert found is not None and found[0] == expected
        assert searched == [pytest.approx(4.5)]
        # pi's convergents reach 2^-48 only past a denominator of 10^6
        assert real(*math.pi.as_integer_ratio(), 10**6) is None
        assert real(*math.pi.as_integer_ratio(), 10**12)[1] > 10**6

    def test_overflowing_sums_are_refused(self, monkeypatch):
        # half sums that could overflow to +-inf (and meet as inf - inf =
        # nan) are refused before any table is built; just below 2^1023 the
        # count is the literal one
        from radsum import engine
        from radsum.engine import signed_sum_count

        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(engine, "_half_sums", no_table)
        for values in (
            [1e308, 3.0, -2e308 / 3, 1.0] * 4,
            [1.7e308, -1.7e308] * 8,
            [1e308] * 16,
            [2.0**1022, -(2.0**1022)],
            [1.0, math.inf],
            [math.nan],
        ):
            with pytest.raises(InputError, match="overflow"):
                signed_sum_count(values, 1.0, FLOAT)
        monkeypatch.undo()
        values = [2.0**1020, -(2.0**1020), 2.0**1019, 1.0] * 2
        assert math.fsum(map(abs, values)) < 2.0**1023
        sums = np.abs(np.add.outer(*literal_float_halves(values)))
        for t in (0.0, 1.0, 2.0**1021):
            for strict in (False, True):
                expected = int(np.count_nonzero(sums < t if strict else sums <= t))
                assert signed_sum_count(values, t, FLOAT, strict) == (expected, 2**8), (t, strict)

    def test_square_norm_takes_the_recount(self, monkeypatch):
        # sum a_i^2 = 297^2, so some signed sum is exactly 1: its rounding
        # copies may fall on either side of t = 1, the lattice cannot
        # decide it and the float halves are counted
        from radsum import engine
        from radsum.engine import signed_sum_count

        ints = _square_norm([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8])
        assert math.isqrt(sum(a * a for a in ints)) ** 2 == sum(a * a for a in ints)
        values = list(canonicalize(ints, FLOAT).values)
        sums = np.abs(np.add.outer(*literal_float_halves(values)))
        real, dtypes = engine._count_merged, []

        def spy(values, dtype, t, strict):
            dtypes.append(dtype)
            return real(values, dtype, t, strict)

        monkeypatch.setattr(engine, "_count_merged", spy)
        for strict in (False, True):
            dtypes.clear()
            expected = int(np.count_nonzero(sums < 1 if strict else sums <= 1))
            assert signed_sum_count(values, 1.0, FLOAT, strict) == (expected, 2**20)
            assert dtypes == [np.float64]
        # t = 0.9 lies between lattice points: the count is made on integers
        expected = int(np.count_nonzero(sums <= 0.9))
        assert signed_sum_count(values, 0.9, FLOAT) == (expected, 2**20) and dtypes == [np.float64, np.int64]


class TestThresholdProperties:
    @given(st.integers(0, 3), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_everything_admitted_beyond_total_mass(self, extra, strict):
        w = from_squares([Fraction(1, 3)] * 3)
        t = 2 + extra  # sum of |values| = sqrt(3) < 2
        assert threshold_probability(w, t, strict) == 1

    def test_monotone_in_t(self, rng):
        w = rational_unit_vector(rng, 8)
        ts = sorted(Fraction(int(a), 16) for a in rng.integers(0, 40, size=12))
        probs = [threshold_probability(w, t) for t in ts]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_strict_gap_is_exact_mass_at_t(self, rng):
        for _ in range(15):
            w = rational_unit_vector(rng, int(rng.integers(2, 9)))
            dist = sum_distribution(w)
            # pick t as an achieved |value| so the gap is nonzero sometimes
            t = abs(dist.entries[int(rng.integers(0, len(dist.entries)))][0])
            non_strict = threshold_probability(w, t)
            strict = threshold_probability(w, t, strict=True)
            mass_at_t = sum(
                Fraction(c, dist.total) for v, c in dist.entries if abs(v) == t
            )
            assert non_strict - strict == mass_at_t


class TestSumDistribution:
    def test_single(self):
        d = sum_distribution(canonicalize([1], EXACT))
        assert d.entries == ((Fraction(-1), 1), (Fraction(1), 1))

    def test_three_four_five(self):
        d = sum_distribution(canonicalize([3, 4], EXACT))
        assert d.entries == (
            (Fraction(-7, 5), 1),
            (Fraction(-1, 5), 1),
            (Fraction(1, 5), 1),
            (Fraction(7, 5), 1),
        )

    def test_uniform_four(self):
        d = sum_distribution(from_squares([Fraction(1, 4)] * 4))
        assert d.entries == (
            (Fraction(-2), 1),
            (Fraction(-1), 4),
            (Fraction(0), 6),
            (Fraction(1), 4),
            (Fraction(2), 1),
        )

    def test_radical_values_sorted_and_symmetric(self):
        w = from_squares([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        d = sum_distribution(w)
        vals = [v for v, _ in d.entries]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        counts = {}
        for v, c in d.entries:
            counts[v] = c
        for v, c in d.entries:
            assert counts[-v] == c
        assert sum(c for _, c in d.entries) == d.total

    def test_matches_threshold_counts(self, rng):
        for _ in range(10):
            w = rational_unit_vector(rng, int(rng.integers(2, 10)))
            d = sum_distribution(w)
            for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                assert d.probability(t) == threshold_probability(w, t)
                assert d.probability(t, strict=True) == threshold_probability(w, t, True)

    def test_float_mode(self):
        d = sum_distribution(canonicalize([0.5] * 4, FLOAT))
        assert [c for _, c in d.entries] == [1, 4, 6, 4, 1]
        assert [v for v, _ in d.entries] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    @staticmethod
    def _float_table_oracle(values):
        """The construction the in-place float table replaced: ``np.unique``
        of the folded pair sums ``|fl(l + r)|`` with ``l > 0``, the zero
        ``l`` adding the right sums ``r >= 0``, mirrored by concatenation."""
        from radsum.engine import _half_sums, _merge_equal

        split = len(values) - len(values) // 2
        left, right = _half_sums(values[:split], np.float64), _half_sums(values[split:], np.float64)
        sums = np.add.outer(left[left > 0], right).ravel()
        keys, counts = np.unique(np.abs(sums), return_counts=True)
        if len(keys) and keys[0] == 0:
            counts[0] *= 2
        zeros = int(np.count_nonzero(left == 0))
        if zeros:
            tail = right[right >= 0]
            tail_counts = np.full(len(tail), zeros)
            keys, counts = _merge_equal(np.concatenate([keys, tail]), np.concatenate([counts, tail_counts]))
        z = int(keys[0] == 0)
        return np.concatenate([-keys[z:][::-1], keys]), np.concatenate([counts[z:][::-1], counts])

    def test_float_table_matches_old_construction(self):
        """Float ``values`` bitwise equal (sign bits included), ``counts`` and
        both dtypes equal to those of the old construction for n = 1..18, on
        generic, tie-heavy and zero-sum vectors; each array owns memory in
        proportion to the distinct sums, its buffer at most 4 times its size.
        Compaction blocks of 3 and 64 sums put runs across block edges."""
        from unittest import mock

        from radsum import engine
        from radsum.engine import _half_sums

        gen, seen = np.random.default_rng(40), Counter()
        for n in range(1, 19):
            vectors = [
                gen.integers(70000, 100000, size=n).tolist(),
                [1.0] * n,
                gen.integers(1, 10, size=n).tolist(),
                [3] * n,  # a zero left half sum from n = 3 on
                [5, 3, 3, 5, 3, 3][:n] + [2] * (n - 6),  # 5 - 5 + 3 on the left, 3 on the right
            ]
            for raw in vectors:
                values = list(canonicalize(raw, FLOAT).values)
                split = n - n // 2
                left, right = _half_sums(values[:split], np.float64), _half_sums(values[split:], np.float64)
                seen["zero left sum"] += bool((left == 0).any())
                seen["zero pair sum"] += bool((np.add.outer(left[left > 0], right) == 0).any())
                want, want_counts = self._float_table_oracle(values)
                for block in [engine._COMPACT_BLOCK] + [3, 64] * (n <= 10):
                    with mock.patch.object(engine, "_COMPACT_BLOCK", block):
                        d = sum_distribution(canonicalize(raw, FLOAT))
                    assert d.values.dtype == want.dtype and d.counts.dtype == want_counts.dtype
                    assert d.values.view(np.int64).tolist() == want.view(np.int64).tolist(), raw
                    assert d.counts.tolist() == want_counts.tolist(), raw
                    for array in (d.values, d.counts):
                        owner = array if array.base is None else array.base
                        assert owner.nbytes <= 4 * array.nbytes, (raw, owner.nbytes, array.nbytes)
        assert seen["zero left sum"] and seen["zero pair sum"], seen

    def test_float_sums_are_literal_half_sums(self, rng):
        # every float sum is fl(l + r), each half accumulated in index order
        # from +0.0; the distribution, the naive count and the raw pair count
        # of threshold_probability (n <= _RAW_PAIRS_N) read the same sums
        for n in (1, 2, 5, 9, 14):
            w = random_float_vector(rng, n)
            sums = Counter(l + r for l, r in itertools.product(*literal_float_halves(w.values)))
            d = sum_distribution(w)
            assert [(v.hex(), c) for v, c in d.entries] == [(v.hex(), sums[v]) for v in sorted(sums)]
            for t in (0.5, 1.0, float(abs(d.entries[0][0])), float(abs(d.entries[len(d.entries) // 3][0]))):
                for strict in (False, True):
                    hits = sum(c for v, c in sums.items() if (abs(v) < t if strict else abs(v) <= t))
                    assert threshold_probability_naive(w, t, strict) == hits / 2**n
                    assert threshold_probability(w, t, strict) == hits / 2**n

    @pytest.mark.parametrize(
        "raw, zero_left",
        [
            ([1.0], False),
            ([1.0] * 2, False),
            ([1.0] * 4, True),
            ([1.0] * 8, True),
            ([1.0] * 16, True),
            ([0.5] * 4, True),
            ([2, 2, 1, 1, 1], False),
            ([2, 1, 1, 1, 1], True),
            ([3, 2, 1, 1, 1, 1], True),
            ([3, 3, 2, 2, 1, 1, 1, 1], True),
        ],
    )
    def test_float_fold_matches_literal_sums(self, raw, zero_left):
        # The float table is built from the pairs of left sums l > 0, each
        # counted at |fl(l + r)| (twice at 0), plus the right sums r >= 0 of
        # each zero left sum; values and counts are still those of every
        # pair sum fl(l + r), zero left sums or not
        w = canonicalize(raw, FLOAT)
        left, right = literal_float_halves(w.values)
        assert (0.0 in left) == zero_left
        sums = Counter(l + r for l, r in itertools.product(left, right))
        d = sum_distribution(w)
        assert [(v.hex(), c) for v, c in d.entries] == [(v.hex(), sums[v]) for v in sorted(sums)]
        assert d.values.dtype == np.float64 and d.counts.dtype == np.int64

    def test_arrays_and_scale(self):
        # x = (3, 4)/5: integer keys s stand for s/5
        d = sum_distribution(canonicalize([3, 4], EXACT))
        assert d.values.tolist() == [-7, -1, 1, 7] and d.counts.tolist() == [1] * 4
        assert d.scale == (5, 1)
        # one shared radicand: x = (1, 1, 1)/sqrt(3) = (1, 1, 1)*sqrt(3)/3
        d = sum_distribution(canonicalize([1, 1, 1], EXACT))
        assert d.values.tolist() == [-3, -1, 1, 3] and d.counts.tolist() == [1, 3, 3, 1]
        assert d.scale == (3, 3)
        assert d.entries[0] == (-exact_sqrt(3), 1)
        # several radicands: int64 fixed-point keys of the sums in exact
        # order, less than one unit per term from 2^shift times the sum,
        # with their integer codes; x = (sqrt(6), sqrt(3))/3
        d = sum_distribution(from_squares([1, 2]))
        assert d.scale is None and d.values.dtype == np.int64 and d.codes.dtype == np.int64
        x1, x2 = exact_sqrt(6) / 3, exact_sqrt(3) / 3
        assert [v for v, _ in d.entries] == [-x1 - x2, x2 - x1, x1 - x2, x1 + x2]
        # sum|x_i| < (isqrt(6) + 1)/3 + (isqrt(3) + 1)/3 = 5/3 < 2^(60 - 59)
        assert d.radical.units == 2 and d.radical.shift == 59
        for f, (v, _) in zip(d.values.tolist(), d.entries):
            assert f - 2 < v * 2**59 < f + 2
        assert sum(d.counts) == 4


_RADICANDS = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


class TestDistributionProbability:
    """``SumDistribution.probability`` answers by binary search on the
    (values, counts) arrays; the meet-in-the-middle count is the reference."""

    @given(
        mode=st.sampled_from(["float", "shared", "radical"]),
        raw=st.lists(st.integers(1, 12), min_size=1, max_size=7),
        squares=st.lists(_RADICANDS, min_size=1, max_size=6),
        pick=st.integers(0, 10**6),
        t_num=st.integers(0, 40),
        t_den=st.integers(1, 16),
        strict=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_threshold_probability(self, mode, raw, squares, pick, t_num, t_den, strict):
        if mode == "float":
            w = canonicalize(raw, FLOAT)
        elif mode == "shared":
            w = canonicalize(raw, EXACT)
        else:
            w = from_squares(squares)
        dist = sum_distribution(w)
        assert sum(dist.counts) == dist.total
        # an achieved |value| puts sums exactly on the boundary
        ts = [abs(dist.entries[pick % len(dist.entries)][0]), Fraction(t_num, t_den), 1]
        if mode != "float":
            ts.append(1 + w.values[0])  # a radical threshold r + q*sqrt(D)
        for t in ts:
            t = float(t) if mode == "float" else t
            assert dist.probability(t, strict) == threshold_probability(w, t, strict)


    def test_threshold_over_another_radicand(self):
        # Keys are integers over one radicand, but sqrt(2)/2 is not over it:
        # the table is searched by its exact values instead.
        for w, expected in ((from_squares([Fraction(1, 4)] * 4), Fraction(6, 16)),
                            (canonicalize([1, 1, 2], EXACT), Fraction(2, 8))):
            dist = sum_distribution(w)
            for strict in (False, True):
                p = dist.probability(exact_sqrt(2) / 2, strict)
                assert p == threshold_probability(w, exact_sqrt(2) / 2, strict) == expected
        # a larger table is bisected by exact value, without rendering its entries
        w = canonicalize(list(range(1, 19)), EXACT)  # one radicand, sqrt(2109)
        dist = sum_distribution(w)
        for t in (exact_sqrt(2) / 2, exact_sqrt(3) / 5, 3 - exact_sqrt(2), dist.entries[-7][0]):
            dist.__dict__.pop("entries", None)
            for strict in (False, True):
                assert dist.probability(t, strict) == threshold_probability(w, t, strict), (t, strict)
            assert "entries" not in dist.__dict__


def _tables_at_balanced_depth(walk):
    """``_phase2_depth`` forced onto the tail tables: the balanced depth D,
    ``1 +`` the first argmin of ``_balanced_costs``, whatever the keys."""
    from radsum import engine

    costs = engine._balanced_costs(walk.stats.settled, len(walk.vals))
    return 1 + costs.index(min(costs))


class TestPrefixPartition:
    def test_uniform_four_worked_example(self):
        rep = prefix_partition(from_squares([Fraction(1, 4)] * 4))
        assert rep.ks == (2, 3, 4)
        assert rep.probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert rep.conds == (Fraction(3, 4), None, Fraction(1))
        assert rep.total_prob == Fraction(7, 8)

    def test_one_zero(self):
        rep = prefix_partition(canonicalize([1, 0], EXACT))
        assert rep.ks == (2,)
        assert rep.probs == (Fraction(1),)
        assert rep.conds == (Fraction(1),)
        assert rep.total_prob == Fraction(1)

    def test_partition_properties_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 13))
            w = random_case2(rng, n)
            rep = prefix_partition(w)
            assert sum(rep.probs) == 1
            assert sum(rep.joints) == rep.total_prob
            assert rep.total_prob == threshold_probability(w, 1)
            for p, j in zip(rep.probs, rep.joints):
                assert j <= p
            if rep.probs[-1] > 0:
                assert rep.conds[-1] == 1

    def test_wrong_case_rejected(self):
        with pytest.raises(WrongCaseError, match="not case 2"):
            prefix_partition(canonicalize([3, 4], EXACT))

    def test_n1_rejected(self):
        with pytest.raises(InputError):
            prefix_partition(canonicalize([1], EXACT))

    def test_size_limit(self):
        w = random_case2(np.random.default_rng(0), 10)
        with pytest.raises(SizeLimitError):
            prefix_partition(w, limit=8)

    def test_radical_instance(self):
        w = from_squares([Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
        rep = prefix_partition(w)
        assert sum(rep.probs) == 1
        assert rep.total_prob == threshold_probability(w, 1)

    @staticmethod
    def _partition_oracle(w):
        """Literal classification of every sign pattern: walk prefixes in
        order, stop at the first k in {2..n-1} with |s_k| > 1 - x_{k+1}."""
        from radsum.algebraic import SqrtSum

        n = w.n
        counts = {k: 0 for k in range(2, n + 1)}
        joints = {k: 0 for k in range(2, n + 1)}
        for signs in itertools.product((-1, 1), repeat=n):
            s = SqrtSum()
            assigned = None
            for j in range(1, n):
                s = s + signs[j - 1] * w.values[j - 1]
                if j >= 2 and assigned is None and abs(s) > 1 - w.values[j]:
                    assigned = j
            if assigned is None:
                assigned = n
            full = SqrtSum()
            for sg, v in zip(signs, w.values):
                full = full + sg * v
            counts[assigned] += 1
            if -1 <= full <= 1:
                joints[assigned] += 1
        total = 2**n
        return (
            {k: Fraction(c, total) for k, c in counts.items()},
            {k: Fraction(c, total) for k, c in joints.items()},
        )

    def test_pruned_partition_matches_literal_classification(self, rng):
        instances = [random_case2(rng, int(rng.integers(2, 9))) for _ in range(6)]
        instances.append(
            from_squares([Fraction(1, 4)] * 3 + [Fraction(1, 8)] * 2)
        )
        # One shared radicand D > 1: the walk's integer cut-off isqrt(L^2 // D).
        instances += [canonicalize([1] * 5, EXACT), canonicalize([3, 2, 2, 2, 2, 2], EXACT)]
        while len(instances) < 13:
            w = one_radicand_vector(rng, int(rng.integers(3, 9)), hi=6)
            if case_of(w) is CaseTag.CASE2:
                instances.append(w)
        # Several radicands: the walk takes radical keys.
        while len(instances) < 19:
            w = from_squares([int(v) for v in rng.choice([1, 2, 3, 5, 6, 7], size=int(rng.integers(3, 8)))])
            if case_of(w) is CaseTag.CASE2 and prefix_partition(w).stats.path == "radical":
                instances.append(w)
        for w in instances:
            probs, joints = self._partition_oracle(w)
            rep = prefix_partition(w)
            for i, k in enumerate(rep.ks):
                assert rep.probs[i] == probs[k], (w.values, k)
                assert rep.joints[i] == joints[k], (w.values, k)

    def test_float_boundary_ties_flagged(self):
        # |s_3| in {1/2, 3/2} and the cutoff 1 - x_4 = 1/2 collide exactly.
        rep = prefix_partition(canonicalize([0.5] * 4, FLOAT))
        assert rep.boundary_ties
        assert ("prefix", 3, 0.5, 1) in rep.boundary_ties

    def test_boundary_tie_rows_match_oracle(self):
        gen = np.random.default_rng(1616)
        vectors = [canonicalize([1.0] * n, FLOAT) for n in range(4, 11)]
        # the dyadic unit vectors with n <= 10: split a weight x into four x/2
        vectors += [
            canonicalize(raw, FLOAT)
            for raw in ([4.0] * 4, [4.0] * 3 + [2.0] * 4, [4.0] * 2 + [2.0] * 8, [4.0] * 3 + [2.0] * 3 + [1.0] * 4)
        ]
        while len(vectors) < 131:
            n = int(gen.integers(4, 11))
            kind = len(vectors) % 3
            if kind == 0:  # generic
                raw = list(gen.uniform(0.3, 1.0, size=n))
            else:  # small integers
                raw = [float(v) for v in gen.integers(1, 3 + 2 * (kind == 2), size=n)]
            w = canonicalize(raw, FLOAT)
            if case_of(w) is CaseTag.CASE2:
                vectors.append(w)
        tied = 0
        for w in vectors:
            expected = tie_row_oracle(w.values)
            assert prefix_partition(w).boundary_ties == expected, w.values
            tied += bool(expected)
        assert tied > 20  # the corpus holds tie-sensitive vectors

    def test_float_total_differs_only_with_boundary_ties(self):
        # Float prefix_partition adds prefix sums (from x_1) to tail sums
        # (from x_n); the meet-in-the-middle adds two index-order halves.
        # The rounding differs, so the totals may differ, but only where a
        # sum sits at a decision boundary, which the tie records flag.
        w = canonicalize([1, 2, 2, 2, 2, 2, 2], FLOAT)
        rep = prefix_partition(w)
        assert (rep.total_prob, threshold_probability(w)) == (0.59375, 0.75)
        assert rep.boundary_ties
        gen = np.random.default_rng(1515)
        differ = 0
        for _ in range(600):
            w = canonicalize([int(v) for v in gen.integers(1, 4, size=int(gen.integers(4, 11)))], FLOAT)
            if case_of(w) is not CaseTag.CASE2:
                continue
            rep = prefix_partition(w)
            if rep.total_prob != threshold_probability(w):
                differ += 1
                assert rep.boundary_ties, w.values
        assert differ  # the draw holds tie-sensitive vectors

    @pytest.mark.parametrize("key, raw", [("0.5x4", [0.5] * 4), ("1x9", [1] * 9), ("1x16", [1] * 16)])
    def test_boundary_tie_records_pinned(self, key, raw):
        # The rows of [0.5]*4 and [1]*9 merge the 5 and 83 tie records pinned
        # when each record was listed on its own; [1]*16 has 5425 records,
        # which that list cut to 200, in 27 rows.
        golden = json.loads((Path(__file__).parent / "data" / "partition_ties.json").read_text())
        expected = tuple(tuple(row) for row in golden[key])
        assert sum(row[3] for row in expected) == {"0.5x4": 5, "1x9": 83, "1x16": 5425}[key]
        w = canonicalize(raw, FLOAT)
        assert prefix_partition(w).boundary_ties == expected
        assert tie_row_oracle(w.values) == expected

    @pytest.mark.parametrize("x", [0.0, 1e-13, 0.25, 0.3, 1 / math.sqrt(19), 0.7])
    def test_one_weight_tail_window(self, x):
        # Depth n - 1 counts its sums s against the tail sums {+-x} of the
        # last weight in closed form, and tests only the candidates near a
        # boundary literally.  Queries sit at, one ulp either side of, and
        # 1e-12 +- 1 ulp from fl(1 - x) and 1 + x, either side of the
        # candidate bounds 4e-12 from fl(1 - x) and 1, and in the middle;
        # windows and tie rows are those of a literal loop over the distinct
        # tail sums.
        from radsum.engine import BOUNDARY_TIE_TOL, _last_candidates

        tol, b = BOUNDARY_TIE_TOL, 1.0 - x
        queries = [0.0, 0.5, b - 8e-12, b + 8e-12, 1 - 8e-12]
        for end in (b, 1.0 + x):
            for off in (0.0, tol, -tol):
                q = end + off
                queries += [math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf)]
        for end in (b - 4e-12, b + 4e-12, 1 - 4e-12):
            queries += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
        queries += [-q for q in queries]
        s = np.array(queries)
        ties = Counter()
        at, inside = _last_candidates(s, np.abs(np.abs(s) - b), x, ties, 7)
        window = 2 - (np.abs(s) > b).astype(np.int64)
        window[at] = inside
        tails = {-x, x}  # one distinct sum when x = 0, counted twice
        expected, rows = [], Counter()
        for q in queries:
            lo, hi = -1.0 - q, 1.0 - q
            expected.append(sum(2 // len(tails) for r in tails if lo <= r <= hi))
            for r in tails:
                if lo - tol <= r <= lo + tol or hi - tol <= r <= hi + tol:
                    rows[7, "final", q + r] += 1
        assert window.tolist() == expected
        assert ties == rows and rows
        assert 0 < len(at) < len(queries)  # the closed form and the literal tests both ran

    def test_partition_matches_literal_walk(self):
        """Reports of every Case-2 class, of ``[1.0]*n`` and of vectors
        ending in zero weights equal the literal walks: the float one with
        its tie rows, the exact one over SqrtSums.  Depth n - 1 must run
        both with candidates for its literal tests and without."""
        from unittest import mock

        from radsum import engine

        real, seen = engine._last_candidates, Counter()

        def spy(*args):
            at, window = real(*args)
            seen["with candidates" if len(at) else "without candidates"] += 1
            return at, window

        @settings(max_examples=30, deadline=None, derandomize=True, database=None)
        def check(kind, n, seed):
            gen = np.random.default_rng(seed)
            if kind == "ones":
                w = canonicalize([1.0] * n, FLOAT)
            elif kind == "zero-last":
                zeros = int(gen.integers(1, min(n, 3)))
                w = canonicalize([int(v) for v in gen.integers(1, 5, size=n - zeros)] + [0] * zeros, FLOAT)
            else:
                w = case2_vector(kind, n if kind.startswith("float") else min(n, 8), seed)
            if w is None or case_of(w) is not CaseTag.CASE2:
                event("not Case 2")
                return
            before = seen["with candidates"]
            with mock.patch.object(engine, "_last_candidates", spy):
                rep = prefix_partition(w)
            if w.mode == FLOAT:
                event(f"{kind}: depth n - 1 {'with' if seen['with candidates'] > before else 'without'} candidates")
                probs, joints = float_partition_oracle(w.values)
                assert rep.boundary_ties == tie_row_oracle(w.values), w.values
            else:
                probs, joints = (tuple(table[k] for k in rep.ks) for table in self._partition_oracle(w))
            assert (rep.probs, rep.joints) == (probs, joints), w.values
            assert rep.total_prob == sum(joints)

        for kind in [*CASE2_KINDS, "ones", "zero-last"]:
            given(st.just(kind), st.integers(2, 12), st.integers(0, 2**32 - 1))(check)()
        assert seen["with candidates"] and seen["without candidates"], seen

    def test_zero_last_weights_tie_rows_pinned(self):
        # -0.0 and +0.0 are one tail sum of the zero weights: each of the two
        # prefixes with sum 1.0 at depth 5 has one tail sum near 1 - s, so
        # the row counts 2, not 4
        w = canonicalize([1] * 4 + [0, 0], FLOAT)
        expected = (
            ("final", 2, 1.0, 1), ("prefix", 3, -0.5, 1), ("prefix", 3, 0.5, 1), ("prefix", 4, -1.0, 1),
            ("prefix", 4, 1.0, 1), ("final", 5, -1.0, 2), ("final", 5, 1.0, 2), ("prefix", 5, -1.0, 2),
            ("prefix", 5, 1.0, 2),
        )
        rep = prefix_partition(w)
        assert rep.boundary_ties == expected == tie_row_oracle(w.values)
        assert (rep.probs, rep.joints) == ((0.5, 0.0, 0.0, 0.0, 0.5), (0.375, 0.0, 0.0, 0.0, 0.5))

    def test_last_depth_conditionals_are_exact(self, rng):
        # On every exact key path, a crossed sum at depth n - 1 keeps one of
        # its two tails within 1 and an uncrossed one both: cond_{n-1} = 1/2
        # and cond_n = 1, as the literal classification finds.
        draws = {
            "int64": lambda: random_case2(rng, int(rng.integers(3, 9))),
            "object": lambda: random_case2(rng, int(rng.integers(6, 8)), spread=2**32),
            "int64 over one radicand": lambda: one_radicand_vector(rng, int(rng.integers(3, 9)), hi=6),
            "radical": lambda: from_squares([int(v) for v in rng.choice([1, 2, 3, 5, 6, 7], size=int(rng.integers(3, 8)))]),
        }
        for path, draw in draws.items():
            hits = Counter()
            for _ in range(60):
                w = draw()
                if case_of(w) is not CaseTag.CASE2:
                    continue
                n, rep = w.n, prefix_partition(w)
                if rep.stats.path != path.split()[0]:  # large spreads reach Python ints only sometimes
                    continue
                probs, joints = self._partition_oracle(w)
                assert rep.probs == tuple(probs[k] for k in rep.ks) and rep.joints == tuple(joints[k] for k in rep.ks)
                if n > 2 and probs[n - 1]:
                    assert joints[n - 1] == probs[n - 1] / 2 and rep.conds[-2] == Fraction(1, 2), (path, w.values)
                    hits["A_{n-1}"] += 1
                if probs[n]:
                    assert rep.conds[-1] == 1, (path, w.values)
                    hits["A_n"] += 1
                if min(hits["A_{n-1}"], hits["A_n"]) >= 3:
                    break
            assert hits["A_{n-1}"] and hits["A_n"], (path, hits)

    def test_stats(self):
        # x = (1, 1, 1, 1)/2: depth 2 holds the sums {0, 2}; 2 crosses the
        # cut-off 1 - x_3; depth 3 = n - 1 settles the survivors' children.
        expected = PartitionStats("int64", (1, 2, 2), (0, 1, 2), 0)
        assert prefix_partition(from_squares([Fraction(1, 4)] * 4)).stats == expected
        rep = prefix_partition(canonicalize([0.5] * 4, FLOAT))
        assert rep.stats == PartitionStats("float64", (1, 2, 2), (0, 1, 2), 0)
        # x = (3, 3, sqrt(6), sqrt(6), sqrt(3), sqrt(3))/6: the prefix x1 + x2
        # = 1 settles at depth 2.  The tables start at depth D = 4 (cost 1*4
        # + 2^2 = 8 against 16, 10 and 14 at D = 2, 3, 5), so it is extended
        # by +-x3 +-x4 to the queries 1 - 2x3, 1 (twice, merged by code) and
        # 1 + 2x3, each counted over the sums r in {0, +-0.577} of x5 +- x6.
        # The query 1 has r = 0 on the boundary of |1 + r| <= 1, the one key
        # decided exactly; 1 +- 2x3 = 1 +- 0.816 keep every r at least 0.23
        # from their boundaries, and no other test of the walk comes within
        # the band either.
        rep = prefix_partition(from_squares([1, 1, 2, 2, 3, 3]))
        assert rep.stats == PartitionStats("radical", (1, 2, 2, 3, 2), (0, 1, 0, 2, 2), 1)

    @given(st.integers(2, 40).flatmap(lambda n: st.lists(
        st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**20)), min_size=n - 1, max_size=n - 1,
    ).map(lambda settled: (n, settled))))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_balanced_depth_is_the_least_cost(self, case):
        """The running deferred cost of ``_balanced_costs`` at each depth D is
        ``sum_{d<D} settled_d*2^(D-d) + 2^(n-D)`` summed afresh, and on a
        walk off int64 keys (``g == 0``) ``_phase2_depth`` picks the D that
        minimises it, the smallest on a tie."""
        from radsum import engine

        n, settled = case

        def cost(depth):
            return sum(c << (depth - d) for d, c in enumerate(settled[: depth - 1], 1)) + (1 << (n - depth))

        assert engine._balanced_costs(settled, n) == [cost(depth) for depth in range(1, n)]
        walk = engine._Walk(
            vals=[1.0] * n, dtype=np.float64, one=1.0, g=0, top=0, probs=(), counts=[],
            prefixes={d: None for d, c in enumerate(settled[:-1], 1) if c}, joints=[], ties=Counter(),
            stats=PartitionStats("float64", (), tuple(settled), 0),
        )
        assert engine._phase2_depth(walk) == min(range(1, n), key=cost)

    @staticmethod
    def _partition_at(w, depth=None):
        """``(report, sizes)``: ``prefix_partition(w)`` with its tail tables
        built from ``depth`` on (the balanced depth when None), and the
        number of weights of each tail ``_tail_distributions`` was asked
        for."""
        from unittest import mock

        from radsum import engine

        sizes, real = [], engine._tail_distributions

        def spy(vals, dtype, wanted):
            sizes.append(len(vals))
            return real(vals, dtype, wanted)

        with mock.patch.object(engine, "_tail_distributions", spy):
            if depth is None:
                return prefix_partition(w), sizes
            with mock.patch.object(engine, "_phase2_depth", lambda walk: depth):
                return prefix_partition(w), sizes

    @given(
        st.sampled_from(["float", "float-ties", "long-lattice", "multi-radicand"]),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_does_not_depend_on_table_depth(self, kind, n, seed):
        """Every depth D the tail tables may start from gives the same
        report; D = 2 (D = 1 at n = 2) defers nothing and is the plain walk.
        From D = 3 on, one search counts the float sums of 1 to D - 2
        deferred depths.  A forced D sends the long lattice's int64 keys to
        the tables too."""
        from unittest import mock

        from radsum import engine

        w = case2_vector(kind, n, seed)
        vectors = [w] if w is not None else []
        if kind == "float-ties":
            # sums of [1.0]*9 tie with the boundaries, and the first weight
            # 1e-13 up moves the ties just off them: deferred columns with
            # near rows
            vectors += [canonicalize(raw, FLOAT) for raw in ([1.0] * n, [1.0] * 9, [1.0 + 1e-13] + [1.0] * 8, [0.5] * 4)]
        real, near = engine._near_tails, Counter()

        def spy(keys, steps, ends):
            near["deferred" if len(steps) else "not deferred"] += 1
            return real(keys, steps, ends)

        for w in (w for w in vectors if case_of(w) is CaseTag.CASE2):
            reports = []
            for depth in range(1 if w.n == 2 else 2, w.n):
                with mock.patch.object(engine, "_near_tails", spy):
                    rep, sizes = self._partition_at(w, depth)
                assert sizes == [w.n - depth]
                reports.append(rep)
            first = reports[0]
            for rep in reports[1:]:
                for field in ("probs", "joints", "conds", "total_prob", "boundary_ties"):
                    assert getattr(rep, field) == getattr(first, field), (w.values, field)
                assert (rep.stats.frontier, rep.stats.settled) == (first.stats.frontier, first.stats.settled)
        assert near["deferred"] or kind != "float-ties", near

    @pytest.mark.parametrize("kind", ["float", "rational"])
    def test_tail_tables_stay_short(self, kind):
        # Generic Case-2 vectors settle only a few sums at shallow depths, so
        # the balanced walk never builds the large tables near the root.
        n = 20
        w = case2_vector(kind, n, 2026)
        rep, sizes = self._partition_at(w)
        assert sizes and max(sizes) <= math.ceil(n / 2), sizes
        assert rep.total_prob == threshold_probability(w, 1)

    def test_window_slip_is_soundness_error(self, monkeypatch):
        # a window larger than the tails behind a settled prefix raises
        from radsum import SoundnessError, engine

        real = engine._window
        monkeypatch.setattr(engine, "_window", lambda *a: (real(*a)[0] + 2**20, 0))
        with pytest.raises(SoundnessError, match="exceeds"):
            prefix_partition(case2_vector("long-lattice", 10, 0))

    @pytest.mark.parametrize("patch", ["exact", "float"])
    def test_tail_window_outside_its_table_is_soundness_error(self, monkeypatch, patch):
        # one column's window is checked against its table, so a slip on one
        # sum is caught where it happens, however much room the event's joint
        # mass leaves: an exact window one tail over the table, or a batched
        # float column whose pulled-back end falls one key below its start
        from radsum import SoundnessError, engine

        if patch == "exact":
            real, w = engine._window, case2_vector("long-lattice", 10, 0)

            def slip(keys, cum, *args):
                window, decided = real(keys, cum, *args)
                window = window.copy()
                window[0] = cum[-1] + 1
                return window, decided

            monkeypatch.setattr(engine, "_window", slip)
        else:
            real, w, seen = engine._refine_prefix_len, case2_vector("float", 14, 7), {}

            def slip(padded, steps, bound, inclusive):
                got = real(padded, steps, bound, inclusive)
                if inspect.currentframe().f_back.f_code.co_name != "_float_joints":
                    return got  # _window's and _near_tails' searches are flat too
                if not inclusive:
                    seen["start"] = got
                else:
                    i = int(seen["start"].argmax())
                    assert seen["start"][i] > 0
                    got = got.copy()
                    got[i] = seen["start"][i] - 1
                return got

            monkeypatch.setattr(engine, "_refine_prefix_len", slip)
        with pytest.raises(SoundnessError, match="tail window at depth"):
            prefix_partition(w)

    @pytest.mark.parametrize("patch", ["float, too wide", "float, last depth"])
    def test_joint_outside_its_event_is_soundness_error(self, monkeypatch, patch):
        # 0 <= joint_k <= Pr(A_k) is checked for every k, whichever window
        # slipped: the batched float search over a table whose counts are
        # scaled with their total, which no single column exceeds, or a
        # literal test of depth n - 1
        from radsum import SoundnessError, engine

        w = canonicalize([1.0] * 9, FLOAT)
        if patch == "float, too wide":
            real = engine._float_joints
            monkeypatch.setattr(engine, "_float_joints", lambda keys, cum, *a: real(keys, cum * 2**20, *a))
        else:
            real = engine._last_candidates

            def wider(*args):
                at, window = real(*args)
                return at, window + 8

            monkeypatch.setattr(engine, "_last_candidates", wider)
        with pytest.raises(SoundnessError, match="joint mass"):
            prefix_partition(w)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("joint", ["one past its event", "negative"])
    def test_joint_count_slip_is_soundness_error(self, monkeypatch, mode, joint):
        # the report checks each joint count against its event's count: one
        # pattern past it, or a count below 0, raises before the joint's
        # probability is built.  The joint of A_n is all of A_n
        from radsum import SoundnessError, engine

        real = engine._walk

        def slipped(w, limit):
            walk = real(w, limit)
            walk.joints[w.n] = walk.counts[w.n] + 1 if joint == "one past its event" else -1
            return walk

        monkeypatch.setattr(engine, "_walk", slipped)
        with pytest.raises(SoundnessError, match="joint mass"):
            prefix_partition(canonicalize([1] * 9, mode))

    @pytest.mark.parametrize(
        "spread, lo, hi, path", [(2**27, 56, 58, "int64"), (2**32, 62, 80, "object")]
    )
    def test_big_magnitudes_switch_key_dtype(self, rng, spread, lo, hi, path):
        """Rational weights whose integer keys (and L) sit in [2^56, 2^58)
        stay int64; from 2^62 on, the walk and the distribution switch to
        Python ints."""
        from radsum.engine import _decompose

        checked = 0
        for _ in range(100):
            n = int(rng.integers(6, 8))  # large spreads rarely give Case 2 below n = 6
            w = random_case2(rng, n, spread=spread)
            [(_, denom, ints)] = _decompose(w.values)
            if checked == 3 or not lo <= max(map(abs, [*ints.values(), denom])).bit_length() - 1 < hi:
                continue
            checked += 1
            rep = prefix_partition(w)
            assert rep.stats.path == path
            probs, joints = self._partition_oracle(w)
            assert rep.probs == tuple(probs[k] for k in rep.ks)
            assert rep.joints == tuple(joints[k] for k in rep.ks)
            dist = sum_distribution(w)
            assert dist.values.dtype == (np.int64 if path == "int64" else object)
            sums = Counter(
                sum(s * v for s, v in zip(signs, w.values))
                for signs in itertools.product((-1, 1), repeat=n)
            )
            assert dist.entries == tuple(sorted(sums.items()))
        assert checked == 3

    def test_pattern_counts_past_int64(self):
        # n = 64 equal weights: 2^64 patterns overflow int64 counts, and the
        # few distinct sums keep the walk small.  |eps . x| <= 1 iff the sign
        # imbalance is at most sqrt(64) = 8.
        n = 64
        w = canonicalize([1] * n, EXACT)
        expected = Fraction(sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) <= 8), 2**n)
        rep = prefix_partition(w, limit=n)
        assert rep.total_prob == expected and sum(rep.probs) == 1
        dist = sum_distribution(w, limit=n)
        assert [c for _, c in dist.entries] == [math.comb(n, k) for k in range(n + 1)]
        assert dist.probability(1) == expected

    def test_dense_walk_matches_sparse_walk(self):
        """An int64 frontier turns dense once a parity class of its lattice
        is short by the rule of the tables, and its whole report, stats
        included, is that of the sparse walk, forced through the rule's
        constants: for rational, one-radicand and small-integer Case-2
        vectors with n <= 20; for integer weights whose lattice classes hold
        2^16 + 32*m or 2^16 + 32*m + 1 points, m in {1, 2, 8, 64}, which the
        frontier turns dense once it holds m or m + 1 sums; and for weights
        ``g*k_i/D`` with a gcd g > 1 on a prime D, drawn and fixed, n from
        2, the fixed ones with both parities of ``a_1`` and of ``p_n = a_1 +
        ... + a_n`` (``a_i`` the keys over their gcd).  The walk turns dense
        at the first depth whose frontier meets the rule, ``top + 1`` points
        at most ``_DENSE_FLOOR`` plus ``_DENSE_RATIO`` times its sums
        (``top`` the threshold in key units over the gcd), and steps densely
        from there on.  Both the dense and the sparse walk run, the dense
        one on both classes of the lattice, that of ``top`` and the other,
        and with a gcd > 1 on all four parities of ``a_1`` and ``p_n``.  No
        walk step writes more than the ``top + 1`` points of a class, into
        two buffers of that length."""
        from unittest import mock

        from radsum import WeightVector, engine

        real, seen, classes, parities = engine._dense_extend, Counter(), Counter(), Counter()

        def over(g, top, ints):  # x_i = g*k_i/top, not normalized
            exact = tuple(Fraction(g * a, top) for a in sorted(ints, reverse=True))
            return WeightVector(exact, tuple(x * x for x in exact), EXACT, Fraction(1))

        def compare(w, kind):
            """Dense and sparse walks of ``w`` agree; the labels of the run."""
            n = w.n
            vals, dtype, _, one, _ = engine._key_setup(w.values, Fraction(1), EXACT)
            g = engine._lattice_step(vals, dtype)
            top = one // g if g else 0
            outs = []  # phase 2 kept sparse, so that only the walk's steps are counted

            def spy(kept, shift, out):
                outs.append((len(out), out.base.shape))
                real(kept, shift, out)

            with mock.patch.multiple(engine, _dense_extend=spy, _phase2_depth=_tables_at_balanced_depth):
                dense = prefix_partition(w, limit=n)
            with mock.patch.multiple(engine, _dense_fits=lambda *args, **kwargs: False, _dense_extend=None):
                sparse = prefix_partition(w, limit=n)
            assert dense == sparse, w.values
            assert all(size <= top + 1 and shape == (2, top + 1) for size, shape in outs), (top, outs)
            floor, ratio = engine._DENSE_FLOOR, engine._DENSE_RATIO
            rule = [d for d in range(1, n) if g and top + 1 <= floor + ratio * dense.stats.frontier[d - 1]]
            assert len(outs) == (n - 1 - rule[0] if rule else 0), (rule, len(outs))
            branch = "dense" if outs else "sparse"
            seen[branch] += 1
            labels = [f"{kind}: {branch}"]
            if outs:  # the frontier is dense from depth n - 1 - len(outs) to n - 1, on the class of p_d
                a = [v // g for v in vals]
                p = list(itertools.accumulate(a))
                for depth in range(n - 1 - len(outs), n):
                    side = "the class of top" if (top - p[depth - 1]) % 2 == 0 else "the other class"
                    classes[side] += 1
                    labels.append(f"dense frontier on {side}")
                if g > 1:
                    parities[a[0] % 2, p[-1] % 2] += 1
                    labels.append(f"gcd {g}: a_1 = {a[0] % 2}, p_n = {p[-1] % 2} (mod 2)")
            return labels

        @given(st.data())
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def check(data):
            kind = data.draw(st.sampled_from(["rational", "one-radicand", "small-integer", "switch", "gcd"]))
            n = data.draw(st.integers(2, 12 if kind in ("switch", "gcd") else 20))
            if kind == "small-integer":
                ints = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
                w = canonicalize(sorted(ints, reverse=True), EXACT)
            elif kind == "switch":  # one k_i = 1: a class of the lattice of 1/top holds top + 1 points
                held = data.draw(st.sampled_from([1, 2, 8, 64]))
                top = engine._DENSE_FLOOR + engine._DENSE_RATIO * held - 1 + data.draw(st.integers(0, 1))
                w = over(1, top, data.draw(st.lists(st.integers(1, top // 2), min_size=n - 1, max_size=n - 1)) + [1])
            elif kind == "gcd":  # g*k_i over a prime
                g, top = data.draw(st.sampled_from([(2, 101), (3, 1009), (2, 65537)]))
                w = over(g, top, data.draw(st.lists(st.integers(1, top // (2 * g)), min_size=n, max_size=n)))
            elif kind == "rational":  # Case 2 is rare below 6 unit-norm rational weights
                n, gen = max(n, 6), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
                w = random_case2(gen, n, spread=data.draw(st.sampled_from([9, 1000])))
            else:
                w = case2_vector(kind, n, data.draw(st.integers(0, 2**32 - 1)))
            if w is None or case_of(w) is not CaseTag.CASE2:
                event("not Case 2")
                return
            for label in compare(w, kind):
                event(label)

        check()
        # gcd 2 and 3 at n = 2 and 3, and every parity of a_1 and p_n
        fixed = [[5, 4], [6, 3], [5, 3, 1], [5, 2, 1], [6, 3, 1], [6, 2, 1], [9, 7, 4, 4, 2, 1], [12, 9, 6, 5, 5, 1]]
        for ints in fixed:
            for g, top in ((2, 101), (3, 1009)):
                compare(over(g, top, ints), "gcd")
        assert seen["dense"] and seen["sparse"], seen
        assert len(classes) == 2 and len(parities) == 4, (classes, parities)

    @pytest.mark.parametrize("n", [64, 100, 200])
    def test_dense_walk_past_the_default_limits(self, n):
        # small-integer vectors walk a dense frontier and count their joints
        # by the backward recurrence at n in the hundreds, with Python-int
        # counts past n = 62, once the limits allow them; at n = 64 the
        # sparse phase 2 gives the same joints
        from unittest import mock

        from radsum import engine

        gen = np.random.default_rng(n)
        w = canonicalize(sorted(gen.integers(1, 51, size=n).tolist(), reverse=True), EXACT)
        assert case_of(w) is CaseTag.CASE2
        real, runs = engine._backward_joints, []
        with mock.patch.object(engine, "_backward_joints", lambda *a: runs.append(a) or real(*a)):
            rep = prefix_partition(w, limit=n)
        assert runs
        assert rep.stats.path == "int64" and sum(rep.probs) == 1
        assert rep.total_prob == threshold_probability(w, 1, limit=n)
        if n == 64:
            with mock.patch.object(engine, "_phase2_depth", _tables_at_balanced_depth):
                assert prefix_partition(w, limit=n).joints == rep.joints

    def test_backward_recurrence_matches_sparse_phase_2(self):
        """Phase 2 by the backward recurrence gives the whole report, stats
        and tie rows included, of the sparse phase 2 at the balanced depth,
        each forced through ``_phase2_depth``: for rational, one-radicand
        and small-integer Case-2 vectors with n <= 20.  Each forced route
        runs; the event is the route the planner picks, and both occur
        (rational weights of spread 1000 lie on long lattices)."""
        from unittest import mock

        from radsum import engine

        real_joints, real_tails, seen = engine._backward_joints, engine._tail_distributions, Counter()

        @given(st.data())
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        def check(data):
            kind = data.draw(st.sampled_from(["rational", "one-radicand", "small-integer"]))
            n = data.draw(st.integers(2, 20))
            if kind == "small-integer":
                ints = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
                w = canonicalize(sorted(ints, reverse=True), EXACT)
            elif kind == "rational":  # Case 2 is rare below 6 unit-norm rational weights
                n, gen = max(n, 6), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
                w = random_case2(gen, n, spread=data.draw(st.sampled_from([9, 1000])))
            else:
                w = case2_vector(kind, n, data.draw(st.integers(0, 2**32 - 1)))
            if w is None or case_of(w) is not CaseTag.CASE2:
                event("not Case 2")
                return
            walk = engine._walk(w, n)
            if not walk.prefixes:  # nothing settles before depth n - 1: no phase 2
                event("no phase 2")
                return
            ran = Counter()
            with mock.patch.multiple(
                engine,
                _phase2_depth=lambda walk: None,
                _backward_joints=lambda *a: ran.update(["backward"]) or real_joints(*a),
                _tail_distributions=None,
            ):
                backward = prefix_partition(w, limit=n)
            with mock.patch.multiple(
                engine,
                _phase2_depth=_tables_at_balanced_depth,
                _backward_joints=None,
                _tail_distributions=lambda *a: ran.update(["sparse"]) or real_tails(*a),
            ):
                sparse = prefix_partition(w, limit=n)
            assert ran == {"backward": 1, "sparse": 1}
            branch = "backward" if engine._phase2_depth(walk) is None else "sparse"
            seen[branch] += 1
            event(f"{kind}: the rule picks {branch}")
            assert backward == sparse, w.values

        check()
        assert seen["backward"] and seen["sparse"], seen

    @pytest.mark.parametrize("at", ["first step", "last step"])
    @pytest.mark.parametrize(
        "w, limit",
        [(random_case2(np.random.default_rng(0), 10), None), (canonicalize([1] * 64, EXACT), 64)],
        ids=["int64 counts", "Python-int counts"],
    )
    def test_backward_step_slip_is_soundness_error(self, monkeypatch, w, limit, at):
        # one count dropped by one step of the backward recurrence, the first
        # (to depth n - 1) or the last (to the first depth that settled
        # sums), breaks its mass identity, which python -O does not strip as
        # it would an assert; the walk's own dense steps are left alone
        from unittest import mock

        from radsum import SoundnessError, engine

        walk = engine._walk(w, limit)
        assert engine._phase2_depth(walk) is None
        target = 1 if at == "first step" else w.n - min(walk.prefixes)
        real_joints, real_extend, steps = engine._backward_joints, engine._dense_extend, []

        def slip(kept, shift, out):
            real_extend(kept, shift, out)
            steps.append(shift)
            if len(steps) == target:
                out[out.nonzero()[0][-1]] -= 1

        def rigged(*args):
            with mock.patch.object(engine, "_dense_extend", slip):
                return real_joints(*args)

        monkeypatch.setattr(engine, "_backward_joints", rigged)
        with pytest.raises(SoundnessError, match="recurrence mass"):
            prefix_partition(w, limit=limit)
        assert len(steps) == w.n - min(walk.prefixes)

    @pytest.mark.parametrize("route", ["backward recurrence", "tail tables"])
    def test_uncounted_settled_sums_are_soundness_error(self, monkeypatch, route):
        # a phase 2 that counts no joint, a recurrence that does nothing or
        # tail tables that never come, leaves every settled sum uncounted
        from radsum import SoundnessError, engine

        if route == "backward recurrence":
            w = random_case2(np.random.default_rng(0), 10)
            monkeypatch.setattr(engine, "_backward_joints", lambda walk, joints: None)
        else:
            w = next(w for seed in itertools.count(2026) if (w := case2_vector("float", 16, seed)) is not None)
            monkeypatch.setattr(engine, "_tail_distributions", lambda *a: iter(()))
        walk = engine._walk(w, None)
        assert walk.prefixes and (engine._phase2_depth(walk) is None) == (route == "backward recurrence")
        with pytest.raises(SoundnessError) as raised:
            prefix_partition(w)
        assert str(raised.value) == f"sums settled at depths {sorted(walk.prefixes)} were never counted"

    def test_only_searched_tail_tables_are_checked(self, monkeypatch):
        """Phase 2 puts in nonnegative form and checks only the tail tables
        it searches, in the order they are built: the table at a depth d
        that settled sums, or at the balanced depth D for sums settled at or
        before it; never the one-weight table at depth n - 1 below D = n - 1."""
        from radsum import engine

        real, sizes = engine._check_mass, []
        monkeypatch.setattr(engine, "_check_mass", lambda keys, counts, k: sizes.append(k) or real(keys, counts, k))
        for kind in ("float", "long-lattice", "multi-radicand"):
            w = next(w for seed in itertools.count(2026) if (w := case2_vector(kind, 16, seed)) is not None)
            sizes.clear()
            rep = prefix_partition(w)
            balanced = engine._phase2_depth(engine._walk(w, None))
            searched = {w.n - max(d, balanced) for d, c in enumerate(rep.stats.settled[:-1], 1) if c}
            assert balanced < w.n - 1 and 1 not in sizes, kind
            assert sizes == sorted(searched), kind

    def test_float_matches_exact_on_dyadic(self):
        re_ = prefix_partition(from_squares([Fraction(1, 4)] * 4))
        rf = prefix_partition(canonicalize([0.5] * 4, FLOAT))
        assert [float(p) for p in re_.probs] == list(rf.probs)
        assert float(re_.total_prob) == rf.total_prob


class TestSharedRadicandReduction:
    """The integer path (x_i = a_i*sqrt(D)/L, cut-off from isqrt) against
    SqrtSum pair counting and the naive enumeration."""

    @staticmethod
    def _radical_pairs(values, t, strict):
        """The pair count over radical keys, which never takes the integer
        cut-off."""
        from radsum.engine import _count_pairs, _radical_keys

        keys, radical = _radical_keys(values)
        return _count_pairs(keys, radical, t, strict)

    def test_reduction_recovers_values(self, rng):
        from radsum.engine import _decompose

        w = one_radicand_vector(rng, 7)
        [(radicand, denom, ints)] = _decompose(w.values)
        assert radicand > 1
        assert [exact_sqrt(radicand) * Fraction(ints.get(i, 0), denom) for i in range(7)] == list(w.values)
        [(radicand, denom, ints)] = _decompose(rational_unit_vector(rng, 6).values)
        assert radicand == 1
        # zeros fit any radicand (and take no entry); a rational and a
        # radical entry do not mix
        assert _decompose([Fraction(0), exact_sqrt(2), 3 * exact_sqrt(2)]) == [(2, 1, {1: 1, 2: 3})]
        assert len(_decompose([Fraction(1), exact_sqrt(2)])) == 2
        assert len(_decompose(from_squares([1, 2, 3]).values)) == 3

    @pytest.mark.parametrize("kind", ["rational", "one_radicand"])
    def test_matches_radical_pairs_and_naive(self, rng, kind):
        for n in (1 if kind == "rational" else 2, 3, 5, 8, 11, 14):
            if kind == "rational":
                w = rational_unit_vector(rng, n)
            else:
                w = one_radicand_vector(rng, n)
            ts = [Fraction(1), Fraction(0), Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 17)))]
            if kind == "rational":
                # an achieved |sum| makes the boundary a tie
                dist = sum_distribution(w)
                ts.append(abs(dist.entries[int(rng.integers(0, len(dist.entries)))][0]))
            for t in ts:
                for strict in (False, True):
                    p = threshold_probability(w, t, strict)
                    assert p == Fraction(self._radical_pairs(list(w.values), t, strict), 2**n)
                    assert p == threshold_probability_naive(w, t, strict)

    def test_radical_threshold_matches_radical_pairs(self, rng):
        """Thresholds r + q*sqrt(D) over the weights' own radicand - the
        decomposition_check tail thresholds 1 + x1 +- x2 among them - and
        ones with r < 0 take the integer cut-off; the SqrtSum pair count is
        the reference."""
        from radsum.engine import _decompose, signed_sum_count

        for n in (2, 3, 5, 8, 11, 14):
            w = one_radicand_vector(rng, n)
            vals = list(w.values)
            [(radicand, _, _)] = _decompose(vals)
            x1, x2 = vals[0], vals[1]
            r = Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 7)))
            q = Fraction(int(rng.integers(-3, 9)), int(rng.integers(1, 7)))
            tail = vals[2:] or vals
            t_free = r + q * exact_sqrt(radicand)
            cases = [
                (tail, 1 + x1 + x2),
                (tail, 1 + x1 - x2),
                (vals, t_free if t_free >= 0 else r),
                (vals, abs(sum(vals[:-1]) - vals[-1])),  # an achieved |sum|: a tie
                (vals, 2 * x1 - Fraction(1, 10**6)),  # r < 0
            ]
            for values, t in cases:
                for strict in (False, True):
                    hits, total = signed_sum_count(values, t, EXACT, strict)
                    assert hits == self._radical_pairs(values, t, strict), (n, t, strict)
                    assert total == 2 ** len(values)

    @pytest.mark.parametrize("kind", ["rational", "one_radicand"])
    def test_every_threshold_takes_integer_keys(self, monkeypatch, rng, kind):
        """The key type follows the weights alone: a threshold over another
        radicand, one with a negative rational part and a cancelling one
        still count over integer keys."""
        from radsum import engine

        w = rational_unit_vector(rng, 9) if kind == "rational" else one_radicand_vector(rng, 9)
        ts = [
            exact_sqrt(7) / 3, 2 * w.values[0] - Fraction(1, 10**6),
            1 + (TestMultiRadicand.P - TestMultiRadicand.Q * exact_sqrt(2)) / 3,
        ]
        expected = [threshold_probability_naive(w, t, strict) for t in ts for strict in (False, True)]

        def radical_keys(values):
            raise AssertionError("weights over one radicand took radical keys")

        monkeypatch.setattr(engine, "_radical_keys", radical_keys)
        dist = sum_distribution(w)
        for run in (
            lambda t, strict: threshold_probability(w, t, strict),
            lambda t, strict: Fraction(*engine.signed_sum_count(w.values, t, EXACT, strict)),
            dist.probability,
        ):
            assert [run(t, strict) for t in ts for strict in (False, True)] == expected

    def test_decomposition_check_one_radicand(self):
        from radsum import decomposition_check
        from radsum.engine import signed_sum_count

        w = canonicalize([10, 9] + [2] * 12, EXACT)  # Case 1, one radicand
        rep = decomposition_check(w)
        assert 0 < rep.p_minus < 1
        tail = list(w.values[2:])
        for t, p in ((rep.t_plus, rep.p_plus), (rep.t_minus, rep.p_minus)):
            assert p == Fraction(self._radical_pairs(tail, t, False), 2 ** len(tail))
            assert p == Fraction(*signed_sum_count(tail, t, EXACT))

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_int_cutoff_matches_sqrtsum_floor(self, data):
        """The integer cut-off of a rational threshold (an ``isqrt``) equals
        the exact ``SqrtSum`` floor of ``t*L/sqrt(D)``, at achieved sums, at
        0, near achieved sums and at thresholds over ``D``, strict or not."""
        from radsum.algebraic import SqrtSum
        from radsum.engine import _int_cutoff

        def sqrtsum_cutoff(t, denom, radicand, strict):
            y = SqrtSum.from_rational(t) * SqrtSum({radicand: Fraction(denom, radicand)})
            c = math.floor(y)
            return c - 1 if strict and y == c else c

        radicand = data.draw(_RADICANDS)
        denom = data.draw(st.one_of(st.integers(1, 60), st.integers(1, 10**30)))
        ints = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8))
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(ints), max_size=len(ints)))
        s = abs(sum(e * a for e, a in zip(signs, ints)))
        achieved = exact_sqrt(radicand) * Fraction(s, denom)  # |sum| of a_i*sqrt(D)/L
        other = data.draw(_FRACTIONS.map(abs))
        nudge = Fraction(1, data.draw(st.integers(1, 10**40)))
        ts = [Fraction(0), achieved, other, other * exact_sqrt(radicand), SqrtSum.from_rational(other)]
        if radicand == 1:
            ts += [achieved + nudge, max(achieved - nudge, Fraction(0))]
        for t in ts:
            t = t.as_fraction() if isinstance(t, SqrtSum) and t.is_rational and data.draw(st.booleans()) else t
            for strict in (False, True):
                assert _int_cutoff(t, denom, radicand, strict) == sqrtsum_cutoff(t, denom, radicand, strict), (
                    t, denom, radicand, strict,
                )

    def test_zero_threshold_counts_only_exact_cancellation(self):
        # x = (2, 1, 1)*sqrt(6)/6: a signed sum is zero only for +-(2 - 1 - 1),
        # and no nonzero sum s*sqrt(6)/6 can equal a rational t.
        w = canonicalize([1, 1, 2], EXACT)
        assert threshold_probability(w, 0) == Fraction(2, 8)
        assert threshold_probability(w, 0) == threshold_probability_naive(w, 0)
        assert threshold_probability(w, 0, strict=True) == 0

    @staticmethod
    def _brute(sizes, cutoff):
        return sum(1 for size in sizes if size <= cutoff)

    @pytest.mark.parametrize("scale, dtype", [(2**62, object), (2**57, np.int64)])
    def test_big_magnitudes_take_the_right_dtype(self, rng, monkeypatch, scale, dtype):
        # the raw pair sums (n <= _RAW_PAIRS_N) and the merged halves both
        # build their sums in _half_sums; n = 15 and 16 take the merged halves
        from radsum import engine

        seen = {}
        real = engine._half_sums

        def spy(values, dt):
            seen.setdefault(dt, set()).add(n)
            return real(values, dt)

        monkeypatch.setattr(engine, "_half_sums", spy)
        for n in [*rng.integers(1, 11, size=6).tolist(), 15, 16]:
            vals = [scale + int(v) for v in rng.integers(-50, 50, size=n)]
            vals[0] = -vals[0]
            sizes = [
                abs(sum(s * v for s, v in zip(signs, vals))) for signs in itertools.product((-1, 1), repeat=n)
            ]
            for t in (Fraction(0), Fraction(100), Fraction(scale), Fraction(3 * scale + 7)):
                for strict in (False, True):
                    hits, total = engine.signed_sum_count(vals, t, EXACT, strict)
                    cutoff = t - 1 if strict and t.denominator == 1 else t
                    expected = self._brute(sizes, cutoff) if (t or not strict) else 0
                    assert (hits, total) == (expected, 2**n)
        assert list(seen) == [dtype] and {15, 16} < seen[dtype]

    def test_one_radicand_distribution_matches_radical_enumeration(self, rng):
        from radsum.algebraic import SqrtSum

        for _ in range(5):
            w = one_radicand_vector(rng, int(rng.integers(2, 9)))
            counts = {}
            for signs in itertools.product((-1, 1), repeat=w.n):
                s = SqrtSum()
                for sg, v in zip(signs, w.values):
                    s = s + sg * v
                counts[s] = counts.get(s, 0) + 1
            expected = tuple(
                (s.as_fraction() if s.is_rational else s, counts[s]) for s in sorted(counts)
            )
            assert sum_distribution(w).entries == expected


_FRACTIONS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def _exact_values(draw, max_size=8):
    """Raw exact values over a few radicands: ints, Fractions, zeros,
    negatives and ``SqrtSum`` values of one term or several."""
    from radsum.algebraic import SqrtSum

    radicands = draw(st.lists(_RADICANDS, min_size=1, max_size=4, unique=True))
    radical = st.lists(st.tuples(st.sampled_from(radicands), _FRACTIONS), max_size=3).map(
        lambda terms: sum((c * exact_sqrt(d) for d, c in terms), SqrtSum())
    )
    value = st.one_of(st.integers(-9, 9), _FRACTIONS, radical) if 1 in radicands else radical
    return draw(st.lists(value, max_size=max_size))


def _dense_radical_keys(values):
    """Radical keys, as ``(f, c)`` pairs of Python ints, and their basis
    from dense radicand columns, one coefficient per (value, radicand) pair
    with zeros filled in: the reference construction for ``_radical_keys``."""
    from radsum.algebraic import SqrtSum
    from radsum.engine import _Radical

    exact = [SqrtSum.from_rational(v) for v in values]
    radicands = list(dict.fromkeys(d for v in reversed(exact) for d in v.terms))
    columns = [[v.terms.get(d, Fraction(0)) for v in exact] for d in radicands]
    denoms = [math.lcm(*(c.denominator for c in col)) for col in columns]
    ints = [[c.numerator * (L // c.denominator) for c in col] for col, L in zip(columns, denoms)]
    steps = [math.gcd(*col) for col in ints]
    places = [1]
    for col, g in zip(ints, steps):
        places.append(places[-1] * (sum(map(abs, col)) // g + 1))
    sigma = [sum(col[i] // g * m for col, g, m in zip(ints, steps, places)) for i in range(len(exact))]
    kappa = [sum(abs(col[i]) // g * m for col, g, m in zip(ints, steps, places)) for i in range(len(exact))]
    # sum|x_i| < bound < 2^(60 - shift), the least such power of 2; each
    # term floored at that shift
    terms = [(a, d, L) for col, d, L in zip(ints, radicands, denoms) for a in col if a]
    bound = Fraction(sum(Fraction(math.isqrt(a * a * d) + 1, L) for a, d, L in terms))
    e = bound.numerator.bit_length() - bound.denominator.bit_length()
    while bound >= Fraction(2) ** e:
        e += 1
    shift = 60 - e
    scale = Fraction(2) ** shift
    fixed = [sum(math.floor(SqrtSum({d: c}) * scale) for d, c in v.terms.items()) for v in exact]
    radical = _Radical(
        tuple(radicands), tuple(denoms), tuple(steps), tuple(places),
        tuple(itertools.accumulate(kappa, initial=0)),
        np.int64 if places[-1] < 1 << 62 else object,
        shift, sum(map(abs, fixed)), max(sum(len(v.terms) for v in exact), 1),
    )
    return [[f, c] for f, c in zip(fixed, sigma)], radical


class TestDecomposition:
    """``_decompose`` writes exact values over their radicands, one entry
    per term; the integer and radical key setups both read it."""

    @given(_exact_values())
    @settings(max_examples=150, deadline=None)
    def test_rebuilds_every_value(self, values):
        from radsum.algebraic import SqrtSum
        from radsum.engine import _decompose

        parts = _decompose(values)
        assert len({d for d, _, _ in parts}) == len(parts)
        for d, denom, column in parts:
            assert column and all(type(a) is int and a for a in column.values())
            assert all(0 <= i < len(values) for i in column) and denom >= 1
        for i, v in enumerate(values):
            rebuilt = sum((Fraction(column.get(i, 0), denom) * exact_sqrt(d) for d, denom, column in parts), SqrtSum())
            assert rebuilt == v, (values, i)

    @given(_exact_values(max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_radical_keys_match_dense_columns(self, values):
        import dataclasses

        from radsum.engine import _radical_keys

        keys, radical = _radical_keys(values)
        want_keys, want = _dense_radical_keys(values)
        assert keys.shape == (len(values), 2) and keys.dtype == radical.dtype
        assert keys.tolist() == want_keys
        for field in dataclasses.fields(radical):
            got, expected = getattr(radical, field.name), getattr(want, field.name)
            assert got == expected, field.name
            if isinstance(got, tuple):
                assert [type(x) for x in got] == [type(x) for x in expected], field.name

    def test_key_setup_decomposes_once(self, monkeypatch):
        from radsum import engine

        calls = []
        real = engine._decompose
        monkeypatch.setattr(engine, "_decompose", lambda values: calls.append(1) or real(values))
        for squares in ([1, 2, 3, 5], [1, 4, 9], [2, 8, 18]):
            calls.clear()
            engine._key_setup(from_squares(squares).values, Fraction(1), EXACT)
            assert len(calls) == 1, squares

    def test_numpy_integers_and_floats_are_read_exactly(self):
        # exact mode takes numpy integers and dyadic floats at their exact
        # values: the counts of the same values as Fractions
        from radsum.engine import signed_sum_count

        rng = np.random.default_rng(46)
        for n in (3, 8, 13):
            ints = sorted(rng.integers(1, 40, n), reverse=True)
            dyadics = [float(a) / 64 for a in ints]
            for values, t in ((ints, 17), (dyadics, Fraction(17, 64)), (dyadics, 1)):
                assert type(values[0]) in (np.int64, float)
                for strict in (False, True):
                    want = signed_sum_count([Fraction(v) for v in values], t, EXACT, strict)
                    assert signed_sum_count(values, t, EXACT, strict) == want, (values, t, strict)


def _pell_solution(limit):
    """The largest p < limit with p^2 - 2q^2 = 1 (so p/q is a convergent of
    sqrt(2)), and its q."""
    p, q = 3, 2
    while 3 * p + 4 * q < limit:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    return p, q


def _pell_squares(*squares):
    """``squares`` plus one entry making their total a perfect square, so
    that the weights are rational multiples of 1 and sqrt(2) (and of the
    added entry's root)."""
    total = sum(squares)
    return [*squares, (math.isqrt(total) + 1) ** 2 - total]


class TestMultiRadicand:
    """Weights over several radicands take radical keys (float64
    approximations with exact integer codes) through the one pair counter
    and the frontier walk; the naive walk over SqrtSum patterns and the
    literal partition classification are the references."""

    P, Q = _pell_solution(10**16)
    VECTORS = [
        [1, 1, 2, 2, 3, 3],
        [1, 2] * 5,
        [5, 6, 7, 8, 9, 10, 11, 5, 6, 7],
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37],
        # Pell-type: x1 - x2 = (q*sqrt(2) - p)/m is about 1e-32, which no
        # float tells from 0; x1 + x2 = 1 exactly in the second (Case 2)
        _pell_squares(2 * Q * Q, P * P),
        _pell_squares(2 * Q * Q, P * P, 2 * Q * Q, P * P),
        _pell_squares(2 * Q * Q, P * P, 3, 5, 7),
        # 2a^2 and 3b^2 for odd a, b in [2^30, 2^31): Case 2 over two
        # radicands, with codes past 2^62 (object key rows)
        [2 * a * a for a in (1719714833, 1487786135, 1413024939, 1642800811, 1887650859)]
        + [3 * b * b for b in (2070247261, 1084855461, 1769936521, 1769757565, 1611503509)],
    ]

    @classmethod
    def _thresholds(cls, w):
        vals = list(w.values)
        # zero, one, an achieved |sum| (a tie), a radicand of none of the
        # weights, and 1 + (p - q*sqrt(2))/3, whose float is 0.75
        return [
            Fraction(0), Fraction(1), abs(sum(vals[1:]) - vals[0]), exact_sqrt(7) / 3,
            1 + (cls.P - cls.Q * exact_sqrt(2)) / 3,
        ]

    @pytest.mark.parametrize("squares", VECTORS)
    def test_matches_naive(self, squares):
        w = from_squares(squares)
        dist = sum_distribution(w)
        for t in self._thresholds(w):
            for strict in (False, True):
                p = threshold_probability(w, t, strict)
                assert p == threshold_probability_naive(w, t, strict), (t, strict)
                assert dist.probability(t, strict) == p, (t, strict)

    @pytest.mark.parametrize("squares", [v for v in VECTORS if len(v) <= 10])
    def test_distribution_matches_enumeration(self, squares):
        from radsum.algebraic import SqrtSum

        w = from_squares(squares)
        sums = Counter()
        for signs in itertools.product((-1, 1), repeat=w.n):
            sums[sum((sg * v for sg, v in zip(signs, w.values)), SqrtSum())] += 1
        expected = tuple((s.as_fraction() if s.is_rational else s, sums[s]) for s in sorted(sums))
        dist = sum_distribution(w)
        assert dist.entries == expected
        assert np.all(np.diff(dist.values) >= 0)

    def test_partition_matches_literal_classification(self):
        for squares in self.VECTORS:
            w = from_squares(squares)
            if case_of(w) is not CaseTag.CASE2 or w.n > 10:
                continue
            probs, joints = TestPrefixPartition._partition_oracle(w)
            rep = prefix_partition(w)
            assert rep.stats.path == "radical"
            assert rep.probs == tuple(probs[k] for k in rep.ks), squares
            assert rep.joints == tuple(joints[k] for k in rep.ks), squares

    def test_pell_prefix_tie_decided_exactly(self):
        # x = (1/2, 1/2, q*sqrt(2)/(2p), q*sqrt(2)/(2p), sqrt(2)/(2p)): x3 = x4
        # lies below 1/2 by about 1e-32, so |s_3| = x3 against the cut-off 1 -
        # x4 is in the band
        w = from_squares(self.VECTORS[5])
        assert w.values[:2] == (Fraction(1, 2), Fraction(1, 2))
        assert prefix_partition(w).stats.fallbacks > 0

    def test_pell_near_tie_decided_without_fallback(self):
        # p about 2e7: x3 = x4 lie about 5e-16 below 1/2, so |s_3| is that
        # far from the cut-off 1 - x4, and the band, n units of 2^-shift, is
        # about 3e-17 wide: no key is decoded
        p, q = _pell_solution(10**8)
        w = from_squares(_pell_squares(2 * q * q, p * p, 2 * q * q, p * p))
        rep = prefix_partition(w)
        assert rep.stats.fallbacks == 0
        probs, joints = TestPrefixPartition._partition_oracle(w)
        assert rep.probs == tuple(probs[k] for k in rep.ks) and rep.joints == tuple(joints[k] for k in rep.ks)
        for t in self._thresholds(w):
            for strict in (False, True):
                assert threshold_probability(w, t, strict) == threshold_probability_naive(w, t, strict)

    def test_cancelling_threshold_band_is_narrow(self):
        # 1 + (p - q*sqrt(2))/3 has two terms of about 1e16 that cancel to
        # 0.75; the band is one unit, floor(t*2^shift), widened by one unit
        # per weight on each side
        from radsum.engine import _radical_keys

        w = from_squares(self.VECTORS[3])
        t = self._thresholds(w)[-1]
        radical = _radical_keys(w.values)[1]
        lo, hi = radical.band(t)
        fixed = lo + radical.units
        assert fixed <= t * 2**radical.shift < fixed + 1
        assert hi - lo == 2 * radical.units + 1 and radical.units == w.n

    def test_large_n_against_float_counts(self):
        """n = 32 without 2^n enumeration: when the float engine's counts at
        1 - 1e-12 and 1 + 1e-12 agree, no sum lies near +-1 (float sums are
        within 1e-14 of the exact ones), so the exact count must equal
        them."""
        from radsum import admissible_count
        from radsum.algebraic import squarefree_decompose

        rng = np.random.default_rng(32)
        squarefree = [d for d in range(2, 500) if squarefree_decompose(d)[0] == 1]
        checked = 0
        while checked < 2:
            q = [int(v) for v in rng.choice(squarefree, size=32, replace=False)]
            lo, hi = (admissible_count(from_squares(q, FLOAT), t)[0] for t in (1 - 1e-12, 1 + 1e-12))
            if lo == hi:
                checked += 1
                w = from_squares(q)
                for strict in (False, True):
                    assert admissible_count(w, 1, strict) == (lo, 2**32)

    def test_codes_past_int64(self, rng):
        # coefficient sums past 2^62 make the codes Python ints
        from radsum.engine import _radical_keys, signed_sum_count

        for n in (4, 5, 7):
            vals = [(2**64 + int(a)) * exact_sqrt(2 + i % 2) / 3 for i, a in enumerate(rng.integers(-9, 9, size=n))]
            assert _radical_keys(vals)[1].dtype is object
            for t in (Fraction(0), abs(sum(vals[1:]) - vals[0]), 2**64 * exact_sqrt(7) / 3):
                for strict in (False, True):
                    expected = product_oracle(vals, t, strict) * 2**n
                    assert signed_sum_count(vals, t, EXACT, strict) == (expected, 2**n), (n, t, strict)

    def test_wide_codes_take_object_rows(self):
        # the last vector's codes pass 2^62: its key rows hold Python ints,
        # and its distribution's fixed-point values stay int64
        from radsum.engine import _radical_keys

        w = from_squares(self.VECTORS[-1])
        keys, radical = _radical_keys(w.values)
        assert radical.dtype is object and keys.dtype == object and keys.shape == (10, 2)
        assert radical.spread >= 1 << 62 and len(radical.radicands) == 2
        dist = sum_distribution(w)
        assert dist.values.dtype == np.int64 and dist.codes.dtype == object
        assert case_of(w) is CaseTag.CASE2 and prefix_partition(w).stats.path == "radical"

    def test_first_40_primes_cli_within_float_bracket(self, capsys):
        # radsum exact on the first 40 primes at the default limit: the
        # smallest fixed-point shift of unit-norm weights.  Two patterns lie
        # within 1e-12 of the threshold, so the float counts at 1 -+ 1e-12
        # bracket the exact count from both sides
        from radsum import admissible_count, cli

        q = [p for p in range(2, 174) if all(p % k for k in range(2, p))]
        assert cli.main(["exact", "sq:" + ",".join(map(str, q)), "--no-timestamp"]) == 0
        hits = Fraction(json.loads(capsys.readouterr().out)["result"]["probability"]["exact"]) * 2**40
        assert hits == 747324762528
        lo, hi = (admissible_count(from_squares(q, FLOAT), t)[0] for t in (1 - 1e-12, 1 + 1e-12))
        assert lo <= hits <= hi and (lo, hi) == (747324762526, 747324762528)

    def test_partition_cli_matches_literal_classification(self, capsys):
        # radsum partition over eight radicands, the radical walk
        from radsum import cli

        squares = [101, 103, 107, 109, 113, 127, 131, 137]
        assert cli.main(["partition", "sq:" + ",".join(map(str, squares)), "--no-timestamp"]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["stats"]["path"] == "radical"
        probs, joints = TestPrefixPartition._partition_oracle(from_squares(squares))
        events = doc["events"]
        assert [e["k"] for e in events] == list(range(2, 9))
        assert [Fraction(e["prob"]["exact"]) for e in events] == [probs[k] for k in range(2, 9)]
        assert [Fraction(e["joint"]["exact"]) for e in events] == [joints[k] for k in range(2, 9)]

    def test_unchanged_when_every_comparison_is_exact(self, monkeypatch):
        """With a band wider than any sum every radical key is decoded and
        decided exactly, and every distribution is sorted by exact value; no
        count, distribution or partition may change."""
        import dataclasses

        from radsum import engine

        def run(squares):
            w = from_squares(squares)
            ts = self._thresholds(w)
            out = [threshold_probability(w, t, strict) for t in ts for strict in (False, True)]
            dist = sum_distribution(w)
            out += [dist.entries, [dist.probability(t, strict) for t in ts for strict in (False, True)]]
            if case_of(w) is CaseTag.CASE2:
                rep = prefix_partition(w)
                out.append((rep.probs, rep.joints, rep.total_prob, rep.stats.frontier, rep.stats.settled))
            return out

        vectors = self.VECTORS[:3] + self.VECTORS[4:6]
        filtered = [run(v) for v in vectors]
        fallbacks = prefix_partition(from_squares(vectors[0])).stats.fallbacks
        real = engine._radical_keys

        def radical_keys(values, parts=None):
            # 2^61 units: no key is certainly inside or outside, and every
            # bracket end still fits int64
            keys, radical = real(values, parts)
            return keys, dataclasses.replace(radical, units=1 << 61)

        monkeypatch.setattr(engine, "_radical_keys", radical_keys)
        assert [run(v) for v in vectors] == filtered
        assert prefix_partition(from_squares(vectors[0])).stats.fallbacks > fallbacks
        w = from_squares(vectors[0])
        assert threshold_probability(w, 1) == threshold_probability_naive(w, 1)


_SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17]


@st.composite
def _radicand_groups(draw):
    """``(groups, order, signs)``: coefficient lists of 1-6 weights
    ``c*sqrt(d)`` per radicand d, on 3-8 radicands and at most 40 weights,
    the order of the weights, and two sign patterns."""
    radicands = draw(st.lists(st.sampled_from(_SQUAREFREE), min_size=3, max_size=8, unique=True))
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3]))
    groups, room = {}, 40
    for d in radicands:
        size = draw(st.integers(1, min(6, room - (len(radicands) - len(groups) - 1))))
        groups[d] = draw(st.lists(coeff, min_size=size, max_size=size))
        room -= len(groups[d])
    n = sum(map(len, groups.values()))
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    return groups, draw(st.permutations(range(n))), (draw(signs), draw(signs))


def _pell_units(norm, radicands, limit):
    """Per radicand d, the ``q`` of a solution of ``p^2 - d*q^2 = norm`` (+1
    or -1) with ``p >= limit``: the least one, stepped by the square of its
    unit ``p + q*sqrt(d)``, of norm +1."""
    out = []
    for d in radicands:
        q = 1
        while math.isqrt(d * q * q + norm) ** 2 != d * q * q + norm:
            q += 1
        p = math.isqrt(d * q * q + norm)
        a, b = p * p + d * q * q, 2 * p * q  # (p + q*sqrt(d))^2, of norm +1
        while p < limit:
            p, q = p * a + d * q * b, p * b + q * a
        out.append(Fraction(q))
    return out


def _group_tie_count(groups, t) -> int:
    """Sign patterns whose sum is exactly ``+-t``, with each radicand group
    enumerated alone in integers.  The square roots of distinct squarefree
    integers are linearly independent over Q, so a sum equals ``t`` iff
    every group's sum equals ``t``'s term on its radicand."""
    terms = SqrtSum.from_rational(t).terms
    if not set(terms) <= set(groups):
        return 0

    def hits(sign):
        product = 1
        for d, cs in groups.items():
            denom = math.lcm(*(c.denominator for c in cs))
            want = sign * terms.get(d, Fraction(0)) * denom
            sums = Counter({0: 1})
            for c in cs:
                a = int(c * denom)
                step = Counter()
                for s, k in sums.items():
                    step[s - a] += k
                    step[s + a] += k
                sums = step
            product *= sums[want] if want.denominator == 1 else 0
        return product

    return hits(1) + (hits(-1) if t else 0)


# Weights whose keys are almost one unit below 2^shift times them: q*sqrt(d)
# just below an integer p (p^2 - d*q^2 = 1) and -q*sqrt(d) just below -p
# (p^2 - d*q^2 = -1), with p of 1e12 or more.  The sum of all five weights
# (or its negation) is then a tie whose key is 4 units below floor(t*2^shift)
# (_BELOW), 5 above it (_ABOVE), or 5 below -floor(t*2^shift), with the
# positive weights in the half whose sums are searched (_MIXED): each end of
# the band that a search reaches.
_BELOW = {d: [q] for d, q in zip((2, 3, 5, 6, 7), _pell_units(1, (2, 3, 5, 6, 7), 10**12))}
_ABOVE = {d: [-q] for d, q in zip((2, 5, 10, 13, 17), _pell_units(-1, (2, 5, 10, 13, 17), 10**12))}
_MIXED = {
    **{d: [q] for d, q in zip((3, 6, 7), _pell_units(1, (3, 6, 7), 10**12))},
    **{d: [-q] for d, q in zip((10, 13), _pell_units(-1, (10, 13), 10**15))},
}
# negative coefficients over denominators: every term's floor rounds away
# from 0, so the all-plus tie's key lies a few units below its sum
_NEGATIVE = {
    2: [Fraction(-1, 3), Fraction(-2, 3)],
    3: [Fraction(-1, 2)],
    5: [Fraction(-3, 2), Fraction(-1, 3)],
    7: [Fraction(-2, 3)],
}


class TestRadicalTieOracle:
    """Radical keys at n <= 40 against an oracle that reads no engine code:
    the patterns on ``|sum| = t``, ``count(<= t) - count(< t)``, counted
    group by group, for ``signed_sum_count`` and, up to 12 weights,
    ``sum_distribution``.  Thresholds are achieved sums, sums of two of
    them, and thresholds next to each, moved by ``(p - q*sqrt(2))/9``,
    about 2e-41, whose two large terms cancel: they leave the counts of
    ``t`` unchanged and have no pattern on their boundary.  The examples put
    tie keys on each end of the band."""

    P, Q = _pell_solution(10**40)

    @given(_radicand_groups())
    @example((_BELOW, range(5), ([1] * 5, [1] * 5)))
    @example((_ABOVE, range(5), ([-1] * 5, [1] * 5)))
    @example((_MIXED, range(5), ([1] * 5, [1] * 5)))
    @example((_NEGATIVE, range(6), ([1] * 6, [1, -1] * 3)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_boundary_patterns_match_group_counts(self, drawn):
        from radsum.engine import signed_sum_count

        groups, order, patterns = drawn
        weights = [c * exact_sqrt(d) for d, cs in groups.items() for c in cs]
        values = [weights[i] for i in order]
        achieved = [abs(sum((s * v for s, v in zip(signs, values)), SqrtSum())) for signs in patterns]
        nudge = (self.P - self.Q * exact_sqrt(2)) / 9
        # the distribution of the canonical vector, values/norm, up to 12 weights
        norm = exact_sqrt(sum((v * v for v in values), SqrtSum()).as_fraction())
        dist = sum_distribution(canonicalize(values, EXACT)) if len(values) <= 12 else None
        for t in (achieved[0], achieved[0] + achieved[1]):
            counts = {}
            for moved in (t, t + nudge, t - nudge):
                if moved < 0:
                    continue
                le, _ = signed_sum_count(values, moved, EXACT)
                lt, _ = signed_sum_count(values, moved, EXACT, strict=True)
                ties = _group_tie_count(groups, moved)
                assert le - lt == ties, (moved, le, lt)
                if dist:
                    gap = dist.probability(moved / norm) - dist.probability(moved / norm, strict=True)
                    assert gap * dist.total == ties, moved
                counts[moved] = le, lt
            assert counts[t + nudge] == (counts[t][0], counts[t][0])
            if t - nudge in counts:
                assert counts[t - nudge] == (counts[t][1], counts[t][1])


class TestFixedPoint:
    """``_fixed``, the exact floor behind every radical key, against 80-digit
    decimal arithmetic."""

    @given(
        a=st.integers(-(10**12), 10**12),
        d=st.one_of(st.sampled_from([1, 4, 9, 2, 3]), st.integers(1, 10**6)),
        denom=st.one_of(st.integers(1, 12), st.integers(1, 10**9)),
        shift=st.integers(-60, 80),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_decimal(self, a, d, denom, shift):
        from decimal import ROUND_FLOOR, Decimal, localcontext

        from radsum.engine import _fixed

        with localcontext() as ctx:
            ctx.prec = 80
            value = Decimal(a) * Decimal(d).sqrt() * Decimal(2) ** shift / denom
            assert _fixed(a, d, denom, shift) == int(value.to_integral_value(ROUND_FLOOR))

    def test_edges(self):
        from radsum.engine import _fixed

        # negative terms round down, over a denominator and on perfect squares
        assert [_fixed(a, 1, 2, 0) for a in (-4, -3, -1, 0, 1, 3)] == [-2, -2, -1, 0, 0, 1]
        assert _fixed(-1, 2, 3, 0) == -1 and _fixed(-3, 4, 2, 0) == -3 and _fixed(-3, 4, 4, 0) == -2
        # a negative shift divides: sqrt(2)*2^70 / 2^10 and its negation
        root = math.isqrt(2 << 120)
        assert _fixed(2**70, 2, 1, -10) == root and _fixed(-(2**70), 2, 1, -10) == -root - 1


class TestSizeLimits:
    W = from_squares([Fraction(1, 4)] * 4)  # Case 2, n = 4

    @pytest.mark.parametrize("limit", [-1, 2.5, True, "40", np.int64(40)])
    def test_invalid_limit_is_input_error(self, limit):
        for run in (threshold_probability, threshold_probability_naive, sum_distribution, prefix_partition):
            with pytest.raises(InputError, match="size limit must be an integer"):
                run(self.W, limit=limit)

    def test_limit_bounds_n(self):
        for run in (threshold_probability, threshold_probability_naive, sum_distribution, prefix_partition):
            with pytest.raises(SizeLimitError):
                run(self.W, limit=3)
            run(self.W, limit=4)


@pytest.mark.parametrize(
    "mode, t", [(FLOAT, 0.0), (FLOAT, 1.0), (EXACT, Fraction(0)), (EXACT, exact_sqrt(2) - 1)]
)
def test_no_values_leave_the_empty_sum(mode, t):
    from radsum.engine import signed_sum_count

    # |0| <= t always; |0| < t only for t > 0
    assert signed_sum_count([], t, mode) == (1, 1)
    assert signed_sum_count([], t, mode, strict=True) == (int(t > 0), 1)
