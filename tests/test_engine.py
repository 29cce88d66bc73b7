"""Enumeration engine: threshold counts, distributions, event partition.

The independent oracle for threshold counting is a literal loop over
itertools.product sign patterns, written here and kept separate from both
engine paths.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_case2, rational_unit_vector
from radsum import (
    EXACT,
    FLOAT,
    InputError,
    SignPattern,
    SizeLimitError,
    WrongCaseError,
    canonicalize,
    exact_sqrt,
    from_squares,
    prefix_partition,
    sum_distribution,
    threshold_probability,
    threshold_probability_naive,
)


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


class TestSignPattern:
    def test_iteration_covers_each_exactly_once(self):
        pats = list(SignPattern.all(5))
        assert len(pats) == 32
        assert len({p.mask for p in pats}) == 32
        assert all(p.n == 5 for p in pats)

    def test_bit_convention(self):
        p = SignPattern(mask=0b011, n=3)
        assert p.signs == (1, 1, -1)
        assert p.sign(0) == 1 and p.sign(2) == -1

    def test_signed_sum_exact(self):
        p = SignPattern(mask=0b01, n=2)
        assert p.signed_sum([Fraction(4, 5), Fraction(3, 5)]) == Fraction(1, 5)

    def test_validation(self):
        with pytest.raises(InputError):
            SignPattern(mask=4, n=2)
        with pytest.raises(InputError):
            SignPattern(mask=0, n=2).sign(2)


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
            assert a == b

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
        for _ in range(20):
            n = int(rng.integers(1, 13))
            v = rng.standard_normal(n)
            w = canonicalize(list(v), FLOAT)
            t = float(rng.uniform(0, 2))
            assert threshold_probability(w, t) == threshold_probability_naive(w, t)

    def test_workers_bit_identical(self, rng):
        v = rng.standard_normal(14)
        w = canonicalize(list(v), FLOAT)
        p1 = threshold_probability(w, 1.0, workers=1)
        p3 = threshold_probability(w, 1.0, workers=3)
        assert p1 == p3

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
                    assert hits == expected
                    he, te = signed_sum_count(fracs, Fraction(t), EXACT, strict)
                    assert (hits, total) == (he, te)


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
        assert any(kind == "prefix" for kind, _, _ in rep.boundary_ties)

    def test_float_matches_exact_on_dyadic(self):
        re_ = prefix_partition(from_squares([Fraction(1, 4)] * 4))
        rf = prefix_partition(canonicalize([0.5] * 4, FLOAT))
        assert [float(p) for p in re_.probs] == list(rf.probs)
        assert float(re_.total_prob) == rf.total_prob


def one_radicand_vector(rng, n: int, hi: int = 30):
    """canonicalize(ints, "exact") with an irrational norm (n >= 2): every
    weight is a rational multiple of one shared sqrt(D), D > 1."""
    while True:
        a = [int(v) for v in rng.integers(1, hi, size=n)]
        norm_sq = sum(v * v for v in a)
        if math.isqrt(norm_sq) ** 2 != norm_sq:
            return canonicalize(a, EXACT)


class TestSharedRadicandReduction:
    """The integer path (x_i = a_i*sqrt(D)/L, cut-off from isqrt) against
    SqrtSum pair counting and the naive enumeration."""

    @staticmethod
    def _radical_pairs(values, t, strict):
        from radsum.engine import _count_pairs_exact, _half_sums

        split = len(values) - len(values) // 2
        left = _half_sums(values[:split], object)
        right = sorted(_half_sums(values[split:], object))
        return _count_pairs_exact(left, right, t, strict)

    def test_reduction_recovers_values(self, rng):
        from radsum.engine import _common_radical

        w = one_radicand_vector(rng, 7)
        ints, denom, radicand = _common_radical(w.values)
        assert radicand > 1
        assert [exact_sqrt(radicand) * Fraction(a, denom) for a in ints] == list(w.values)
        ints, denom, radicand = _common_radical(rational_unit_vector(rng, 6).values)
        assert radicand == 1
        # zeros fit any radicand; a rational and a radical entry do not mix
        assert _common_radical([Fraction(0), exact_sqrt(2), 3 * exact_sqrt(2)]) == ([0, 1, 3], 1, 2)
        assert _common_radical([Fraction(1), exact_sqrt(2)]) is None
        assert _common_radical(from_squares([1, 2, 3]).values) is None

    @pytest.mark.parametrize("kind", ["rational", "one_radicand"])
    def test_matches_radical_pairs_and_naive(self, rng, kind):
        for n in (1 if kind == "rational" else 2, 3, 5, 8, 11, 14):
            if kind == "rational":
                w = rational_unit_vector(rng, n)
            else:
                w = one_radicand_vector(rng, n)
            ts = [Fraction(1)]
            if n < 14:  # the radical naive walk takes about a second at n = 14
                ts += [Fraction(0), Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 17)))]
            if kind == "rational":
                # an achieved |sum| makes the boundary a tie
                dist = sum_distribution(w)
                ts.append(abs(dist.entries[int(rng.integers(0, len(dist.entries)))][0]))
            for t in ts:
                for strict in (False, True):
                    p = threshold_probability(w, t, strict)
                    assert p == Fraction(self._radical_pairs(list(w.values), t, strict), 2**n)
                    assert p == threshold_probability_naive(w, t, strict)

    def test_zero_threshold_counts_only_exact_cancellation(self):
        # x = (2, 1, 1)*sqrt(6)/6: a signed sum is zero only for +-(2 - 1 - 1),
        # and no nonzero sum s*sqrt(6)/6 can equal a rational t.
        w = canonicalize([1, 1, 2], EXACT)
        assert threshold_probability(w, 0) == Fraction(2, 8)
        assert threshold_probability(w, 0) == threshold_probability_naive(w, 0)
        assert threshold_probability(w, 0, strict=True) == 0

    @staticmethod
    def _brute(values, cutoff):
        return sum(
            1
            for signs in itertools.product((-1, 1), repeat=len(values))
            if abs(sum(s * v for s, v in zip(signs, values))) <= cutoff
        )

    @pytest.mark.parametrize("scale, dtype", [(2**62, object), (2**57, np.int64)])
    def test_big_magnitudes_take_the_right_dtype(self, rng, monkeypatch, scale, dtype):
        from radsum import engine

        seen = set()
        real = engine._half_sums

        def spy(values, dt):
            seen.add(dt)
            return real(values, dt)

        monkeypatch.setattr(engine, "_half_sums", spy)
        for _ in range(8):
            n = int(rng.integers(1, 11))
            vals = [scale + int(v) for v in rng.integers(-50, 50, size=n)]
            vals[0] = -vals[0]
            for t in (Fraction(0), Fraction(100), Fraction(scale), Fraction(3 * scale + 7)):
                for strict in (False, True):
                    hits, total = engine.signed_sum_count(vals, t, EXACT, strict)
                    cutoff = t - 1 if strict and t.denominator == 1 else t
                    expected = self._brute(vals, cutoff) if (t or not strict) else 0
                    assert (hits, total) == (expected, 2**n)
        assert seen == {dtype}

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
