"""Exact radical arithmetic: representation, field ops, ordering."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsum.algebraic import SqrtSum, exact_sqrt, squarefree_decompose


class TestSquarefreeDecompose:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, (1, 1)),
            (2, (1, 2)),
            (4, (2, 1)),
            (12, (2, 3)),
            (49, (7, 1)),
            (50, (5, 2)),
            (360, (6, 10)),
            (2**40, (2**20, 1)),
            (97, (1, 97)),
            (97 * 89, (1, 97 * 89)),
            (97 * 97, (97, 1)),
            (97 * 97 * 89, (97, 89)),
        ],
    )
    def test_known_values(self, n, expected):
        assert squarefree_decompose(n) == expected

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_reconstruction_and_squarefreeness(self, n):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        for p in range(2, 101):
            assert d % (p * p) != 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)


class TestConstruction:
    def test_sqrt_of_half(self):
        v = exact_sqrt(Fraction(1, 2))
        assert v.terms == {2: Fraction(1, 2)}
        assert float(v) == pytest.approx(math.sqrt(0.5))

    def test_sqrt_of_perfect_square_is_rational(self):
        v = exact_sqrt(Fraction(16, 25))
        assert v.is_rational and v.as_fraction() == Fraction(4, 5)

    def test_sqrt_zero(self):
        assert exact_sqrt(0).sign() == 0

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValueError):
            exact_sqrt(Fraction(-1, 2))


class TestFieldOperations:
    def test_binomial_square(self):
        v = (exact_sqrt(2) + exact_sqrt(3)) ** 2
        assert v == 5 + 2 * exact_sqrt(6)

    def test_conjugate_product_is_rational(self):
        v = (1 + exact_sqrt(2)) * (1 - exact_sqrt(2))
        assert v.as_fraction() == -1

    def test_radical_simplification_to_zero(self):
        # sqrt(8) = 2*sqrt(2)
        assert (exact_sqrt(8) - 2 * exact_sqrt(2)).sign() == 0

    def test_division_multi_radical_denominator(self):
        den = 1 + exact_sqrt(2) + exact_sqrt(3)
        v = 1 / den
        assert v * den == 1
        assert float(v) == pytest.approx(1.0 / (1 + math.sqrt(2) + math.sqrt(3)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            1 / SqrtSum()

    def test_pow(self):
        v = exact_sqrt(Fraction(11, 100))
        assert (v**4).as_fraction() == Fraction(121, 10000)
        assert v**0 == 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 5, 6, 7]),
                st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_inverse_roundtrip(self, terms):
        v = SqrtSum()
        for d, c in terms:
            v = v + c * exact_sqrt(d)
        if v.sign() == 0:
            return
        assert v * v.inverse() == 1
        assert (1 / v) * v == 1

    def test_float_mixing_rejected(self):
        with pytest.raises(TypeError):
            exact_sqrt(2) + 0.5
        with pytest.raises(TypeError):
            0.5 * exact_sqrt(2)


class TestOrdering:
    def test_simple_comparisons(self):
        assert exact_sqrt(2) < Fraction(3, 2) < exact_sqrt(3)
        assert exact_sqrt(2) + exact_sqrt(3) < exact_sqrt(10)
        assert exact_sqrt(2) > 1

    def test_tight_sign_resolution(self):
        # Pell solutions p^2 - 2q^2 = 1 give rationals just above sqrt(2);
        # the gaps (~1e-12 and ~1e-24) force the interval refinement to
        # escalate precision before the sign resolves.
        close = Fraction(665857, 470832)
        assert (close - exact_sqrt(2)).sign() == 1
        assert (exact_sqrt(2) - close).sign() == -1
        closer = Fraction(886731088897, 627013566048)
        assert closer * closer - 2 == Fraction(1, 627013566048**2)
        assert (exact_sqrt(2) - closer).sign() == -1

    @given(
        st.lists(st.tuples(st.sampled_from([1, 2, 3, 5]), st.integers(-50, 50)), max_size=3),
        st.lists(st.tuples(st.sampled_from([1, 2, 3, 5]), st.integers(-50, 50)), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_order_matches_floats_when_clear(self, t1, t2):
        a = SqrtSum()
        for d, c in t1:
            a = a + c * exact_sqrt(d)
        b = SqrtSum()
        for d, c in t2:
            b = b + c * exact_sqrt(d)
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9:
            assert (a < b) == (fa < fb)

    def test_abs(self):
        v = 1 - exact_sqrt(2)
        assert abs(v) == exact_sqrt(2) - 1


class TestEqualityAndHashing:
    def test_rational_sqrtsum_equals_fraction(self):
        v = SqrtSum.from_rational(Fraction(3, 5))
        assert v == Fraction(3, 5)
        assert hash(v) == hash(Fraction(3, 5))

    def test_dict_key_mixing(self):
        d = {SqrtSum.from_rational(Fraction(1, 2)): "a"}
        assert d[Fraction(1, 2)] == "a"

    def test_canonical_equality(self):
        assert exact_sqrt(Fraction(1, 2)) == exact_sqrt(2) / 2

    def test_str_roundtrip_content(self):
        v = Fraction(1, 2) + 3 * exact_sqrt(2) - exact_sqrt(5)
        s = str(v)
        assert "1/2" in s and "sqrt(2)" in s and "sqrt(5)" in s


def interval_sign(v: SqrtSum) -> int:
    """Sign from isqrt brackets alone, at doubling precision: the reference
    for the float filter in SqrtSum.sign."""
    terms = v.terms
    if not terms:
        return 0
    prec = 32
    while True:
        lo = hi = Fraction(0)
        for d, c in terms.items():
            r = math.isqrt(d << (2 * prec))
            below, above = Fraction(r, 1 << prec), Fraction(r + 1, 1 << prec)
            lo += c * (below if c > 0 else above)
            hi += c * (above if c > 0 else below)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def decimal_value(v: SqrtSum, digits: int = 200) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for d, c in v.terms.items():
            total += Decimal(c.numerator) / Decimal(c.denominator) * Decimal(d).sqrt()
        return total


def rounded(value: Decimal, digits: int) -> Fraction:
    """``value`` rounded to ``digits`` decimal places, as a Fraction."""
    with localcontext() as ctx:
        ctx.prec = 400
        return Fraction(value.quantize(Decimal(1).scaleb(-digits)))


def assert_float_close(v: SqrtSum) -> None:
    exact = decimal_value(v)
    assert abs(Decimal(float(v)) - exact) <= abs(exact) * Decimal(2) ** -48


def pell_pairs(limit: int):
    """(p, q) with p^2 - 2q^2 = +-1, q up to ``limit``."""
    p, q = 1, 1
    while q <= limit:
        yield p, q
        p, q = p + 2 * q, p + q


MERSENNE_521 = 2**521 - 1  # prime, so squarefree; sqrt ~ 2.6e78


class TestFloatFilter:
    """SqrtSum.sign decides from a float sum when its error bound allows and
    must agree with the interval sign everywhere."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 9699690, 2**61 - 1]),
                st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**12),
            ),
            min_size=2,
            max_size=8,
        ),
        st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_interval_sign(self, terms, digits):
        v = SqrtSum()
        for d, c in terms:
            v = v + c * exact_sqrt(d)
        # Subtracting a `digits`-place rational approximation leaves a value
        # far below its terms' size, the regime where the filter must abstain.
        w = v - rounded(decimal_value(v), digits)
        for x in (v, w):
            assert x.sign() == interval_sign(x)

    def test_pell_near_cancellations(self):
        for p, q in pell_pairs(10**30):
            for pp in (p - 1, p, p + 1):
                v = q * exact_sqrt(2) - pp
                expected = (2 * q * q > pp * pp) - (2 * q * q < pp * pp)
                assert v.sign() == expected == interval_sign(v)
                if pp == p and q > 10**6:
                    assert_float_close(v)

    def test_huge_and_tiny_coefficients_fall_through(self):
        big, tiny = Fraction(10**400), Fraction(1, 10**400)
        p, q = 886731088897, 627013566048  # p/q - sqrt(2) ~ 1e-24
        cases = [
            big * (exact_sqrt(2) - exact_sqrt(3)),
            tiny * (exact_sqrt(3) - exact_sqrt(2)),
            big * exact_sqrt(2) - big * Fraction(p, q),
            tiny * exact_sqrt(2) - tiny * Fraction(p, q),
            big * exact_sqrt(2) - tiny,
            tiny * exact_sqrt(2) - tiny * exact_sqrt(3) + Fraction(1, 10**10),
            SqrtSum({MERSENNE_521: Fraction(1), 1: -Fraction(10**79)}),
        ]
        for v in cases[:4]:
            assert v._float_estimate() is None  # overflow, or a zero float coefficient
        for v in cases:
            assert v.sign() == interval_sign(v)
        assert_float_close(tiny * 10**400 * exact_sqrt(2) - Fraction(p, q))

    def test_subnormal_coefficient_is_not_trusted(self):
        # float(c) for c = 1e-320 is subnormal and off by ~5e-4 of c, while
        # c*sqrt(M) ~ 2.6e-242 sits well inside the filter's range.  Choose
        # r between c*sqrt(M) and float(c)*sqrt(M): the float sum has the
        # wrong sign by a margin far above the (m+4)*2^-52 bound.
        c = Fraction(1, 10**320)
        rel = Fraction(float(c)) / c - 1
        assert abs(rel) > Fraction(1, 10**5)
        with localcontext() as ctx:
            ctx.prec = 400
            root = Decimal(MERSENNE_521).sqrt()
        r = c * Fraction(root) * (1 + rel / 2)
        v = SqrtSum({MERSENNE_521: c, 1: -r})
        assert v.sign() == interval_sign(v) == (-1 if rel > 0 else 1)

    def test_cancelling_sum_of_many_terms(self):
        radicands = [d for d in range(2, 200) if all(d % (k * k) for k in range(2, 15))][:40]
        v = SqrtSum()
        for i, d in enumerate(radicands):
            v = v + Fraction((-1) ** i * (i + 1), 7 + i) * exact_sqrt(d)
        exact = decimal_value(v)
        for digits in (10, 30, 60, 90):
            approx = rounded(exact, digits)
            for w in (v - approx, approx - v, v - approx - Fraction(1, 10 ** (digits + 5))):
                assert w.sign() == interval_sign(w)
                assert_float_close(w)
