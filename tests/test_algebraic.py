"""Exact radical arithmetic: representation, field ops, ordering."""

import copy
import itertools
import math
import operator
import pickle
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsum import algebraic
from radsum.algebraic import SqrtSum, exact_sqrt, factorint, squarefree_decompose


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

    def test_factors_a_13_digit_prime_within_the_budget(self):
        n = 9439773459413196600373401704310476485109  # a random odd 40-digit number
        assert factorint(n) == {521: 1, 2691191449643: 1, 6732544837345059049297703: 1}

    def test_rho_steps_are_charged_by_size(self, monkeypatch):
        # Under one budget, a 300-digit semiprime is refused after far fewer
        # rho steps than a 40-digit one: each step on it costs ~10x more.
        # Brent's rho takes one gcd per block of at most 128 steps.
        def semiprime(digits):
            p, q = 10 ** (digits // 2 - 1) + 1, 10 ** (digits // 2) + 1
            while not algebraic._is_probable_prime(p, algebraic._Budget()):
                p += 2
            while not algebraic._is_probable_prime(q, algebraic._Budget()):
                q += 2
            return p * q

        calls = []
        monkeypatch.setattr(algebraic, "_RHO_BUDGET", 120_000)
        monkeypatch.setattr(algebraic, "gcd", lambda a, b: calls.append(a) or math.gcd(a, b))
        blocks = []
        for digits in (40, 300):
            calls.clear()
            with pytest.raises(ValueError, match="effort budget"):
                factorint(semiprime(digits))
            blocks.append(len(calls))
        assert blocks[1] * 10 < blocks[0], blocks

    def test_one_budget_covers_every_rho_search(self, monkeypatch):
        # Twelve primes just above 10^6 are peeled off by rho searches of
        # under 5*10^3 units each.  They share one budget: 2*10^4 units
        # cover any one search, but not all of them.
        primes = []
        p = 10**6 + 1
        while len(primes) < 12:
            if algebraic._is_probable_prime(p, algebraic._Budget()):
                primes.append(p)
            p += 2
        n = math.prod(primes)
        assert factorint(n) == {p: 1 for p in primes}
        searches = []
        real = algebraic._brent_rho
        monkeypatch.setattr(algebraic, "_brent_rho", lambda *a: searches.append(a) or real(*a))
        monkeypatch.setattr(algebraic, "_RHO_BUDGET", 20_000)
        with pytest.raises(ValueError, match="effort budget"):
            factorint(n)
        assert len(searches) < 11, len(searches)

    def test_primality_tests_are_charged_by_size(self, monkeypatch):
        # A Miller-Rabin witness on the 1279-bit Mersenne prime costs about
        # 1279 steps of 25 units each, so 10^5 units pay for 3 of the 17
        # witnesses, and the fourth is refused before it runs.
        m = 2**1279 - 1
        powers = []
        monkeypatch.setattr(algebraic, "pow", lambda *a: powers.append(a) or pow(*a), raising=False)
        assert factorint(m) == {m: 1}
        assert len(powers) == len(algebraic._MR_BASES)
        powers.clear()
        monkeypatch.setattr(algebraic, "_RHO_BUDGET", 100_000)
        with pytest.raises(ValueError, match="effort budget"):
            factorint(m)
        assert len(powers) == 3, len(powers)


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
                st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15]),
                st.fractions(min_value=-50, max_value=50, max_denominator=9),
            ),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_pow_matches_repeated_multiplication(self, terms):
        # Same value, same term order and so the same float() summation.
        v = SqrtSum()
        for d, c in terms:
            v = v + c * exact_sqrt(d)
        expected = SqrtSum({1: Fraction(1)})
        for e in range(10):
            got = v**e
            assert got == expected
            assert list(got.terms.items()) == list(expected.terms.items())
            assert float(got) == float(expected)
            expected = expected * v

    def test_pow_squares_no_further_than_the_top_bit(self, monkeypatch):
        calls = []
        mul = SqrtSum.__mul__
        monkeypatch.setattr(SqrtSum, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        v = 1 + exact_sqrt(2) + exact_sqrt(3)
        for e in range(1, 10):
            calls.clear()
            v**e
            # one squaring per bit below the top, one product per extra set bit
            assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1)

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

    @pytest.mark.parametrize("swap", [False, True], ids=["sqrtsum-first", "sqrtsum-second"])
    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq,
         operator.lt, operator.le, operator.gt, operator.ge],
        ids=lambda op: op.__name__,
    )
    def test_float_mixing_rejected(self, op, swap):
        # one operand rule for every operator, in both orders: a float
        # raises, an int or Fraction acts as its SqrtSum, anything else is
        # left to Python (a TypeError, or False for ==)
        s = exact_sqrt(2) + Fraction(1, 3)
        call = (lambda o: op(o, s)) if swap else (lambda o: op(s, o))
        with pytest.raises(TypeError, match="cannot mix floats"):
            call(0.5)
        for q in (3, Fraction(-2, 7), Fraction(1, 3)):
            exact = SqrtSum.from_rational(q)
            want = op(exact, s) if swap else op(s, exact)
            got = call(q)
            assert got == want and type(got) is type(want), (q, got, want)
        if op is operator.eq:
            assert call("x") is False
        else:
            with pytest.raises(TypeError):
                call("x")


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
    return ref_sign(v.terms)


def ref_sign(terms: dict) -> int:
    """``interval_sign`` of the sum of ``c*sqrt(d)`` over a term dict."""
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


def build(terms) -> SqrtSum:
    v = SqrtSum()
    for d, c in terms:
        v = v + c * exact_sqrt(d)
    return v


PELL = list(pell_pairs(10**30))
_TERMS = st.lists(st.tuples(st.sampled_from([1, 2, 3, 5, 6, 7]), st.integers(-50, 50)), max_size=4)


@st.composite
def ordering_pairs(draw):
    """``(a, b)``: ``q*sqrt(2)`` against ``p`` near ``q*sqrt(2)`` (Pell
    convergents among them), their difference against zero, equal sums built
    in two orders, empty sums and general sums, all scaled by one factor."""
    kind = draw(st.sampled_from(["near_tie", "difference", "equal", "empty", "terms"]))
    if kind in ("near_tie", "difference"):
        p = draw(st.one_of(st.integers(1, 10**30), st.sampled_from([p for p, _ in PELL])))
        q = math.isqrt(p * p // 2) + draw(st.integers(-1, 1))
        a, b = q * exact_sqrt(2), SqrtSum.from_rational(p)
        if kind == "difference":
            a, b = a - b, SqrtSum()
    else:
        terms = draw(_TERMS)
        a = build(terms)
        if kind == "equal":
            b = build(reversed(terms))
        elif kind == "empty":
            b = SqrtSum()
        else:
            b = build(draw(_TERMS))
    scale = Fraction(10) ** draw(st.sampled_from([0, 0, 300, -300]))
    scale *= draw(st.sampled_from([1, -1, Fraction(1, 3)]))
    return a * scale, b * scale


class TestFloor:
    """``math.floor`` of a SqrtSum is exact: rational values, one-term sums
    and cancelling sums, against a high-precision ``isqrt`` interval."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 5, 6, 7, 10, 2**61 - 1]),
                st.one_of(
                    st.integers(-(10**6), 10**6),
                    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
                ),
            ),
            max_size=5,
        ),
        st.sampled_from([None, 0, 5, 20, 40]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_high_precision_interval(self, terms, digits):
        v = build(terms)
        if digits is not None:
            # minus a `digits`-place approximation: a value far below its terms
            v = v - rounded(decimal_value(v), digits)
        f = math.floor(v)
        assert type(f) is int
        lo, hi, scale = next(itertools.islice(v._intervals(), 5, None))  # 2048 bits
        assert lo // scale <= f <= hi // scale
        if v.is_rational:
            assert f == math.floor(v.as_fraction())
        else:
            assert lo // scale == hi // scale
        assert (v - f).sign() >= 0 > (v - (f + 1)).sign()

    def test_single_terms_and_integers(self):
        for v, f in [
            (exact_sqrt(2), 1), (-exact_sqrt(2), -2), (Fraction(7, 3) * exact_sqrt(3), 4),
            (-Fraction(7, 3) * exact_sqrt(3), -5), (SqrtSum.from_rational(-3), -3),
            (SqrtSum(), 0), (3 - exact_sqrt(2) - exact_sqrt(3), -1), (exact_sqrt(8) - exact_sqrt(2), 1),
        ]:
            assert math.floor(v) == f, v


class TestOrderingFilter:
    """<, <=, > and >= first compare the operands' float estimates; every
    answer must match the isqrt-interval sign of a - b."""

    @staticmethod
    def check(a: SqrtSum, b: SqrtSum) -> None:
        expected = interval_sign(a - b)
        assert a._compare(b) == expected and b._compare(a) == -expected
        assert (a < b, a <= b, a > b, a >= b) == (expected < 0, expected <= 0, expected > 0, expected >= 0)
        assert (b < a, b <= a, b > a, b >= a) == (expected > 0, expected >= 0, expected < 0, expected <= 0)

    @given(ordering_pairs())
    @settings(max_examples=400, deadline=None)
    def test_matches_interval_sign(self, pair):
        self.check(*pair)

    def test_pell_near_ties(self):
        # q*sqrt(2) - p = +-1/(p + q*sqrt(2)): past p ~ 1e8 the two float
        # estimates agree to their last bits, and the difference's own float
        # sum is rounding noise next to a value of about 1/(2p).
        for p, q in PELL:
            for pp in (p - 1, p, p + 1):
                a = q * exact_sqrt(2)
                self.check(a, SqrtSum.from_rational(pp))
                self.check(a - pp, SqrtSum())
                self.check(a - pp, SqrtSum.from_rational(Fraction(1, 2 * p)))

    def test_estimates_of_empty_and_out_of_range_sums(self):
        assert SqrtSum()._float_estimate() == (0.0, 0.0)
        # normal float coefficients whose term sizes leave (1e-290, 1e290)
        for scale in (Fraction(10**300), Fraction(1, 10**300)):
            v = scale * (exact_sqrt(2) - exact_sqrt(3))
            assert v._float_estimate() is None
            assert v.sign() == interval_sign(v) == -1
            self.check(v, scale * (exact_sqrt(2) - Fraction(3, 2)))
        assert (exact_sqrt(2) - 1)._float_estimate() is not None


# -- a reference model ----------------------------------------------------------
#
# A value is a dict {radicand: Fraction}, canonical and in term order, and
# every operation below is SqrtSum's arithmetic on one Fraction per term,
# written out here: the model reads nothing of SqrtSum.


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        new = out.get(d, 0) + c
        if new:
            out[d] = new
        else:
            out.pop(d, None)
    return out


def ref_neg(a: dict) -> dict:
    return {d: -c for d, c in a.items()}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            g = d1 if d1 == d2 else math.gcd(d1, d2)
            d = 1 if d1 == d2 else (d1 // g) * (d2 // g)
            out = ref_add(out, {d: c1 * c2 * g})
    return out


def ref_pow(a: dict, e: int) -> dict:
    """Square-and-multiply from the first factor, no squaring past the top bit."""
    if not e:
        return {1: Fraction(1)}
    result, base = None, a
    while True:
        if e & 1:
            result = base if result is None else ref_mul(result, base)
        e >>= 1
        if not e:
            return result
        base = ref_mul(base, base)


def ref_is_rational(a: dict) -> bool:
    return all(d == 1 for d in a)


def ref_div(a: dict, b: dict) -> dict:
    """``a/b``: by ``1/q`` for a rational ``b = q``, else by conjugating the
    denominator one prime at a time until it is rational."""
    if not b:
        raise ZeroDivisionError
    num, den = {1: Fraction(1)}, b
    while not ref_is_rational(den):
        p = min(factorint(next(d for d in den if d != 1)))
        conj = {d: -c if d % p == 0 else c for d, c in den.items()}
        num, den = ref_mul(num, conj), ref_mul(den, conj)
    return ref_mul(a, ref_mul(num, {1: 1 / den[1]}))


def ref_estimate(a: dict):
    """The float sum of the terms and its error bound, or None."""
    approx = size = 0.0
    try:
        for d, c in a.items():
            fc = c.numerator / c.denominator
            if not abs(fc) >= sys.float_info.min:
                return None
            term = fc * math.sqrt(d)
            approx += term
            size += abs(term)
    except OverflowError:
        return None
    if a and not 1e-290 < size < 1e290:
        return None
    return approx, (len(a) + 4) * 2.0**-52 * size


def ref_intervals(a: dict):
    denom = math.lcm(*(c.denominator for c in a.values()))
    prec = 64
    while True:
        lo = hi = 0
        for d, c in a.items():
            root = math.isqrt(d << (2 * prec))
            n = c.numerator * (denom // c.denominator)
            lo += n * (root if n >= 0 else root + 1)
            hi += n * (root + 1 if n >= 0 else root)
        yield lo, hi, denom << prec
        prec *= 2


def ref_float(a: dict) -> float:
    estimate = ref_estimate(a)
    if estimate is not None and estimate[1] <= 2.0**-48 * abs(estimate[0]):
        return estimate[0]
    for lo, hi, scale in ref_intervals(a):
        if (lo > 0 or hi < 0) and (hi - lo) << 60 < min(abs(lo), abs(hi)):
            return (lo + hi) / (2 * scale)


def ref_floor(a: dict) -> int:
    if ref_is_rational(a):
        return math.floor(a.get(1, Fraction(0)))
    return next(lo // s for lo, hi, s in ref_intervals(a) if lo // s == hi // s)


def ref_str(a: dict) -> str:
    if not a:
        return "0"
    parts = []
    for d in sorted(a):
        c = a[d]
        parts.append(str(c) if d == 1 else {1: "", -1: "-"}.get(c, f"{c}*") + f"sqrt({d})")
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


def outcome(f, *args):
    """``f(*args)``, or the type of what it raised."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


_RADICANDS = [1, 2, 3, 5, 6, 10, 2**61 - 1]
_COEFFS = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-100, max_value=100, max_denominator=30)
).map(Fraction)


@st.composite
def model_sums(draw) -> dict:
    """A canonical term dict over up to 4 radicands, in a drawn order."""
    radicands = draw(st.lists(st.sampled_from(_RADICANDS), max_size=4, unique=True))
    return {d: c for d in radicands if (c := draw(_COEFFS))}


@st.composite
def model_pairs(draw) -> tuple[dict, dict]:
    """Two sums: independent, one cancelling the other's terms, equal in
    another term order, the other over a larger denominator, a rational
    within ``10^-digits`` of the other, or ``q*sqrt(2)`` against a Pell
    convergent ``p``; both scaled by one factor."""
    a = draw(model_sums())
    kinds = ["independent", "cancelling", "reordered", "rescaled", "near", "pell"]
    kind = draw(st.sampled_from(kinds))
    if kind == "independent":
        b = draw(model_sums())
    elif kind == "rescaled":  # often the same numerators over another denominator
        b = ref_mul(a, {1: Fraction(1, draw(st.sampled_from([2, 3, 7])))})
    elif kind == "cancelling":
        b = ref_add(ref_neg(a), draw(model_sums()))
    elif kind == "reordered":
        b = dict(reversed(list(a.items())))
    elif kind == "near":
        q = rounded(decimal_value(SqrtSum(a)), draw(st.integers(0, 40)))
        b = {1: q} if q else {}
    else:
        p, q = draw(st.sampled_from(PELL))
        a, b = {2: Fraction(q)}, {1: Fraction(p + draw(st.integers(-1, 1)))}
    scale = draw(st.sampled_from([1, 1, 10**20, Fraction(1, 10**20), 10**160]))
    return ref_mul(a, {1: Fraction(scale)}), ref_mul(b, {1: Fraction(scale)})


class TestAgainstFractionModel:
    """Every operation, comparison and conversion of ``SqrtSum`` equals the
    reference model's, term order and float bits included, on random sums
    over up to 4 radicands; and no operation changes an operand."""

    @staticmethod
    def check(v: SqrtSum, ref: dict) -> None:
        assert type(v) is SqrtSum
        assert list(v.terms.items()) == list(ref.items())
        assert all(type(c) is Fraction for c in v.terms.values())
        assert str(v) == ref_str(ref)
        assert outcome(float, v) == outcome(ref_float, ref)
        assert math.floor(v) == ref_floor(ref)
        assert v.sign() == ref_sign(ref) and bool(v) == bool(ref)
        assert v.is_rational == ref_is_rational(ref)
        if ref_is_rational(ref):
            q = ref.get(1, Fraction(0))
            assert v.as_fraction() == q and type(v.as_fraction()) is Fraction
            assert v == q and hash(v) == hash(q)
        else:
            with pytest.raises(ValueError):
                v.as_fraction()
        assert hash(v) == hash(SqrtSum(dict(reversed(list(ref.items())))))

    @given(model_pairs(), _COEFFS)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_the_model(self, pair, q):
        a, b = pair
        x, y = SqrtSum(a), SqrtSum(b)
        before = [(v, list(v.terms.items()), str(v)) for v in (x, y)]
        rq = {1: q} if q else {}
        results = [
            (x + y, ref_add(a, b)), (x - y, ref_add(a, ref_neg(b))), (x * y, ref_mul(a, b)),
            (-x, ref_neg(a)), (abs(x), ref_neg(a) if ref_sign(a) < 0 else a),
            (x + q, ref_add(a, rq)), (q + x, ref_add(a, rq)),
            (x - q, ref_add(a, ref_neg(rq))), (q - x, ref_add(rq, ref_neg(a))),
            (x * q, ref_mul(a, rq)), (q * x, ref_mul(a, rq)),
        ]
        results += [(x**e, ref_pow(a, e)) for e in range(4)]
        for num, den, ref_num, ref_den in ((x, y, a, b), (x, q, a, rq), (q, x, rq, a)):
            got = outcome(operator.truediv, num, den)
            want = outcome(ref_div, ref_num, ref_den)
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                results.append((got, want))
        for v, ref in [(x, a), (y, b), *results]:
            self.check(v, ref)
        expected = ref_sign(ref_add(a, ref_neg(b)))
        assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == (
            expected < 0, expected <= 0, expected > 0, expected >= 0, expected == 0, expected != 0
        )
        assert (x == y) == (a == b)
        if x == y:
            assert hash(x) == hash(y)
        expected = ref_sign(ref_add(a, ref_neg(rq)))
        assert (x < q, x <= q, x > q, x >= q, x == q) == (
            expected < 0, expected <= 0, expected > 0, expected >= 0, expected == 0
        )
        # no operand changed, its cached float estimate included; copies made
        # before and after the estimate is cached have the same one
        for v, items, text in before:
            assert list(v.terms.items()) == items and str(v) == text
            fresh = SqrtSum(dict(items))
            copies = [copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))]
            assert v._float_estimate() == fresh._float_estimate()
            for twin in copies + [copy.deepcopy(v), pickle.loads(pickle.dumps(v))]:
                assert list(twin.terms.items()) == items and twin == v
                assert twin._float_estimate() == v._float_estimate()
