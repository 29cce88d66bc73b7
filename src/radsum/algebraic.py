"""Exact arithmetic over rational combinations of square roots.

A :class:`SqrtSum` is a finite sum ``c_1*sqrt(d_1) + ... + c_m*sqrt(d_m)``
with rational coefficients ``c_i`` and distinct squarefree positive integer
radicands ``d_i`` (``d = 1`` is the rational part).  Square roots of distinct
squarefree integers are linearly independent over the rationals, so this
representation is canonical: a value is zero iff it has no terms, and
equality is structural.  That makes sign determination decidable - an exact
zero test by inspection, and for nonzero values interval arithmetic at
escalating precision, which must terminate.

The set is closed under +, -, * and / (division clears radicals from the
denominator by conjugating one prime at a time), which covers everything the
bound formulas need once weights are square roots of rationals.

Only exact operands are accepted; mixing in floats raises ``TypeError``
rather than silently losing exactness.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, sqrt
from numbers import Rational
from typing import Optional, Union

ExactLike = Union[int, Fraction, "SqrtSum"]

# Deterministic Miller-Rabin witness sets (the first covers all n < 3.3e24;
# the extras push the error probability of a false prime, for larger n,
# far below any practical concern).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
_RHO_ROUNDS = 64
# Total rho iterations before giving up; factoring effort ~ p^(1/4) per
# prime factor p, so this covers factors up to roughly 10^13 in a couple of
# seconds while guaranteeing termination on adversarial radicands.
_RHO_BUDGET = 6_000_000
_FLOAT_MIN = sys.float_info.min  # smallest normal float


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant,
    deterministic parameter schedule, bounded total effort)."""
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, _RHO_ROUNDS):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1 and spent < _RHO_BUDGET:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = gcd(q, n)
            spent += 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        if spent >= _RHO_BUDGET:
            break
    raise ValueError(
        f"cannot factor {n} within the effort budget; "
        "the radicand is too hard for exact arithmetic"
    )


def _factor(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if _is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    r = isqrt(n)
    if r * r == n:
        _factor(r, out)
        _factor(r, out)
        return
    d = _brent_rho(n)
    _factor(d, out)
    _factor(n // d, out)


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorint requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    _factor(n, out)
    return out


@lru_cache(maxsize=65536)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split ``n >= 1`` into ``(s, d)`` with ``n == s*s*d`` and ``d`` squarefree."""
    if n < 1:
        raise ValueError(f"squarefree_decompose requires n >= 1, got {n}")
    r = isqrt(n)
    if r * r == n:
        return r, 1
    s = 1
    d = 1
    for p, e in factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def _smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"no prime factor for {n}")
    return min(factorint(n))


class SqrtSum:
    """An exact real number sum(c_d * sqrt(d)) with canonical term dict."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # Terms are assumed already canonical (squarefree keys, no zeros)
        # when built internally; the public entry points are from_rational()
        # and sqrt_rational().
        self._terms: dict[int, Fraction] = terms or {}

    @classmethod
    def from_rational(cls, q: ExactLike) -> "SqrtSum":
        if isinstance(q, SqrtSum):
            return q
        q = Fraction(q)
        return cls({1: q} if q else {})

    @classmethod
    def sqrt_rational(cls, q: Rational | int) -> "SqrtSum":
        """Exact square root of a nonnegative rational: sqrt(a/b) = sqrt(ab)/b."""
        q = Fraction(q)
        if q < 0:
            raise ValueError(f"square root of negative rational {q}")
        if q == 0:
            return cls()
        s, d = squarefree_decompose(q.numerator * q.denominator)
        return cls({d: Fraction(s, q.denominator)})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def radicands(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "SqrtSum":
        if isinstance(other, SqrtSum):
            return other
        if isinstance(other, float):
            raise TypeError("cannot mix floats into exact SqrtSum arithmetic")
        if isinstance(other, (int, Fraction)):
            return SqrtSum.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "SqrtSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for d, c in o._terms.items():
            new = terms.get(d, Fraction(0)) + c
            if new:
                terms[d] = new
            else:
                terms.pop(d, None)
        return SqrtSum(terms)

    __radd__ = __add__

    def __neg__(self) -> "SqrtSum":
        return SqrtSum({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "SqrtSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "SqrtSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "SqrtSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in o._terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd:
                # both factors squarefree and coprime, so the product radicand
                # is squarefree without any factoring.
                if d1 == d2:
                    g, d = d1, 1
                else:
                    g = gcd(d1, d2)
                    d = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                new = terms.get(d, Fraction(0)) + c
                if new:
                    terms[d] = new
                else:
                    terms.pop(d, None)
        return SqrtSum(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SqrtSum":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = SqrtSum({1: Fraction(1)})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _conjugate_by_prime(self, p: int) -> "SqrtSum":
        """Negate every term whose radicand is divisible by the prime p."""
        return SqrtSum(
            {d: (-c if d % p == 0 else c) for d, c in self._terms.items()}
        )

    def inverse(self) -> "SqrtSum":
        if not self._terms:
            raise ZeroDivisionError("division by zero SqrtSum")
        num = SqrtSum({1: Fraction(1)})
        den = self
        while not den.is_rational:
            d = next(r for r in den._terms if r != 1)
            p = _smallest_prime_factor(d)
            conj = den._conjugate_by_prime(p)
            num = num * conj
            den = den * conj  # removes p from every radicand
        return num * SqrtSum({1: 1 / den.as_fraction()})

    def __truediv__(self, other) -> "SqrtSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_rational:
            q = o.as_fraction()
            if not q:
                raise ZeroDivisionError("division by zero SqrtSum")
            return self * SqrtSum({1: 1 / q})
        return self * o.inverse()

    def __rtruediv__(self, other) -> "SqrtSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __abs__(self) -> "SqrtSum":
        return -self if self.sign() < 0 else self

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Zero falls out of the canonical representation.  Otherwise a float
        sum decides whenever it exceeds its proven rounding-error bound;
        failing that, bracket each sqrt(d) with integer square roots at
        doubling precision until the enclosing interval excludes zero;
        nonzero values guarantee termination.
        """
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            ((_, c),) = self._terms.items()
            return 1 if c > 0 else -1
        estimate = self._float_estimate()
        if estimate is not None:
            approx, err = estimate
            if abs(approx) > err:
                return 1 if approx > 0 else -1
        prec = 64
        while True:
            lo, hi = self._interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _float_estimate(self) -> Optional[tuple[float, float]]:
        """``(approx, err)``: the float sum of the terms and a bound on its
        distance from the exact value, or None where no bound is proven.

        Each of ``float(c)``, ``float(d)``, ``sqrt``, the product and each
        addition is correctly rounded, so with ``u = 2^-53`` a term is off by
        at most ``3.5u`` of its size and summing m terms adds at most
        ``(m-1)u`` of ``S = sum|terms|`` (Shewchuk-style bound); ``(m+4)*2^-52*S``
        covers both with room to spare.  The bound assumes no underflow or
        overflow, so a coefficient that is not a normal float, an
        ``OverflowError``, or ``S`` outside ``(1e-290, 1e290)`` yields None.
        """
        approx = size = 0.0
        try:
            for d, c in self._terms.items():
                fc = float(c)
                if not abs(fc) >= _FLOAT_MIN:
                    return None
                term = fc * sqrt(d)
                approx += term
                size += abs(term)
        except OverflowError:
            return None
        if not 1e-290 < size < 1e290:
            return None
        return approx, (len(self._terms) + 4) * 2.0**-52 * size

    def _interval(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational ``(lo, hi)`` around the value from ``isqrt`` brackets of
        each ``sqrt(d)`` at ``prec`` fractional bits."""
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << prec
        for d, c in self._terms.items():
            root_lo = isqrt(d << (2 * prec))
            term_lo = Fraction(root_lo, scale)
            term_hi = Fraction(root_lo + 1, scale)
            if c >= 0:
                lo += c * term_lo
                hi += c * term_hi
            else:
                lo += c * term_hi
                hi += c * term_lo
        return lo, hi

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # Rational values must hash like their Fraction so that mixed
        # dict/set use stays consistent with __eq__.
        if self.is_rational:
            return hash(self._terms.get(1, Fraction(0)))
        return hash(frozenset(self._terms.items()))

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- conversion --------------------------------------------------------

    def __float__(self) -> float:
        """The value to a relative error below 2^-48.

        The plain float sum is returned when its error bound allows it;
        cancelling terms (coefficients far larger than the value) instead
        refine the ``isqrt`` interval until its relative width is below
        2^-60 and round its midpoint.
        """
        if not self._terms:
            return 0.0
        estimate = self._float_estimate()
        if estimate is not None:
            approx, err = estimate
            if err <= 2.0**-48 * abs(approx):
                return approx
        prec = 64
        while True:
            lo, hi = self._interval(prec)
            if (lo > 0 or hi < 0) and hi - lo < min(abs(lo), abs(hi)) / (1 << 60):
                return float((lo + hi) / 2)
            prec *= 2

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d in sorted(self._terms):
            c = self._terms[d]
            if d == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({d})")
            elif c == -1:
                parts.append(f"-sqrt({d})")
            else:
                parts.append(f"{c}*sqrt({d})")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"SqrtSum({self})"


def exact_sqrt(q: Rational | int) -> SqrtSum:
    """Module-level convenience alias for :meth:`SqrtSum.sqrt_rational`."""
    return SqrtSum.sqrt_rational(q)
