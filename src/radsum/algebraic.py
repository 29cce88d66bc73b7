"""Exact arithmetic over rational combinations of square roots.

A :class:`SqrtSum` is a finite sum ``c_1*sqrt(d_1) + ... + c_m*sqrt(d_m)``
with rational coefficients ``c_i`` and distinct squarefree positive integer
radicands ``d_i`` (``d = 1`` is the rational part).  Square roots of distinct
squarefree integers are linearly independent over the rationals, so this
representation is canonical: a value is zero iff it has no terms, and
equality is structural.  That makes sign determination decidable - an exact
zero test by inspection, and for nonzero values interval arithmetic at
escalating precision, which must terminate.

A value is held as integers: one numerator per radicand, in term order, over
one positive denominator, with no common factor.  Arithmetic, comparisons,
``float``, ``floor``, ``str`` and ``hash`` run on those integers; ``terms``
builds the ``Fraction`` coefficients only when asked.  The integer
numerators are also what the engine's radical keys and the certificate's
closed forms are built from.

The set is closed under +, -, * and / (division clears radicals from the
denominator by conjugating one prime at a time), which covers everything the
bound formulas need once weights are square roots of rationals.

Signs and comparisons are filtered (Shewchuk 1997): float sums with proven
error bounds decide them, and an exact difference and sign are computed only
when two sums agree to within those bounds.  A value is never mutated, so
its float sum and bound are computed once and cached.  The engine filters whole arrays
the same way with integers instead (Fortune and Van Wyk 1996): its radical
keys are fixed-point sums of each term's exact floor, so a key is less than
one unit per term from its sum, and only signed sums within that many units
of a decision boundary are rebuilt as ``SqrtSum`` values and compared here.

Only exact operands are accepted; mixing in floats raises ``TypeError``
rather than silently losing exactness.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, isqrt, lcm, sqrt
from numbers import Rational
from typing import Optional, Union

from .errors import _check_int

ExactLike = Union[int, Fraction, "SqrtSum"]

# Deterministic Miller-Rabin witness sets (the first covers all n < 3.3e24;
# the extras push the error probability of a false prime, for larger n,
# far below any practical concern).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
_RHO_ROUNDS = 64
# Effort of one factorint call, shared by its rho searches and primality
# tests, in rho steps on a word-sized n.  Finding a prime factor p takes
# ~p^(1/2) steps, so this covers factors up to roughly 10^13 in a couple of
# seconds while guaranteeing termination on adversarial radicands.  A step
# on numbers as long as n is charged 1 + bits(n)^2/2^16 (charged 1, refusals
# took 5-7 s at 40 digits and 58 s at 300), and a Miller-Rabin witness, one
# modular power, bits(n) steps (measured at 1,000-10,000 bits).
_RHO_BUDGET = 6_000_000
_FLOAT_MIN = sys.float_info.min  # smallest normal float


class _Budget:
    """What one ``factorint`` call may still spend (see ``_RHO_BUDGET``)."""

    def __init__(self):
        self.left = _RHO_BUDGET

    def spend(self, n: int, steps: int) -> None:
        """Charge ``steps`` modular squarings of numbers as long as ``n``."""
        self.left -= steps * (1 + n.bit_length() ** 2 // 65536)


def _over_budget(n: int) -> ValueError:
    return ValueError(
        f"cannot factor a {n.bit_length()}-bit integer within the effort budget; "
        "the radicand is too hard for exact arithmetic"
    )


def _is_probable_prime(n: int, budget: _Budget) -> bool:
    """Miller-Rabin over ``_MR_BASES``.  Each witness is paid for from
    ``budget`` before it runs, and one the budget cannot cover raises."""
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
        budget.spend(n, n.bit_length())
        if budget.left < 0:
            raise _over_budget(n)
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


def _brent_rho(n: int, budget: _Budget) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant,
    deterministic parameter schedule), spending from ``budget``: a block
    of steps starts while some budget is left."""
    if n % 2 == 0:
        return 2
    for c in range(1, _RHO_ROUNDS):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1 and budget.left > 0:
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
            budget.spend(n, 2 * r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        if budget.left <= 0:
            break
    raise _over_budget(n)


def _factor(n: int, out: dict[int, int], budget: _Budget) -> None:
    if n == 1:
        return
    if _is_probable_prime(n, budget):
        out[n] = out.get(n, 0) + 1
        return
    r = isqrt(n)
    if r * r == n:
        _factor(r, out, budget)
        _factor(r, out, budget)
        return
    d = _brent_rho(n, budget)
    _factor(d, out, budget)
    _factor(n // d, out, budget)


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}; ValueError past the effort budget."""
    if n < 1:
        raise ValueError(f"factorint requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    _factor(n, out, _Budget())
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


def _operand(method):
    """The ``SqrtSum`` method ``method(self, other)`` with ``other`` read as a
    ``SqrtSum``: an int or Fraction is converted, a float raises
    ``TypeError``, and any other type gets ``NotImplemented``."""

    @wraps(method)
    def checked(self: "SqrtSum", other):
        if not isinstance(other, SqrtSum):
            if isinstance(other, float):
                raise TypeError("cannot mix floats into exact SqrtSum arithmetic")
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SqrtSum.from_rational(other)
        return method(self, other)

    return checked


def _ordering(op):
    """The ``SqrtSum`` method ``self op other``: ``op(sign(self - other), 0)``."""
    return _operand(lambda self, other: op(self._compare(other), 0))


# The float estimate of a SqrtSum not computed yet: None is an estimate, and
# False stays itself through pickling and deepcopy.
_UNSET = False
_new = object.__new__


def _canonical(nums: dict[int, int], den: int) -> "SqrtSum":
    """The ``SqrtSum`` of integers already in canonical form (see the
    class), taken as they are."""
    v = _new(SqrtSum)
    v._nums, v._den, v._est = nums, den, _UNSET
    return v


def _sqrt_sum(nums: dict[int, int], den: int) -> "SqrtSum":
    """``sum(n*sqrt(d) for d, n in nums.items())/den`` for squarefree keys
    in term order, nonzero integer numerators and an integer ``den >= 1``:
    their common factor is divided out."""
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {d: n // g for d, n in nums.items()}
        den //= g
    return _canonical(nums, den)


class SqrtSum:
    """An exact real number ``sum(n_d*sqrt(d))/den`` in canonical form.

    ``_nums`` maps each squarefree radicand ``d``, in term order, to a
    nonzero integer numerator ``n_d``; ``_den >= 1`` is their one
    denominator, and ``gcd(_den, *_nums.values()) == 1``, so the empty sum
    is ``({}, 1)``.  A ``SqrtSum`` is never mutated, and ``_est`` caches its
    ``_float_estimate``.
    """

    __slots__ = ("_nums", "_den", "_est")

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # Terms are assumed already canonical (squarefree keys, no zeros);
        # the public entry points are from_rational() and sqrt_rational().
        terms = terms or {}
        den = lcm(*(c.denominator for c in terms.values()))
        self._nums = {d: c.numerator * (den // c.denominator) for d, c in terms.items()}
        self._den = den
        self._est = _UNSET

    @classmethod
    def from_rational(cls, q: ExactLike) -> "SqrtSum":
        if isinstance(q, SqrtSum):
            return q
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        n = int(q.numerator)
        return _canonical({1: n}, int(q.denominator)) if n else _canonical({}, 1)

    @classmethod
    def sqrt_rational(cls, q: Rational | int) -> "SqrtSum":
        """Exact square root of a nonnegative rational: sqrt(a/b) = sqrt(ab)/b."""
        q = Fraction(q)
        if q < 0:
            raise ValueError(f"square root of negative rational {q}")
        if q == 0:
            return cls()
        s, d = squarefree_decompose(q.numerator * q.denominator)
        return _sqrt_sum({d: s}, q.denominator)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {d: Fraction(n, den) for d, n in self._nums.items()}

    @property
    def is_rational(self) -> bool:
        nums = self._nums
        return not nums or (len(nums) == 1 and 1 in nums)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._nums.get(1, 0), self._den)

    # -- arithmetic --------------------------------------------------------

    @_operand
    def __add__(self, other) -> "SqrtSum":
        if not other._nums:
            return self
        if not self._nums:
            return other
        a, b = self._den, other._den
        g = gcd(a, b)
        ma, mb = b // g, a // g  # both sums over lcm(a, b) = a*ma = b*mb
        nums = {d: n * ma for d, n in self._nums.items()}
        for d, n in other._nums.items():
            new = nums.get(d, 0) + n * mb
            if new:
                nums[d] = new
            else:
                nums.pop(d, None)
        return _sqrt_sum(nums, a * ma)

    __radd__ = __add__

    def __neg__(self) -> "SqrtSum":
        return _canonical({d: -n for d, n in self._nums.items()}, self._den)

    @_operand
    def __sub__(self, other) -> "SqrtSum":
        return self + (-other)

    @_operand
    def __rsub__(self, other) -> "SqrtSum":
        return other + (-self)

    @_operand
    def __mul__(self, other) -> "SqrtSum":
        nums: dict[int, int] = {}
        for d1, n1 in self._nums.items():
            for d2, n2 in other._nums.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd:
                # both factors squarefree and coprime, so the product radicand
                # is squarefree without any factoring.
                if d1 == d2:
                    g, d = d1, 1
                else:
                    g = gcd(d1, d2)
                    d = (d1 // g) * (d2 // g)
                new = nums.get(d, 0) + n1 * n2 * g
                if new:
                    nums[d] = new
                else:
                    nums.pop(d, None)
        return _sqrt_sum(nums, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SqrtSum":
        _check_int(exponent, "exponent", 0)
        if not exponent:
            return _canonical({1: 1}, 1)
        # Square-and-multiply with no squaring past the top bit.  The result
        # starts at the first factor, not at 1: 1 * p builds the same terms
        # in the same order, so only the wasted products go.
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def _conjugate_by_prime(self, p: int) -> "SqrtSum":
        """Negate every term whose radicand is divisible by the prime p."""
        return _canonical({d: (-n if d % p == 0 else n) for d, n in self._nums.items()}, self._den)

    def _reciprocal(self) -> "SqrtSum":
        """1/self for a nonzero rational self."""
        n = self._nums[1]
        return _canonical({1: self._den if n > 0 else -self._den}, abs(n))

    def inverse(self) -> "SqrtSum":
        if not self._nums:
            raise ZeroDivisionError("division by zero SqrtSum")
        num = _canonical({1: 1}, 1)
        den = self
        while not den.is_rational:
            d = next(r for r in den._nums if r != 1)
            p = min(factorint(d))  # d >= 2: a radicand other than 1
            conj = den._conjugate_by_prime(p)
            num = num * conj
            den = den * conj  # removes p from every radicand
        return num * den._reciprocal()

    @_operand
    def __truediv__(self, other) -> "SqrtSum":
        if other.is_rational:
            if not other._nums:
                raise ZeroDivisionError("division by zero SqrtSum")
            return self * other._reciprocal()
        return self * other.inverse()

    @_operand
    def __rtruediv__(self, other) -> "SqrtSum":
        return other / self

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
        nums = self._nums
        if not nums:
            return 0
        if len(nums) == 1:
            ((_, n),) = nums.items()
            return 1 if n > 0 else -1
        estimate = self._float_estimate()
        if estimate is not None:
            approx, err = estimate
            if abs(approx) > err:
                return 1 if approx > 0 else -1
        lo, _, _ = next(b for b in self._intervals() if b[0] > 0 or b[1] < 0)
        return 1 if lo > 0 else -1

    def _float_estimate(self) -> Optional[tuple[float, float]]:
        """``(approx, err)``: the float sum of the terms and a bound on its
        distance from the exact value, or None where no bound is proven;
        computed once per value.

        Each coefficient ``n/den`` (int true division, correctly rounded as
        ``float(Fraction(n, den))`` is), ``float(d)``, ``sqrt``, the product
        and each addition is correctly rounded, so with ``u = 2^-53`` a term
        is off by at most ``3.5u`` of its size and summing m terms adds at
        most ``(m-1)u`` of ``S = sum|terms|`` (Shewchuk-style bound);
        ``(m+4)*2^-52*S`` covers both with room to spare.  The bound assumes
        no underflow or overflow, so a coefficient that is not a normal
        float, an ``OverflowError``, or ``S`` outside ``(1e-290, 1e290)``
        yields None.  The empty sum is exactly ``(0.0, 0.0)``.
        """
        estimate = self._est
        if estimate is _UNSET:
            estimate = self._est = self._estimate()
        return estimate

    def _estimate(self) -> Optional[tuple[float, float]]:
        """``_float_estimate``, computed."""
        approx = size = 0.0
        den = self._den
        try:
            for d, n in self._nums.items():
                fc = n / den
                if not abs(fc) >= _FLOAT_MIN:
                    return None
                term = fc * sqrt(d)
                approx += term
                size += abs(term)
        except OverflowError:
            return None
        if self._nums and not 1e-290 < size < 1e290:
            return None
        return approx, (len(self._nums) + 4) * 2.0**-52 * size

    def _intervals(self):
        """Integers ``(lo, hi, scale)`` with ``lo/scale <= value <=
        hi/scale`` at 64, 128, 256, ... fractional bits: ``isqrt`` brackets
        of each ``sqrt(d)`` summed over the numerators.  The one refinement
        loop of ``sign``, ``__float__`` and ``__floor__``."""
        prec = 64
        while True:
            lo = hi = 0
            for d, a in self._nums.items():
                root = isqrt(d << (2 * prec))
                if a >= 0:
                    lo += a * root
                    hi += a * (root + 1)
                else:
                    lo += a * (root + 1)
                    hi += a * root
            yield lo, hi, self._den << prec
            prec *= 2

    @_operand
    def __eq__(self, other) -> bool:
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        # Rational values must hash like their Fraction so that mixed
        # dict/set use stays consistent with __eq__.
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self._den, frozenset(self._nums.items())))

    def _compare(self, other: "SqrtSum") -> int:
        """The sign of ``self - other``: from the float estimates when they
        are far enough apart, else exact.

        ``_float_estimate`` gives ``|a - A| <= ea`` and ``|b - B| <= eb`` for
        the exact values ``A, B``, so ``A - B`` is within ``ea + eb`` of ``a -
        b``.  With ``u = 2^-53``, the correctly rounded ``d = fl(a - b)`` has
        the sign of ``a - b`` and ``|d| <= (1 + u)|a - b|``, and ``fl(2*(ea +
        eb)) >= 2(1 - u)(ea + eb)``; all sizes stay below 1e291, so nothing
        overflows.  So ``|d| > fl(2*(ea + eb))`` gives ``|a - b| > 2(1 - u)/(1
        + u)*(ea + eb) >= ea + eb``, and ``A - B`` has the sign of ``d``.
        """
        x, y = self._float_estimate(), other._float_estimate()
        if x is not None and y is not None:
            d = x[0] - y[0]
            if abs(d) > 2 * (x[1] + y[1]):
                return 1 if d > 0 else -1
        return (self - other).sign()

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- conversion --------------------------------------------------------

    def __float__(self) -> float:
        """The value to a relative error below 2^-48.

        The plain float sum is returned when its error bound allows it;
        cancelling terms (coefficients far larger than the value) instead
        refine the ``isqrt`` interval until its relative width is below
        2^-60 and round its midpoint.
        """
        estimate = self._float_estimate()  # the empty sum's is (0.0, 0.0)
        if estimate is not None:
            approx, err = estimate
            if err <= 2.0**-48 * abs(approx):
                return approx
        lo, hi, scale = next(
            (lo, hi, s) for lo, hi, s in self._intervals()
            if (lo > 0 or hi < 0) and (hi - lo) << 60 < min(abs(lo), abs(hi))
        )
        return (lo + hi) / (2 * scale)  # correctly rounded, as float(Fraction) is

    def __floor__(self) -> int:
        """The largest integer <= the value (``math.floor``): a rational
        value's own floor, else the floor both ends of a refined interval
        share, as they do once it is narrow: an irrational is no integer."""
        if self.is_rational:
            return self._nums.get(1, 0) // self._den
        return next(lo // s for lo, hi, s in self._intervals() if lo // s == hi // s)

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        den = self._den
        parts = []
        for d in sorted(self._nums):
            n = self._nums[d]
            g = gcd(n, den)
            n, q = n // g, den // g  # the coefficient's Fraction, reduced
            c = str(n) if q == 1 else f"{n}/{q}"
            if d == 1:
                parts.append(c)
            elif c == "1":
                parts.append(f"sqrt({d})")
            elif c == "-1":
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
