"""Canonical weight vectors in exact-rational and float numeric modes.

The distribution of ``|eps . x|`` is invariant under sign flips of the
weights (absorbed by the symmetric signs), permutation, and scaling (which is
recorded rather than silently applied), so every vector is reduced to the
canonical form: nonnegative entries, sorted descending, unit L2 norm.

Exact mode stores weights whose squares are rational - i.e. values
``c*sqrt(d)`` - so that every boundary comparison downstream is tie-exact.
Float mode always renormalizes and never rejects on norm.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .algebraic import SqrtSum, _sqrt_sum, squarefree_decompose
from .errors import DegenerateVectorError, InputError, SoundnessError

EXACT = "exact"
FLOAT = "float"

FLOAT_NORM_TOL = 1e-12

ExactValue = Union[Fraction, SqrtSum]
Value = Union[Fraction, SqrtSum, float]


class CaseTag(enum.Enum):
    """Which branch of the proof applies: case1 iff x1 + x2 > 1."""

    CASE1 = "case1"
    CASE2 = "case2"


@dataclass(frozen=True)
class WeightVector:
    """Canonical weight vector: nonnegative, descending, unit L2 norm.

    ``values`` hold the weights themselves (Fraction/SqrtSum in exact mode,
    float in float mode); ``squares`` hold x_i^2, which in exact mode are
    always plain Fractions.  ``scale`` records the L2 norm of the raw input
    that was divided out.  Instances are immutable and safe to share.
    """

    values: tuple[Value, ...]
    squares: tuple[Union[Fraction, float], ...]
    mode: str
    scale: Value

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x1(self) -> Value:
        return self.values[0]

    @property
    def x2(self) -> Value:
        """Second-largest weight, taken as 0 when n == 1."""
        if self.n >= 2:
            return self.values[1]
        return Fraction(0) if self.mode == EXACT else 0.0

    def __post_init__(self):
        # Exact squares are Fractions, ordered as the nonnegative weights are
        # but compared without radical arithmetic.
        keys = self.squares if self.mode == EXACT else self.values
        if any(b > a for a, b in zip(keys, keys[1:])):
            raise InputError("weights must be sorted descending")
        if self.n == 0:
            raise InputError("weight vector must have n >= 1")

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)


def _validate_mode(mode: str) -> str:
    if mode not in (EXACT, FLOAT):
        raise InputError(f"invalid input: unknown numeric mode {mode!r}")
    return mode


def _exact_term(entry, index: int) -> tuple[Fraction, int]:
    """``(c, d)`` with ``entry == c*sqrt(d)`` and ``d`` squarefree."""
    if isinstance(entry, bool):
        raise InputError(f"invalid input: bool entry at index {index}")
    if isinstance(entry, float):
        raise InputError(
            "invalid input: float values are not allowed in exact mode; "
            "pass ints/Fractions (or use float mode)"
        )
    if isinstance(entry, SqrtSum):
        terms = entry._nums.items() or ((1, 0),)
        if len(terms) > 1:
            raise InputError(
                "invalid input: exact weights must have rational squares "
                f"(entry at index {index} has multiple radical terms)"
            )
        ((d, n),) = terms
        return Fraction(n, entry._den), d
    if isinstance(entry, (int, Fraction)):
        return Fraction(entry), 1
    raise InputError(f"invalid input: unsupported exact entry type {type(entry).__name__}")


def _canonical_floats(raw: Sequence) -> tuple[tuple[float, ...], float]:
    """The float-mode canonical values of ``raw`` and the norm divided out,
    without building a ``WeightVector``; raises as ``canonicalize`` does."""
    if len(raw) == 0:
        raise InputError("invalid input: empty weight list")
    vals = []
    for i, entry in enumerate(raw):
        v = float(entry)
        if not math.isfinite(v):
            raise InputError(f"invalid input: non-finite entry at index {i}")
        vals.append(abs(v))
    top = max(vals)
    if top == 0.0:
        raise DegenerateVectorError("degenerate vector: all entries are zero")
    norm_sq = math.fsum(v * v for v in vals)
    if abs(norm_sq - 1.0) <= FLOAT_NORM_TOL:
        # Already unit within tolerance: keep values bit-identical so
        # canonicalization is an exact fixed point.
        scaled = sorted(vals, reverse=True)
        norm = math.sqrt(norm_sq)
    else:
        # Pre-scale by the largest entry so the norm never over/underflows.
        ratios = [v / top for v in vals]
        r_norm = math.sqrt(math.fsum(v * v for v in ratios))
        scaled = sorted((v / r_norm for v in ratios), reverse=True)
        norm = top * r_norm
    norm_err = abs(math.fsum(v * v for v in scaled) - 1.0)
    if not norm_err <= FLOAT_NORM_TOL:
        raise SoundnessError(f"float renormalization left |x|^2 off 1 by {norm_err}")
    return tuple(scaled), norm


def canonicalize(raw: Sequence, mode: str = FLOAT) -> WeightVector:
    """Reduce a raw weight list to canonical form (abs, sort desc, unit norm).

    Raises ``DegenerateVectorError`` for all-zero input and ``InputError``
    for non-finite entries or (in exact mode) entries whose square is not
    rational.
    """
    mode = _validate_mode(mode)
    if mode == FLOAT:
        scaled, norm = _canonical_floats(raw)
        return WeightVector(
            values=scaled,
            squares=tuple(v * v for v in scaled),
            mode=FLOAT,
            scale=norm,
        )
    if len(raw) == 0:
        raise InputError("invalid input: empty weight list")

    qs, roots = [], []
    for i, entry in enumerate(raw):
        c, d = _exact_term(entry, i)
        qs.append(c * c * d)
        roots.append((abs(c.numerator), d, c.denominator))
    return _exact_vector(qs, roots.__getitem__)


def _squarefree_pair(a: int, b: int) -> tuple[int, int]:
    """``(s, d)`` with ``a*b == s*s*d`` and ``d`` squarefree, from the
    decompositions of ``a`` and ``b``: a product of squarefree ``d1*d2`` is
    ``g^2*(d1/g)*(d2/g)`` with ``g = gcd(d1, d2)``."""
    (s1, d1), (s2, d2) = squarefree_decompose(a), squarefree_decompose(b)
    return _squarefree_times(s1 * s2, d1, d2)


def _squarefree_times(s: int, d1: int, d2: int) -> tuple[int, int]:
    """``(s*g, (d1/g)*(d2/g))``, ``g = gcd(d1, d2)``: ``s^2*d1*d2`` as a
    square times a squarefree part, for squarefree ``d1`` and ``d2``."""
    g = math.gcd(d1, d2)
    return s * g, (d1 // g) * (d2 // g)


def _root(s: int, d: int, denom: int) -> ExactValue:
    """``s*sqrt(d)/denom`` for squarefree ``d`` and ``s > 0``, a Fraction
    when ``d == 1``."""
    return Fraction(s, denom) if d == 1 else _sqrt_sum({d: s}, denom)


def _exact_vector(qs: list[Fraction], root: Callable[[int], tuple[int, int, int]]) -> WeightVector:
    """The canonical vector of the weights ``sqrt(q_i / total)``: sorted by
    ``q_i``, with the total factored once.

    ``root(i)`` is ``(s, d, den)`` with ``sqrt(qs[i]) == s*sqrt(d)/den`` and
    ``d`` squarefree; it is called for the nonzero squares only, in sorted
    order, after the total is factored.
    """
    # the integers q*lcm(denominators) sort like the qs, compare in C and
    # sum to the total's numerator over lcm
    lcm = math.lcm(*(q.denominator for q in qs))
    keys = [q.numerator * (lcm // q.denominator) for q in qs]
    key_total = sum(keys)
    if key_total == 0:
        raise DegenerateVectorError("degenerate vector: all entries are zero")
    total = Fraction(key_total, lcm)
    order = sorted(range(len(qs)), key=keys.__getitem__, reverse=True)
    # sqrt(q/total) = sqrt(q)*sqrt(total.num*total.den)/total.num
    tn = total.numerator
    values = []
    try:
        ts, td = _squarefree_pair(tn, total.denominator)
        for i in order:
            if not qs[i]:
                values.append(Fraction(0))
                continue
            s, d, den = root(i)
            values.append(_root(*_squarefree_times(s * ts, d, td), den * tn))
        norm = _root(ts, td, total.denominator)
    except ValueError as exc:
        raise InputError(f"invalid input: {exc}; use float mode") from None
    return WeightVector(
        values=tuple(values),
        squares=tuple(Fraction(keys[i], key_total) for i in order),
        mode=EXACT,
        scale=norm,
    )


def from_squares(squares: Iterable, mode: str = EXACT) -> WeightVector:
    """Build a canonical vector from squared weights (normalized by their sum).

    This is the entry path for exact irrational weights: ``sq:1/2,1/2``
    means x = (1/sqrt2, 1/sqrt2).
    """
    mode = _validate_mode(mode)
    qs = [q if type(q) is Fraction else Fraction(q) for q in squares]
    if not qs:
        raise InputError("invalid input: empty squared-weight list")
    if any(q.numerator < 0 for q in qs):
        raise InputError("invalid input: squared weights must be nonnegative")
    if mode == EXACT:

        def root(i):  # sqrt(q) = sqrt(q.num*q.den)/q.den
            q = qs[i]
            return (*_squarefree_pair(q.numerator, q.denominator), q.denominator)

        return _exact_vector(qs, root)
    # a zero total means all zeros: canonicalize raises the degenerate error
    total = sum(qs)
    w = canonicalize([math.sqrt(float(q / (total or 1))) for q in qs], FLOAT)
    return replace(w, scale=math.sqrt(float(total)))


def case_of(w: WeightVector) -> CaseTag:
    """case1 iff x1 + x2 > 1 (x2 taken as 0 for n = 1); comparison is exact
    in exact mode."""
    return CaseTag.CASE1 if w.x1 + w.x2 > 1 else CaseTag.CASE2


_SQ_TOKEN = re.compile(r"^\s*(\d+)\s*(?:/\s*(\d+))?\s*$")


def parse_weights(text: str, mode: Optional[str] = None) -> WeightVector:
    """Parse the shared weight-vector grammar.

    Two forms:

    * ``"0.8,0.6"`` - decimal list, float mode.
    * ``"sq:16/25,9/25"`` - squared-weight rationals, exact mode; each token
      is x_i^2 and the list is normalized to sum to 1, so this example means
      x = (4/5, 3/5) and ``sq:1/2,1/2`` means x = (1/sqrt2, 1/sqrt2).

    ``mode`` overrides the mode the form implies: squared weights in float
    mode are ``from_squares(q, "float")``, never factored; a decimal list
    cannot be read in exact mode.
    """
    if mode is not None:
        mode = _validate_mode(mode)
    text = text.strip()
    if not text:
        raise InputError("invalid input: empty weight string")
    if text.startswith("sq:"):
        body = text[3:]
        tokens = [tok for tok in body.split(",")]
        if not any(tok.strip() for tok in tokens):
            raise InputError("invalid input: no squared-weight tokens after 'sq:'")
        squares = []
        for tok in tokens:
            m = _SQ_TOKEN.match(tok)
            if not m:
                raise InputError(
                    f"invalid input: bad squared-weight token {tok.strip()!r} "
                    "(expected a nonnegative rational like 9/25)"
                )
            try:
                num = int(m.group(1))
                den = int(m.group(2)) if m.group(2) else 1
            except ValueError:  # past Python's int-to-string digit limit
                raise InputError(
                    f"invalid input: squared-weight token of {len(tok.strip())} characters "
                    "has too many digits"
                ) from None
            if den == 0:
                raise InputError(f"invalid input: zero denominator in {tok.strip()!r}")
            squares.append(Fraction(num, den))
        return from_squares(squares, mode=mode or EXACT)
    parts = text.split(",")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(
            f"invalid input: bad decimal weight list {text!r} ({exc})"
        ) from None
    w = canonicalize(vals, mode=FLOAT)
    if mode == EXACT:
        raise InputError(
            "invalid input: decimal weights cannot be promoted to exact mode; "
            "use the sq: grammar"
        )
    return w
