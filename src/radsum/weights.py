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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .algebraic import SqrtSum
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
        for a, b in zip(self.values, self.values[1:]):
            if b > a:
                raise InputError("weights must be sorted descending")
        if self.n == 0:
            raise InputError("weight vector must have n >= 1")

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)


def _validate_mode(mode: str) -> str:
    if mode not in (EXACT, FLOAT):
        raise InputError(f"invalid input: unknown numeric mode {mode!r}")
    return mode


def _exact_value(entry, index: int) -> SqrtSum | Fraction:
    if isinstance(entry, bool):
        raise InputError(f"invalid input: bool entry at index {index}")
    if isinstance(entry, float):
        raise InputError(
            "invalid input: float values are not allowed in exact mode; "
            "pass ints/Fractions (or use float mode)"
        )
    if isinstance(entry, SqrtSum):
        if len(entry.terms) > 1:
            raise InputError(
                "invalid input: exact weights must have rational squares "
                f"(entry at index {index} has multiple radical terms)"
            )
        return entry
    if isinstance(entry, (int, Fraction)):
        return Fraction(entry)
    raise InputError(f"invalid input: unsupported exact entry type {type(entry).__name__}")


def canonicalize(raw: Sequence, mode: str = FLOAT) -> WeightVector:
    """Reduce a raw weight list to canonical form (abs, sort desc, unit norm).

    Raises ``DegenerateVectorError`` for all-zero input and ``InputError``
    for non-finite entries or (in exact mode) entries whose square is not
    rational.
    """
    mode = _validate_mode(mode)
    if len(raw) == 0:
        raise InputError("invalid input: empty weight list")

    if mode == FLOAT:
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
        return WeightVector(
            values=tuple(scaled),
            squares=tuple(v * v for v in scaled),
            mode=FLOAT,
            scale=norm,
        )

    entries = [_exact_value(e, i) for i, e in enumerate(raw)]
    norm_sq = Fraction(0)
    for e in entries:
        sq = e * e
        norm_sq += sq.as_fraction() if isinstance(sq, SqrtSum) else sq
    if norm_sq == 0:
        raise DegenerateVectorError("degenerate vector: all entries are zero")
    try:
        norm = SqrtSum.sqrt_rational(norm_sq)
    except ValueError as exc:
        raise InputError(f"invalid input: {exc}; use float mode") from None
    values: list[ExactValue] = []
    squares: list[Fraction] = []
    if norm.is_rational and all(isinstance(e, Fraction) for e in entries):
        nf = norm.as_fraction()
        for e in entries:
            x = abs(e) / nf
            values.append(x)
            squares.append(x * x)
    else:
        for e in entries:
            v = abs(SqrtSum.from_rational(e) if not isinstance(e, SqrtSum) else e)
            x = v / norm
            sq = (x * x).as_fraction()
            values.append(x.as_fraction() if x.is_rational else x)
            squares.append(sq)
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    return WeightVector(
        values=tuple(values[i] for i in order),
        squares=tuple(squares[i] for i in order),
        mode=EXACT,
        scale=norm.as_fraction() if norm.is_rational else norm,
    )


def from_squares(squares: Iterable, mode: str = EXACT) -> WeightVector:
    """Build a canonical vector from squared weights (normalized by their sum).

    This is the entry path for exact irrational weights: ``sq:1/2,1/2``
    means x = (1/sqrt2, 1/sqrt2).
    """
    mode = _validate_mode(mode)
    qs = [Fraction(q) for q in squares]
    if not qs:
        raise InputError("invalid input: empty squared-weight list")
    if any(q < 0 for q in qs):
        raise InputError("invalid input: squared weights must be nonnegative")
    total = sum(qs)
    if total == 0:
        raise DegenerateVectorError("degenerate vector: all entries are zero")
    qs = sorted((q / total for q in qs), reverse=True)
    if mode == FLOAT:
        vals = [math.sqrt(float(q)) for q in qs]
        return WeightVector(
            values=tuple(vals),
            squares=tuple(v * v for v in vals),
            mode=FLOAT,
            scale=math.sqrt(float(total)),
        )
    values = []
    try:
        for q in qs:
            x = SqrtSum.sqrt_rational(q)
            values.append(x.as_fraction() if x.is_rational else x)
        norm = SqrtSum.sqrt_rational(total)
    except ValueError as exc:
        raise InputError(f"invalid input: {exc}; use float mode") from None
    return WeightVector(
        values=tuple(values),
        squares=tuple(qs),
        mode=EXACT,
        scale=norm.as_fraction() if norm.is_rational else norm,
    )


def case_of(w: WeightVector) -> CaseTag:
    """case1 iff x1 + x2 > 1 (x2 taken as 0 for n = 1); comparison is exact
    in exact mode."""
    return CaseTag.CASE1 if w.x1 + w.x2 > 1 else CaseTag.CASE2


_SQ_TOKEN = re.compile(r"^\s*(\d+)\s*(?:/\s*(\d+))?\s*$")


def parse_weights(text: str) -> WeightVector:
    """Parse the shared weight-vector grammar.

    Two forms:

    * ``"0.8,0.6"`` - decimal list, float mode.
    * ``"sq:16/25,9/25"`` - squared-weight rationals, exact mode; each token
      is x_i^2 and the list is normalized to sum to 1, so this example means
      x = (4/5, 3/5) and ``sq:1/2,1/2`` means x = (1/sqrt2, 1/sqrt2).
    """
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
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            if den == 0:
                raise InputError(f"invalid input: zero denominator in {tok.strip()!r}")
            squares.append(Fraction(num, den))
        return from_squares(squares, mode=EXACT)
    parts = text.split(",")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(
            f"invalid input: bad decimal weight list {text!r} ({exc})"
        ) from None
    return canonicalize(vals, mode=FLOAT)
