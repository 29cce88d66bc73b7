"""Bound functions and per-instance lower-bound certificates.

Two proof routes, dispatched on whether x1 + x2 > 1:

* Case 1 splits off the two largest weights, leaving the tail r.  The target
  probability is at least (term2 + term4)/4 with the second-moment link
  term2 = 1 - m2/(1+x1-x2)^2 and the fourth-moment link
  term4 = 1 - m4/(1+x1+x2)^4, floored by 93/256.
* Case 2 partitions sign sequences by the first prefix that crosses
  1 - x_{k+1}.  The conditional success probability given a crossing at k is
  at least max(g_k, h_k) evaluated at x_{k+1}, where g_k comes from the
  sortedness bound on prefix mass and h_k from the Cauchy bound; both are
  floored by g_2(1/3) = 9/25 = 0.36.  Every exact weight x = c*sqrt(d)
  (d = 1 when rational) has a rational square q, and
  (2-x)^2 (2+x)^2 = (4-q)^2 makes g_k and h_k affine in x over Q, so exact
  weights take them in one integer closed form (``_g_h``) rather than
  through SqrtSum division or a chain of Fraction operations.  In exact
  mode the larger of the two is g_k iff (k+1)^2 q >= 1, a rational test
  (``_max_g_h``).

``hybrid_bound`` sharpens Case 2 with the exact event probabilities
``Pr(A_k)``, which the engine's partition walk gives without the joint
counts of ``prefix_partition``, and ``decomposition_check`` re-derives every
Case-1 chain link against the exact engine.  Certificates never self-claim
soundness: ``sound_against`` is the recomputed exact probability, which
``theorem_bound`` attaches when it runs the engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebraic import SqrtSum
from .engine import (
    DEFAULT_FULL_LIMIT,
    DEFAULT_MITM_LIMIT,
    _probability,
    _size_limit,
    _walk,
    signed_sum_count,
    threshold_probability,
)
from .errors import InputError, SoundnessError, WrongCaseError, _check_int
from .moments import tail_moments
from .render import render_number, renderer
from .weights import EXACT, CaseTag, Value, WeightVector, case_of

CASE1_FLOOR = Fraction(93, 256)
CASE2_FLOOR = Fraction(9, 25)
THEOREM_FLOOR = Fraction(9, 25)


def _coerce_x(x):
    if isinstance(x, bool):
        raise InputError("invalid input: bool is not a bound argument")
    if isinstance(x, int):
        return Fraction(x)
    return x


def g(k: int, x):
    """g_k(x) = (1 - (1 - k x^2) / (2 - x)^2) / 2 on x in [0, 1].

    Lower-bounds the conditional success probability through the tail
    second moment bounded by 1 - k x^2 (prefix weights all >= x_{k+1}).
    Exceeds 1 for large x, but stays below 1/2 wherever k x^2 < 1, as at
    every x_{k+1} a Case-2 certificate reads.
    """
    _check_int(k, "k", 2)
    x = _coerce_x(x)
    if x < 0 or x > 1:
        raise InputError(f"domain error: x must be in [0, 1], got {x}")
    den = (2 - x) ** 2
    return (1 - (1 - k * x * x) / den) / 2


def h(k: int, x):
    """h_k(x) = (1 - (1 - (1-x)^2/k) / (2 - x)^2) / 2 on x in [0, 1].

    Same shape with the tail second moment bounded by 1 - (1-x)^2/k (Cauchy
    bound on the prefix mass forced by the crossing).
    """
    _check_int(k, "k", 2)
    x = _coerce_x(x)
    if x < 0 or x > 1:
        raise InputError(f"domain error: x must be in [0, 1], got {x}")
    den = (2 - x) ** 2
    return (1 - (1 - (1 - x) ** 2 / k) / den) / 2


def _g_h(k: int, x, q):
    """``(g(k, x), h(k, x))`` for a canonical weight x with square q = x^2.

    An exact weight is x = c*sqrt(d) with c = cn/cd rational and d a
    squarefree integer (d = 1 for a rational weight); its square is
    q = P/Q.  As (2-x)^2 (2+x)^2 = (4-q)^2 and 4 - q >= 3, the definitions
    are affine in x over Q: g_k = g_r + g_s*x and h_k = h_r + h_s*x with,
    writing D2 = (4Q-P)^2,

        g_r = (D2 - (Q-kP)(4Q+P)) / (2 D2),
        g_s*c = -2(Q-kP) Q cn / (D2 cd),
        h_r = (k D2 - (kQ-Q-P)(4Q+P) - 8PQ) / (2k D2),
        h_s*c = -(2(k+1)Q - P) Q cn / (k D2 cd),

    each one ``Fraction`` of integers.  An irrational weight takes the
    canonical SqrtSum({1: r, d: s*c}) that the literal definitions also
    produce; a rational one folds r + s*c into one ``Fraction`` over
    2k D2 cd, kept as a SqrtSum when x is one.  Float weights keep the
    literal ``g``/``h``.
    """
    if isinstance(x, float):
        return g(k, x), h(k, x)
    if isinstance(x, SqrtSum) and not x.is_rational:
        ((d, c),) = x.terms.items()
    else:
        d, c = 1, x.as_fraction() if isinstance(x, SqrtSum) else x
    P, Q, cn, cd = q.numerator, q.denominator, c.numerator, c.denominator
    D2 = (4 * Q - P) ** 2
    A, B = Q - k * P, 4 * Q + P
    # numerators of g_r, g_s*c over g_den (times cd), of h_r, h_s*c over h_den
    g_den, g_r, g_s = 2 * D2, D2 - A * B, -4 * A * Q * cn
    h_den, h_r = 2 * k * D2, k * D2 - (k * Q - Q - P) * B - 8 * P * Q
    h_s = -2 * (2 * (k + 1) * Q - P) * Q * cn
    if d == 1:
        gv, hv = Fraction(g_r * cd + g_s, g_den * cd), Fraction(h_r * cd + h_s, h_den * cd)
        if not isinstance(x, SqrtSum):
            return gv, hv
        return SqrtSum.from_rational(gv), SqrtSum.from_rational(hv)
    return tuple(
        SqrtSum({t: v for t, v in ((1, Fraction(r, den)), (d, Fraction(s, den * cd))) if v})
        for r, s, den in ((g_r, g_s, g_den), (h_r, h_s, h_den))
    )


def _max_g_h(k: int, x, q, mode: str):
    """``(g_k, h_k, max(g_k, h_k))`` at the weight x with square q.

    g_k - h_k = ((k+1)x - 1)(1 + (k-1)x)/(2k(2-x)^2) (``explore.lemma_sweep``
    proves it for every k), which has the sign of (k+1)x - 1 on [0, 1]; in
    exact mode that is the rational test (k+1)^2 q >= 1.  At the crossing
    g_k = h_k, so either side of the test picks the same value.
    """
    gv, hv = _g_h(k, x, q)
    pick_g = (k + 1) ** 2 * q.numerator >= q.denominator if mode == EXACT else gv >= hv
    return gv, hv, gv if pick_g else hv


def crossing_point(k: int, *, check: bool = True) -> Fraction:
    """The unique x in [0, 1] with g_k(x) = h_k(x): x = 1/(k+1).

    With ``check`` the identity is re-evaluated exactly; failure would mean
    a broken formula, not a data problem.
    """
    _check_int(k, "k", 2)
    cp = Fraction(1, k + 1)
    if check and g(k, cp) != h(k, cp):
        raise SoundnessError(f"crossing identity failed at k={k}")
    return cp


def minmax_bound(k: int) -> Fraction:
    """min over [0,1] of max(g_k, h_k) = g_k(1/(k+1)), in closed form
    3k(k+1)/(2(2k+1)^2) = (3/8)(1 - 1/(2k+1)^2): 9/25 at k = 2, strictly
    increasing in k, with limit 3/8.  ``explore.lemma_sweep`` proves for
    every k that the minimum is at the crossing and has this value."""
    _check_int(k, "k", 2)
    return Fraction(3 * k * (k + 1), 2 * (2 * k + 1) ** 2)


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Case1Data:
    m2: Value
    m4: Value
    denom2: Value
    denom4: Value
    term2: Value
    term4: Value


@dataclass(frozen=True)
class Case2Entry:
    k: int
    x_next: Value
    g_value: Value
    h_value: Value
    max_value: Value  # in [9/25, 1/2): see case2_certificate


@dataclass(frozen=True)
class Case2Data:
    per_k: tuple[Case2Entry, ...]
    argmin_k: Optional[int]


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of the inequality chain applied to one
    instance and the certified lower bound it produced."""

    case: CaseTag
    final_bound: Value
    intermediates: Union[Case1Data, Case2Data]
    mode: str
    sound_against: Optional[Value] = None

    @property
    def floor(self) -> Fraction:
        return CASE1_FLOOR if self.case is CaseTag.CASE1 else CASE2_FLOOR

    def to_json_dict(self, render=None) -> dict:
        """The certificate as a JSON object.  ``render`` is the document's
        ``render.renderer``, by default a new one for this certificate: a
        maximum, the final bound and each ``x_next`` share the rendering of
        the g, h or weight object they are."""
        render = render or renderer(self.mode)
        doc: dict = {"case": self.case.value}
        if isinstance(self.intermediates, Case1Data):
            d = self.intermediates
            doc["intermediates"] = {
                name: render(getattr(d, name))
                for name in ("m2", "m4", "denom2", "denom4", "term2", "term4")
            }
        else:
            doc["intermediates"] = {
                "per_k": [
                    {
                        "k": e.k,
                        "x_next": render(e.x_next),
                        "g": render(e.g_value),
                        "h": render(e.h_value),
                        "max": render(e.max_value),
                    }
                    for e in self.intermediates.per_k
                ],
                "argmin_k": self.intermediates.argmin_k,
            }
        doc["final_bound"] = render(self.final_bound)
        if self.sound_against is not None:
            doc["sound_against"] = render(self.sound_against)
        return doc


def verify_certificate(cert: Certificate) -> None:
    """Raise SoundnessError if the certificate violates its floor or its
    attached exact probability."""
    if cert.final_bound < cert.floor:
        raise SoundnessError(
            f"certified bound {cert.final_bound} below the {cert.case.value} "
            f"floor {cert.floor}"
        )
    if cert.sound_against is not None and cert.final_bound > cert.sound_against:
        raise SoundnessError(
            f"certified bound {cert.final_bound} exceeds the exact probability "
            f"{cert.sound_against}"
        )


def _case1_terms(w: WeightVector) -> Case1Data:
    tm = tail_moments(w, 2)
    x1, x2 = w.values[0], w.values[1]
    denom2 = (1 + x1 - x2) ** 2
    denom4 = (1 + x1 + x2) ** 4
    term2 = 1 - tm.m2 / denom2
    term4 = 1 - tm.m4 / denom4
    return Case1Data(
        m2=tm.m2, m4=tm.m4, denom2=denom2, denom4=denom4, term2=term2, term4=term4
    )


def case1_certificate(w: WeightVector) -> Certificate:
    """Certificate for x1 + x2 > 1: final_bound = (term2 + term4)/4 >= 93/256."""
    if case_of(w) is not CaseTag.CASE1:
        raise WrongCaseError("not case 1: x1 + x2 <= 1")
    data = _case1_terms(w)
    final = (data.term2 + data.term4) / 4
    return Certificate(case=CaseTag.CASE1, final_bound=final, intermediates=data, mode=w.mode)


def case2_certificate(w: WeightVector) -> Certificate:
    """Certificate for x1 + x2 <= 1.

    For n <= 2 the sum can never leave [-1, 1], so the bound is 1.  Otherwise
    the bound is min over ALL k in {2..n-1} of max(g_k, h_k) at x_{k+1} -
    conservative whether or not the event A_k has positive probability,
    which keeps the certificate O(n) with no enumeration.  Each such max
    lies in [9/25, 1/2): sortedness gives (k+1) x_{k+1}^2 <= 1, so
    k x_{k+1}^2 < 1 and (1 - x_{k+1})^2/k < 1 keep g_k and h_k below 1/2,
    and ``minmax_bound`` is at least 9/25.
    """
    if case_of(w) is not CaseTag.CASE2:
        raise WrongCaseError("not case 2: x1 + x2 > 1")
    if w.n <= 2:
        return Certificate(
            case=CaseTag.CASE2,
            final_bound=Fraction(1) if w.mode == EXACT else 1.0,
            intermediates=Case2Data(per_k=(), argmin_k=None),
            mode=w.mode,
        )
    entries = []
    for k in range(2, w.n):
        x_next = w.values[k]
        gv, hv, mv = _max_g_h(k, x_next, w.squares[k], w.mode)
        entries.append(Case2Entry(k=k, x_next=x_next, g_value=gv, h_value=hv, max_value=mv))
    argmin = min(entries, key=lambda e: (e.max_value, e.k))
    return Certificate(
        case=CaseTag.CASE2,
        final_bound=argmin.max_value,
        intermediates=Case2Data(per_k=tuple(entries), argmin_k=argmin.k),
        mode=w.mode,
    )


def theorem_bound(
    w: WeightVector,
    *,
    exact_check="auto",
    limit: Optional[int] = None,
) -> Certificate:
    """Dispatch on the case of w; the resulting bound is >= 0.36 for every
    valid weight vector.

    ``exact_check`` is True, False, or "auto" (check when n is within
    the full-enumeration limit, where the engine is desk-fast in both
    modes, and within ``limit``).  When checking, the exact probability is
    attached as ``sound_against``.  The certificate is returned only when
    ``verify_certificate`` accepts it.
    """
    if isinstance(exact_check, str) and exact_check == "auto":
        do_check = w.n <= min(DEFAULT_FULL_LIMIT, _size_limit(limit, DEFAULT_MITM_LIMIT))
    elif exact_check is True or exact_check is False:
        do_check = exact_check
    else:
        raise InputError(
            f"invalid input: exact_check must be True, False or 'auto', got {exact_check!r}"
        )
    cert = case1_certificate(w) if case_of(w) is CaseTag.CASE1 else case2_certificate(w)
    if do_check:
        p = threshold_probability(w, Fraction(1) if w.mode == EXACT else 1.0, limit=limit)
        cert = dataclasses.replace(cert, sound_against=p)
    verify_certificate(cert)
    return cert


def hybrid_bound(w: WeightVector, *, limit: Optional[int] = None):
    """Exact-partition refinement of the Case-2 certificate:

        sum_k Pr(A_k) * max(g_k, h_k)(x_{k+1}) + Pr(A_n) * 1

    Sits between the O(n) certificate and the exact probability.  Only the
    event probabilities are needed, so only the partition walk runs, not
    the joint counts of ``prefix_partition``.
    """
    _size_limit(limit, DEFAULT_FULL_LIMIT)
    if case_of(w) is not CaseTag.CASE2:
        raise WrongCaseError("not case 2: x1 + x2 > 1")
    one = Fraction(1) if w.mode == EXACT else 1.0
    if w.n == 1:
        return one
    probs = _walk(w, limit).probs  # Pr(A_k) for k = 2..n
    total = one - one  # typed zero
    for k, p in zip(range(2, w.n), probs):
        if p == 0:
            continue
        total = total + p * _max_g_h(k, w.values[k], w.squares[k], w.mode)[2]
    total = total + probs[-1] * one
    return total


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the Case-1 splitting identity plus each moment link,
    all recomputed exactly."""

    lhs: Value            # Pr(|eps . x| <= 1)
    rhs: Value            # (p_plus + p_minus)/4
    p_plus: Value         # Pr(|r| <= 1 + x1 + x2)
    p_minus: Value        # Pr(|r| <= 1 + x1 - x2)
    t_plus: Value
    t_minus: Value
    term2: Value
    term4: Value
    mode: str

    def to_json_dict(self) -> dict:
        return {
            name: render_number(getattr(self, name), self.mode)
            for name in ("lhs", "rhs", "p_plus", "p_minus", "t_plus", "t_minus", "term2", "term4")
        }


def decomposition_check(w: WeightVector, *, limit: Optional[int] = None) -> DecompositionReport:
    """Verify the Case-1 chain against the exact engine.

    Checks LHS >= (p_plus + p_minus)/4 and each Chebyshev link
    (p_minus >= term2, p_plus >= term4); raises SoundnessError on any
    violation, otherwise returns the report.
    """
    if case_of(w) is not CaseTag.CASE1:
        raise WrongCaseError("not case 1: x1 + x2 <= 1")
    data = _case1_terms(w)
    x1, x2 = w.values[0], w.values[1]
    t_plus = 1 + x1 + x2
    t_minus = 1 + x1 - x2
    tail = w.values[2:]
    one = Fraction(1) if w.mode == EXACT else 1.0
    lhs = threshold_probability(w, one, limit=limit)
    p_plus = _probability(*signed_sum_count(tail, t_plus, w.mode, limit=limit), w.mode)
    p_minus = _probability(*signed_sum_count(tail, t_minus, w.mode, limit=limit), w.mode)
    rhs = (p_plus + p_minus) / 4
    report = DecompositionReport(
        lhs=lhs,
        rhs=rhs,
        p_plus=p_plus,
        p_minus=p_minus,
        t_plus=t_plus,
        t_minus=t_minus,
        term2=data.term2,
        term4=data.term4,
        mode=w.mode,
    )
    if lhs < rhs:
        raise SoundnessError(f"decomposition failed: LHS {lhs} < RHS {rhs}")
    if p_minus < data.term2:
        raise SoundnessError(
            f"second-moment link failed: Pr(|r| <= 1+x1-x2) = {p_minus} < term2 = {data.term2}"
        )
    if p_plus < data.term4:
        raise SoundnessError(
            f"fourth-moment link failed: Pr(|r| <= 1+x1+x2) = {p_plus} < term4 = {data.term4}"
        )
    return report
