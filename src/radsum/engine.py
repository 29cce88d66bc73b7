"""Exact threshold probabilities and the Case-2 event partition.

Enumeration strategies:

* ``threshold_probability`` - meet-in-the-middle: enumerate all signed sums
  of each half, sort one half, count admissible pairs with binary searches.
* ``threshold_probability_naive`` - plain 2^n sweep (Gray-code incremental);
  kept as the independent oracle for the meet-in-the-middle path.
* ``prefix_partition`` - prefix-tree walk over sign sequences with pruning:
  once a branch's event index is decided, its subtree resolves through a
  precomputed tail-sum distribution instead of being expanded.

Numeric behavior: in exact mode every comparison is tie-exact.  When all
weights share one radicand - ``x_i = a_i*sqrt(D)/L`` with integers ``a_i``,
``D = 1`` for rational weights - every signed sum is ``s*sqrt(D)/L`` for an
integer ``s``, and ``|s|*sqrt(D)/L <= t`` becomes ``|s| <= c`` with an
integer cut-off ``c`` from ``isqrt``; the meet-in-the-middle count then runs
on int64 arrays (Python ints past 2^62), and the partition walk's test
``|s_k| > 1 - x_{k+1}`` becomes ``|s| + a_{k+1} > isqrt(L^2 // D)``.  Only
weights spanning several radicands, or a radical threshold, compare exact
``SqrtSum`` values.

In float mode a signed sum is evaluated as ``fl(left_half + right_half)``
with each half accumulated in index order, comparisons are exact float
comparisons with no epsilon, and the partition report flags sums within
1e-12 of a decision boundary so tie-sensitive results are visible.  Results
are deterministic: every reduction is an integer count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .algebraic import SqrtSum
from .errors import InputError, SizeLimitError, SoundnessError, WrongCaseError
from .weights import CaseTag, EXACT, FLOAT, Value, WeightVector, case_of

DEFAULT_FULL_LIMIT = 24
DEFAULT_MITM_LIMIT = 40
BOUNDARY_TIE_TOL = 1e-12
_MAX_TIE_RECORDS = 200


@dataclass(frozen=True)
class SignPattern:
    """One sign assignment eps in {-1,+1}^n packed as a bit mask: bit i set
    means eps_i = +1."""

    mask: int
    n: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n):
            raise InputError(f"mask {self.mask} does not fit in {self.n} bits")

    def sign(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise InputError(f"index {i} out of range for n={self.n}")
        return 1 if (self.mask >> i) & 1 else -1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if (self.mask >> i) & 1 else -1 for i in range(self.n))

    def signed_sum(self, values: Sequence):
        """eps . values for this assignment (exact when values are exact)."""
        if len(values) != self.n:
            raise InputError(f"expected {self.n} values, got {len(values)}")
        total = values[0] - values[0]  # typed zero
        for i, v in enumerate(values):
            total = total + v if (self.mask >> i) & 1 else total - v
        return total

    @classmethod
    def all(cls, n: int):
        """Iterate all 2^n patterns, each exactly once."""
        for mask in range(1 << n):
            yield cls(mask=mask, n=n)


# -- threshold normalization ------------------------------------------------


def _normalize_threshold(t, mode: str):
    if mode == FLOAT:
        try:
            tf = float(t)
        except (TypeError, ValueError):
            raise InputError(f"invalid input: threshold {t!r} is not a number") from None
        if not math.isfinite(tf):
            raise InputError("invalid input: threshold must be finite")
        return tf
    if isinstance(t, float):
        raise InputError(
            "invalid input: float threshold in exact mode; pass an int/Fraction"
        )
    if isinstance(t, SqrtSum):
        return t
    if isinstance(t, (int, Fraction)):
        return Fraction(t)
    raise InputError(f"invalid input: unsupported threshold type {type(t).__name__}")


def _check_t_nonnegative(t):
    if t < 0:
        raise InputError("invalid input: threshold t must be >= 0")


# -- shared-radicand reduction ------------------------------------------------


def _common_radical(values: Sequence[Value]) -> Optional[tuple[list[int], int, int]]:
    """``(ints, L, D)`` with ``values[i] == ints[i]*sqrt(D)/L`` and ``D``
    squarefree, or None when the values span more than one radicand.

    ``D == 1`` is the all-rational case; ``D > 1`` covers every vector whose
    nonzero entries are one-term radicals over the same ``D`` (for example
    ``canonicalize(ints, "exact")`` with an irrational norm).  Every signed
    sum of such values is ``s*sqrt(D)/L`` for an integer ``s``.
    """
    radicand = None
    coeffs = []
    for v in values:
        if isinstance(v, SqrtSum):
            terms = v.terms
            if len(terms) > 1:
                return None
            d, c = next(iter(terms.items()), (1, Fraction(0)))
        elif isinstance(v, (int, Fraction)):
            d, c = 1, Fraction(v)
        else:
            return None
        if c:
            if radicand is None:
                radicand = d
            elif d != radicand:
                return None
        coeffs.append(c)
    denom = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (denom // c.denominator) for c in coeffs], denom, radicand or 1


def _int_cutoff(t: Fraction, denom: int, radicand: int, strict: bool) -> int:
    """The largest ``c`` with ``|s|*sqrt(radicand)/denom <= t`` (``< t`` when
    strict) iff ``|s| <= c``, for integers ``s``; -1 when no ``s`` qualifies.

    Squaring gives ``s^2 * radicand * td^2 <= (tn*denom)^2`` for ``t = tn/td
    >= 0``, so the cut-off is an integer square root.
    """
    x = (t.numerator * denom) ** 2
    y = radicand * t.denominator ** 2
    if strict:
        return math.isqrt(-(-x // y) - 1) if x else -1
    return math.isqrt(x // y)


def _as_exact(value) -> Union[Fraction, SqrtSum]:
    if isinstance(value, SqrtSum):
        return value
    return Fraction(value)


# -- half-sum generation -----------------------------------------------------


def _half_sums(values: Sequence, dtype) -> np.ndarray:
    """All 2^len(values) signed sums, each accumulated in index order."""
    sums = np.zeros(1, dtype=dtype)
    for v in values:
        sums = np.concatenate([sums - v, sums + v])
    return sums


# -- pair counting -----------------------------------------------------------


def _count_within(ints: Sequence[int], split: int, cutoff: int) -> int:
    """Sign patterns with ``|eps . ints| <= cutoff``: the right half's sums
    sorted once, two ``searchsorted`` calls for all left sums.

    Every partial sum is bounded by ``sum|ints|``, so int64 is exact while
    that bound plus the cut-off stays below 2^62; beyond it the same code
    runs on Python ints in object arrays.
    """
    if cutoff < 0:
        return 0
    bound = sum(abs(a) for a in ints)
    cutoff = min(cutoff, bound)
    dtype = np.int64 if bound + cutoff < 1 << 62 else object
    # Sorted needles keep successive binary searches in the same cache lines.
    left = np.sort(_half_sums(ints[:split], dtype))
    right = np.sort(_half_sums(ints[split:], dtype))
    hi = np.searchsorted(right, cutoff - left, side="right")
    lo = np.searchsorted(right, -cutoff - left, side="left")
    return int(np.sum(hi - lo))


def _count_pairs_exact(left, right_sorted, t, strict: bool) -> int:
    total = 0
    for sl in left:
        lo = -t - sl
        hi = t - sl
        if strict:
            # (lo, hi) is empty when t == 0; the prefix subtraction would
            # go negative on sums equal to the endpoint.
            count = bisect_left(right_sorted, hi) - bisect_right(right_sorted, lo)
            if count > 0:
                total += count
        else:
            total += bisect_right(right_sorted, hi) - bisect_left(right_sorted, lo)
    return total


def _refine_prefix_len(uniq: np.ndarray, a: np.ndarray, bound: float, inclusive: bool) -> np.ndarray:
    """Per left-sum a_i, the count of unique right values u with
    fl(a_i + u) <= bound (inclusive) or < bound (strict).

    searchsorted against fl(bound - a) can be off by a few distinct values
    because of rounding; since u -> fl(a+u) is weakly increasing the target
    set is a prefix, so local adjustment converges.
    """
    m = len(uniq)
    idx = np.searchsorted(uniq, bound - a, side="right" if inclusive else "left")
    while True:
        moved = False
        up = idx < m
        if up.any():
            probe = a[up] + uniq[np.minimum(idx[up], m - 1)]
            ok = (probe <= bound) if inclusive else (probe < bound)
            if ok.any():
                sel = np.flatnonzero(up)[ok]
                idx[sel] += 1
                moved = True
        down = idx > 0
        if down.any():
            probe = a[down] + uniq[idx[down] - 1]
            bad = (probe > bound) if inclusive else (probe >= bound)
            if bad.any():
                sel = np.flatnonzero(down)[bad]
                idx[sel] -= 1
                moved = True
        if not moved:
            return idx


def _count_pairs_float(left: np.ndarray, right: np.ndarray, t: float, strict: bool) -> int:
    uniq, counts = np.unique(right, return_counts=True)
    cum = np.concatenate([[0], np.cumsum(counts)])
    hi_idx = _refine_prefix_len(uniq, left, t, inclusive=not strict)
    lo_idx = _refine_prefix_len(uniq, left, -t, inclusive=strict)
    # strict t == 0 makes the window empty; clamp the per-element count
    return int(np.sum(np.maximum(cum[hi_idx] - cum[lo_idx], 0)))


# -- public operations -------------------------------------------------------


def signed_sum_probability(
    values: Sequence[Value],
    t,
    mode: str,
    strict: bool = False,
    *,
    limit: Optional[int] = None,
):
    """Pr(|sum of +-values| <= t) for a raw (not necessarily canonical) list.

    Meet-in-the-middle; exact rational result in exact mode, float quotient
    of exact integer counts in float mode.
    """
    hits, total = signed_sum_count(values, t, mode, strict, limit=limit)
    if mode == EXACT:
        return Fraction(hits, total)
    return hits / total


def signed_sum_count(
    values: Sequence[Value],
    t,
    mode: str,
    strict: bool = False,
    *,
    limit: Optional[int] = None,
) -> tuple[int, int]:
    """(admissible count, 2^n) behind :func:`signed_sum_probability`."""
    n = len(values)
    limit = DEFAULT_MITM_LIMIT if limit is None else limit
    if n > limit:
        raise SizeLimitError(n, limit, "meet-in-the-middle")
    t = _normalize_threshold(t, mode)
    _check_t_nonnegative(t)
    total = 1 << n
    if n == 0:
        zero_ok = (0 < t) if strict else True  # |0| <= t always for t >= 0
        return (1 if zero_ok else 0, 1)
    split = n - n // 2

    if mode == FLOAT:
        vals = [float(v) for v in values]
        left = _half_sums(vals[:split], np.float64)
        right = _half_sums(vals[split:], np.float64)
        hits = _count_pairs_float(left, right, t, strict)
        return hits, total

    reduced = _common_radical(values) if isinstance(t, Fraction) else None
    if reduced is not None:
        ints, denom, radicand = reduced
        return _count_within(ints, split, _int_cutoff(t, denom, radicand, strict)), total
    exact_vals = [_as_exact(v) for v in values]
    left = _half_sums(exact_vals[:split], object)
    right = sorted(_half_sums(exact_vals[split:], object))
    hits = _count_pairs_exact(left, right, t, strict)
    return hits, total


def threshold_probability(
    w: WeightVector,
    t=1,
    strict: bool = False,
    *,
    limit: Optional[int] = None,
):
    """Pr(|eps . x| <= t), or < t when strict, by meet-in-the-middle.

    Exact rational in exact mode; in float mode an exact dyadic count/2^n.
    """
    return signed_sum_probability(w.values, t, w.mode, strict, limit=limit)


def admissible_count(
    w: WeightVector,
    t=1,
    strict: bool = False,
    *,
    limit: Optional[int] = None,
) -> tuple[int, int]:
    """(number of admissible sign patterns, 2^n)."""
    return signed_sum_count(w.values, t, w.mode, strict, limit=limit)


def threshold_probability_naive(
    w: WeightVector,
    t=1,
    strict: bool = False,
    *,
    limit: Optional[int] = None,
):
    """Full 2^n enumeration; the oracle the meet-in-the-middle path is
    checked against."""
    n = w.n
    limit = DEFAULT_FULL_LIMIT if limit is None else limit
    if n > limit:
        raise SizeLimitError(n, limit, "full-enumeration")
    t = _normalize_threshold(t, w.mode)
    _check_t_nonnegative(t)
    total = 1 << n

    if w.mode == FLOAT:
        vals = [float(v) for v in w.values]
        split = n - n // 2
        left = _half_sums(vals[:split], np.float64)
        right = _half_sums(vals[split:], np.float64)
        sums = np.abs(np.add.outer(left, right)).ravel()
        hits = int(np.count_nonzero(sums < t if strict else sums <= t))
        return hits / total

    # Only rational weights take the integer walk: it compares with t
    # directly, never through the square-root cut-off of the MITM path, so
    # one-radicand weights are checked against radical arithmetic below.
    reduced = _common_radical(w.values) if isinstance(t, Fraction) else None
    if reduced is not None and reduced[2] == 1:
        ints, denom, _ = reduced
        c = t.numerator * denom
        td = t.denominator
        signs = [1] * n
        s = sum(ints)
        hits = 0
        for i in range(total):
            if i:
                j = (i & -i).bit_length() - 1
                signs[j] = -signs[j]
                s += 2 * signs[j] * ints[j]
            v = s * td
            if (-c < v < c) if strict else (-c <= v <= c):
                hits += 1
        return Fraction(hits, total)

    # Radical weights take the plain pattern walk; this path only runs for
    # small n, where re-summing per pattern is fine.
    exact_vals = [_as_exact(v) for v in w.values]
    hits = 0
    for pattern in SignPattern.all(n):
        s = pattern.signed_sum(exact_vals)
        inside = (-t < s < t) if strict else (-t <= s <= t)
        if inside:
            hits += 1
    return Fraction(hits, total)


# -- full sum distribution ----------------------------------------------------


def _convolve(dist: dict, v) -> dict:
    """Counts of ``s - v`` and ``s + v`` over the sums ``s`` of ``dist``: the
    distribution after one more signed coordinate."""
    nxt: dict = {}
    for s, c in dist.items():
        for cand in (s - v, s + v):
            nxt[cand] = nxt.get(cand, 0) + c
    return nxt


@dataclass(frozen=True)
class SumDistribution:
    """Complete distribution of eps . x: strictly increasing values with
    pattern counts summing to 2^n; symmetric about zero."""

    entries: tuple[tuple[Value, int], ...]
    n: int
    mode: str

    @property
    def total(self) -> int:
        return 1 << self.n

    def probability(self, t, strict: bool = False):
        """Pr(|value| <= t) (or <) recomputed from the table; used to
        cross-check the counting engines."""
        t = _normalize_threshold(t, self.mode)
        _check_t_nonnegative(t)
        hits = 0
        for v, c in self.entries:
            av = -v if v < 0 else v
            if (av < t) if strict else (av <= t):
                hits += c
        if self.mode == EXACT:
            return Fraction(hits, self.total)
        return hits / self.total


def sum_distribution(w: WeightVector, *, limit: Optional[int] = None) -> SumDistribution:
    """Explicit distribution of eps . x by full enumeration.

    Worst-case memory is the number of distinct sums (up to 2^n for generic
    weights), so the full-enumeration limit applies.
    """
    n = w.n
    limit = DEFAULT_FULL_LIMIT if limit is None else limit
    if n > limit:
        raise SizeLimitError(n, limit, "full-enumeration")

    if w.mode == FLOAT:
        vals = [float(v) for v in w.values]
        split = n - n // 2
        left = _half_sums(vals[:split], np.float64)
        right = _half_sums(vals[split:], np.float64)
        sums = np.add.outer(left, right).ravel()
        uniq, counts = np.unique(sums, return_counts=True)
        entries = tuple((float(v), int(c)) for v, c in zip(uniq, counts))
        return SumDistribution(entries=entries, n=n, mode=FLOAT)

    reduced = _common_radical(w.values)
    if reduced is not None:
        ints, denom, radicand = reduced
        dist: dict[int, int] = {0: 1}
        for a in ints:
            dist = _convolve(dist, a)

        def value(s: int) -> Value:  # s*sqrt(D)/L
            q = Fraction(s, denom)
            return q if radicand == 1 or not s else SqrtSum({radicand: q})

        entries = tuple((value(s), dist[s]) for s in sorted(dist))
        return SumDistribution(entries=entries, n=n, mode=EXACT)

    gen: dict[SqrtSum, int] = {SqrtSum(): 1}
    for v in w.values:
        gen = _convolve(gen, v)
    ordered = sorted(gen)
    entries = tuple(
        (s.as_fraction() if s.is_rational else s, gen[s]) for s in ordered
    )
    return SumDistribution(entries=entries, n=n, mode=EXACT)


# -- Case-2 event partition ---------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    """Per-event probabilities of the stopping-time partition A_2..A_n.

    ``probs[i]``, ``joints[i]`` and ``conds[i]`` belong to event A_{ks[i]};
    ``conds[i]`` is None when the event has probability zero.  In float mode
    ``boundary_ties`` lists (kind, depth, value) for sums within 1e-12 of a
    decision boundary - those assignments are tie-sensitive.
    """

    n: int
    mode: str
    ks: tuple[int, ...]
    probs: tuple
    joints: tuple
    conds: tuple
    total_prob: Union[Fraction, float]
    boundary_ties: tuple = ()

    def prob(self, k: int):
        return self.probs[self.ks.index(k)]

    def joint(self, k: int):
        return self.joints[self.ks.index(k)]

    def cond(self, k: int):
        return self.conds[self.ks.index(k)]


class _TailCounter:
    """Sorted tail-sum values with cumulative counts for O(log) range counts."""

    __slots__ = ("values", "cum")

    def __init__(self, dist: dict):
        self.values = sorted(dist)
        self.cum = [0]
        for v in self.values:
            self.cum.append(self.cum[-1] + dist[v])

    def count_range(self, lo, hi) -> int:
        return self.cum[bisect_right(self.values, hi)] - self.cum[bisect_left(self.values, lo)]

    def near(self, point, tol: float) -> list:
        out = []
        i = bisect_left(self.values, point - tol)
        while i < len(self.values) and self.values[i] <= point + tol:
            out.append(self.values[i])
            i += 1
        return out


def prefix_partition(w: WeightVector, *, limit: Optional[int] = None) -> PartitionReport:
    """Partition all 2^n sign sequences by the first prefix k in {2..n-1}
    with |s_k| > 1 - x_{k+1} (event A_k), defaulting to A_n.

    Requires Case 2 (x1 + x2 <= 1): only then does |s_1| <= 1 - x_2 hold
    surely and A_2..A_n cover the space.  Branches are pruned as soon as an
    event index is decided; the surviving joint mass is counted through the
    tail-sum distribution of the remaining coordinates.
    """
    n = w.n
    limit = DEFAULT_FULL_LIMIT if limit is None else limit
    if n > limit:
        raise SizeLimitError(n, limit, "full-enumeration")
    if n < 2:
        raise InputError("prefix_partition requires n >= 2")
    if case_of(w) is CaseTag.CASE1:
        raise WrongCaseError("not case 2: x1 + x2 > 1, events A_2..A_n do not cover")

    exact = w.mode == EXACT
    reduced = _common_radical(w.values) if exact else None
    ties: list = []

    if reduced is not None:
        # x_i = a_i*sqrt(D)/L, and for an integer m >= 0, m*sqrt(D)/L > 1 iff
        # m > isqrt(L^2 // D): both the prefix test |s| + a_{k+1} > one and
        # the final window |s + tail| <= one stay integer comparisons.
        vals, denom, radicand = reduced
        one = _int_cutoff(Fraction(1), denom, radicand, False)
        zero = 0
    elif exact:
        vals = [_as_exact(v) for v in w.values]
        one = Fraction(1)
        zero = SqrtSum()
    else:
        vals = [float(v) for v in w.values]
        one = 1.0
        zero = 0.0

    # bounds[j] is the cutoff for |s_j| at depth j (1-based), j in 2..n-1
    bounds = {j: one - vals[j] for j in range(2, n)}

    # tail distributions: tails[k] covers coordinates k+1..n (0-based vals[k:])
    k_min = 1 if n == 2 else 2
    tails: dict[int, _TailCounter] = {}
    dist: dict = {zero: 1}
    for k in range(n - 1, k_min - 1, -1):
        dist = _convolve(dist, vals[k])
        tails[k] = _TailCounter(dist)

    prob_count = {k: 0 for k in range(2, n + 1)}
    joint_count = {k: 0 for k in range(2, n + 1)}

    def settle(event_k: int, depth: int, s) -> None:
        prob_count[event_k] += 1 << (n - depth)
        tc = tails[depth]
        lo = -one - s
        hi = one - s
        joint_count[event_k] += tc.count_range(lo, hi)
        if not exact and len(ties) < _MAX_TIE_RECORDS:
            for endpoint in (lo, hi):
                for v in tc.near(endpoint, BOUNDARY_TIE_TOL):
                    ties.append(("final", depth, float(s + v)))

    # Global sign flip maps each event onto itself, so fix eps_1 = +1 and
    # double every count.
    stack: list[tuple[int, object]] = [(1, vals[0])]
    while stack:
        depth, s = stack.pop()
        if depth >= 2:
            b = bounds[depth]
            mag = -s if s < 0 else s
            if not exact and len(ties) < _MAX_TIE_RECORDS and abs(mag - b) <= BOUNDARY_TIE_TOL:
                ties.append(("prefix", depth, float(s)))
            if mag > b:
                settle(depth, depth, s)
                continue
        if depth == n - 1:
            settle(n, depth, s)
            continue
        v = vals[depth]
        stack.append((depth + 1, s - v))
        stack.append((depth + 1, s + v))

    total = 1 << n
    mass = 2 * sum(prob_count.values())
    if mass != total:
        raise SoundnessError(f"partition mass {mass} != 2^{n}: events A_2..A_n do not cover")
    ks = tuple(range(2, n + 1))
    if exact:
        probs = tuple(Fraction(2 * prob_count[k], total) for k in ks)
        joints = tuple(Fraction(2 * joint_count[k], total) for k in ks)
    else:
        probs = tuple(2 * prob_count[k] / total for k in ks)
        joints = tuple(2 * joint_count[k] / total for k in ks)
    conds = tuple(
        (j / p if p else None) for p, j in zip(probs, joints)
    )
    total_joint = 2 * sum(joint_count.values())
    total_prob = Fraction(total_joint, total) if exact else total_joint / total
    return PartitionReport(
        n=n,
        mode=w.mode,
        ks=ks,
        probs=probs,
        joints=joints,
        conds=conds,
        total_prob=total_prob,
        boundary_ties=tuple(ties),
    )
