"""Exact threshold probabilities and the Case-2 event partition.

Enumeration strategies:

* ``threshold_probability`` - meet-in-the-middle: each half becomes its
  sorted distinct signed sums with pattern counts (equal sums merged as they
  arise), and every distinct left sum counts its window of right sums with
  two binary searches, weighted by its pattern count.
* ``threshold_probability_naive`` - plain 2^n sweep (Gray-code incremental);
  kept as the independent oracle for the meet-in-the-middle path.
* ``sum_distribution`` and ``prefix_partition`` - a breadth-first frontier of
  numpy arrays: each depth tests all undecided prefix sums in one vector
  operation, settles the crossing ones in bulk by ``searchsorted`` into that
  depth's sorted tail sums and cumulative counts, and extends the rest by
  ``s - v`` and ``s + v`` (exact mode merges equal sums, with counts).

Numeric behavior: in exact mode every comparison is tie-exact.  When all
weights share one radicand - ``x_i = a_i*sqrt(D)/L`` with integers ``a_i``,
``D = 1`` for rational weights - every signed sum is ``s*sqrt(D)/L`` for an
integer ``s`` (int64 keys, Python ints past 2^62), and ``|s|*sqrt(D)/L <=
t`` becomes ``|s| <= c`` with an integer cut-off ``c`` from ``isqrt``, also
for ``t = r + q*sqrt(D)``.  Other weights and thresholds use ``SqrtSum``.

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
from functools import cached_property
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
# A merged half starts from the raw sums of its first _RAW_PREFIX values:
# merging at every step made float admissible_count 1.8x slower at n = 8 and
# 2x at n = 16 (185 vs 105 us, 350 vs 175 us); 4 to 12 measured alike.
_RAW_PREFIX = 8


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


def _int_cutoff(t, denom: int, radicand: int, strict: bool) -> Optional[int]:
    """The largest ``c`` with ``|s|*sqrt(radicand)/denom <= t`` (``< t`` when
    strict) iff ``|s| <= c``, for integers ``s``; -1 when no ``s`` qualifies,
    None unless ``t = r + q*sqrt(radicand)`` with rationals ``r >= 0, q``.

    Over a common denominator ``m`` of ``r, q`` the bound on ``|s|`` is ``y =
    (a + b/sqrt(radicand))/m`` for integers ``a`` and ``b >= 0``, so ``floor(y)
    = (a + isqrt(b^2 // radicand)) // m``, one less when strict and ``y`` is
    an integer.
    """
    terms = t.terms if isinstance(t, SqrtSum) else {1: t}
    r = Fraction(terms.get(1, 0))
    q = Fraction(terms.get(radicand, 0)) if radicand != 1 else Fraction(0)
    if not terms.keys() <= {1, radicand} or r < 0:
        return None
    m = math.lcm(r.denominator, q.denominator)
    a = q.numerator * (m // q.denominator) * denom
    b = r.numerator * (m // r.denominator) * denom
    root = math.isqrt(b * b // radicand)
    c, rem = divmod(a + root, m)
    return c - 1 if strict and not rem and root * root * radicand == b * b else c


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


def _merged_sums(values: Sequence, dtype, count_dtype) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct signed sums of ``values``, each accumulated in
    index order, and their pattern counts.  Float sums merge only when they
    compare equal (+0.0 with -0.0, whose later sums differ at most in the
    sign of a zero), so no later comparison of ``fl(l + r)`` changes."""
    k = min(len(values), _RAW_PREFIX)
    keys, counts = _merge_equal(_half_sums(values[:k], dtype), np.ones(1 << k, dtype=count_dtype))
    for v in values[k:]:
        keys, counts = _merge_equal(np.concatenate([keys - v, keys + v]), np.concatenate([counts, counts]))
    return keys, counts


# -- pair counting -----------------------------------------------------------


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
    below = np.less_equal if inclusive else np.less
    m = len(uniq)
    idx = np.searchsorted(uniq, bound - a, side="right" if inclusive else "left")
    while True:
        up = (idx < m) & below(a + uniq[np.minimum(idx, m - 1)], bound)
        down = (idx > 0) & ~below(a + uniq[idx - (idx > 0)], bound)
        if not (up.any() or down.any()):
            return idx
        idx += up
        idx -= down


def _count_pairs(values: Sequence, split: int, dtype, t, strict: bool) -> int:
    """Sign patterns with ``|l + r| <= t`` (``< t`` when strict), ``l`` and
    ``r`` sums of ``values[:split]`` and ``values[split:]``: the sum over
    distinct ``l`` of ``count(l) * window(right, l)``.  Float windows are
    refined so that each pair is tested as ``fl(l + r)``."""
    # pattern counts, their products and the total reach 2^n
    count_dtype = np.int64 if len(values) < 63 else object
    lkeys, lcounts = _merged_sums(values[:split], dtype, count_dtype)
    rkeys, rcounts = _merged_sums(values[split:], dtype, count_dtype)
    cum = np.concatenate([[0], np.cumsum(rcounts)])
    if dtype is np.float64:
        hi = _refine_prefix_len(rkeys, lkeys, t, inclusive=not strict)
        lo = _refine_prefix_len(rkeys, lkeys, -t, inclusive=strict)
        window = np.maximum(cum[hi] - cum[lo], 0)  # strict t == 0: empty
    else:
        window = _window_count(rkeys, cum, -t - lkeys, t - lkeys, strict)
    return int(np.sum(lcounts * window))


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
        return _count_pairs([float(v) for v in values], split, np.float64, t, strict), total

    reduced = _common_radical(values)
    if reduced is not None:
        ints, denom, radicand = reduced
        cutoff = _int_cutoff(t, denom, radicand, strict)
        if cutoff is not None:
            # Every partial sum is bounded by sum|ints|, so int64 is exact
            # while that bound plus the cut-off stays below 2^62.
            bound = sum(abs(a) for a in ints)
            cutoff = min(cutoff, bound)
            dtype = np.int64 if bound + cutoff < 1 << 62 else object
            return (_count_pairs(ints, split, dtype, cutoff, False) if cutoff >= 0 else 0), total
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


# -- signed-sum distributions -------------------------------------------------


def _walk_setup(w: WeightVector):
    """``(vals, one, zero, path, scale)``: the weights and 1 as keys, a zero
    key array, the key dtype's name and ``(L, D)`` for keys ``a_i`` of
    ``x_i = a_i*sqrt(D)/L``."""
    if w.mode == FLOAT:
        return [float(v) for v in w.values], 1.0, np.zeros(1), "float64", None
    reduced = _common_radical(w.values)
    if reduced is None:
        vals = [_as_exact(v) for v in w.values]
        return vals, Fraction(1), np.array([SqrtSum()], dtype=object), "SqrtSum", None
    ints, denom, radicand = reduced
    # For an integer m >= 0, m*sqrt(D)/L > 1 iff m > isqrt(L^2 // D).
    one = _int_cutoff(Fraction(1), denom, radicand, False)
    # Partial sums and the window ends +-one - s stay below 2^62 in int64.
    path = "int64" if sum(abs(a) for a in ints) + one < 1 << 62 else "object"
    return ints, one, np.zeros(1, dtype=path), path, (denom, radicand)


def _merge_equal(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``keys``, adding up the counts of equal keys (linear on two runs)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(first)
    return keys[first], np.add.reduceat(counts[order], first)


def _tail_distributions(vals: Sequence, zero: np.ndarray):
    """For k = len(vals)-1 down to 0: the sorted distinct signed sums of
    ``vals[k:]``, accumulated from the end, and their cumulative counts."""
    # pattern counts reach 2^len(vals): int64 below 2^63
    keys, counts = zero, np.ones(1, dtype=np.int64 if len(vals) < 63 else object)
    for v in reversed(vals):
        keys, counts = _merge_equal(np.concatenate([keys - v, keys + v]), np.concatenate([counts, counts]))
        yield keys, np.concatenate([[0], np.cumsum(counts)])


def _window_count(keys: np.ndarray, cum: np.ndarray, lo, hi, strict: bool = False):
    """Patterns whose sum lies in ``[lo, hi]`` (``(lo, hi)`` when strict),
    elementwise for arrays ``lo`` and ``hi``."""
    i = np.searchsorted(keys, hi, side="left" if strict else "right")
    j = np.searchsorted(keys, lo, side="right" if strict else "left")
    return cum[i] - cum[j]


@dataclass(frozen=True, eq=False)
class SumDistribution:
    """Complete distribution of eps . x: strictly increasing ``values`` with
    pattern ``counts`` summing to 2^n; symmetric about zero.  With ``scale =
    (L, D)`` a value is an integer ``s`` standing for ``s*sqrt(D)/L``;
    without, it is the float64 or ``SqrtSum`` sum itself."""

    values: np.ndarray
    counts: np.ndarray
    n: int
    mode: str
    scale: Optional[tuple[int, int]] = None

    @property
    def total(self) -> int:
        return 1 << self.n

    @cached_property
    def entries(self) -> tuple[tuple[Value, int], ...]:
        """``(value, count)`` pairs, rendered from the arrays on first use."""
        if self.mode == FLOAT:
            values = self.values.tolist()
        elif self.scale is None:
            values = [s.as_fraction() if s.is_rational else s for s in self.values]
        else:
            denom, rad = self.scale
            values = [
                SqrtSum({rad: Fraction(s, denom)}) if rad > 1 and s else Fraction(s, denom)
                for s in self.values.tolist()
            ]
        return tuple(zip(values, self.counts.tolist()))

    def probability(self, t, strict: bool = False):
        """Pr(|value| <= t) (or <) from two binary searches into the table;
        used to cross-check the counting engines."""
        t = _normalize_threshold(t, self.mode)
        _check_t_nonnegative(t)
        keys = self.values
        cutoff = _int_cutoff(t, *self.scale, strict) if self.scale else None
        if cutoff is not None:  # |s| <= cutoff, clamped into int64
            t, strict = min(cutoff, int(keys[-1])), False
        elif self.scale:
            keys = np.array([v for v, _ in self.entries], dtype=object)
        cum = np.concatenate([[0], np.cumsum(self.counts)])
        hits = max(int(_window_count(keys, cum, -t, t, strict)), 0)
        return Fraction(hits, self.total) if self.mode == EXACT else hits / self.total


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
        values, counts = np.unique(np.add.outer(left, right).ravel(), return_counts=True)
        return SumDistribution(values, counts.astype(np.int64), n, FLOAT)

    vals, _, zero, _, scale = _walk_setup(w)
    for keys, cum in _tail_distributions(vals, zero):
        pass
    return SumDistribution(keys, np.diff(cum), n, EXACT, scale)


# -- Case-2 event partition ---------------------------------------------------


@dataclass(frozen=True)
class PartitionStats:
    """How a partition was computed.  ``path`` is the key dtype: "int64",
    "object" (Python ints), "float64" or "SqrtSum".  ``frontier[d - 1]`` is
    the number of prefix sums at depth d = 1..n-1 (distinct sums in exact
    mode, sign prefixes in float mode) and ``settled[d - 1]`` how many of
    them were decided there.  Deterministic: no timings."""

    path: str
    frontier: tuple[int, ...]
    settled: tuple[int, ...]


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
    stats: Optional[PartitionStats] = None

    def prob(self, k: int):
        return self.probs[self.ks.index(k)]

    def joint(self, k: int):
        return self.joints[self.ks.index(k)]

    def cond(self, k: int):
        return self.conds[self.ks.index(k)]


def prefix_partition(w: WeightVector, *, limit: Optional[int] = None) -> PartitionReport:
    """Partition all 2^n sign sequences by the first prefix k in {2..n-1}
    with |s_k| > 1 - x_{k+1} (event A_k), defaulting to A_n.

    Requires Case 2 (x1 + x2 <= 1): only then does |s_1| <= 1 - x_2 hold
    surely and A_2..A_n cover the space.  A prefix sum leaves the frontier
    at the first depth that decides its event; the joint mass of everything
    settled at one depth is counted through that depth's tail distribution.
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
    vals, one, zero, path, _ = _walk_setup(w)
    # tails[k] covers coordinates k+1..n (0-based vals[k:])
    k_min = 1 if n == 2 else 2
    tails = dict(zip(range(n - 1, k_min - 1, -1), _tail_distributions(vals[k_min:], zero)))

    prob_count, joint_count = [0] * (n + 1), [0] * (n + 1)
    frontier, settled, groups = [], [], []

    # Global sign flip maps each event onto itself, so fix eps_1 = +1 and
    # double every count.  ``mult`` counts the sign prefixes behind each sum;
    # in float mode ``code`` holds each prefix's later signs (a set bit is a
    # minus), which orders the tie records.
    s = zero + vals[0]
    mult = np.ones(1, dtype=np.int64 if n < 63 else object)
    code = np.zeros(1, dtype=np.int64)
    for depth in range(1, n):
        frontier.append(len(s))
        cross = np.zeros(len(s), dtype=bool)
        if depth >= 2:
            b = one - vals[depth]
            cross = np.abs(s) > b
            if not exact:
                # only the first records of each kind, in tree order, can be kept
                tie = np.flatnonzero(np.abs(np.abs(s) - b) <= BOUNDARY_TIE_TOL)
                for i in tie[np.argsort(code[tie])[:_MAX_TIE_RECORDS]]:
                    groups.append((int(code[i]) << (n - 1 - depth), depth, 0, [("prefix", depth, float(s[i]))]))
        done = cross if depth < n - 1 else np.ones(len(s), dtype=bool)
        settled.append(int(np.count_nonzero(done)))
        if done.any():
            tkeys, cum = tails[depth]
            ss, mm = s[done], mult[done]
            joints = mm * _window_count(tkeys, cum, -one - ss, one - ss)
            for k, sel in ((depth, cross[done]), (n, ~cross[done])):
                prob_count[k] += int(mm[sel].sum()) << (n - depth)
                joint_count[k] += int(joints[sel].sum())
            if not exact:
                near = [
                    (np.searchsorted(tkeys, end - BOUNDARY_TIE_TOL, side="left"),
                     np.searchsorted(tkeys, end + BOUNDARY_TIE_TOL, side="right"))
                    for end in (-one - ss, one - ss)
                ]
                codes = code[done]
                tie = np.flatnonzero(sum(hi - lo for lo, hi in near))
                for i in tie[np.argsort(codes[tie])[:_MAX_TIE_RECORDS]]:
                    records = [("final", depth, float(ss[i] + v)) for lo, hi in near for v in tkeys[lo[i]:hi[i]]]
                    groups.append((int(codes[i]) << (n - 1 - depth), depth, 1, records))
        if depth == n - 1:
            break
        keep = ~cross
        v = vals[depth]
        s = np.concatenate([s[keep] - v, s[keep] + v])
        mult = np.concatenate([mult[keep], mult[keep]])
        if exact:
            s, mult = _merge_equal(s, mult)
        else:
            code = np.concatenate([2 * code[keep] + 1, 2 * code[keep]])

    total = 1 << n
    mass = 2 * sum(prob_count)
    if mass != total:
        raise SoundnessError(f"partition mass {mass} != 2^{n}: events A_2..A_n do not cover")
    # Tie records in the depth-first preorder of the sign tree, + branch
    # first; a node's records are kept whole while the cap is not reached.
    ties: list = []
    for *_, records in sorted(groups, key=lambda g: g[:3]):
        ties += records if len(ties) < _MAX_TIE_RECORDS else []
    ks = tuple(range(2, n + 1))
    ratio = (lambda c: Fraction(2 * c, total)) if exact else (lambda c: 2 * c / total)
    probs = tuple(ratio(prob_count[k]) for k in ks)
    joints = tuple(ratio(joint_count[k]) for k in ks)
    conds = tuple((j / p if p else None) for p, j in zip(probs, joints))
    return PartitionReport(
        n, w.mode, ks, probs, joints, conds, ratio(sum(joint_count)), tuple(ties),
        PartitionStats(path, tuple(frontier), tuple(settled)),
    )
