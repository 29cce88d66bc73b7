"""Exact threshold probabilities and the Case-2 event partition.

Enumeration strategies:

* Signed-sum tables - every table of signed sums (a half, a tail) is
  symmetric about zero, so it is built in nonnegative form: its sorted
  distinct sums ``>= 0`` with their full-table pattern counts, one value at
  a time (``_table_steps``): sparse by merging three sorted runs
  (``_nonneg_step``) or, for int64 keys, dense, one count per point of the
  lattice of multiples of ``gcd(v_i)`` (Bellman's subset-sum table).  Each
  step picks the form from the sums held by the one dense-or-sparse rule,
  ``_dense_fits``, which the walk's frontier and its backward recurrence
  read too: dense while the next lattice is short against the distinct
  sums ``>= 0`` held.  ``_mirror`` unfolds the full table where a search
  needs it, in search order: by value, radical keys by fixed-point part.
* Pair sums - the raw sums ``l + r`` of two halves are folded by sign
  (``_pair_sums``): flipping every sign negates each half sum exactly, so
  the left sums whose last sign is -1 meet every right sum, one pattern of
  each mirror pair, 2^(n-1) sums in all.
* ``threshold_probability`` - meet-in-the-middle, chosen by size alone.
  Up to ``_RAW_PAIRS_N`` (15) weights with float or integer keys, every
  folded pair sum is compared with the threshold and counted twice: 2^14
  sums cost less than the merged tables' fixed numpy calls.  Beyond that,
  and for radical keys at any size, every
  distinct nonnegative left sum counts its window of the full right table
  with two binary searches, weighted by its pattern count, doubled for the
  mirror sum, whose window is the same; integer halves that both end dense
  are counted dense, by two dot products (``_dense_count``).  Float keys
  past 15 weights are first read as points of an integer lattice
  (``_float_lattice``): when a
  static bound on the rounding of ``fl(l + r)`` leaves no lattice point
  within reach of the threshold, the count is that of the integer sums up
  to a cut-off, made on the int64 path; otherwise the merged float halves
  are counted, equal floats merged.  Every way decides the same
  index-order sums ``fl(l + r)``, so the counts agree bit for bit.
* ``threshold_probability_naive`` - plain 2^n sweep: one Gray-code walk of
  the exact sums (Fractions as integers over their own common denominator,
  else ``SqrtSum`` values), the independent oracle for the meet-in-the-middle
  path: it never reads the weights through ``_decompose``.  In float mode it
  sums both halves in plain Python, without the engine's half sums.
* ``sum_distribution`` - in exact mode the table the meet-in-the-middle
  halves use (``_nonneg_sums``, mirrored), over all the weights.  In float
  mode the table of the sums ``fl(l + r)`` of the two raw halves
  (``_float_sums``): the folded pair sums are written into the upper half
  of its buffer, sorted there, compacted block by block and mirrored in
  place.
* ``prefix_partition`` - two phases.  Phase 1 (``_walk``) walks a
  breadth-first frontier of numpy arrays: each depth tests all undecided
  prefix sums in one vector operation, sets the crossing ones aside as
  settled, with their pattern counts, and extends the rest by ``s - v`` and
  ``s + v`` (exact mode merges equal sums, with counts; a float sum is one
  sign prefix).  Every frontier sum lies in ``[-1, 1]``, and an int64 sum
  at depth d on one parity class of that lattice of multiples of ``g =
  gcd(v_i)``, that of ``(v_1 + ... + v_d)/g``; so an int64 frontier turns
  dense once the class is short by ``_dense_fits``, and holds that class
  alone: each depth reads its settled sums off the two slices outside
  ``|s| <= 1 - v``, and adds the middle slice in, shifted by ``-v`` and
  ``+v``, onto the next class.  Phase 1 stands alone for the event probabilities
  ``Pr(A_k)``, all that ``hybrid_bound`` reads, and its last depth, n - 1,
  counts its own joints in closed form.  Phase 2 counts the joints of the
  other settled sums.  On int64 keys whose lattice is short by
  ``_dense_fits`` it runs Bellman's recurrence backwards
  (``_backward_joints``): the tail patterns ``W_d(u)`` after depth d that
  keep ``u`` within 1 are one shifted add of ``W_{d+1}``, held on one
  parity class of the lattice for ``u >= 0``, and each settled sum reads
  its ``W_d``.  Other keys, and longer lattices, take tail tables: phase
  2 builds them only from a balanced depth D on, the D minimising ``sum_{d<D}
  settled_d*2^(D-d) + 2^(n-D)`` (Horowitz and Sahni's meet-in-the-middle
  balance), and checks only those it searches.  A sum settled at a depth
  ``d >= D`` is counted in bulk by ``searchsorted`` into the table at d,
  mirrored, and its cumulative counts;
  one settled at ``d < D`` is counted against the table at D over every
  sign pattern of the weights between d and D.  Exact sums are extended by
  those weights.  Float tails are pulled back through them instead: each
  extension of a tail sum is a chain of monotone roundings, so the tail
  sums that land in a window form one interval of the table at D, and
  counts and tie records are exactly those of the table at d; one search
  covers every float sum that a table counts.

Numeric behavior: in exact mode every comparison is tie-exact.  The key
type depends on the weights alone, and one key setup and one window
function serve every key type.  One decomposition (``_decompose``) writes
the weights as integer coefficients over their radicands, a coefficient
only where a weight has the term.  When all weights share one radicand -
``x_i = a_i*sqrt(D)/L`` with integers ``a_i``, ``D = 1`` for rational
weights - every signed sum is ``s*sqrt(D)/L`` for an integer ``s`` (int64
keys, Python ints past 2^62), and for any exact threshold ``|s|*sqrt(D)/L
<= t`` becomes ``|s| <= c`` with the integer cut-off ``c =
floor(t*L/sqrt(D))``: an ``isqrt`` for a rational ``t``, an exact ``SqrtSum``
floor otherwise.  Only weights over several radicands take radical keys,
one row ``(f, c)`` of an ``(N, 2)`` array per signed sum, which every table
and walk step moves as one key: ``f`` a fixed-point sum of its terms' exact
floors, less than one unit per term from the sum (a static integer error
bound, after Fortune and Van Wyk), and ``c`` an exact integer code.  Square
roots of distinct squarefree integers are linearly independent over Q, so
equal codes are equal sums: rows merge by code, are searched by their
fixed-point parts, and are decoded and decided exactly within that many
units of a decision boundary.

In float mode a signed sum is evaluated as ``fl(left_half + right_half)``
with each half accumulated in index order, and every decision is that of
an exact float comparison of this sum with no epsilon.  The integer
lattice only stands in for these comparisons where an exact bound proves
it decides each of them alike (a static error filter, after Fortune and
Van Wyk, with Higham's recursive-summation bound); near a lattice point
the floats are compared themselves.  The partition report flags sums
within 1e-12 of a decision boundary so tie-sensitive results are
visible.  Results are deterministic: every reduction is an integer count.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, cached_property
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .algebraic import SqrtSum, _sqrt_sum
from .errors import InputError, SizeLimitError, SoundnessError, WrongCaseError, _check_int
from .weights import CaseTag, EXACT, FLOAT, Value, WeightVector, case_of

DEFAULT_FULL_LIMIT = 24
DEFAULT_MITM_LIMIT = 40
BOUNDARY_TIE_TOL = 1e-12
_MAX_TIE_RECORDS = 200
# A sparse nonnegative table starts from the raw sums of its first _RAW_PREFIX
# values.  Stepping from [0] instead was slower wherever a half table is still
# built, and level at n = 38 (0 vs 8, medians of 30 alternating in-process
# runs, 2-CPU x86, numpy 2.4; float entries standard normal, on no integer
# lattice, and int64 entries in [70000, 99999], sparse at every step under
# _table_steps' rule): admissible_count over merged halves, n = 16, 341 vs 143
# us float and 576 vs 203 us int64; n = 38, 48.3 vs 48.2 ms float and 38.2 vs
# 38.2 ms int64 (int64 taken again under that rule); radical n = 12, 390 vs
# 175 us; exact sum_distribution, 2.22 vs 2.06 ms (int64, n = 16) and 562 vs
# 432 us (radical, n = 12).
_RAW_PREFIX = 8
# The dense/sparse rule, read by _dense_fits alone.  On a 2-CPU x86 box, numpy
# 2.4, a sparse step costs about 22 us + 20-80 ns per key, a dense one 0.6-1.6
# ns per lattice point (a fit: floor near 14000 points, ratio near 36); a switch
# of form costs more.  Times over the up-front rule it replaced, in process,
# medians of 7-21 interleaved rounds: sum_distribution of 20 entries in
# [1400, 1999] 1.34 / 1.16 / 1.02-1.05 / 0.99 at floors 2^13 to 2^16, of 24 in
# [1, 20000] 1.36 at 2^15, 1.14 at 2^16; ratios 16 to 64 level.  Fresh pages
# cost 1.3-3.4 us per 4 KiB: admissible_count of 38 and 40 entries in [70000,
# 99999] took 1.40-1.55 times returning at 32, about 1.0 at 4 or 8, where 20
# in [1, 50000] took 1.58 and 1.00-1.31.
_DENSE_FLOOR = 1 << 16
_DENSE_RATIO = 32
_DENSE_RETURN = 8
# Dense tables grow in place in zeroed buffers _GROWTH times as long: 2 / 16 /
# 64 times took 20 entries in [1, 10000] 1.33 / 1.07 / 1.01 times.  A lattice
# that fits the rule with no sum held takes its whole span at once, which took
# mitm-query's p50 from +4.8% to -2.2%; sizing every table so fails, as [2^30]*2
# + [1]*62 would ask for a (2, 2^31 + 31) buffer of Python ints.
_GROWTH = 16
# Raw sums start with the running sums of the first _SIGN_ROWS values down a
# cached sign matrix, one numpy call where doubling in place takes two per
# value.  _half_sums in us, 4 -> 6 rows, medians of 9 interleaved rounds on a
# 2-CPU x86 box, numpy 2.4: 6 / 8 values, float 11.3 -> 8.6 / 16.0 -> 13.8,
# int64 11.4 -> 7.0 / 15.5 -> 12.7; Python-int keys (past 2^62) are slower,
# 15.6 -> 23.4 / 26.9 -> 36.7.
_SIGN_ROWS = 6
# Inputs of at most _RAW_PAIRS_N values are counted over their folded pair
# sums, larger ones over the merged halves, whose fixed cost is about 60
# numpy calls.  _count_pairs in us, merged halves -> raw pairs, medians of 12
# alternating rounds of 5 calls on each of 10 vectors, on a 2-CPU x86 box,
# numpy 2.4, for standard-normal floats / canonical decimals (float keys of
# integers in [1, 999], merged on the lattice of _float_lattice) / int64
# keys in [1, 999]: n = 13 200 -> 51 / 168 -> 59 / 112 -> 59; n = 14 221 ->
# 65 / 173 -> 71 / 103 -> 64; n = 15 246 -> 97 / 183 -> 100 / 112 -> 87
# (raw faster in 12/12 rounds each); n = 16 260 -> 135 / 190 -> 140 / 113 ->
# 119 (int64 raw faster in 1/12).  Shorter inputs gain more, as the merged
# cost is mostly fixed.
_RAW_PAIRS_N = 15
# Float sum_distribution compacts its sorted sums this many at a time, so
# that no temporary outgrows a block, and a block's temporaries stay below
# glibc's default 128 KiB mmap threshold.  n = 17 entries in [70000, 99999],
# medians of 50 calls in fresh processes on a 2-CPU x86 box, numpy 2.4: 2^11
# 1.76-1.79 ms, 2^13 1.59-1.66 ms, 2^15 1.59-1.60 ms.
_COMPACT_BLOCK = 1 << 13


# -- threshold normalization ------------------------------------------------


def _normalize_threshold(t, mode: str):
    """The threshold ``t`` as the engines compare with it: a float in float
    mode, a Fraction or SqrtSum in exact mode.  A string (the CLI's token)
    reads as a rational, and in float mode as any float literal.  Every
    threshold rule is checked here: parseable, no float in exact mode,
    finite, within the float range and not underflowing to 0.0 in float
    mode, and nonnegative."""
    value = t
    if isinstance(t, str):
        try:
            value = Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            if mode == EXACT:
                raise InputError(f"invalid input: bad exact threshold {t!r} ({exc})") from None
    if mode == FLOAT:
        try:
            tf = float(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid input: bad threshold {t!r} ({exc})") from None
        except OverflowError:
            raise InputError(f"invalid input: threshold {t!r} exceeds the float range") from None
        if not math.isfinite(tf):
            raise InputError("invalid input: threshold must be finite")
        if not tf and value != 0:
            raise InputError(f"invalid input: threshold {t!r} underflows to 0 in float mode")
        value = tf
    elif isinstance(value, float):
        raise InputError(
            "invalid input: float threshold in exact mode; pass an int/Fraction"
        )
    elif isinstance(value, (int, Fraction)):
        value = Fraction(value)
    elif not isinstance(value, SqrtSum):
        raise InputError(f"invalid input: unsupported threshold type {type(t).__name__}")
    if value < 0:
        raise InputError("invalid input: threshold t must be >= 0")
    return value


def _size_limit(limit, default: int) -> int:
    """The caller's size limit, ``default`` when None."""
    return default if limit is None else _check_int(limit, "size limit", 0)


def _check_size(n: int, limit, default: int, what: str) -> None:
    limit = _size_limit(limit, default)
    if n > limit:
        raise SizeLimitError(n, limit, what)


def _count_dtype(n: int):
    """Pattern counts, their products and totals reach 2^n: int64 below 2^63."""
    return np.int64 if n < 63 else object


def _probability(hits: int, total: int, mode: str):
    """``hits/total``: a Fraction in exact mode, a float in float mode."""
    return Fraction(hits, total) if mode == EXACT else hits / total


# -- radicand decomposition ---------------------------------------------------


def _decompose(values: Sequence[Value]) -> list[tuple[int, int, dict[int, int]]]:
    """Exact values over their squarefree radicands ``d_j``, in order of
    first appearance from the last value: one ``(d_j, L_j, {i: a_ij})`` each,
    with ``values[i] == sum_j a_ij*sqrt(d_j)/L_j`` and only the nonzero
    integers ``a_ij`` kept, and ``L_j`` the lcm of the reduced denominators
    of column ``j``.  Each value's integers are read once; an int or
    Fraction is its own coefficient over ``d = 1``."""
    columns = {}
    for i in range(len(values) - 1, -1, -1):
        v = values[i]
        if type(v) is not SqrtSum:
            if type(v) is Fraction or type(v) is int:
                if v:
                    columns.setdefault(1, {})[i] = (v.numerator, v.denominator)
                continue
            v = SqrtSum.from_rational(v)  # a float or numpy integer is read exactly
        nums, den = v._nums, v._den
        for d, a in nums.items():
            column = columns.get(d)
            if column is None:
                column = columns[d] = {}
            if len(nums) > 1:  # one term of a canonical sum may share a factor with den
                g = math.gcd(a, den)
                column[i] = (a // g, den // g)
            else:
                column[i] = (a, den)
    parts = []
    for d, column in columns.items():
        denom = math.lcm(*[b for _, b in column.values()])
        parts.append((d, denom, {i: a * (denom // b) for i, (a, b) in column.items()}))
    return parts


def _int_cutoff(t, denom: int, radicand: int, strict: bool) -> int:
    """The largest ``c`` with ``|s|*sqrt(radicand)/denom <= t`` (``< t`` when
    strict) iff ``|s| <= c``, for integers ``s`` and any exact ``t >= 0``:
    ``floor(y)`` for ``y = t*denom/sqrt(radicand)``, one less when strict
    and ``y`` is an integer; -1 when no ``s`` qualifies (strict, ``t ==
    0``).  For a rational ``t = a/b``, ``y^2 = N/M`` with ``N = (a*denom)^2``
    and ``M = b^2*radicand``, and ``floor(y) = isqrt(N // M)``; any other
    ``t`` takes an exact ``SqrtSum`` floor."""
    if isinstance(t, SqrtSum):
        if not t.is_rational:
            y = t * _sqrt_sum({radicand: denom}, radicand)
            c = math.floor(y)
            return c - 1 if strict and y == c else c
        t = t.as_fraction()
    num, den = (t.numerator * denom) ** 2, t.denominator**2 * radicand
    c = math.isqrt(num // den)
    return c - 1 if strict and c * c * den == num else c


# -- radical keys --------------------------------------------------------------


def _fixed(a: int, d: int, denom: int, shift: int) -> int:
    """``floor(a*sqrt(d)*2^shift/denom)``, exactly, for integers ``a``, ``d
    >= 0`` and ``denom >= 1``.  With ``N = a^2*d*4^shift`` (a negative
    ``shift`` moves its power into ``denom``) and ``r = isqrt(N)``, it is
    ``r // denom`` for ``a >= 0``.  For ``a < 0`` it is ``-ceil(sqrt(N)/denom)``:
    ``-r // denom`` when ``N`` is a square, else ``-(r + 1) // denom``, as no
    multiple of ``denom`` lies strictly between ``r`` and ``sqrt(N) < r + 1``."""
    square = a * a * d
    if shift >= 0:
        square <<= 2 * shift
    else:
        denom <<= -shift
    root = math.isqrt(square)
    return (root if a >= 0 else -root - (root * root < square)) // denom


@dataclass(frozen=True, eq=False)
class _Radical:
    """The radicand basis behind one vector's radical keys.

    Value i is ``sum_j a_ij*sqrt(d_j)/L_j`` with integers ``a_ij``; let
    ``A_j = sum_i |a_ij|`` and ``g_j = gcd_i a_ij``.  A signed sum over a set
    I of weights has ``S_j = sum_{i in I} eps_i*a_ij``, and its digit ``j``,
    ``(S_j + A^I_j)/(2*g_j)``, is an integer in ``[0, A_j/g_j]``.  With place
    values ``M_j = prod_{k<j} (A_k/g_k + 1)`` its code is ``2*sum_j
    digit_j*M_j - K_I``, ``K_I = sum_{i in I} kappa_i``, ``kappa_i = sum_j
    |a_ij|/g_j*M_j``; that is ``sum_{i in I} eps_i*sigma_i`` with ``sigma_i
    = sum_j a_ij/g_j*M_j``.  So codes add across disjoint sets of weights,
    and, as the radicals are linearly independent over Q (Besicovitch 1940),
    two sums over one set are equal iff their codes are.  Codes lie in
    ``[-K, K]`` with ``K = M_m - 1``.

    A key is one row ``(f, c)``, int64 for ``K < 2^62``, else Python ints:
    ``c`` the code, and ``f`` the sum of the values' fixed-point parts ``f_i
    = sum_j _fixed(a_ij, d_j, L_j, shift)``, each less than one unit
    (``2^-shift``) per term below the value.  So ``f`` over distinct weights
    is less than ``units`` from its sum, in units, and at most ``size =
    sum|f_i| < 2^60 + units`` in size.

    Radicands are listed in order of first appearance from the last weight,
    the term order of a sum accumulated from the end, on which the float
    rendering of a decoded sum depends.
    """

    radicands: tuple  # d_j
    denoms: tuple  # L_j
    steps: tuple  # g_j
    places: tuple  # M_0 .. M_m
    spreads: tuple  # K of the first k weights, k = 0 .. n
    dtype: type  # of the key rows
    shift: int
    size: int  # sum of |f_i|
    units: int  # (weight, radicand) terms, at least 1

    @property
    def spread(self) -> int:
        """K of all the weights."""
        return self.spreads[-1]

    def band(self, t) -> tuple[int, int]:
        """``(lo, hi)`` for an exact ``t >= 0``: a key ``k`` of a sum ``s``
        has ``s < t`` if ``k <= lo`` and ``s > t`` if ``k >= hi``.  With ``T =
        floor(t*2^shift)`` and ``U = units``, ``k <= T - U`` gives
        ``s*2^shift < k + U <= T``, and ``k >= T + 1 + U`` gives ``s*2^shift
        > k - U >= T + 1``.  ``T`` is clamped to ``size + U``, above every
        sum, which leaves every key inside and every bracket end in int64."""
        fixed = min(math.floor(t * Fraction(2) ** self.shift), self.size + self.units)
        return fixed - self.units, fixed + 1 + self.units

    def value(self, code: int, spread: int) -> SqrtSum:
        """The exact sum with ``code`` over weights whose kappas add up to
        ``spread``."""
        half = (code + spread) // 2
        lcm = math.lcm(*self.denoms)
        nums = {}
        for d, denom, step, place, radix in zip(
            self.radicands, self.denoms, self.steps, self.places, self.places[1:]
        ):
            coeff = step * (2 * (half % radix // place) - spread % radix // place)
            if coeff:
                nums[d] = coeff * (lcm // denom)
        return _sqrt_sum(nums, lcm)


def _radical_keys(values: Sequence[Value], parts=None) -> tuple[np.ndarray, _Radical]:
    """The values' radical keys, rows ``(f_i, sigma_i)``, and the basis of
    them all, from the values' ``_decompose`` ``parts`` (decomposed here
    when None).  ``2^(60 - shift)`` is the least power of 2 above
    ``total/lcm = sum (isqrt(a^2*d) + 1)/L``, a bound on ``sum|x_i|``."""
    parts = _decompose(values) if parts is None else parts
    lcm = math.lcm(*(denom for _, denom, _ in parts))
    total = sum(sum(math.isqrt(a * a * d) + 1 for a in column.values()) * (lcm // denom) for d, denom, column in parts)
    e = total.bit_length() - lcm.bit_length()  # 2^(e - 1) <= total/lcm < 2^(e + 1)
    shift = 60 - e - (total << max(-e, 0) >= lcm << max(e, 0))
    steps = [math.gcd(*column.values()) for _, _, column in parts]
    places = [1]
    sigma, kappa, fixed = [0] * len(values), [0] * len(values), [0] * len(values)
    for (d, denom, column), g in zip(parts, steps):
        m = places[-1]
        for i, a in column.items():
            sigma[i] += a // g * m
            kappa[i] += abs(a) // g * m
            fixed[i] += _fixed(a, d, denom, shift)
        places.append(m * (sum(map(abs, column.values())) // g + 1))
    radical = _Radical(
        tuple(d for d, _, _ in parts), tuple(denom for _, denom, _ in parts),
        tuple(steps), tuple(places), tuple(itertools.accumulate(kappa, initial=0)),
        np.int64 if places[-1] < 1 << 62 else object,
        shift, sum(map(abs, fixed)), max(sum(len(column) for _, _, column in parts), 1),
    )
    return np.array(list(zip(fixed, sigma)), dtype=radical.dtype).reshape(len(values), 2), radical


def _key_setup(values: Sequence, t, mode: str, strict: bool = False):
    """``(keys, dtype, scale, t, strict)``: the values as keys of numpy
    ``dtype``, ``(L, D)`` when a key ``a`` stands for ``a*sqrt(D)/L``, and the
    test ``|s| <= t`` (``< t`` when strict) on signed sums of the keys.  Exact
    values over one radicand take integer keys, whatever the threshold, and
    the cut-off ``c`` of ``_int_cutoff`` clamped to ``sum|a_i|``, which bounds
    every partial sum, so sums and window ends fit int64 while ``sum|a_i| + c
    < 2^62``.  Only weights over several radicands take radical keys,
    ``(n, 2)`` rows whose ``dtype`` is their ``_Radical`` basis.  Float
    values must be finite, with a float sum of ``|v_i|`` below 2^1023: the
    exact sum is then below ``2^1023*(1 + n*2^-52)``, so no float partial
    sum or pair sum, each at most ``(1 + n*2^-52)`` times it, overflows."""
    if mode == FLOAT:
        keys = [float(v) for v in values]
        if not sum(map(abs, keys)) < 2.0**1023:
            raise InputError("invalid input: float signed sums may overflow (sum of |values| must be below 2^1023)")
        return keys, np.float64, None, t, strict
    parts = _decompose(values)
    if len(parts) > 1:
        keys, radical = _radical_keys(values, parts)
        return keys, radical, None, t, strict
    radicand, denom, column = parts[0] if parts else (1, 1, {})  # value i is ints[i]*sqrt(radicand)/denom
    ints = [column.get(i, 0) for i in range(len(values))]
    bound = sum(map(abs, ints))
    cutoff = min(_int_cutoff(t, denom, radicand, strict), bound)
    dtype = np.int64 if bound + cutoff < 1 << 62 else object
    return ints, dtype, (denom, radicand), cutoff, False


def _zero(dtype):
    """The empty sum as a key array of ``dtype``: one row for radical keys."""
    return np.zeros((1, 2), dtype=dtype.dtype) if isinstance(dtype, _Radical) else np.zeros(1, dtype=dtype)


def _sign_key(keys: np.ndarray) -> np.ndarray:
    """What a key's sign is read from, and keys are sorted by: the code
    column of radical key rows, the keys themselves otherwise.  Negating a
    sum negates it too."""
    return keys[:, 1] if keys.ndim > 1 else keys


def _extend(keys: np.ndarray, v):
    """The sums ``keys - v`` followed by ``keys + v``, in one new array, key
    rows column by column: broadcast row-wise, a row ``v`` would cost a
    two-element loop per row."""
    out = np.empty((2 * len(keys), *keys.shape[1:]), dtype=keys.dtype)
    np.subtract(keys, v, out=out[: len(keys)], order="F")
    np.add(keys, v, out=out[len(keys) :], order="F")
    return out


# -- half-sum generation -----------------------------------------------------


@cache
def _sign_matrix(k: int) -> np.ndarray:
    """Row 0 all +1 (it takes the starting +0), row j + 1 the sign of value
    j in each of the 2^k sign patterns: +1 where bit j of the column index
    is set, the order repeated ``_extend`` gives."""
    signs = 2 * ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1) - 1
    signs = np.vstack([np.ones((1, 1 << k), dtype=signs.dtype), signs])
    signs.setflags(write=False)
    return signs


def _half_sums(values: Sequence, dtype):
    """All 2^k signed sums of the k values on the last axis of ``values``
    (one vector, or a stack of rows), each accumulated in index order from
    +0, in the order repeated ``_extend`` gives: the first ``_SIGN_ROWS``
    values as running sums down the columns of a sign matrix (``fl(s +
    (-v))`` is ``fl(s - v)``), then each further value doubles the sums in
    place, ``out[s:2s] = out[:s] + v`` and then ``out[:s] -= v``; radical
    key rows as the stack of their two columns."""
    if isinstance(dtype, _Radical):
        return np.ascontiguousarray(_half_sums(np.asarray(values).T, dtype.dtype).T)
    values = np.asarray(values, dtype=dtype)
    *rows, k = values.shape
    h = min(k, _SIGN_ROWS)
    head = np.zeros((*rows, h + 1, 1), dtype=dtype)
    head[..., 1:, 0] = values[..., :h]
    sums = (_sign_matrix(h) * head).cumsum(axis=-2)[..., -1, :]
    if h == k:
        return sums
    out = np.empty((*rows, 1 << k), dtype=dtype)
    out[..., : 1 << h] = sums
    for j in range(h, k):
        v, low = values[..., j, None], out[..., : 1 << j]
        np.add(low, v, out=out[..., 1 << j : 2 << j])
        low -= v
    return out


def _pair_sums(values: Sequence, dtype, out=None) -> np.ndarray:
    """The sums ``|l + r|`` (``|fl(l + r)|`` of floats) of one sign pattern
    of each mirror pair, over the n values on the last axis of ``values``,
    as keys of ``dtype``, written into ``out`` when given: ``l`` a half sum
    of the first ``k = n - n//2`` values, from the first 2^(k-1) columns of
    ``_half_sums``, whose last sign is -1, and ``r`` each one of the rest,
    ``l`` major; 2^(n-1) sums, or the one empty sum for n = 0.  Column i
    and column ``2^k - 1 - i`` are exact negations, as flipping every sign
    negates each partial sum exactly (``fl(-a - b) = -fl(a + b)``, and ``fl(a
    - a) = +0`` either way), and so are the right sums; so the other
    patterns' sums are these."""
    values = np.asarray(values, dtype=dtype)
    *rows, n = values.shape
    split = n - n // 2
    left = _half_sums(values[..., :split], dtype)[..., : (1 << split) // 2 or 1, None]
    right = _half_sums(values[..., split:], dtype)[..., None, :]
    sums = np.add(left, right, out=None if out is None else out.reshape(*rows, left.shape[-2], -1))
    return np.abs(sums, out=sums).reshape(*rows, -1)


def _has_zero(keys) -> int:
    """1 when a nonnegative table starts with the zero sum, which is its own
    mirror image, else 0 (so for an empty table, a miscount's)."""
    return int(len(keys) > 0 and _sign_key(keys)[0] == 0)


def _check_mass(keys, counts: np.ndarray, k: int):
    """The table ``(keys, counts)`` of signed sums over ``k`` values, checked to
    stand for all 2^k sign patterns: dense, its counts; nonnegative, each key's
    count twice, for it and its mirror image, except the zero sum's."""
    mass = int(counts.sum()) if keys is None else 2 * int(counts.sum()) - (int(counts[0]) if _has_zero(keys) else 0)
    if mass != 1 << k:
        raise SoundnessError(f"signed-sum table mass {mass} != 2^{k}")
    return keys, counts


def _nonneg_step(keys, counts: np.ndarray, v):
    """The nonnegative table one value ``v`` longer.

    Every signed-sum table is symmetric about zero, so it is kept in
    nonnegative form: its distinct sums ``p >= 0`` (by ``_sign_key``) in
    sorted order, each with its full-table pattern count.  With ``v`` taken
    as ``|v|``, the longer table is the mirror closure of the sums ``p +
    v``, for every ``p``, and ``p - v``, for ``p > 0`` (the zero sum is its
    own mirror, so ``-v`` is the image of ``+v``): three sorted runs, ``v -
    p`` for the ``p - v < 0`` reversed, the other ``p - v``, and ``p + v``,
    which ``_merge_equal`` merges.  A ``p - v`` on 0 is reached from ``p``
    and ``-p``, so its count doubles, as does that of ``0 + v`` for a zero
    ``v``.  In float mode the negated sums are exact: ``fl(-a - b) = -fl(a
    + b)``, and no sum is -0.0, as none starts from one.  A radical key
    row's sign is that of its code.
    """
    sign = v[1] if np.ndim(v) else v
    if sign < 0:
        v, sign = -v, -sign
    z, n = _has_zero(keys), len(keys)
    positive = _sign_key(keys)[z:]
    m = int(positive.searchsorted(sign))  # the p - v < 0
    k = int(positive.searchsorted(sign, side="right"))  # ... and those on 0
    out = np.empty((2 * n - z, *keys.shape[1:]), dtype=keys.dtype)  # the three runs, written in place
    np.subtract(v, keys[z : z + m][::-1], out=out[:m], order="F")  # column by column, as in _extend
    np.subtract(keys[z + m :], v, out=out[m : n - z], order="F")
    np.add(keys, v, out=out[n - z :], order="F")
    runs = np.concatenate([counts[z : z + m][::-1], counts[z + m :], counts])
    runs[m:k] *= 2
    if z and not sign:
        runs[n - z] *= 2
    return _merge_equal(out, runs)


def _lattice_step(values: Sequence, dtype) -> int:
    """The step of a dense table of ``values``: ``gcd(v_i)`` (1 if all are 0)
    for int64 keys, else 0, for tables that stay sparse."""
    return (math.gcd(*values) or 1) if dtype is np.int64 else 0


def _dense_fits(points: int, held: int, sparse: bool = False, steps: int = 1) -> bool:
    """The one dense-or-sparse rule of int64 tables, of the walk's frontier
    and of its backward recurrence: whether a dense form of ``points``
    lattice points fits where ``held`` distinct sums are held, that is
    ``points`` at most ``_DENSE_FLOOR`` plus ``_DENSE_RATIO`` times
    ``held`` (``_DENSE_RETURN`` times when they are held ``sparse``), the
    floor counted once per step over ``steps`` steps."""
    return points <= steps * _DENSE_FLOOR + (_DENSE_RETURN if sparse else _DENSE_RATIO) * held


def _sum_table(values: Sequence, dtype, count_dtype, step: int):
    """The table of the signed sums of ``values``, each accumulated in index
    order, as ``_table_steps`` leaves it, its mass checked; int64 keys by
    increasing size, on the multiples of ``step``.  An int64 table starts
    dense, from the one sum 0, where its first step fits the rule; any other
    from the merged raw sums of ``_RAW_PREFIX`` values."""
    values = sorted(values, key=abs) if step else values
    if step and values and _dense_fits(abs(values[0]) // step + 1, 1):
        raw, keys, counts = 0, None, np.ones(1, dtype=count_dtype)
    else:
        raw, sums = _RAW_PREFIX, _half_sums(values[:_RAW_PREFIX], dtype)
        sums = sums.compress(_sign_key(sums) >= 0, axis=0)
        keys, counts = _merge_equal(sums, np.ones(len(sums), dtype=count_dtype))
    span = sum(map(abs, values)) // step + 1 if step else 0
    for keys, counts in _table_steps(keys, counts, values[raw:], step, span):
        pass
    return _check_mass(keys, counts, len(values))


def _nonneg_sums(values: Sequence, dtype, count_dtype):
    """The nonnegative table (see ``_nonneg_step``) of the signed sums of
    ``values``, on the lattice of their own gcd."""
    step = _lattice_step(values, dtype)
    return _nonneg_form(*_sum_table(values, dtype, count_dtype, step), step)


def _table_steps(keys, counts, values, step: int, span: int):
    """The table after each of ``values`` in turn: dense while the next
    lattice fits ``_dense_fits`` against the distinct sums ``>= 0`` held,
    else sparse, as ``_nonneg_step`` keeps it.  Dense, on the multiples of
    ``step > 0``: ``keys`` None and ``counts[j]`` the patterns with sum
    ``(2j - top)*step``, ``top = len(counts) - 1``; a step writes ``counts[j]
    + counts[j - |v|/step]`` into the other of two zeroed buffers of up to
    ``span`` points and swaps them, so a yielded table lasts two steps: the
    add of ``_dense_extend``, in two passes over the zeros past the table
    (measured there).  Other keys (``step`` 0) stay sparse."""
    short = step and _dense_fits(span, 0)  # the whole lattice fits with no sum held: every step is dense
    room = counts[:0]  # no buffers yet
    for v in values:
        dense = keys is None
        if step:
            size = abs(v) // step
            top = len(counts) - 1 if dense else int(keys[-1]) // step  # the largest sum, that of |v_i|
            length = top + size + 1
        if short or step and (
            _dense_fits(length, 0)  # a dense table's held sums are counted only where they decide
            or _dense_fits(length, np.count_nonzero(counts[(top + 1) // 2 :]) if dense else len(keys), not dense)
        ):
            if not dense or len(room) < length:  # two zeroed buffers with room to grow into
                room, spare = np.zeros((2, span if short else min(_GROWTH * length, span)), dtype=counts.dtype)
                if dense:
                    room[: top + 1] = counts
                else:  # each key and its mirror image; the zero sum is its own
                    room[(top + keys // step) // 2] = room[(top - keys // step) // 2] = counts
            keys, counts = None, spare[:length]
            counts[:size] = room[:size]
            np.add(room[size:length], room[: top + 1], out=counts[size:])
            room, spare = spare, room
        else:
            keys, counts = _nonneg_step(*_nonneg_form(keys, counts, step), v)
        yield keys, counts


def _nonneg_form(keys, counts, step: int):
    """A ``_table_steps`` table in nonnegative form."""
    if keys is not None:
        return keys, counts
    top = len(counts) - 1
    half = (top + 1) // 2
    index = np.flatnonzero(counts[half:])
    return (2 * (index + half) - top) * step, counts[half:][index]


def _mirror(keys, counts: np.ndarray):
    """The full table from its nonnegative form, in search order: the
    nonzero keys negated, in reverse order, then the nonnegative keys, and
    radical keys sorted by their fixed-point parts, which searches read."""
    z = _has_zero(keys)
    keys, counts = np.concatenate([-keys[z:][::-1], keys]), np.concatenate([counts[z:][::-1], counts])
    if keys.ndim > 1:
        order = np.argsort(keys[:, 0], kind="stable")
        keys, counts = keys.take(order, axis=0), counts[order]
    return keys, counts


# -- pair counting -----------------------------------------------------------


def _refine_prefix_len(padded: np.ndarray, steps: np.ndarray, bound: np.ndarray, inclusive: bool) -> np.ndarray:
    """Per query j, the count of the sorted unique values u of
    ``padded[1:-1]`` (``padded`` ends in -inf and +inf) with ``_chain(u,
    steps[:, j]) <= bound[j]`` (inclusive) or ``< bound[j]`` (strict).  The
    queries are flat: ``bound`` is 1-D and ``steps`` holds a column of signed
    weights per query, so each chain is weakly increasing in u.

    searchsorted of ``bound - _chain(0, steps)`` is exact without rows, and
    else can be off by a few values because of rounding; since the target
    set is a prefix, local steps converge: a count c below the number of
    values moves up when ``padded[c + 1]`` passes, and a count above 0
    moves down when ``padded[c]`` fails.  After a first pass over all
    queries, only the queries that moved are stepped again."""
    idx = np.searchsorted(padded[1:-1], bound - _chain(0.0, steps), side="right" if inclusive else "left")
    if not len(steps):
        return idx
    below, m = (np.less_equal if inclusive else np.less), len(padded) - 2
    moves = lambda i, rows, b: (
        (i < m) & below(_chain(padded[i + 1], rows), b),
        (i > 0) & ~below(_chain(padded[i], rows), b),
    )
    up, down = moves(idx, steps, bound)
    idx += up
    idx -= down
    at = (up | down).nonzero()[0]  # the queries that moved
    while len(at):
        up, down = moves(idx[at], steps[:, at], bound[at])
        idx[at] += up
        idx[at] -= down
        at = at[(up | down).nonzero()[0]]
    return idx


def _padded(keys: np.ndarray) -> np.ndarray:
    """Sorted float keys between -inf and +inf, as ``_refine_prefix_len``
    searches them."""
    return np.concatenate([[-np.inf], keys, [np.inf]])


def _count_pairs(values: Sequence, dtype, t, strict: bool) -> int:
    """Sign patterns with ``|l + r| <= t`` (``< t`` when strict), ``l`` a
    sum of the first ``n - n//2`` values and ``r`` one of the rest: over the
    raw pair sums up to ``_RAW_PAIRS_N`` values, else over the merged
    halves.  Radical keys always take the merged halves, whose windows
    decide a sum near a boundary exactly.  Float keys past ``_RAW_PAIRS_N``
    are counted on the integer lattice of ``_float_lattice`` where it
    certifies every decision, else over the merged float halves."""
    if len(values) <= _RAW_PAIRS_N and not isinstance(dtype, _Radical):
        return int(_count_raw(values, dtype, t, strict))
    lattice = _float_lattice(values, t) if dtype is np.float64 else None
    if lattice is not None:
        ints, cutoff = lattice
        return _count_merged(ints, np.int64, cutoff, False)
    return _count_merged(values, dtype, t, strict)


def _count_raw(values: Sequence, dtype, t, strict: bool):
    """``_count_pairs`` over the folded pair sums ``_pair_sums``:
    ``|fl(l + r)|`` of float keys, ``|l + r|`` of integer keys, compared
    with ``t`` and counted twice, for each sum and its mirror image (once
    for n = 0); one count per row of a stack.  Each half is accumulated in
    index order, as the merged halves are, so the count is theirs.  Counts
    fit int32 for n <= 30; summing booleans into int32 is twice as fast as
    into int64."""
    sums = _pair_sums(values, dtype)
    hits = (sums < t if strict else sums <= t).sum(axis=-1, dtype=np.int32)
    return 2 * hits if np.shape(values)[-1] else hits


def _count_merged(values: Sequence, dtype, t, strict: bool) -> int:
    """``_count_pairs`` over the merged halves: the sum over distinct ``l``
    of ``count(l) * window(right, l)``.  Only the ``l >= 0`` are searched,
    and each ``l > 0`` counts for ``-l`` too: the right sums are symmetric
    and ``fl(-a - b) = -fl(a + b)``, so ``-l`` has the window of ``l``.
    Float sums merge only when they compare equal, so every window decides
    ``fl(l + r)`` itself.  Integer halves that both end dense on the lattice
    of the gcd of all the values are counted by ``_dense_count``."""
    split = len(values) - len(values) // 2
    count_dtype, step = _count_dtype(len(values)), _lattice_step(values, dtype)
    lkeys, lcounts = _sum_table(values[:split], dtype, count_dtype, step)
    rkeys, rcounts = _sum_table(values[split:], dtype, count_dtype, step)
    if lkeys is None and rkeys is None:
        return _dense_count(lcounts, rcounts, (t - strict) // step)
    lkeys, lcounts = _nonneg_form(lkeys, lcounts, step)
    rkeys, rcounts = _mirror(*_nonneg_form(rkeys, rcounts, step))
    cum = np.concatenate([[0], np.cumsum(rcounts)])
    del rcounts  # the float window searches hold a padded copy of the keys instead
    window, _ = _window(rkeys, cum, lkeys, t, strict, dtype)
    hits = lcounts * np.maximum(window, 0)
    return 2 * int(hits.sum()) - _has_zero(lkeys) * int(hits[0])


def _dense_count(lcounts: np.ndarray, rcounts: np.ndarray, cut: int) -> int:
    """The pattern pairs of two dense tables on one lattice step ``g`` with
    ``|l + r| <= cut*g``.  With ``l = (2j - tl)*g`` at left index ``j`` and ``r
    = (2i - tr)*g`` at right index ``i``, that is ``|2(i + j) - T| <= cut``, ``T
    = tl + tr``: ``i + j`` in ``[T - hi, hi]``, ``hi = floor((T + cut)/2)``
    (``cut <= T``).  With ``C(k)`` the right patterns of index below ``k`` (0
    for ``k <= 0``, all ``R`` past ``tr``), ``j`` counts ``C(hi + 1 - j) - C(T -
    hi - j)``.  Both tables are symmetric, so ``C(k) = R - C(tr + 1 - k)``, and
    ``W(a) = sum_j lcounts[j]*C(a - j)`` has ``W(T + 1 - a) = L*R - W(a)``, ``L``
    the left total: the count is ``2*W(hi + 1) - L*R``.  In ``W(a)`` the ``j <
    a - tr`` give ``R`` times their left mass, and the others the dot product
    of their left counts with ``C(a - j)``.  Only ``C(k)`` for ``k <= m =
    tr//2 + 1`` is cumulated; a larger ``k`` reads ``R - C(tr + 1 - k)``.  A
    negative ``cut``, an empty window, counts 0."""
    tl, tr = len(lcounts) - 1, len(rcounts) - 1
    cut = min(cut, tl + tr)
    if cut < 0:
        return 0
    m = tr // 2 + 1
    low = np.cumsum(rcounts[:m])  # low[k - 1] = C(k), 1 <= k <= m
    rtotal = 2 * int(low[-1]) - (0 if tr % 2 else int(rcounts[m - 1]))  # R: an even tr has a middle index
    a = (tl + tr + cut) // 2 + 1
    j0, j1 = max(a - tr, 0), min(a, tl + 1)
    js = min(max(a - m, j0), j1)  # C(a - j) is low[a - j - 1] for j >= js, else R - low[tr - a + j]
    weighted = (
        rtotal * int(lcounts[:js].sum())
        - int(np.dot(lcounts[j0:js], low[tr - a + j0 : tr - a + js]))
        + int(np.dot(lcounts[js:j1], low[a - j1 : a - js][::-1]))
    )
    return 2 * weighted - rtotal * int(lcounts.sum())


def _float_lattice(values: Sequence[float], t: float) -> Optional[tuple[list[int], int]]:
    """``(ints, cutoff)`` when every decision ``|fl(l + r)| <= t`` (or ``<
    t``) of ``_count_pairs`` on the floats ``values`` is that of ``|S| <=
    cutoff`` for the signed sums ``S`` of the integers ``ints``, else None.

    Lattice.  Each value is read exactly as ``V_i/D``, ``D`` the largest
    denominator of ``float.as_integer_ratio`` (a power of 2).  With ``B``
    the smallest nonzero ``|V_i|`` and ``Q`` the lcm of the denominators
    found so far (1 at first), a value within ``2^-48`` of ``a/Q`` times
    ``B``, relatively, for the nearest integer ``a``, lies on the lattice;
    any other gets the first convergent ``p/q`` of ``|V_i|/B`` within that
    tolerance (``_convergent``), and ``Q`` grows to ``lcm(Q, q)``.  So a
    denominator that would not grow the lcm is never searched for: ``p/q``
    with ``q | Q`` would have put the value on the lattice already.  Then
    ``c = B/(D*Q)`` and ``a_i = +-p_i*Q/q_i``.  Two roundings of relative
    error ``2^-53`` apiece (a decimal read, then divided by the norm) put
    a weight within ``2^-52`` of its lattice point, and a ratio of two
    within about ``2^-51`` of the integers' ratio: the tolerance leaves
    that 8 times over, and it is also the largest residual
    ``|v_i - a_i*c| <= 2^-48*|v_i|`` it admits.  It only picks the lattice;
    the bound below certifies whatever is picked.

    Bound.  ``sum eps_i*v_i`` is within ``R = sum|v_i - a_i*c|`` of
    ``S*c``.  ``fl(l + r)``, each half accumulated in index order from
    +0, is within ``gamma_{n-1}*sum|v_i|`` of ``sum eps_i*v_i`` (Higham,
    Accuracy and Stability of Numerical Algorithms, 4.2: no value passes
    through more than ``n - 1`` roundings), and ``gamma_{n-1} <= 2*(n -
    1)*2^-53 < n*2^-52``, while no partial sum overflows, as
    ``_key_setup`` ensures.  So ``|fl(l + r) - S*c| <= E = R +
    n*2^-52*sum|v_i|``, for every sign pattern.

    Cut-off.  If no integer lies in ``[(t - E)/c, (t + E)/c]``, let ``K =
    floor((t - E)/c)``: ``|S| <= K`` gives ``|fl(l + r)| <= K*c + E < t``
    and ``|S| > K`` gives ``|fl(l + r)| >= (K + 1)*c - E > t``, so no sum
    falls on ``t`` and strictness makes no difference.  ``K`` is clamped
    to ``sum|a_i|``.  ``t = 0`` always returns None, as 0 lies in the
    interval.  Everything is computed in exact integers, over the common
    denominator ``td*B*2^52`` of the interval ends.

    Search bound.  The interval is ``2*E/c >= 2*n*2^-52*Q*sum|V_i|/B``
    wide, so once ``2*n*Q*sum|V_i| >= 2^52*B`` it holds an integer for
    every ``t`` and the search ends with None.  Below that, ``sum|a_i|``
    stays below about ``2^52/(2*n)``, so the integer sums fit int64."""
    ratios = [v.as_integer_ratio() for v in values]
    denom = max(d for _, d in ratios)
    nums = [p * (denom // d) for p, d in ratios]  # value i is nums[i]/denom
    sizes = [abs(x) for x in nums]
    total, base = sum(sizes), min(filter(None, sizes), default=0)
    if not base:
        return None
    n = len(values)
    most = ((base << 52) - 1) // (2 * n * total)  # the largest Q the search may reach
    lcm, parts = 1, []
    for x in sizes:
        a = (2 * x * lcm + base) // (2 * base)  # the nearest multiple of 1/lcm, times base
        if abs(x * lcm - a * base) << 48 <= x * lcm:
            parts.append((a, lcm))
            continue
        found = _convergent(x, base, most)
        if found is None:
            return None
        parts.append(found)
        lcm = math.lcm(lcm, found[1])
        if lcm > most:
            return None
    ints = [(p if x >= 0 else -p) * (lcm // q) for x, (p, q) in zip(nums, parts)]
    residual = sum(abs(x * lcm - abs(a) * base) for x, a in zip(sizes, ints))
    err = (residual << 52) + n * lcm * total  # E*denom*Q*2^52
    tn, td = t.as_integer_ratio()
    centre, unit = (tn * denom * lcm) << 52, (td * base) << 52
    lo, hi = centre - td * err, centre + td * err
    cutoff = lo // unit
    if cutoff * unit == lo or hi // unit != cutoff:  # an integer in [lo, hi]/unit
        return None
    return ints, min(cutoff, sum(map(abs, ints)))


def _convergent(x: int, y: int, most: int) -> Optional[tuple[int, int]]:
    """The first convergent ``p/q`` of the continued fraction of ``x/y``
    (positive integers) within ``2^-48*x/y`` of it, or None once ``q``
    passes ``most``.  Each step of Euclid's algorithm on ``(x, y)`` leaves
    the remainder ``|x*q - p*y|`` of the convergent it makes; the algorithm
    ends, at ``x/y`` itself with remainder 0."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = x, y
    while True:
        k, r = divmod(a, b)
        p0, q0, p1, q1 = p1, q1, k * p1 + p0, k * q1 + q0
        if q1 > most:
            return None
        if r << 48 <= x * q1:
            return p1, q1
        a, b = b, r


# -- public operations -------------------------------------------------------


def signed_sum_count(
    values: Sequence[Value],
    t,
    mode: str,
    strict: bool = False,
    *,
    limit: Optional[int] = None,
) -> tuple[int, int]:
    """(number of sign patterns with |sum of +-values| <= t, or < t when
    strict, 2^n) for a raw (not necessarily canonical) list, by
    meet-in-the-middle."""
    n = len(values)
    _check_size(n, limit, DEFAULT_MITM_LIMIT, "meet-in-the-middle")
    t = _normalize_threshold(t, mode)
    keys, dtype, _, t, strict = _key_setup(values, t, mode, strict)
    return _count_pairs(keys, dtype, t, strict), 1 << n


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
    return _probability(*signed_sum_count(w.values, t, w.mode, strict, limit=limit), w.mode)


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
    _check_size(n, limit, DEFAULT_FULL_LIMIT, "full-enumeration")
    t = _normalize_threshold(t, w.mode)
    total = 1 << n

    if w.mode == FLOAT:
        # fl(l + r) of two halves summed here, each from +0.0 in index order
        halves = []
        for part in (w.values[: n - n // 2], w.values[n - n // 2 :]):
            sums = [0.0]
            for v in part:
                sums = [s - v for s in sums] + [s + v for s in sums]
            halves.append(sums)
        sums = np.abs(np.add.outer(*halves))
        return int(np.count_nonzero(sums < t if strict else sums <= t)) / total

    # No decomposition or cut-off of the MITM path: Fraction weights and t
    # as integers over their common denominator, else SqrtSums against t.
    if isinstance(t, Fraction) and all(isinstance(v, Fraction) for v in w.values):
        denom = math.lcm(*(v.denominator for v in w.values))
        vals = [v.numerator * (denom // v.denominator) * t.denominator for v in w.values]
        t = t.numerator * denom
    else:
        vals = [SqrtSum.from_rational(v) for v in w.values]
    twice = [2 * v for v in vals]
    signs = [1] * n
    s = sum(vals[1:], vals[0])
    lo = -t
    hits = 0
    for i in range(total):
        if i:
            j = (i & -i).bit_length() - 1
            signs[j] = -signs[j]
            s = s + twice[j] if signs[j] > 0 else s - twice[j]
        if (lo < s < t) if strict else (lo <= s <= t):
            hits += 1
    return Fraction(hits, total)


# -- signed-sum distributions -------------------------------------------------


def _merge_equal(keys, counts: np.ndarray):
    """Sort ``keys`` by ``_sign_key``, adding up the counts of equal keys
    (linear on the sorted runs of ``_nonneg_step``): radical key rows are
    sorted and merged by code."""
    order = _sign_key(keys).argsort(kind="stable")
    keys, counts = keys.take(order, axis=0), counts[order]
    sign = _sign_key(keys)
    first = np.empty(len(sign), dtype=bool)
    first[:1] = True
    np.not_equal(sign[1:], sign[:-1], out=first[1:])
    first = first.nonzero()[0]
    return keys.take(first, axis=0), np.add.reduceat(counts, first)


def _tail_distributions(vals: Sequence, dtype, wanted=None):
    """For k = len(vals)-1 down to 0: the nonnegative table (see
    ``_nonneg_step``) of the signed sums of ``vals[k:]``, accumulated from
    the end, its mass checked; the tail tables of ``prefix_partition``, one
    per depth.  Given ``wanted``, the sizes ``len(vals) - k`` of the tables
    searched, any other table is None: it is only stepped from, and the mass
    check of a later table covers it."""
    step = _lattice_step(vals, dtype)
    span = sum(map(abs, vals)) // step + 1 if step else 0
    start = _zero(dtype), np.ones(1, dtype=_count_dtype(len(vals)))
    for size, (keys, counts) in enumerate(_table_steps(*start, reversed(vals), step, span), 1):
        yield _check_mass(*_nonneg_form(keys, counts, step), size) if wanted is None or size in wanted else None


def _window(keys, cum: np.ndarray, query, t, strict: bool, dtype):
    """``(window, fallbacks)``: per query sum ``q``, the patterns of the
    searched ``keys`` (cumulative counts ``cum``) whose sums ``r`` have ``|q
    + r| <= t`` (``< t`` when strict), and how many keys were decided
    exactly: by ``_band_window`` for radical keys over all the weights, by
    searches refined to test ``fl(q + r)`` for float keys, by plain
    ``searchsorted`` for exact integer keys.  An empty window (integer
    cut-off -1) can come out negative.  Float queries, ascending, are
    searched reversed, so that each window end ascends."""
    if isinstance(dtype, _Radical):
        return _band_window(keys, cum, query, t, strict, dtype, dtype.spread)
    if dtype is np.float64:
        padded, bound, steps = _padded(keys), np.full(len(query), t), query[None, ::-1]
        hi = _refine_prefix_len(padded, steps, bound, not strict)[::-1]
        lo = _refine_prefix_len(padded, steps, -bound, strict)[::-1]
    else:
        hi = np.searchsorted(keys, t - query, side="left" if strict else "right")
        lo = np.searchsorted(keys, -t - query, side="right" if strict else "left")
    return cum[hi] - cum[lo], 0


def _band_window(keys: np.ndarray, cum: np.ndarray, query: np.ndarray, t, strict: bool, radical: _Radical, spread: int):
    """``(window, fallbacks)``: for each query key ``q``, the patterns of the
    radical ``keys``, sorted by their fixed-point parts, whose sums ``r`` have
    ``|q + r| <= t`` (``< t`` when strict), and the number of keys decided
    exactly.

    ``radical.band`` gives the bracket ends ``(lo, hi)``: a key whose ``q +
    r`` lies in ``[-lo, lo]`` is certainly inside, one in ``(-hi, -lo)`` or
    ``(lo, hi)`` is decoded and compared with ``t`` exactly (``spread`` is
    the kappa sum of the query's and the keys' weights together), and any
    other is certainly outside.  Queries are searched in key order, which
    is faster, unless ``keys`` is one key (the empty tail of ``_walk``); it
    searches int64 copies of the fixed-point columns.
    """
    lo, hi = radical.band(t)
    f = keys[:, 0].astype(np.int64)
    order = np.argsort(query[:, 0], kind="stable") if len(keys) > 1 else slice(None)
    qf, qc = query[:, 0][order].astype(np.int64), query[:, 1][order]
    i1 = np.searchsorted(f, -hi - qf, side="right")
    i2 = np.searchsorted(f, -lo - qf, side="left")
    i3 = np.maximum(np.searchsorted(f, lo - qf, side="right"), i2)
    i4 = np.searchsorted(f, hi - qf, side="left")
    window = cum[i3] - cum[i2]
    fallbacks = 0
    for q in np.flatnonzero((i2 > i1) | (i4 > i3)):
        code = int(qc[q])
        for k in itertools.chain(range(i1[q], i2[q]), range(i3[q], i4[q])):
            s = radical.value(code + int(keys[k, 1]), spread)
            if (-t < s < t) if strict else (-t <= s <= t):
                window[q] += cum[k + 1] - cum[k]
        fallbacks += int(i2[q] - i1[q] + i4[q] - i3[q])
    unsorted = np.empty_like(window)
    unsorted[order] = window
    return unsorted, fallbacks


def _exact_order(keys: np.ndarray, counts: np.ndarray, radical: _Radical):
    """``SumDistribution``'s ``(values, codes, counts)``: merged radical keys
    and their counts, sorted by their fixed-point parts ``f``, put in the
    exact order of their sums.  An ``f`` is less than ``U = radical.units``
    from its sum, so sums out of order have ``f`` less than ``2U`` apart,
    and only runs of such neighbours are sorted by the exact values of their
    codes.  The ``f`` are then made nondecreasing by a running maximum, which
    keeps each less than ``U`` from its sum: every earlier sum is smaller."""
    close = np.diff(keys[:, 0]) < 2 * radical.units
    edges = np.flatnonzero(np.diff(np.concatenate([[False], close, [False]]).astype(np.int8)))
    order = np.arange(len(keys))
    for start, stop in zip(edges[::2], edges[1::2]):  # keys start..stop
        run = range(start, stop + 1)
        order[start : stop + 1] = sorted(run, key=lambda i: radical.value(int(keys[i, 1]), radical.spread))
    keys, counts = keys.take(order, axis=0), counts[order]
    return np.maximum.accumulate(keys[:, 0]).astype(np.int64), keys[:, 1].copy(), counts


@dataclass(frozen=True, eq=False)
class SumDistribution:
    """Complete distribution of eps . x: ``values`` in strictly increasing
    order of the sums, with pattern ``counts`` summing to 2^n; symmetric
    about zero.  With ``scale = (L, D)`` a value is an integer ``s``
    standing for ``s*sqrt(D)/L``.  With ``radical`` set, ``values`` and
    ``codes`` are the columns ``f`` and ``c`` of the sums' radical keys: a
    value is int64, less than ``radical.units`` from ``2^radical.shift``
    times its sum (nondecreasing).  Otherwise a value is the float64 sum."""

    values: np.ndarray
    counts: np.ndarray
    n: int
    mode: str
    scale: Optional[tuple[int, int]] = None
    codes: Optional[np.ndarray] = None
    radical: Optional[_Radical] = None

    @property
    def total(self) -> int:
        return 1 << self.n

    @cached_property
    def entries(self) -> tuple[tuple[Value, int], ...]:
        """``(value, count)`` pairs, rendered from the arrays on first use."""
        if self.mode == FLOAT:
            values = self.values.tolist()
        elif self.radical is not None:
            sums = (self.radical.value(c, self.radical.spread) for c in self.codes.tolist())
            values = [s.as_fraction() if s.is_rational else s for s in sums]
        else:
            denom, rad = self.scale
            values = [
                _sqrt_sum({rad: s}, denom) if rad > 1 and s else Fraction(s, denom)
                for s in self.values.tolist()
            ]
        return tuple(zip(values, self.counts.tolist()))

    def probability(self, t, strict: bool = False):
        """Pr(|value| <= t) (or <): the window of the empty sum into the
        table; used to cross-check the counting engines."""
        t = _normalize_threshold(t, self.mode)
        keys, dtype = self.values, self.values.dtype.type
        if self.radical is not None:  # the key rows again
            keys, dtype = np.stack([keys, self.codes], axis=1), self.radical
        elif self.scale:  # |s| <= cut-off, clamped into the keys' range
            t, strict = min(_int_cutoff(t, *self.scale, strict), int(keys[-1])), False
        cum = np.concatenate([[0], np.cumsum(self.counts)])
        window, _ = _window(keys, cum, _zero(dtype), t, strict, dtype)
        return _probability(max(int(window[0]), 0), self.total, self.mode)


def _float_sums(values: Sequence[float]):
    """The full table ``(keys, counts)`` of the float sums ``fl(l + r)`` of
    the two raw halves, in search order, written once into two buffers of
    2^n entries.  The 2^(n-1) folded pair sums ``|fl(l + r)|`` of
    ``_pair_sums``, one per mirror pair, each counted once, twice where it
    is 0, are written to the upper half of the keys and sorted there.
    Blocks of ``_COMPACT_BLOCK``, from the top down, move the last of each
    run of equal sums up to the end of the buffers, and count the sums from
    the positions of these run ends; the mirror image of the nonzero sums
    goes below them.  A table under a quarter of its buffers is copied out,
    so that a short table does not pin them."""
    half = 1 << len(values) >> 1
    keys, counts = np.empty(2 * half), np.empty(2 * half, dtype=np.int64)
    sums = _pair_sums(values, np.float64, out=keys[half:])
    sums.sort()
    top, after = 2 * half, np.inf  # keys[top:] are compacted; after is the sum above the block
    for stop in range(half, 0, -_COMPACT_BLOCK):
        block = sums[max(stop - _COMPACT_BLOCK, 0) : stop]
        last = np.empty(len(block), dtype=bool)
        np.not_equal(block[:-1], block[1:], out=last[:-1])
        last[-1], after = block[-1] != after, block[0]  # read before the block moves
        ends = np.flatnonzero(last)
        rest = len(block) - 1 - (ends[-1] if len(ends) else -1)
        if rest:  # the sums past the block's last run end are in the run compacted last
            counts[top] += rest
        if len(ends):
            top -= len(ends)
            keys[top : top + len(ends)] = block[ends]
            counts[top] = ends[0] + 1
            np.subtract(ends[1:], ends[:-1], out=counts[top + 1 : top + len(ends)])
    z = int(keys[top] == 0)
    counts[top] *= 1 + z  # both patterns of a mirror pair with sum 0 land on the zero key
    _check_mass(keys[top:], counts[top:], len(values))
    start = 2 * top - 2 * half + z  # the mirror image of keys[top + z:] ends at top
    np.negative(keys[top + z :][::-1], out=keys[start:top])
    counts[start:top] = counts[top + z :][::-1]
    keys, counts = keys[start:], counts[start:]
    return (keys.copy(), counts.copy()) if 4 * len(keys) < 2 * half else (keys, counts)


def sum_distribution(w: WeightVector, *, limit: Optional[int] = None) -> SumDistribution:
    """Explicit distribution of eps . x by full enumeration.

    Worst-case memory is the number of distinct sums (up to 2^n for generic
    weights), so the full-enumeration limit applies.
    """
    n = w.n
    _check_size(n, limit, DEFAULT_FULL_LIMIT, "full-enumeration")

    if w.mode == FLOAT:
        return SumDistribution(*_float_sums(w.values), n, FLOAT)

    vals, dtype, scale, _, _ = _key_setup(w.values, Fraction(1), EXACT)
    keys, counts = _mirror(*_nonneg_sums(vals, dtype, _count_dtype(n)))
    if isinstance(dtype, _Radical):
        values, codes, counts = _exact_order(keys, counts, dtype)
        return SumDistribution(values, counts, n, EXACT, None, codes, dtype)
    return SumDistribution(keys, counts, n, EXACT, scale)


# -- Case-2 event partition ---------------------------------------------------


@dataclass(frozen=True)
class PartitionStats:
    """How a partition was computed.  ``path`` is the key type: "int64",
    "object" (Python ints), "float64" or "radical".  ``frontier[d - 1]`` is
    the number of prefix sums at depth d = 1..n-1 (distinct sums in exact
    mode, sign prefixes in float mode) and ``settled[d - 1]`` how many of
    them were decided there.  ``fallbacks`` counts the radical keys decided
    exactly because they fell within the error band of a decision boundary
    (0 on the other paths), in the walk's tests and in the tail searches,
    which depth n - 1 skips.  Deterministic: no timings."""

    path: str
    frontier: tuple[int, ...]
    settled: tuple[int, ...]
    fallbacks: int


@dataclass(frozen=True)
class PartitionReport:
    """Per-event probabilities of the stopping-time partition A_2..A_n.

    ``probs[i]``, ``joints[i]`` and ``conds[i]`` belong to event A_{ks[i]};
    ``conds[i]`` is None when the event has probability zero.  In float mode
    ``boundary_ties`` flags the tie-sensitive sums, within 1e-12 of a
    decision boundary, as distinct ``(kind, depth, value, count)`` rows: a
    "prefix" row counts the undecided sign prefixes (eps_1 = +1) with sum
    ``value`` at ``depth``, a "final" row the pairs of a prefix settled at
    ``depth``, with sum s, and a distinct tail sum r near ``+-1 - s`` with
    ``fl(s + r) == value``.  Rows are sorted by depth, kind and value; the
    first 200 are kept.
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


def _chain(u, steps: np.ndarray):
    """``fl(...fl(u + steps[-1]) ... + steps[0])``: tail sums ``u`` extended
    by the weights before them, accumulated from the end as the tail tables
    are.  Rows of ``steps`` are signed weights, broadcast against ``u``."""
    for row in steps[::-1]:
        u = u + row
    return u


def _near_tails(keys: np.ndarray, steps: np.ndarray, ends: np.ndarray) -> list:
    """Per end, the sorted distinct tail sums within ``BOUNDARY_TIE_TOL`` of
    it, of the table ``steps`` pulls back from ``keys``."""
    k, padded, tiled = steps.shape[1], _padded(keys), np.tile(steps, len(ends))  # a query per end and pattern
    lo = _refine_prefix_len(padded, tiled, np.repeat(ends - BOUNDARY_TIE_TOL, k), False)
    hi = _refine_prefix_len(padded, tiled, np.repeat(ends + BOUNDARY_TIE_TOL, k), True)
    near = [_chain(keys[a:b], tiled[:, j]) for j, (a, b) in enumerate(zip(lo, hi))]
    return [np.unique(np.concatenate(near[e : e + k])) for e in range(0, len(near), k)]


def _check_window(window: np.ndarray, cum: np.ndarray, depth: int) -> np.ndarray:
    """Tail windows at ``depth``, checked to lie in ``[0, cum[-1]]``."""
    if window.min() < 0 or window.max() > cum[-1]:
        raise SoundnessError(f"a tail window at depth {depth} is negative or exceeds its {cum[-1]} tails")
    return window


def _float_joints(keys, cum, vals, depth: int, sums: dict, one: float, joints: list, ties: Counter) -> None:
    """Add to ``joints[d]`` the tail patterns within 1 of the float sums
    ``sums[d]`` settled at each depth ``d <= depth``, and their "final" tie
    rows to ``ties``, in one search of the table at ``depth`` (``keys``,
    cumulative counts ``cum``): a flat ``_refine_prefix_len`` query per sum
    s and sign pattern of ``vals[d:depth]``, which pull the table back.  A
    column counts the r with ``fl(-1 - s) <= r <= fl(1 - s)``; it is near if
    the r next to an end, the extensions of the keys next to the searched
    end, lie within ``BOUNDARY_TIE_TOL`` of it.  Shorter chains are padded
    with +0.0 rows: ``fl(u + 0.0) = u`` for every u but -0.0, and no key or
    chain value is -0.0, as ``fl(a + b)`` is -0.0 only for ``a = b = -0.0``."""
    rows, tol = depth - min(sums), BOUNDARY_TIE_TOL
    blocks = {d: _sign_matrix(depth - d)[1:] * np.array(vals[d:depth])[:, None] for d in sums}
    ends = list(itertools.accumulate((len(sums[d]) * m.shape[1] for d, m in blocks.items()), initial=0))
    steps, query = np.zeros((rows, ends[-1])), np.empty(ends[-1])
    for (d, m), a, b in zip(blocks.items(), ends, ends[1:]):
        steps[rows - len(m) :, a:b] = np.tile(m, len(sums[d]))  # no rows when d = depth
        query[a:b] = np.repeat(sums[d], m.shape[1])
    lo, hi, padded = -one - query, one - query, _padded(keys)  # the infinite ends are never near
    start, stop = _refine_prefix_len(padded, steps, lo, False), _refine_prefix_len(padded, steps, hi, True)
    at = lambda i: _chain(padded[i], steps)
    near = (at(start + 1) <= lo + tol) | (at(start) >= lo - tol) | (at(stop) >= hi - tol) | (at(stop + 1) <= hi + tol)
    window = _check_window(cum[stop] - cum[start], cum, depth)
    for (d, m), a, b in zip(blocks.items(), ends, ends[1:]):
        joints[d] += int(window[a:b].sum())
        close = near[a:b].reshape(len(sums[d]), -1).any(axis=1)
        if close.any():  # the near tails of a sum depend only on its value; they are rare
            values, copies = np.unique(sums[d][close], return_counts=True)
            tails = [_near_tails(keys, m, end) for end in (-one - values, one - values)]
            for s, c, lo, hi in zip(values, copies.tolist(), *tails):
                for v in (s + np.concatenate([lo, hi])).tolist():
                    ties[d, "final", v] += c


def _last_candidates(s: np.ndarray, gap: np.ndarray, x: float, ties: Counter, depth: int):
    """``(at, window)``: the indices of the float sums ``s`` at depth n - 1
    that ``_walk``'s closed form leaves open, and their windows over the
    distinct tail sums {-x, x} ({0.0} when x = 0), tested as
    ``_float_joints`` tests; their "final" tie rows go to ``ties``.  ``gap``
    is ``|fl(|s| - b)|``, ``b = fl(1 - x)``.

    Candidates have ``gap <= 4e-12`` or ``|s| >= 1 - 4e-12``.  Any other sum,
    ``a = |s|``, counts ``2 - [a > b]`` tails and has no tie row: with ``u =
    2^-53``, sorted Case-2 weights have ``x <= (1 + u)/2``, b is within u of
    ``1 - x``, and ``|a - b| > 4e-12 - u``.  Both tails are over 1/3 above
    ``fl(-1 - a) <= -1``.  ``hi = fl(1 - a)`` is within u of ``1 - a >
    4e-12``, so -x is inside, over ``4e-12 - u`` below hi, and x is over
    ``4e-12 - 3u`` from hi, inside iff ``a < b``, for every x down to 0 (b =
    1).  Each margin exceeds 1e-12 plus the 4u by which ``fl(hi +- 1e-12)``
    may round."""
    at = ((gap <= 4e-12) | (s >= 1 - 4e-12) | (s <= 4e-12 - 1)).nonzero()[0]
    if not len(at):
        return at, at
    tails, tail_counts = (np.array([-x, x]), np.array([1, 1])) if x else (np.zeros(1), np.array([2]))
    ss, tol = s[at, None], BOUNDARY_TIE_TOL
    lo, hi = -1.0 - ss, 1.0 - ss
    near = ((tails >= lo - tol) & (tails <= lo + tol)) | ((tails >= hi - tol) & (tails <= hi + tol))
    for i, j in zip(*near.nonzero()):
        ties[depth, "final", float(ss[i, 0] + tails[j])] += 1
    return at, ((lo <= tails) & (tails <= hi)) @ tail_counts


@dataclass
class _Walk:
    """Phase 1 of ``prefix_partition``: the weights as keys (``one`` is the
    threshold 1 in key units), the step ``g`` of their lattice (0 off int64
    keys) with ``top = one // g``, and what the walk of the prefix sums found.

    ``probs`` are ``Pr(A_k)`` for k = 2..n, ``2*counts[k]/2^n``.
    ``prefixes[d]`` holds the sums that crossed at a depth d < n - 1: the
    sums and their pattern counts (None in float mode, where each sum is one
    sign prefix).  ``counts[k]`` counts the patterns of A_k with eps_1 =
    +1, and ``joints[k]`` those within 1, k = n - 1 and n so far.  ``ties``
    counts the float tie rows by ``(depth, kind, value)``; phase 2 adds its
    own rows, and its own fallbacks to those of ``stats``."""

    vals: list
    dtype: object
    one: object
    g: int
    top: int
    probs: tuple
    counts: list
    prefixes: dict
    joints: list
    ties: Counter
    stats: PartitionStats


def _dense_extend(kept: np.ndarray, shift: int, out: np.ndarray) -> None:
    """One shifted add of a dense table: ``out``, ``shift`` points longer
    than ``kept``, is ``kept`` added in at offsets 0 and ``shift``.  Where
    ``kept`` counts the consecutive points j, j + 2, ... of one parity class
    of the multiples j*g of g, ``out`` counts the ``(j - v)*g`` and ``(j +
    v)*g`` on the next class, with ``shift = v``: the walk's dense frontier
    and ``_backward_joints``.

    The dense step of ``_table_steps`` is the same add, but reads the zeros
    past its table and adds in two passes where this zeroes, copies and
    adds.  Through this helper it was slower, medians of 10 alternating
    rounds in process, 2-CPU x86, numpy 2.4: ``threshold_probability`` on
    mitm-query's rational n = 32 class 0.193 -> 0.233 ms, one-radicand n =
    16 level; exact ``sum_distribution`` of partition-walk's rational n = 20
    class 0.327 -> 0.404 ms, ``[1, 9]`` n = 24 0.086 -> 0.093 ms, 20 in
    ``[1, 10000]`` 0.97 -> 1.08 ms, 24 in ``[1, 20000]`` 3.35 -> 4.31 ms."""
    out[:shift] = 0
    out[shift:] = kept
    out[: len(kept)] += kept


def _walk(w: WeightVector, limit: Optional[int]) -> _Walk:
    """Phase 1 of ``prefix_partition``, which alone gives the event
    probabilities ``Pr(A_k)``: the frontier of prefix sums walked depth by
    depth, each depth settling the sums whose event it decides.  Depth n - 1
    counts its joints without a table: a sum s alive there has ``|s| <= 1``,
    as ``|s_{n-2}| <= 1 - x_{n-1}`` (``x_1 <= 1 - x_2`` by Case 2), so one of
    ``s +- x_n`` is within 1 if ``|s| > 1 - x_n``, else both.  In exact mode,
    on every key path, ``joint_{n-1} = Pr(A_{n-1})/2`` and ``joint_n =
    Pr(A_n)``; float sums count the same but for ``_last_candidates``."""
    n, limit = w.n, _size_limit(limit, DEFAULT_FULL_LIMIT)
    if n < 2:
        raise InputError("prefix_partition requires n >= 2")
    if case_of(w) is CaseTag.CASE1:
        raise WrongCaseError("not case 2: x1 + x2 > 1, events A_2..A_n do not cover")
    if n > limit:
        raise SizeLimitError(n, limit, "full-enumeration")

    exact = w.mode == EXACT
    vals, dtype, _, one, _ = _key_setup(w.values, Fraction(1) if exact else 1.0, w.mode)
    radical = dtype if isinstance(dtype, _Radical) else None
    path = "radical" if radical else np.dtype(dtype).name

    counts, joints = [0] * (n + 1), [0] * (n + 1)
    frontier, settled = [], []
    prefixes = {}
    ties = Counter()
    fallbacks = 0

    # Global sign flip maps each event onto itself, so fix eps_1 = +1 and
    # double every count.  In exact mode ``mult`` counts the sign prefixes
    # merged into each sum; in float mode sums are never merged.  Every sum
    # lies in [-one, one]; int64 sums lie on its lattice of the multiples j*g
    # of g = gcd(vals), |j| <= top, and those at depth d on one parity class
    # of it, j = p_d (mod 2), p_d = (x_1 + ... + x_d)/g.  Once the top + 1
    # points that hold a class fit _dense_fits against its sums the
    # frontier turns dense: ``dense[(j + top + 1) >> 1]`` counts the sum j*g
    # (the map takes either class onto 0..top), and ``dense[lo:hi]`` holds
    # the sums with |j| <= reach: no step reads outside it, and each writes
    # all of its own.  ``inner`` is rounded down onto the class, so the
    # middle slice holds |j| <= inner and the outer slices start at j =
    # -reach and j = inner + 2.
    s = _zero(dtype) + vals[0]
    mult = np.ones(1, dtype=_count_dtype(n)) if exact else None
    g = _lattice_step(vals, dtype)
    top = one // g if g else 0
    dense = None
    for depth in range(1, n):
        if dense is None and g and _dense_fits(top + 1, len(s)):
            dense, spare = np.zeros((2, top + 1), dtype=mult.dtype)
            dense[(s // g + top + 1) >> 1] = mult
            reach = max(-int(s[0]), int(s[-1])) // g
            lo, hi = (top + 1 - reach) >> 1, (top + 3 + reach) >> 1
        if dense is not None:  # |j*g| <= one - x_{d+1} iff |j| <= inner: the middle slice stays
            inner = min((one - vals[depth]) // g, reach) if depth >= 2 else reach
            inner -= (reach - inner) & 1
            b, c = (top + 1 - inner) >> 1, (top + 3 + inner) >> 1
            low, mid, high = dense[lo:b], dense[b:c], dense[c:hi]
            frontier.append(int(np.count_nonzero(dense[lo:hi])))
            if depth == n - 1:
                break
            ls, hs = low.nonzero()[0], high.nonzero()[0]
            settled.append(len(ls) + len(hs))
            if settled[-1]:  # in ascending order, as the sparse walk holds them; i points past lo is j = 2i - reach
                mm = np.concatenate([low[ls], high[hs]])
                prefixes[depth] = (np.concatenate([ls, hs + (c - lo)]) * (2 * g) - reach * g, mm)
                counts[depth] += int(mm.sum()) << (n - depth)
            v = vals[depth] // g
            reach = inner + v
            lo, hi = (top + 1 - reach) >> 1, (top + 3 + reach) >> 1
            _dense_extend(mid, v, spare[lo:hi])
            dense, spare = spare, dense
            continue
        frontier.append(len(s))
        cross = np.zeros(len(s), dtype=bool)
        if depth >= 2 and radical:  # |s| > b iff the empty tail is outside its window
            b = one - w.values[depth]
            inside, decided = _band_window(_zero(dtype), np.arange(2), s, b, False, radical, radical.spreads[depth])
            cross, fallbacks = inside == 0, fallbacks + decided
        elif depth >= 2:
            gap = np.abs(s)
            gap -= one - vals[depth]  # fl(|s| - b) has the sign of |s| - b, as subnormals are kept
            cross = gap > 0
            if not exact and np.abs(gap, out=gap).min(initial=np.inf) <= BOUNDARY_TIE_TOL:
                tie = gap <= BOUNDARY_TIE_TOL
                for v, c in zip(*np.unique(s[tie], return_counts=True)):
                    ties[depth, "prefix", float(v)] = int(c)
        if depth == n - 1:
            break
        keep = ~cross  # numpy masks rows one at a time; compress is slower on mostly-true 1-D masks
        kept = s.compress(keep, axis=0) if radical else s[keep]
        settled.append(len(s) - len(kept))
        if settled[-1]:
            mm = mult[cross] if exact else None
            prefixes[depth] = (s.compress(cross, axis=0) if radical else s[cross], mm)
            counts[depth] += (int(mm.sum()) if exact else settled[-1]) << (n - depth)
        s = _extend(kept, vals[depth])
        if exact:
            s, mult = _merge_equal(s, np.concatenate([mult[keep], mult[keep]]))

    # depth n - 1 in closed form (see the docstring): the crossed sums, then the others
    settled.append(frontier[-1])
    if dense is not None:
        hits = int(low.sum()) + int(high.sum()), int(mid.sum())
    else:
        hits = [int(mult[sel].sum()) if exact else int(np.count_nonzero(sel)) for sel in (cross, ~cross)]
    for k, h, within in zip((n - 1, n), hits, (1, 2)):
        counts[k] += h << 1
        joints[k] += h * within
    if not exact:  # at n = 2 nothing is tested and the one sum, x_1, is a candidate
        at, inside = _last_candidates(s, gap if n > 2 else np.zeros(1), vals[-1], ties, n - 1)
        for i, c in zip(inside.tolist(), cross[at].tolist()):
            joints[n - 1 if c else n] += i - (1 if c else 2)

    mass = 2 * sum(counts)
    if mass != 1 << n:
        raise SoundnessError(f"partition mass {mass} != 2^{n}: events A_2..A_n do not cover")
    probs = tuple(_probability(2 * counts[k], 1 << n, w.mode) for k in range(2, n + 1))
    stats = PartitionStats(path, tuple(frontier), tuple(settled), fallbacks)
    return _Walk(vals, dtype, one, g, top, probs, counts, prefixes, joints, ties, stats)


def _balanced_costs(settled: Sequence[int], n: int) -> list:
    """``sum_{d<D} settled_d*2^(D-d) + 2^(n-D)`` for D = 1..n-1: about the
    keys the sparse phase 2 steps through from D (see ``_phase2_depth``).
    Deferred costs run as ``deferred_{D+1} = 2*(deferred_D + settled_D)``."""
    costs, deferred = [], 0
    for depth in range(1, n):
        costs.append(deferred + (1 << (n - depth)))
        deferred = 2 * (deferred + settled[depth - 1])
    return costs


def _phase2_depth(walk: _Walk) -> Optional[int]:
    """The one plan of phase 2 of ``prefix_partition``: None where it runs
    ``_backward_joints``, else the depth D from which it builds tail tables.

    The tables are built from the end, so those for depths D..n-1 cost
    about 2^(n-D), the size of the largest; a prefix settled at a depth
    d < D is counted instead against the table at D, over the 2^(D-d) sign
    patterns of the weights in between.  D minimises ``_balanced_costs``
    over ``1 <= D <= n-1`` (the smallest on a tie): the balance of Horowitz
    and Sahni's meet-in-the-middle, taken over the settled counts
    (``settled[d - 1]``) of the walk.  For n > 2 nothing settles at depth
    1, so D = 2 costs half of D = 1 and D is never 1.

    The recurrence runs on int64 keys (``walk.g`` > 0) whose lattice fits
    ``_dense_fits`` summed over its steps, depths n - 1 down to the first
    that settled sums, against the least cost: a step to depth d holds
    about ``(top + A_d)/2`` points (see ``_backward_joints``).  Other keys,
    longer lattices and walks that settled nothing before depth n - 1 take
    the tables."""
    vals, g, n = walk.vals, walk.g, len(walk.vals)
    costs = _balanced_costs(walk.stats.settled, n)
    least = min(costs)
    if g and walk.prefixes:
        first = min(walk.prefixes)
        points = sum((walk.top + tail // g) // 2 for tail in itertools.accumulate(reversed(vals[first:])))
        if _dense_fits(points, least, steps=n - first):
            return None
    return 1 + costs.index(least)


def _backward_joints(walk: _Walk, joints: list) -> None:
    """Phase 2 of ``prefix_partition`` on int64 keys: the joint count of
    every settled sum by Bellman's recurrence, run backwards.

    Let ``W_d(u)`` count the sign patterns r of the weights after depth d
    with ``|u + r| <= one``.  Then ``W_n(u) = [|u| <= one]``, and, split by
    the sign of ``x_{d+1}``, ``W_d(u) = W_{d+1}(u - x_{d+1}) + W_{d+1}(u +
    x_{d+1})``; a sum s settled at depth d adds ``mult(s)*W_d(s)`` to its
    joint.  In units of ``g = gcd(x_i)``, ``a_i = x_i/g``, ``u = j*g`` and
    ``top = one // g``, ``W_d`` is held only where it can be read:

    * on one parity class: a sum settled at d is ``j = +-a_1 ... +-a_d``,
      so ``j = p_d (mod 2)`` with ``p_d = a_1 + ... + a_d``, and the
      recurrence reads ``W_{d+1}`` at ``j +- a_{d+1}``, on the class of
      ``p_{d+1}``.  Point k of the class is ``j = 2k + p_d``;
    * for ``j >= 0``: r and -r are both patterns, so ``W_d(-j) = W_d(j)``.
      The array holds ``W_d`` at k from -``margin`` on, index ``margin +
      k``, and each step first refills the ``margin`` points below k = 0
      with their mirror images (-j is at ``k' = -k - p_d``);
    * up to ``top + A_d``, ``A_d = a_{d+1} + ... + a_n``, past which
      ``W_d`` is 0, as ``|r| <= A_d``.

    With ``c = (p_d + a)//2`` and ``c' = a - c`` for ``a = a_{d+1}``, ``j +
    a`` is point ``k + c`` of the class of ``p_{d+1}`` and ``j - a`` point
    ``k - c'``, so ``W_d[k] = W_{d+1}[k + c] + W_{d+1}[k - c']``:
    ``_dense_extend`` of the held ``W_{d+1}`` by a, read from offset c.
    Its ``k - c'`` term is read for ``k >= 0`` only while ``c' <=
    margin``, and ``c' <= (a + 1)//2``.  It writes up to ``top + A_d``,
    since ``k + c`` past the held ``W_{d+1}`` is past its support.

    Mass identity: summed over its whole class, ``W_d`` counts for each
    tail pattern r the points ``v = j + r/g`` with ``|v| <= top``, and v is
    on the class of ``p_d + A_d = p_n``; so the sum is ``2^(n-d)*N``, N the
    points of that class in ``[-top, top]``.  Each step doubles the mass
    and carries every count it reads into ``W_d``, so a count dropped or
    doubled at any depth moves the mass at the last depth: checked there,
    as a ``SoundnessError``.  Counts are int64 while the mass stays below
    2^63, else Python ints.
    """
    vals, g, top, prefixes = walk.vals, walk.g, walk.top, walk.prefixes
    n, first = len(vals), min(prefixes)
    a = [v // g for v in vals]
    parity = [s & 1 for s in itertools.accumulate(a, initial=0)]
    shifts = [(p + v) // 2 for p, v in zip(parity, a)]  # W_d[k] = out[margin + k + shifts[d]]
    margin = (max(a[first:]) + 1) // 2
    inside = (top - parity[n]) // 2 + 1  # the points k >= 0 of W_n within top
    points = 2 * inside - 1 + parity[n]  # N
    length = max(margin + inside, 2 * margin + 1)  # room for the first mirror
    size = length + sum(a[first:]) - sum(shifts[first + 1 :])  # the last, longest out
    buffers = np.zeros((2, size), dtype=_count_dtype(n + points.bit_length()))
    held = buffers[0, :length]
    held[margin : margin + inside] = 1
    for step, depth in enumerate(range(n - 1, first - 1, -1), 1):
        p, v = parity[depth + 1], a[depth]
        held[:margin] = held[margin + 1 - p : 2 * margin + 1 - p][::-1]
        out = buffers[step & 1, : len(held) + v]
        _dense_extend(held, v, out)
        held = out[shifts[depth] :]
        if depth in prefixes:  # j = 2k + p_d, or its mirror image, is at margin + |j| // 2
            ss, mm = prefixes.pop(depth)
            joints[depth] += int(np.dot(mm, held[margin + np.abs(ss) // (2 * g)]))
    mass = 2 * int(held[margin:].sum()) - (0 if parity[first] else int(held[margin]))
    if mass != points << (n - first):
        raise SoundnessError(f"backward recurrence mass {mass} != {points}*2^{n - first}")


def prefix_partition(w: WeightVector, *, limit: Optional[int] = None) -> PartitionReport:
    """Partition all 2^n sign sequences by the first prefix k in {2..n-1}
    with |s_k| > 1 - x_{k+1} (event A_k), defaulting to A_n.

    Requires Case 2 (x1 + x2 <= 1), tested before the size limit: only
    then does |s_1| <= 1 - x_2 hold surely and A_2..A_n cover the space.

    Phase 1 (``_walk``) walks the frontier of prefix sums: each depth d
    settles the sums whose event it decides, counts their events and keeps
    them, with their pattern counts, for phase 2; depth n - 1 counts its
    joints in closed form.  Phase 2 counts the joint mass ``|s + r| <= 1``
    of each other settled sum ``s`` over the tail sums ``r`` of the weights
    after it, by one of two routes, which ``_phase2_depth`` plans from the
    walk alone (its keys, their lattice and its settled counts); both give
    the same report.

    On int64 keys whose lattice fits ``_dense_fits`` summed over the steps,
    ``_backward_joints`` runs Bellman's recurrence backwards: the count
    ``W_d(u)`` of tail patterns after depth d with ``|u + r| <= 1`` is
    ``W_{d+1}(u - x_{d+1}) + W_{d+1}(u + x_{d+1})``, one shifted add per
    depth from n - 1 down to the first that settled sums, and a sum s
    settled at d adds ``mult(s)*W_d(s)``.  Its mass identity stands in for
    the tables' mass checks.

    Radical, float and Python-int keys, and longer lattices, take the
    sparse tail tables, built only for the depths from the planner's D on:
    a sum settled at ``d >= D`` searches the table at d, and one settled at
    ``d < D`` is counted against the table at D over every sign pattern m of
    the weights ``x_{d+1}..x_D`` in between.
    With exact keys the sum is extended by those weights, merged as the
    frontier merges; a radical key extended so is still a fixed-point sum
    over weights disjoint from the tail, which ``_Radical.band`` covers.  In
    float mode the table at d holds ``G_m(u) = fl(...fl(u +- x_D) ... +-
    x_{d+1})`` for the sums u of the table at D, so the tail is pulled back
    instead, by one flat ``_refine_prefix_len`` search: G_m is monotone in
    u, so the u that land in the window ``[fl(-1 - s), fl(1 - s)]``, or
    within 1e-12 of its ends for the tie records, form one interval of the
    table at D.  Counts and tie records are those of the table at d.
    Raises ``SoundnessError`` unless ``0 <= joint_k <= Pr(A_k)`` for every k.
    """
    walk = _walk(w, limit)
    n, exact, one, prefixes, fallbacks = w.n, w.mode == EXACT, walk.one, walk.prefixes, walk.stats.fallbacks
    vals, dtype, ties, joint_count = walk.vals, walk.dtype, walk.ties, walk.joints

    if (balanced := _phase2_depth(walk)) is None:
        _backward_joints(walk, joint_count)
        tables = ()
    else:  # the table at ``depth`` covers coordinates depth+1..n (0-based vals[depth:])
        wanted = {n - max(d, balanced) for d in prefixes}  # the sizes of the tables searched
        tables = zip(range(n - 1, balanced - 1, -1), _tail_distributions(vals[balanced:], dtype, wanted))
    for depth, table in tables:
        here = [d for d in range(1 if depth == balanced else depth, depth + 1) if d in prefixes]
        if not here:
            continue
        tkeys, tcounts = _mirror(*table)
        cum = np.concatenate([[0], np.cumsum(tcounts)])
        if not exact:
            _float_joints(tkeys, cum, vals, depth, {d: prefixes.pop(d)[0] for d in here}, one, joint_count, ties)
            continue
        for d in here:
            ss, mm = prefixes.pop(d)
            for v in vals[d:depth]:
                ss, mm = _merge_equal(_extend(ss, v), np.concatenate([mm, mm]))
            window, decided = _window(tkeys, cum, ss, one, False, dtype)
            fallbacks += decided
            joint_count[d] += int((mm * _check_window(window, cum, depth)).sum())
    if prefixes:
        raise SoundnessError(f"sums settled at depths {sorted(prefixes)} were never counted")

    rows = tuple((kind, d, v, c) for (d, kind, v), c in sorted(ties.items())[:_MAX_TIE_RECORDS])
    ks = tuple(range(2, n + 1))
    ratio = lambda c: _probability(2 * c, 1 << n, w.mode)
    for k, p in zip(ks, walk.probs):
        if not 0 <= joint_count[k] <= walk.counts[k]:
            raise SoundnessError(f"joint mass {ratio(joint_count[k])} of A_{k} is negative or exceeds Pr(A_{k}) = {p}")
    joints = tuple(ratio(joint_count[k]) for k in ks)
    # a cond is the quotient of two probabilities, 2*jc/2^n and 2*c/2^n: in
    # float mode two exact dyadic floats, so it is the correctly rounded jc/c
    conds = tuple(_probability(joint_count[k], c, w.mode) if (c := walk.counts[k]) else None for k in ks)
    return PartitionReport(
        n, w.mode, ks, walk.probs, joints, conds, ratio(sum(joint_count)), rows,
        replace(walk.stats, fallbacks=fallbacks),
    )
