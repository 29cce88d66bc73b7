"""Monte Carlo estimation, the bound-function lemma certificate, extremal
search.

Reproducibility contract: all randomness comes from numpy's PCG64 keyed by
a 64-bit seed.  Monte Carlo reads its signs from the raw PCG64 output,
which numpy keeps stable across versions (NEP 19), and sums each sample in
the engine's fixed order, one float operation at a time, so the estimate
depends on (w, t, samples, seed) alone: not on the block size, the numpy
version or the BLAS threading.  The search is derivative-free pattern
search with random restarts; restart 0 always starts from the uniform
vector and moves are accepted only on strict improvement, so ties resolve
to the earliest restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from statistics import NormalDist
from typing import Optional

import numpy as np

from .bounds import THEOREM_FLOOR, crossing_point, g, h, minmax_bound
from .engine import DEFAULT_MITM_LIMIT, _half_sums, _normalize_threshold, _size_limit
from .engine import admissible_count
from .errors import InputError, SoundnessError, _check_int
from .weights import FLOAT, WeightVector, canonicalize

# Monte Carlo reads its signs in blocks of about 1 MB of 32-bit draws; the
# block size is no part of the estimate.
_MC_DRAWS = 1 << 18
# Each half sum of a sample starts at a table of the 2^k sums of the half's
# first k values (at most 16: the table index is 16 bits).  monte_carlo in ms,
# k = 12 / 14 / 16, medians of interleaved calls in one process on a 2-CPU
# x86 box, numpy 2.4, one BLAS thread, integer weights: 20000 samples, n = 30
# 2.45 / 2.34 / 2.56 and n = 40 3.33 / 3.50 / 3.48; 10^6 samples, n = 40 125
# / 102 / 96.
_MC_TABLE_BITS = 16
_INITIAL_STEP = 0.25
_MIN_STEP = 1e-6
_MAX_SEED = 2**64 - 1  # PCG64 takes a 64-bit unsigned seed


# -- Monte Carlo --------------------------------------------------------------


@dataclass(frozen=True)
class EstimateCI:
    """Hit-fraction estimate with a Wilson score interval.

    ``estimate`` is the raw hit fraction; the interval is
    ``center +- half_width`` (Wilson), clipped to [0, 1] by ``interval``.
    """

    estimate: float
    half_width: float
    center: float
    confidence: float
    samples: int
    seed: int

    @property
    def interval(self) -> tuple[float, float]:
        return (max(0.0, self.center - self.half_width),
                min(1.0, self.center + self.half_width))


def _half_block(signs: np.ndarray, table: np.ndarray, tail: list[np.ndarray]) -> np.ndarray:
    """Each row's half sum, accumulated in index order from +0: ``table``
    holds the 2^k sums of the half's first ``k`` values, read at the row's
    first ``k`` signs as the bits of an index, and each pair ``(-v, v)`` of
    ``tail`` then adds the next value at the sign in the next column."""
    k = table.size.bit_length() - 1
    bits = np.zeros((len(signs), 16), dtype=np.uint8)
    bits[:, :k] = signs[:, :k]
    sums = np.take(table, np.packbits(bits, bitorder="little").view("<u2"))
    for j, pair in enumerate(tail, k):
        sums += np.take(pair, signs[:, j])
    return sums


def monte_carlo(
    w: WeightVector, t=1, samples: int = 100_000, seed: int = 0, *, confidence: float = 0.99
) -> EstimateCI:
    """Estimate Pr(|eps . x| <= t) from seeded random sign patterns.

    It estimates the float engine's probability for the floats
    ``w.as_floats()``: each sample's sum is ``fl(l + r)``, with ``l`` the
    signed sum of the first ``n - n//2`` floats and ``r`` that of the rest,
    each accumulated in index order from +0, as the engine's halves are, so
    the expected estimate is exactly ``signed_sum_count(w.as_floats(), t,
    "float")`` over 2^n, whatever the vector's mode.  In exact mode a sum
    that lies exactly on ``+-t`` is therefore counted the float way: 25
    weights ``sq:1,...,1`` have probability 0.7705 exactly and 0.7352 in
    float, and sampling estimates 0.7352.

    Sample ``i``'s sign for weight ``j`` is +1 iff bit 31 of the 32-bit draw
    ``i*n + j`` is set, each 64-bit output of ``PCG64(seed).random_raw()``
    giving two draws, low half first.  numpy keeps the raw output stable
    across versions; these are also the signs numpy 2.4's ``integers(0,
    2)`` draws from it.
    """
    _check_int(samples, "samples", 1)
    _check_int(seed, "seed", 0, _MAX_SEED)
    if not isinstance(confidence, Real) or not 0 < confidence < 1:
        raise InputError("invalid input: confidence must be in (0, 1)")
    tf = _normalize_threshold(t, FLOAT)
    x = w.as_floats()
    n = len(x)
    split = n - n // 2
    halves = [
        (lo, _half_sums(v[:_MC_TABLE_BITS], np.float64), [np.array([-a, a]) for a in v[_MC_TABLE_BITS:]])
        for lo, v in ((0, x[:split]), (split, x[split:]))
    ]
    bitgen = np.random.PCG64(seed)
    rows = max(2, _MC_DRAWS // n) & ~1  # an even block takes whole 64-bit outputs
    hits = 0
    for start in range(0, samples, rows):
        m = min(rows, samples - start)
        raw = bitgen.random_raw((m * n + 1) // 2).astype("<u8", copy=False)
        signs = (raw.view("<u4")[: m * n] >= 1 << 31).view(np.uint8).reshape(m, n)
        left, right = (_half_block(signs[:, lo:], table, tail) for lo, table, tail in halves)
        hits += int(np.count_nonzero(np.abs(left + right) <= tf))
    phat = hits / samples
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2.0 * samples)) / denom
    half_width = (
        z * math.sqrt(phat * (1.0 - phat) / samples + z * z / (4.0 * samples * samples)) / denom
    )
    return EstimateCI(
        estimate=phat,
        half_width=half_width,
        center=center,
        confidence=confidence,
        samples=samples,
        seed=seed,
    )


# -- lemma sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class LemmaRow:
    k: int
    crossing_x: Fraction
    g_at_crossing: Fraction
    h_at_crossing: Fraction
    minmax: Fraction
    monotone_g_ok: bool
    monotone_h_ok: bool
    min_location_ok: bool


@dataclass(frozen=True)
class LemmaSweepReport:
    k_max: int
    rows: tuple[LemmaRow, ...]
    violations: tuple[str, ...]
    minmax_nondecreasing: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.minmax_nondecreasing


# Two values of k and three of x fix a polynomial of degree <= 1 in k and
# <= 2 in x; three values of k fix one of degree <= 2 in k.
_K_GRID = (2, 3)
_X_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
_MINMAX_K_GRID = (2, 3, 4)


def _certify_all_k(violations: list[str]) -> tuple[bool, bool]:
    """Closed-form certificate of the lemma facts for every k >= 2 at once,
    in exact rational arithmetic: whether the g facts and the h facts hold
    (the min location needs both); failures are appended to ``violations``.

    With D = (2-x)^2 > 0 on [0, 1], the definitions of g and h read
    2D g_k = D - 1 + k x^2 and 2kD h_k = kD - k + (1-x)^2.  The residuals
    2D g_k(x) - (D - 1 + k x^2) and 2kD h_k(x) - (kD - k + (1-x)^2) are
    polynomials of degree <= 1 in k and <= 2 in x, so vanishing of the real
    ``g``/``h`` residuals on the grid {2, 3} x {0, 1/2, 1} proves both
    identities for every k and every x.  They give
    g_k' = (2kx - 1)/(2-x)^3, h_k' = -(1 + (1-x)/k)/(2-x)^3 and
    g_k - h_k = ((k+1)x - 1)(1 + (k-1)x)/(2kD), whose numerators are linear
    in x with signs that hold for every k >= 2: 2kx - 1 >= 0 on [1/(2k), 1]
    (zero at its left end), -(1 + (1-x)/k) < 0 and 1 + (k-1)x > 0 on
    [0, 1], and (k+1)x - 1 changes sign only at 1/(k+1) >= 1/(2k).  Hence
    g_k is nondecreasing on [1/(2k), 1], h_k is decreasing on [0, 1], and
    max(g_k, h_k) is h_k up to the crossing 1/(k+1) and g_k after it, so
    its minimum over [0, 1] is at the crossing.  There the g identity gives
    3k(k+1)/(2(2k+1)^2) = (3/8)(1 - 1/(2k+1)^2): 9/25 at k = 2, strictly
    increasing, with limit 3/8.
    """

    def identity(fact: str, residual) -> bool:
        for k in _K_GRID:
            for x in _X_GRID:
                if residual(k, x):
                    violations.append(f"{fact} fails at k={k}, x={x}")
                    return False
        return True

    return (
        identity("2(2-x)^2 g_k(x) = (2-x)^2 - 1 + kx^2",
                 lambda k, x: 2 * (2 - x) ** 2 * g(k, x) - ((2 - x) ** 2 - 1 + k * x * x)),
        identity("2k(2-x)^2 h_k(x) = k(2-x)^2 - k + (1-x)^2",
                 lambda k, x: 2 * k * (2 - x) ** 2 * h(k, x) - (k * (2 - x) ** 2 - k + (1 - x) ** 2)),
    )


def lemma_sweep(k_max: int) -> LemmaSweepReport:
    """Verify the bound-function lemma: for every k >= 2, g_k nondecreasing
    on [1/(2k), 1], h_k nonincreasing on [0, 1], and the min of
    max(g_k, h_k) over [0, 1] at the crossing 1/(k+1), where it equals
    ``minmax_bound(k)``, nondecreasing in k from 9/25 at k = 2.

    The lemma is proved once for every k by ``_certify_all_k``, and the
    closed form of ``minmax_bound`` on k = 2, 3, 4 (2(2k+1)^2 m(k) is
    quadratic in k).  Each row, k = 2..k_max, adds one literal check:
    g_k and h_k at ``crossing_point(k)`` both equal ``minmax_bound(k)``.
    Every check is exact; violations are report entries, not exceptions.
    """
    _check_int(k_max, "k_max", 2)
    violations: list[str] = []
    g_ok, h_ok = _certify_all_k(violations)
    nondecreasing = all(
        2 * (2 * k + 1) ** 2 * minmax_bound(k) == 3 * k * (k + 1) for k in _MINMAX_K_GRID
    )
    if not nondecreasing:
        violations.append("minmax_bound(k) = 3k(k+1)/(2(2k+1)^2) fails on k = 2, 3, 4")
    rows: list[LemmaRow] = []
    for k in range(2, k_max + 1):
        cp = crossing_point(k)
        gc, hc, mm = g(k, cp), h(k, cp), minmax_bound(k)
        tied = gc == hc == mm
        if not tied:
            violations.append(
                f"k={k}: g_{k}({cp}) = {gc}, h_{k}({cp}) = {hc} and minmax_bound({k}) = {mm} differ"
            )
        rows.append(LemmaRow(k, cp, gc, hc, mm, g_ok, h_ok, g_ok and h_ok and tied))
    return LemmaSweepReport(
        k_max=k_max,
        rows=tuple(rows),
        violations=tuple(violations),
        minmax_nondecreasing=nondecreasing,
    )


# -- extremal search -----------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Best (lowest-probability) vector found; never a global-optimality claim.

    ``best_prob`` is the exact dyadic probability, recomputed from
    ``best_w`` after the search.  A value below the 0.36 floor would be a
    counterexample candidate and is flagged loudly, never silently kept.
    """

    best_w: WeightVector
    best_prob: Fraction
    trajectory: tuple[tuple[int, Fraction], ...]
    budget_used: int
    counterexample_candidate: bool
    n: int
    seed: int


def minimize_probability(
    n: int,
    budget: int,
    seed: int,
    *,
    limit: Optional[int] = None,
) -> SearchResult:
    """Random-restart pattern search for low Pr(|eps . x| <= 1) over the
    canonical unit sphere.

    The objective is the exact admissible count from the engine (float mode
    probabilities are exact dyadics).  Moves perturb one coordinate by the
    current step, re-canonicalize (abs, sort, renormalize), and are taken
    only on strict improvement, best neighbor first; the step halves when no
    neighbor improves and the walk restarts below ``_MIN_STEP``.
    """
    lim = _size_limit(limit, DEFAULT_MITM_LIMIT)
    _check_int(n, "n", 2, lim)
    _check_int(budget, "budget", 1)
    _check_int(seed, "seed", 0, _MAX_SEED)

    rng = np.random.Generator(np.random.PCG64(seed))
    evals = 0
    trajectory: list[tuple[int, Fraction]] = []
    best_w: Optional[WeightVector] = None
    best_p: Optional[Fraction] = None

    def evaluate(vec: np.ndarray) -> Optional[tuple[Fraction, WeightVector]]:
        nonlocal evals
        evals += 1
        try:
            wv = canonicalize([float(v) for v in vec], FLOAT)
        except InputError:
            return None
        hits, total = admissible_count(wv, 1.0, limit=lim)
        return Fraction(hits, total), wv

    def consider(p: Fraction, wv: WeightVector) -> None:
        nonlocal best_w, best_p
        if best_p is None or p < best_p:
            best_p, best_w = p, wv
            trajectory.append((evals, p))

    restart = 0
    while evals < budget:
        if restart == 0:
            start = np.ones(n) / math.sqrt(n)
        else:
            start = rng.standard_normal(n)  # an all-zero draw is skipped by evaluate
        out = evaluate(start)
        if out is None:
            restart += 1
            continue
        cur_p, cur_w = out
        consider(cur_p, cur_w)
        step = _INITIAL_STEP
        while step >= _MIN_STEP and evals < budget:
            nb_p, nb_w = None, None
            cur = np.asarray(cur_w.as_floats())
            for i in range(n):
                for delta in (step, -step):
                    if evals >= budget:
                        break
                    cand = cur.copy()
                    cand[i] += delta
                    out = evaluate(cand)
                    if out is None:
                        continue
                    p, wv = out
                    if p < cur_p and (nb_p is None or p < nb_p):
                        nb_p, nb_w = p, wv
            if nb_p is not None:
                cur_p, cur_w = nb_p, nb_w
                consider(cur_p, cur_w)
            else:
                step /= 2
        restart += 1

    if best_w is None or best_p is None:
        raise SoundnessError(f"search evaluated no valid candidate in {evals} steps")
    hits, total = admissible_count(best_w, 1.0, limit=lim)
    recomputed = Fraction(hits, total)
    if recomputed != best_p:  # search never trusts a stale objective
        raise SoundnessError(
            f"search objective {best_p} does not match its recomputation {recomputed}"
        )
    return SearchResult(
        best_w=best_w,
        best_prob=recomputed,
        trajectory=tuple(trajectory),
        budget_used=evals,
        counterexample_candidate=recomputed < THEOREM_FLOOR,
        n=n,
        seed=seed,
    )
