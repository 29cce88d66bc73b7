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
to the earliest restart.  Each step's neighbors are scored together, in
stacked raw pair counts up to the engine's ``_RAW_PAIRS_N`` weights; each
row gets the float operations of its own engine call, so the search is as
deterministic as one count per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .bounds import THEOREM_FLOOR, crossing_point, g, h, minmax_bound
from .engine import DEFAULT_MITM_LIMIT, _RAW_PAIRS_N, _count_raw, _half_sums, _key_setup
from .engine import _check_size, _normalize_threshold, _size_limit, admissible_count, signed_sum_count
from .errors import InputError, SoundnessError, _check_int
from .weights import FLOAT, WeightVector, _canonical_floats, canonicalize

# Monte Carlo reads its signs in blocks of about _MC_DRAWS 32-bit draws (512
# KB of raw output), and each half sum starts at a table of the 2^k sums of
# the half's first k values, k at most _MC_TABLE_BITS (the table index is 16
# bits) and 2^k at most the samples.  Neither is part of the estimate.  On a
# 2-CPU x86 box, numpy 2.4, at 2^15 / 2^16 / 2^17 / 2^18 draws: in
# certify-cli's call order, the mc class median 3.17 / 3.18 / 3.27 / 4.25 ms
# (perfbench, 5 seeds) and 0 / 100 / 232 / 497 minor page faults per call
# (20000 samples, n = 30); 10^6 samples, n = 40, in process, interleaved,
# medians of 12 rounds, 130 / 108 / 102 / 97 ms, and at 2^17 draws with k =
# 12 / 14 / 16, 113 / 108 / 102 ms.  In certify-cli's order k = 14 took 17%
# less than k = 15 at 20000 samples, n = 30.
_MC_DRAWS = 1 << 17
_MC_TABLE_BITS = 16
# The search counts a step's neighbors in stacked calls of at most
# _STACK_PAIRS folded pair sums, 2^(n-1) per row, whose arrays stay in cache.
# minimize_probability at budget 2000 in ms, n = 10 / 12 / 14, in process,
# interleaved, medians of 6 rounds, before the fold, at 2^n sums per row: one
# engine call per candidate 81 / 105 / 144; stacks of 2^13 33 / 70 / 140,
# 2^14 31 / 56 / 137, 2^15 29 / 47 / 100, 2^16 31 / 49 / 87, 2^17 29 / 57 /
# 105.  With an out-of-place abs of the pair sums, 2^16 sums took 294-314 ms
# and 111776 minor page faults per search at n = 14.
_STACK_PAIRS = 1 << 15
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


def _half_block(
    signs: np.ndarray, table: np.ndarray, tail: list[np.ndarray], bits: np.ndarray, sums: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Each row's half sum, accumulated in index order from +0, into
    ``sums``: ``table`` holds the 2^k sums of the half's first ``k`` values,
    read at the row's first ``k`` signs, copied into the zeroed 16 columns
    of ``bits``, as the bits of an index, and each pair ``(-v, v)`` of
    ``tail`` then adds the next value at the sign in the next column, read
    into ``tmp``."""
    k = table.size.bit_length() - 1
    bits[:, :k] = signs[:, :k]
    # every index is in range; with out=, the default mode="raise" buffers
    np.take(table, np.packbits(bits, bitorder="little").view("<u2"), out=sums, mode="clip")
    for j, pair in enumerate(tail, k):
        np.take(pair, signs[:, j], out=tmp, mode="clip")
        sums += tmp
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
    k = min(_MC_TABLE_BITS, samples.bit_length() - 1)  # no more table sums than samples
    halves = [
        (lo, _half_sums(v[:k], np.float64), [np.array([-a, a]) for a in v[k:]])
        for lo, v in ((0, x[:split]), (split, x[split:]))
    ]
    bitgen = np.random.PCG64(seed)
    rows = max(2, _MC_DRAWS // n) & ~1  # an even block takes whole 64-bit outputs
    # every block reuses the call's arrays, so a call keeps to the same memory
    size = min(rows, samples)
    sign_buf = np.empty(size * n, dtype=bool)
    bufs = [(np.zeros((size, 16), dtype=np.uint8), np.empty(size), np.empty(size)) for _ in halves]
    hits = 0
    for start in range(0, samples, rows):
        m = min(rows, samples - start)
        raw = bitgen.random_raw((m * n + 1) // 2).astype("<u8", copy=False)
        signs = np.greater_equal(raw.view("<u4")[: m * n], 1 << 31, out=sign_buf[: m * n])
        signs = signs.view(np.uint8).reshape(m, n)
        left, right = (
            _half_block(signs[:, lo:], table, tail, bits[:m], sums[:m], tmp[:m])
            for (lo, table, tail), (bits, sums, tmp) in zip(halves, bufs)
        )
        np.abs(np.add(left, right, out=left), out=left)
        hits += int(np.count_nonzero(left <= tf))
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


def _hit_counts(rows: list[tuple[float, ...]], limit: int) -> list[int]:
    """``admissible_count`` hits at t = 1 of each canonical float row, all
    of one length n: up to ``_RAW_PAIRS_N`` values in stacked ``_count_raw``
    calls of at most ``_STACK_PAIRS`` pair sums, each row counted with the
    float operations of its own call; past it one engine call per row."""
    if not rows or len(rows[0]) > _RAW_PAIRS_N:
        return [signed_sum_count(row, 1.0, FLOAT, limit=limit)[0] for row in rows]
    keys = np.array([_key_setup(row, 1.0, FLOAT)[0] for row in rows])
    per_call = max(1, _STACK_PAIRS >> (len(rows[0]) - 1))
    return [
        int(c)
        for i in range(0, len(keys), per_call)
        for c in _count_raw(keys[i : i + per_call], np.float64, 1.0, False)
    ]


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
    neighbor improves and the walk restarts below ``_MIN_STEP``.  Candidates
    are compared by hit count, all over 2^n patterns; only the best one
    becomes a ``WeightVector``, whose count ``admissible_count`` recomputes.
    """
    lim = _size_limit(limit, DEFAULT_MITM_LIMIT)
    _check_int(n, "n", 2)
    _check_size(n, lim, DEFAULT_MITM_LIMIT, "meet-in-the-middle")
    _check_int(budget, "budget", 1)
    _check_int(seed, "seed", 0, _MAX_SEED)

    rng = np.random.Generator(np.random.PCG64(seed))
    evals = 0
    trajectory: list[tuple[int, Fraction]] = []
    best: Optional[tuple[int, Sequence[float]]] = None  # hit count and raw candidate

    def evaluate(rows: list) -> list[Optional[tuple[int, tuple[float, ...]]]]:
        """Each raw candidate's hit count and canonical floats, None for a
        degenerate one; every candidate counts as an evaluation."""
        nonlocal evals
        evals += len(rows)
        canon = []
        for row in rows:
            try:
                canon.append(_canonical_floats(row)[0])
            except InputError:
                canon.append(None)
        hits = iter(_hit_counts([c for c in canon if c is not None], lim))
        return [None if c is None else (next(hits), c) for c in canon]

    def consider(hits: int, raw: Sequence[float]) -> None:
        nonlocal best
        if best is None or hits < best[0]:
            best = hits, raw
            trajectory.append((evals, Fraction(hits, 1 << n)))

    restart = 0
    while evals < budget:
        if restart == 0:
            start = np.ones(n) / math.sqrt(n)
        else:
            start = rng.standard_normal(n)  # an all-zero draw is skipped by evaluate
        (out,) = evaluate([start])
        if out is None:
            restart += 1
            continue
        cur_hits, cur = out
        consider(cur_hits, start)
        step = _INITIAL_STEP
        while step >= _MIN_STEP and evals < budget:
            # coordinate i moved by +step, then by -step, up to the budget
            rows = []
            for k in range(min(2 * n, budget - evals)):
                cand = list(cur)
                cand[k // 2] += -step if k % 2 else step
                rows.append(cand)
            nb = None  # the lowest neighbor below the current point, the first of equals
            for raw, out in zip(rows, evaluate(rows)):
                if out is not None and out[0] < (cur_hits if nb is None else nb[0]):
                    nb = *out, raw
            if nb is not None:
                cur_hits, cur, raw = nb
                consider(cur_hits, raw)
            else:
                step /= 2
        restart += 1

    if best is None:
        raise SoundnessError(f"search evaluated no valid candidate in {evals} steps")
    best_hits, best_raw = best
    best_p = Fraction(best_hits, 1 << n)
    best_w = canonicalize(best_raw, FLOAT)
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
