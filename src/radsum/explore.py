"""Monte Carlo estimation, the bound-function lemma certificate, extremal
search.

Reproducibility contract: all randomness comes from numpy's PCG64 keyed by
a 64-bit seed.  Monte Carlo consumes sign bits via ``integers(0, 2)`` in
C order in fixed 2^16-sample blocks, so identical (w, t, samples, seed)
always yields the identical estimate.  The search is derivative-free
pattern search with random restarts; restart 0 always starts from the
uniform vector and moves are accepted only on strict improvement, so ties
resolve to the earliest restart.
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
from .engine import DEFAULT_MITM_LIMIT, _normalize_threshold, _size_limit
from .engine import admissible_count
from .errors import InputError, SoundnessError, _check_int
from .weights import FLOAT, WeightVector, _validate_mode, canonicalize

_MC_BLOCK = 1 << 16
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


def monte_carlo(
    w: WeightVector, t=1, samples: int = 100_000, seed: int = 0, *, confidence: float = 0.99
) -> EstimateCI:
    """Estimate Pr(|eps . x| <= t) from seeded random sign patterns.

    Evaluation is float64 regardless of the vector's mode; sampling is for
    scales where exact enumeration is off the table.
    """
    _check_int(samples, "samples", 1)
    _check_int(seed, "seed", 0, _MAX_SEED)
    if not isinstance(confidence, Real) or not 0 < confidence < 1:
        raise InputError("invalid input: confidence must be in (0, 1)")
    tf = _normalize_threshold(t, FLOAT)
    x = np.asarray(w.as_floats())
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    while done < samples:
        m = min(_MC_BLOCK, samples - done)
        bits = rng.integers(0, 2, size=(m, len(x)))
        sums = (2.0 * bits - 1.0) @ x
        hits += int(np.count_nonzero(np.abs(sums) <= tf))
        done += m
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
    grid_points: int
    mode: str
    rows: tuple[LemmaRow, ...]
    violations: tuple[str, ...]
    minmax_nondecreasing: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.minmax_nondecreasing


def _certify_k(k: int, cp: Fraction, violations: list[str]) -> tuple[bool, bool, bool]:
    """Closed-form certificate of the lemma facts for one k and its crossing
    ``cp``, in exact rational arithmetic; failures are appended to
    ``violations``.

    With D = (2-x)^2 > 0 on [0, 1], the definitions of g and h read
    2D g_k = D - 1 + k x^2 and 2D h_k = D - 1 + (1-x)^2/k.  Both sides are
    quadratics in x, so agreement of the real ``g``/``h`` at three points
    proves each identity for this k.  The closed forms give
    g_k' = (2kx - 1)/(2-x)^3, h_k' = -(1 + (1-x)/k)/(2-x)^3 and
    g_k - h_k = ((k+1)x - 1)(1 + (k-1)x)/(2kD).  Each numerator is linear in
    x, so its signs at the two ends of an interval fix its sign on all of
    it: g_k' >= 0 on [1/(2k), 1], h_k' < 0 on [0, 1], and 1 + (k-1)x > 0 on
    [0, 1], so g_k - h_k changes sign only at the root 1/(k+1) of
    (k+1)x - 1.  Hence max(g_k, h_k) is h_k, decreasing, up to the crossing
    and g_k, nondecreasing because 1/(k+1) >= 1/(2k), after it; its minimum
    over [0, 1] is at the crossing.
    """
    lo, ends = Fraction(1, 2 * k), (Fraction(0), Fraction(1))

    def holds(fact: str, ok: bool) -> bool:
        if not ok:
            violations.append(f"k={k}: {fact} fails")
        return ok

    def tied(fn, quad) -> bool:
        points = (Fraction(0), Fraction(1, 2), Fraction(1))
        return all(2 * (2 - x) ** 2 * fn(k, x) == (2 - x) ** 2 - 1 + quad(x) for x in points)

    g_ok = holds(
        f"2(2-x)^2 g_{k}(x) = (2-x)^2 - 1 + {k}x^2", tied(g, lambda x: k * x * x)
    ) and holds(f"g_{k}' >= 0 on [{lo}, 1]", all(2 * k * x - 1 >= 0 for x in (lo, ends[1])))
    h_ok = holds(
        f"2(2-x)^2 h_{k}(x) = (2-x)^2 - 1 + (1-x)^2/{k}", tied(h, lambda x: (1 - x) ** 2 / k)
    ) and holds(f"h_{k}' < 0 on [0, 1]", all(-(1 + (1 - x) / k) < 0 for x in ends))
    min_ok = g_ok and h_ok and holds(
        f"g_{k} - h_{k} changes sign only at {cp} >= {lo}",
        (k + 1) * cp == 1 and cp >= lo and all(1 + (k - 1) * x > 0 for x in ends),
    )
    return g_ok, h_ok, min_ok


def _g_float(k: int, xs: np.ndarray) -> np.ndarray:
    return (1.0 - (1.0 - k * xs * xs) / (2.0 - xs) ** 2) / 2.0


def _h_float(k: int, xs: np.ndarray) -> np.ndarray:
    return (1.0 - (1.0 - (1.0 - xs) ** 2 / k) / (2.0 - xs) ** 2) / 2.0


def _sweep_k_float(k: int, grid: int, violations: list[str]) -> tuple[bool, bool, bool]:
    """Float grid cross-check of the facts ``_certify_k`` proves."""
    xs_g = np.linspace(1.0 / (2 * k), 1.0, grid)
    gv = _g_float(k, xs_g)
    bad = np.flatnonzero(np.diff(gv) < 0)
    g_ok = bad.size == 0
    if not g_ok:
        violations.append(f"g_{k} decreases between x={xs_g[bad[0]]!r} and x={xs_g[bad[0] + 1]!r}")

    xs = np.linspace(0.0, 1.0, grid)
    hv = _h_float(k, xs)
    bad = np.flatnonzero(np.diff(hv) > 0)
    h_ok = bad.size == 0
    if not h_ok:
        violations.append(f"h_{k} increases between x={xs[bad[0]]!r} and x={xs[bad[0] + 1]!r}")

    mx = np.maximum(_g_float(k, xs), hv)
    arg = int(np.argmin(mx))
    cell = 1.0 / (grid - 1)
    min_ok = bool(abs(float(xs[arg]) - 1.0 / (k + 1)) <= cell + 1e-15)
    if not min_ok:
        violations.append(
            f"grid min of max(g_{k},h_{k}) at x={xs[arg]!r}, not within one cell of 1/{k + 1}"
        )
    return g_ok, h_ok, min_ok


def lemma_sweep(k_max: int, grid_points: int, *, mode: str = FLOAT) -> LemmaSweepReport:
    """Verify, for each k = 2..k_max: g_k nondecreasing on [1/(2k), 1], h_k
    nonincreasing on [0, 1], the crossing identity at 1/(k+1), the min of
    max(g_k, h_k) over [0, 1] at the crossing, and that the per-k min-max
    values are nondecreasing from 0.36 at k = 2.

    Every check is exact; the per-k facts come from the closed-form
    certificate of ``_certify_k``.  ``FLOAT`` mode adds a float cross-check
    on ``grid_points``-point grids per k; ``EXACT`` mode uses no floating
    point.  Violations are report entries, not exceptions.
    """
    _check_int(k_max, "k_max", 2)
    _check_int(grid_points, "grid_points", 3)
    _validate_mode(mode)
    rows: list[LemmaRow] = []
    violations: list[str] = []
    nondecreasing = True
    prev = None
    for k in range(2, k_max + 1):
        cp = crossing_point(k, check=False)
        gc = g(k, cp)
        hc = h(k, cp)
        if gc != hc:
            violations.append(f"crossing g_{k}({cp}) = {gc} != h_{k}({cp}) = {hc}")
        mm = minmax_bound(k)
        if prev is not None and mm < prev:
            nondecreasing = False
            violations.append(f"minmax_bound({k}) = {mm} < minmax_bound({k - 1}) = {prev}")
        prev = mm
        g_ok, h_ok, min_ok = _certify_k(k, cp, violations)
        if mode == FLOAT:
            fg, fh, fm = _sweep_k_float(k, grid_points, violations)
            g_ok, h_ok, min_ok = g_ok and fg, h_ok and fh, min_ok and fm
        rows.append(
            LemmaRow(
                k=k,
                crossing_x=cp,
                g_at_crossing=gc,
                h_at_crossing=hc,
                minmax=mm,
                monotone_g_ok=g_ok,
                monotone_h_ok=h_ok,
                min_location_ok=min_ok,
            )
        )
    return LemmaSweepReport(
        k_max=k_max,
        grid_points=grid_points,
        mode=mode,
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
            start = rng.standard_normal(n)
            if not np.any(start):
                start = np.ones(n)
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
