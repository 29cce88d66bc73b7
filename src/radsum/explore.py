"""Monte Carlo estimation, lemma verification sweeps, extremal search.

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
from statistics import NormalDist
from typing import Optional

import numpy as np

from .bounds import crossing_point, g, h, minmax_bound
from .engine import DEFAULT_MITM_LIMIT, admissible_count
from .errors import InputError, SoundnessError
from .weights import EXACT, FLOAT, WeightVector, canonicalize

_MC_BLOCK = 1 << 16
_SEARCH_FLOOR = Fraction(9, 25)


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
    if samples < 1:
        raise InputError("invalid input: samples must be >= 1")
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise InputError("invalid input: seed must be a 64-bit unsigned integer")
    if not 0 < confidence < 1:
        raise InputError("invalid input: confidence must be in (0, 1)")
    x = np.asarray(w.as_floats())
    tf = float(t)
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


def _sweep_k_exact(k: int, grid: int) -> tuple[bool, bool, bool, list[str]]:
    """Exact grid checks for one k via integer cross-multiplication.

    The g-grid spans [1/(2k), 1] (where g must be nondecreasing), the h- and
    min-max grids span [0, 1].  Shared denominators make every comparison a
    product of integers.
    """
    violations: list[str] = []

    # g on [1/(2k), 1]: x_j = a_j/b, b = 2k(grid-1), a_j = (grid-1) + j(2k-1)
    b = 2 * k * (grid - 1)
    gN = []
    gD = []
    for j in range(grid):
        a = (grid - 1) + j * (2 * k - 1)
        d = (2 * b - a) ** 2
        gN.append(d - b * b + k * a * a)
        gD.append(d)
    g_ok = True
    for j in range(grid - 1):
        if gN[j] * gD[j + 1] > gN[j + 1] * gD[j]:
            g_ok = False
            x1 = Fraction((grid - 1) + j * (2 * k - 1), b)
            violations.append(f"g_{k} decreases between x={x1} and the next grid point")
            break

    # h and max(g,h) on [0, 1]: x_j = j/(grid-1)
    bb = grid - 1
    hN = []
    gN2 = []
    dd = []
    for a in range(grid):
        d = (2 * bb - a) ** 2
        dd.append(d)
        hN.append(k * d - k * bb * bb + (bb - a) ** 2)
        gN2.append(d - bb * bb + k * a * a)
    h_ok = True
    for a in range(grid - 1):
        if hN[a] * dd[a + 1] < hN[a + 1] * dd[a]:
            h_ok = False
            violations.append(f"h_{k} increases between x={Fraction(a, bb)} and the next grid point")
            break

    # V(a) = max(g, h) = M(a) / (2*kappa(a)*dd[a]) with kappa in {1, k}
    def vm(a: int) -> tuple[int, int]:
        if k * gN2[a] >= hN[a]:
            return gN2[a], 1
        return hN[a], k

    arg = 0
    m_best, kap_best = vm(0)
    for a in range(1, grid):
        m, kap = vm(a)
        if m * kap_best * dd[arg] < m_best * kap * dd[a]:
            arg = a
            m_best, kap_best = m, kap
    # within one grid cell of 1/(k+1):  |a*(k+1) - bb| <= k+1
    min_ok = abs(arg * (k + 1) - bb) <= k + 1
    if not min_ok:
        violations.append(
            f"grid min of max(g_{k},h_{k}) at x={Fraction(arg, bb)}, "
            f"not within one cell of {Fraction(1, k + 1)}"
        )
    return g_ok, h_ok, min_ok, violations


def _sweep_k_float(k: int, grid: int) -> tuple[bool, bool, bool, list[str]]:
    from .bounds import _g_np, _h_np

    violations: list[str] = []
    xs_g = np.linspace(1.0 / (2 * k), 1.0, grid)
    gv = _g_np(k, xs_g)
    bad = np.flatnonzero(np.diff(gv) < 0)
    g_ok = bad.size == 0
    if not g_ok:
        violations.append(f"g_{k} decreases between x={xs_g[bad[0]]!r} and x={xs_g[bad[0] + 1]!r}")

    xs = np.linspace(0.0, 1.0, grid)
    hv = _h_np(k, xs)
    bad = np.flatnonzero(np.diff(hv) > 0)
    h_ok = bad.size == 0
    if not h_ok:
        violations.append(f"h_{k} increases between x={xs[bad[0]]!r} and x={xs[bad[0] + 1]!r}")

    mx = np.maximum(_g_np(k, xs), hv)
    arg = int(np.argmin(mx))
    cell = 1.0 / (grid - 1)
    min_ok = bool(abs(float(xs[arg]) - 1.0 / (k + 1)) <= cell + 1e-15)
    if not min_ok:
        violations.append(
            f"grid min of max(g_{k},h_{k}) at x={xs[arg]!r}, not within one cell of 1/{k + 1}"
        )
    return g_ok, h_ok, min_ok, violations


def lemma_sweep(k_max: int, grid_points: int, *, mode: str = FLOAT) -> LemmaSweepReport:
    """Verify, for each k = 2..k_max: g_k nondecreasing on [1/(2k), 1], h_k
    nonincreasing on [0, 1], the crossing identity at 1/(k+1) (always exact),
    the grid min of max(g, h) within one cell of the crossing, and that the
    per-k min-max values are nondecreasing from 0.36 at k = 2.

    Violations are report entries with exact coordinates, not exceptions.
    """
    if k_max < 2:
        raise InputError("invalid input: k_max must be >= 2")
    if grid_points < 3:
        raise InputError("invalid input: grid_points must be >= 3")
    if mode not in (EXACT, FLOAT):
        raise InputError(f"invalid input: unknown numeric mode {mode!r}")
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
        if mode == EXACT:
            g_ok, h_ok, min_ok, vs = _sweep_k_exact(k, grid_points)
        else:
            g_ok, h_ok, min_ok, vs = _sweep_k_float(k, grid_points)
        violations.extend(vs)
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
    initial_step: float = 0.25,
    min_step: float = 1e-6,
    limit: Optional[int] = None,
    workers: int = 1,
) -> SearchResult:
    """Random-restart pattern search for low Pr(|eps . x| <= 1) over the
    canonical unit sphere.

    The objective is the exact admissible count from the engine (float mode
    probabilities are exact dyadics).  Moves perturb one coordinate by the
    current step, re-canonicalize (abs, sort, renormalize), and are taken
    only on strict improvement, best neighbor first; the step halves when no
    neighbor improves and the walk restarts below ``min_step``.
    """
    lim = DEFAULT_MITM_LIMIT if limit is None else limit
    if not 2 <= n <= lim:
        raise InputError(f"invalid input: n must be in [2, {lim}]")
    if budget < 1:
        raise InputError("invalid input: budget must be >= 1")
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise InputError("invalid input: seed must be a 64-bit unsigned integer")

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
        hits, total = admissible_count(wv, 1.0, limit=lim, workers=workers)
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
        step = initial_step
        while step >= min_step and evals < budget:
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
    hits, total = admissible_count(best_w, 1.0, limit=lim, workers=workers)
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
        counterexample_candidate=recomputed < _SEARCH_FLOOR,
        n=n,
        seed=seed,
    )
