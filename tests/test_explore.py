"""Monte Carlo estimator, lemma sweeps, and the extremal search."""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

import radsum.explore as explore_mod
from radsum import (
    g,
    h,
    EXACT,
    FLOAT,
    InputError,
    canonicalize,
    from_squares,
    lemma_sweep,
    minimize_probability,
    monte_carlo,
    threshold_probability,
)
from radsum.cli import main as cli_main


class TestMonteCarlo:
    def test_always_hit_instance(self):
        est = monte_carlo(canonicalize([1], EXACT), 1, samples=5000, seed=7)
        assert est.estimate == 1.0
        z = NormalDist().inv_cdf(0.995)
        m = 5000
        expected_hw = z * math.sqrt(z * z / (4 * m * m)) / (1 + z * z / m)
        assert est.half_width == pytest.approx(expected_hw)

    def test_determinism(self):
        w = from_squares([Fraction(1, 4)] * 4)
        a = monte_carlo(w, 1, samples=40_000, seed=123)
        b = monte_carlo(w, 1, samples=40_000, seed=123)
        assert a == b
        c = monte_carlo(w, 1, samples=40_000, seed=124)
        assert c.estimate != a.estimate or c.seed != a.seed

    def test_close_to_exact_value(self):
        w = from_squares([Fraction(1, 4)] * 4)
        est = monte_carlo(w, 1, samples=1_000_000, seed=5)
        se = math.sqrt(0.875 * 0.125 / 1_000_000)
        assert abs(est.estimate - 0.875) <= 3 * se

    def test_wilson_calibration(self):
        # Coverage of the 99% interval over 200 seeds; allow binomial slack.
        w = from_squares([Fraction(1, 4)] * 4)
        p = 0.875
        covered = 0
        for seed in range(200):
            est = monte_carlo(w, 1, samples=2000, seed=seed)
            lo, hi = est.interval
            covered += lo <= p <= hi
        assert covered >= 190

    def test_input_validation(self):
        w = canonicalize([1], EXACT)
        with pytest.raises(InputError):
            monte_carlo(w, 1, samples=0, seed=0)
        with pytest.raises(InputError):
            monte_carlo(w, 1, samples=10, seed=-1)
        with pytest.raises(InputError):
            monte_carlo(w, 1, samples=10, seed=0, confidence=1.5)
        # integers are plain ints: no bools, floats or strings
        for samples, seed in ((2.5, 0), (True, 0), ("10", 0), (10, True), (10, 1.0)):
            with pytest.raises(InputError):
                monte_carlo(w, 1, samples=samples, seed=seed)
        for confidence in ("0.9", None, math.nan):
            with pytest.raises(InputError, match="confidence"):
                monte_carlo(w, 1, samples=10, seed=0, confidence=confidence)

    @pytest.mark.parametrize("t", [-1, -0.5, math.nan, math.inf, -math.inf, "abc", None])
    def test_threshold_validated_like_the_engine(self, t):
        w = canonicalize([0.6, 0.8], FLOAT)
        with pytest.raises(InputError, match="threshold"):
            monte_carlo(w, t, samples=10, seed=0)
        with pytest.raises(InputError, match="threshold"):
            threshold_probability(w, t)

    @pytest.mark.parametrize("t", [10**400, Fraction(10**400, 3)])
    def test_threshold_past_float_range(self, t):
        w = canonicalize([0.6, 0.8], FLOAT)
        with pytest.raises(InputError, match="exceeds the float range"):
            monte_carlo(w, t, samples=10, seed=0)
        with pytest.raises(InputError, match="exceeds the float range"):
            threshold_probability(w, t)
        # exact mode counts against the rational itself
        assert threshold_probability(canonicalize([3, 4], EXACT), t) == 1

    @pytest.mark.parametrize("t", [Fraction(1, 10**400), -Fraction(1, 10**400), "1e-400"])
    def test_threshold_underflowing_to_zero(self, t):
        w = canonicalize([0.6, 0.6], FLOAT)
        with pytest.raises(InputError, match="underflows to 0"):
            monte_carlo(w, t, samples=10, seed=0)
        with pytest.raises(InputError, match="underflows to 0"):
            threshold_probability(w, t, strict=True)

    def test_zero_and_exact_tiny_thresholds(self):
        w = canonicalize([0.6, 0.6], FLOAT)
        for t in (0, 0.0, Fraction(0), "0"):
            assert threshold_probability(w, t) == 0.5
            assert threshold_probability(w, t, strict=True) == 0.0
        # exact mode counts against the rational itself
        assert threshold_probability(canonicalize([1, 1], EXACT), Fraction(1, 10**400), strict=True) == Fraction(1, 2)


class TestLemmaSweep:
    def test_float_sweep_clean(self):
        rep = lemma_sweep(60)
        assert rep.ok
        assert rep.minmax_nondecreasing
        assert not rep.violations
        assert rep.rows[0].k == 2
        assert rep.rows[0].minmax == Fraction(9, 25)
        assert rep.rows[0].crossing_x == Fraction(1, 3)
        assert all(r.monotone_g_ok and r.monotone_h_ok and r.min_location_ok for r in rep.rows)
        for r in rep.rows:  # float evaluation of g and h agrees with the exact rows
            x = float(r.crossing_x)
            assert g(r.k, x) == pytest.approx(float(r.minmax), rel=1e-12)
            assert h(r.k, x) == pytest.approx(float(r.minmax), rel=1e-12)

    def test_exact_sweep_clean(self):
        rep = lemma_sweep(60)
        assert rep.ok
        assert [r.k for r in rep.rows] == list(range(2, 61))
        for r in rep.rows:  # the closed forms
            k = r.k
            assert r.crossing_x == Fraction(1, k + 1)
            assert r.minmax == Fraction(3 * k * (k + 1), 2 * (2 * k + 1) ** 2)
            assert r.minmax == Fraction(3, 8) * (1 - Fraction(1, (2 * k + 1) ** 2))
            assert r.g_at_crossing == r.h_at_crossing == r.minmax

    def test_minmax_floor_large_range(self):
        # The unproved step: per-k min-max values never dip below 9/25.
        # Integer cross-multiplication keeps the whole range exact.
        floor_num, floor_den = 9, 25
        for k in range(2, 1_000_001):
            num = 3 * k * (k + 1)
            den = 2 * (2 * k + 1) ** 2
            if num * floor_den < floor_num * den:
                pytest.fail(f"minmax_bound({k}) dips below 9/25")

    @pytest.mark.parametrize("mutation", [None, "g", "h"])
    def test_certificate_flags_match_fraction_grid(self, monkeypatch, mutation):
        # The closed-form flags against literal Fraction evaluation of g/h on
        # grids over [1/(2k), 1] and [0, 1], for the real functions and for
        # ones made to decrease (g - x^2) or increase (h + x^2) somewhere.
        gf = (lambda k, x: g(k, x) - x * x) if mutation == "g" else g
        hf = (lambda k, x: h(k, x) + x * x) if mutation == "h" else h
        monkeypatch.setattr(explore_mod, "g", gf)
        monkeypatch.setattr(explore_mod, "h", hf)
        rows = {r.k: r for r in lemma_sweep(11).rows}
        grid = 41
        for k in (2, 5, 11):
            lo = Fraction(1, 2 * k)
            xs_g = [lo + (1 - lo) * Fraction(j, grid - 1) for j in range(grid)]
            g_nondec = all(gf(k, a) <= gf(k, b) for a, b in zip(xs_g, xs_g[1:]))
            xs = [Fraction(j, grid - 1) for j in range(grid)]
            h_noninc = all(hf(k, a) >= hf(k, b) for a, b in zip(xs, xs[1:]))
            row = rows[k]
            assert (row.monotone_g_ok, row.monotone_h_ok) == (g_nondec, h_noninc)
            assert (g_nondec, h_noninc) == (mutation != "g", mutation != "h")
            if mutation is None:
                assert row.min_location_ok
                assert min(max(g(k, x), h(k, x)) for x in xs) >= row.minmax

    @pytest.mark.parametrize("form", [["--mode", "exact"], []], ids=["exact", "default"])
    @pytest.mark.parametrize(
        "target, mutate, flag",
        [
            # Exact at x = 0 and 1, off by at most 1/4000 between, and still
            # increasing: no grid sees it.
            pytest.param("g", lambda f: lambda k, x: f(k, x) + x * (1 - x) / 1000,
                         "monotone_g_ok", id="g_plus_bump"),
            # h_{k+1} in place of h_k: still decreasing, wrong closed form.
            pytest.param("h", lambda f: lambda k, x: f(k + 1, x), "monotone_h_ok",
                         id="h_of_k_plus_1"),
            pytest.param("g", lambda f: lambda k, x: f(k, x) - x * x, "monotone_g_ok",
                         id="g_minus_square"),
            # the sign of g's k x^2 term flipped
            pytest.param("g", lambda f: lambda k, x: (1 - (1 + k * x * x) / (2 - x) ** 2) / 2,
                         "monotone_g_ok", id="g_sign_flip"),
        ],
    )
    def test_mutated_bound_functions_fail_the_certificate(
        self, monkeypatch, capsys, form, target, mutate, flag
    ):
        monkeypatch.setattr(explore_mod, target, mutate(getattr(explore_mod, target)))
        rep = lemma_sweep(6)
        assert not rep.ok
        assert not any(getattr(r, flag) for r in rep.rows)
        assert not any(r.min_location_ok for r in rep.rows)
        assert cli_main(["lemmas", "--k-max", "6", *form, "--no-timestamp"]) == 3
        assert f"lemma violation: 2{'k' if target == 'h' else ''}(2-x)^2 {target}_k(x) = " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, mutate, bad_ks",
        [
            # the crossing 1/k in place of 1/(k+1): g and h differ there
            pytest.param("crossing_point", lambda f: lambda k, check=True: Fraction(1, k),
                         range(2, 9), id="crossing_1_over_k"),
            # 2k+3 for 2k+1 in the min-max closed form
            pytest.param("minmax_bound",
                         lambda f: lambda k: Fraction(3 * k * (k + 1), 2 * (2 * k + 3) ** 2),
                         range(2, 9), id="minmax_off_by_one"),
            # g wrong only at k = 7's crossing: no closed-form check sees it,
            # the row of k = 7 does
            pytest.param("g", lambda f: lambda k, x: f(k, x) + (k == 7 and x == Fraction(1, 8)),
                         [7], id="g_wrong_at_k7_crossing"),
        ],
    )
    def test_mutated_rows_fail_the_sweep(self, monkeypatch, capsys, target, mutate, bad_ks):
        monkeypatch.setattr(explore_mod, target, mutate(getattr(explore_mod, target)))
        rep = lemma_sweep(8)
        assert not rep.ok
        assert [r.k for r in rep.rows if not r.min_location_ok] == list(bad_ks)
        assert cli_main(["lemmas", "--k-max", "8", "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert all(f"lemma violation: k={k}: " in err for k in bad_ks)

    def test_certificate_covers_k_past_k_max(self, monkeypatch):
        # an h wrong only for k = 3 fails the sweep of k = 2 alone: the
        # closed-form certificate is for every k, not for the rows
        real = explore_mod.h
        monkeypatch.setattr(explore_mod, "h", lambda k, x: real(k, x) + (k == 3) * x * (1 - x))
        rep = lemma_sweep(2)
        assert not rep.ok
        assert [(r.k, r.monotone_h_ok, r.min_location_ok) for r in rep.rows] == [(2, False, False)]

    def test_input_validation(self):
        with pytest.raises(InputError):
            lemma_sweep(1)
        for k_max in (2.5, True, "5", None):
            with pytest.raises(InputError, match="must be an integer"):
                lemma_sweep(k_max)
        with pytest.raises(TypeError):
            lemma_sweep(5, 100)


class TestMinimizeProbability:
    def test_n2_finds_uniform_vector(self):
        res = minimize_probability(2, 2000, 0)
        assert res.best_prob == Fraction(1, 2)
        for v in res.best_w.values:
            assert abs(v - 1 / math.sqrt(2)) < 1e-6
        assert not res.counterexample_candidate
        assert res.budget_used <= 2000

    def test_determinism(self):
        a = minimize_probability(3, 500, 42)
        b = minimize_probability(3, 500, 42)
        assert a.best_prob == b.best_prob
        assert a.best_w.values == b.best_w.values
        assert a.trajectory == b.trajectory

    def test_objective_recomputed_from_engine(self):
        res = minimize_probability(4, 800, 1)
        assert res.best_prob == threshold_probability(res.best_w, 1.0) == float(res.best_prob)

    def test_trajectory_strictly_improving(self):
        res = minimize_probability(5, 1500, 3)
        probs = [p for _, p in res.trajectory]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        evals = [e for e, _ in res.trajectory]
        assert all(a < b for a, b in zip(evals, evals[1:]))

    def test_floor_respected(self):
        for seed in (0, 1, 2):
            res = minimize_probability(6, 400, seed)
            assert res.best_prob >= Fraction(9, 25)
            assert not res.counterexample_candidate

    def test_input_validation(self):
        with pytest.raises(InputError):
            minimize_probability(1, 100, 0)
        with pytest.raises(InputError):
            minimize_probability(2, 0, 0)
        with pytest.raises(InputError):
            minimize_probability(99, 100, 0)
        for n, budget, seed in ((2.5, 10, 0), (True, 10, 0), (2, 2.5, 0), (2, True, 0), (2, 10, True)):
            with pytest.raises(InputError):
                minimize_probability(n, budget, seed)
        with pytest.raises(InputError, match="size limit"):
            minimize_probability(2, 10, 0, limit=-1)
