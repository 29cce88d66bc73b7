"""The bound functions g_k and h_k, their crossing, and the lemma sweep.

Two lower bounds apply to the conditional success probability after a
crossing at prefix k, both functions of x = x_{k+1}:

  g_k(x) = (1 - (1 - k*x^2)    / (2-x)^2) / 2   (sorted-prefix bound)
  h_k(x) = (1 - (1 - (1-x)^2/k) / (2-x)^2) / 2   (Cauchy mass bound)

g_k increases on [1/(2k), 1], h_k decreases on [0, 1], and they cross at
x = 1/(k+1); so min over x of max(g, h) is their common value there.  The
worst k is 2, giving the universal constant g_2(1/3) = 9/25 = 0.36.
"""

from fractions import Fraction

from radsum import crossing_point, g, h, lemma_sweep, minmax_bound

print("g_2(1/3) =", g(2, Fraction(1, 3)), "= 0.36")
print("h_2(1/3) =", h(2, Fraction(1, 3)), " (same: the crossing)")

print("\ncrossing points and min-max values:")
for k in (2, 3, 4, 9, 100):
    cp = crossing_point(k)  # verifies g(k, cp) == h(k, cp) exactly
    print(f"  k={k:>3}: crossing at {cp},  min max(g,h) = {minmax_bound(k)}"
          f" ~ {float(minmax_bound(k)):.6f}")
print("  k -> inf: the min-max value climbs toward 3/8 =", 0.375)

# For every k up to k_max the sweep proves the monotonicity claims and the
# min-max location from closed forms: it ties g and h to
# 2(2-x)^2 g = (2-x)^2 - 1 + k x^2 (and likewise h), then tests the signs of
# the linear numerators of g', h' and g - h at the interval ends, in exact
# rational arithmetic.  Violations, if any, are listed in the report.
rex = lemma_sweep(1000, 10_000, mode="exact")
print(f"\nexact certificate k=2..{rex.k_max}: ok={rex.ok}")

# Float mode adds a numeric cross-check on dense float grids:
rep = lemma_sweep(200, 4001)
print(f"float cross-check k=2..{rep.k_max} on {rep.grid_points}-point grids:"
      f" ok={rep.ok}, violations={len(rep.violations)}")

# minmax_bound(k) is nondecreasing in k, so 0.36 at k=2 is the global floor.
vals = [minmax_bound(k) for k in range(2, 50)]
assert all(a <= b for a, b in zip(vals, vals[1:]))
print("\nminmax_bound nondecreasing over k=2..49: True; minimum", vals[0], "at k=2")
