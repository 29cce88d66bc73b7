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
    cp = crossing_point(k)  # lemma_sweep checks g(k, cp) == h(k, cp) exactly
    print(f"  k={k:>3}: crossing at {cp},  min max(g,h) = {minmax_bound(k)}"
          f" ~ {float(minmax_bound(k)):.6f}")
print("  k -> inf: the min-max value climbs toward 3/8 =", 0.375)

# In closed form the min-max is 3k(k+1)/(2(2k+1)^2) = (3/8)(1 - 1/(2k+1)^2):
# 9/25 at k=2, strictly increasing, and 3/8 in the limit, so 0.36 at k=2 is
# the global floor.
for k in (2, 3, 10, 1000):
    assert minmax_bound(k) == Fraction(3, 8) * (1 - Fraction(1, (2 * k + 1) ** 2))
print("  minmax_bound(k) = (3/8)(1 - 1/(2k+1)^2); 3/8 - minmax_bound(1000) =",
      Fraction(3, 8) - minmax_bound(1000))

# The sweep proves the monotonicity claims and the min-max location for every
# k at once: 2(2-x)^2 g_k(x) - ((2-x)^2 - 1 + k x^2) and its h counterpart
# are polynomials of degree <= 1 in k and <= 2 in x, so vanishing on
# {2,3} x {0,1/2,1} proves both identities, and the signs of the linear
# numerators of g', h' and g - h follow.  Each row k=2..k_max then checks
# g_k = h_k = minmax_bound(k) at the crossing, in exact rational arithmetic.
rep = lemma_sweep(1000)
print(f"\nclosed-form certificate, rows k=2..{rep.k_max}: ok={rep.ok},"
      f" violations={len(rep.violations)}, minmax nondecreasing={rep.minmax_nondecreasing}")
