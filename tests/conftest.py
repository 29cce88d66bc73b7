"""Shared instance generators.

Rational unit vectors come from the stereographic parametrization: for an
integer vector p and a positive integer s,

    x = (2*p_1*s, ..., 2*p_{n-1}*s, sum(p^2) - s^2) / (sum(p^2) + s^2)

has exact rational coordinates and exact unit L2 norm, so exact-mode
instances never need radicals and the integer fast paths stay hot.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from radsum import EXACT, FLOAT, CaseTag, WeightVector, canonicalize, case_of, from_squares


def rational_unit_vector(rng: np.random.Generator, n: int, spread: int = 9) -> WeightVector:
    if n == 1:
        return canonicalize([Fraction(1)], EXACT)
    while True:
        p = [int(v) for v in rng.integers(-spread, spread + 1, size=n - 1)]
        # s comparable to |p| keeps the pole coordinate moderate, so both
        # proof cases actually occur.
        s = int(rng.integers(1, 2 * spread * max(1, math.isqrt(n)) + 1))
        denom = sum(v * v for v in p) + s * s
        coords = [Fraction(2 * v * s, denom) for v in p]
        coords.append(Fraction(sum(v * v for v in p) - s * s, denom))
        if any(coords):
            return canonicalize(coords, EXACT)


def random_case1(rng: np.random.Generator, n: int, spread: int = 9) -> WeightVector:
    """Case-1 instance (x1 + x2 > 1): boost one coordinate until the top two
    dominate."""
    while True:
        p = [int(v) for v in rng.integers(-spread, spread + 1, size=n - 1)]
        s = int(rng.integers(1, spread + 1))
        boost = int(rng.integers(2, 7))
        p[0] *= boost
        if p[0] == 0:
            p[0] = boost * spread
        denom = sum(v * v for v in p) + s * s
        coords = [Fraction(2 * v * s, denom) for v in p]
        coords.append(Fraction(sum(v * v for v in p) - s * s, denom))
        w = canonicalize(coords, EXACT)
        if case_of(w) is CaseTag.CASE1:
            return w


def random_case2(rng: np.random.Generator, n: int, spread: int = 9) -> WeightVector:
    while True:
        w = rational_unit_vector(rng, n, spread)
        if case_of(w) is CaseTag.CASE2:
            return w


def one_radicand_vector(rng, n: int, hi: int = 30):
    """canonicalize(ints, "exact") with an irrational norm (n >= 2): every
    weight is a rational multiple of one shared sqrt(D), D > 1."""
    while True:
        a = [int(v) for v in rng.integers(1, hi, size=n)]
        norm_sq = sum(v * v for v in a)
        if math.isqrt(norm_sq) ** 2 != norm_sq:
            return canonicalize(a, EXACT)


CASE2_KINDS = ["float", "float-ties", "rational", "one-radicand", "multi-radicand"]


def case2_vector(kind: str, n: int, seed: int):
    """A Case-2 vector of one input class (see ``CASE2_KINDS``), or None.
    "long-lattice" is the "float" draw in exact mode: integer keys on a
    lattice of about 2^19 points, too long for the backward recurrence of
    ``prefix_partition``, and for a dense walk up to n = 18, whose
    frontiers stay too small under the tables' rule for parity classes of
    about 2^18 points."""
    gen = np.random.default_rng(seed)
    if kind in ("float", "long-lattice"):
        mode = FLOAT if kind == "float" else EXACT
        w = canonicalize([int(v) for v in gen.integers(70000, 100000, size=n)], mode)
    elif kind == "float-ties":
        w = canonicalize([int(v) for v in gen.integers(1, 5, size=n)], FLOAT)
    elif kind == "rational":
        w = rational_unit_vector(gen, n, spread=int(gen.choice([9, 1000])))
    elif kind == "one-radicand":
        w = one_radicand_vector(gen, n, hi=int(gen.choice([6, 1000])))
    else:
        w = from_squares([int(v) for v in gen.choice([1, 2, 3, 5, 6, 7], size=n)])
    return w if case_of(w) is CaseTag.CASE2 else None


def random_float_vector(rng: np.random.Generator, n: int) -> WeightVector:
    while True:
        v = rng.standard_normal(n)
        if np.any(v):
            return canonicalize(list(v), "float")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
