"""Closed-form second and fourth moments of tail Rademacher sums.

For the tail after a prefix of length k, with q_i = x_i^2:

    m2 = sum_{i>k} q_i
    m4 = sum_{i>k} q_i^2 + 6 * sum_{k<i<j} q_i q_j = 3*m2^2 - 2*sum_{i>k} q_i^2

The O(n) identity form is used here; the explicit double sum and the
brute-force expectations live in the test suite as independent oracles.
Squares are rational in exact mode, so the moments are always exact
Fractions there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import _check_int
from .weights import EXACT, WeightVector


@dataclass(frozen=True)
class TailMoments:
    """(k, E[(s_n - s_k)^2], E[(s_n - s_k)^4])."""

    k: int
    m2: Union[Fraction, float]
    m4: Union[Fraction, float]


def tail_moments(w: WeightVector, k: int) -> TailMoments:
    """Exact tail moments for prefix length k, 0 <= k <= n."""
    _check_int(k, "k", 0, w.n)
    qs = w.squares[k:]
    if w.mode == EXACT:
        m2 = sum(qs, Fraction(0))
        p4 = sum((q * q for q in qs), Fraction(0))
        m4 = 3 * m2 * m2 - 2 * p4
    else:
        m2 = math.fsum(qs)
        p4 = math.fsum(q * q for q in qs)
        m4 = 3.0 * m2 * m2 - 2.0 * p4
    return TailMoments(k=k, m2=m2, m4=m4)
