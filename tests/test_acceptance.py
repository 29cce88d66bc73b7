"""Acceptance suite: one test per criterion, at its stated tolerance.

Every exact-mode comparison below is tie-exact rational arithmetic (zero
tolerance); float-mode items state their tolerance inline.  Each criterion
prints a single PASS line when it holds (run with -s or -rA to see them;
a failure shows up as a normal pytest failure).
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_case1, random_case2, rational_unit_vector
from radsum import (
    CASE1_FLOOR,
    EXACT,
    FLOAT,
    CaseTag,
    canonicalize,
    case_of,
    crossing_point,
    from_squares,
    g,
    h,
    hybrid_bound,
    lemma_sweep,
    minimize_probability,
    minmax_bound,
    prefix_partition,
    tail_moments,
    theorem_bound,
    threshold_probability,
    threshold_probability_naive,
)
from radsum.cli import main as cli_main

UNIFORM4 = [Fraction(1, 4)] * 4


def ok(num: int, msg: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {msg}")


@pytest.fixture(scope="module")
def case2_batch():
    """500 random Case-2 instances (n <= 16) with their partition reports;
    shared between criteria 4 and 5."""
    rng = np.random.default_rng(40516)
    batch = []
    for _ in range(500):
        n = int(rng.integers(2, 17))
        w = random_case2(rng, n)
        batch.append((w, prefix_partition(w)))
    return batch


def test_criterion_01_g2_at_one_third():
    assert g(2, Fraction(1, 3)) == Fraction(9, 25)
    ok(1, "g(2, 1/3) = 9/25 exactly (rational mode, zero tolerance)")


def test_criterion_02_case1_floor_93_256():
    rng = np.random.default_rng(40502)
    for i in range(1000):
        n = int(rng.integers(2, 21))
        w = random_case1(rng, n)
        cert = theorem_bound(w, exact_check=True)
        assert cert.final_bound >= CASE1_FLOOR, (i, w.values)
        assert cert.final_bound <= cert.sound_against, (i, w.values)
    assert CASE1_FLOOR == Fraction(93, 256)
    ok(2, "1000 case-1 instances: 93/256 <= bound <= exact probability, exact")


def test_criterion_03_theorem_floor_universal():
    rng = np.random.default_rng(40503)
    seen = {CaseTag.CASE1: 0, CaseTag.CASE2: 0}
    floor = Fraction(9, 25)
    for i in range(1000):
        n = int(rng.integers(1, 21))
        w = rational_unit_vector(rng, n)
        seen[case_of(w)] += 1
        cert = theorem_bound(w, exact_check=True)
        assert cert.final_bound >= floor, (i, w.values)
        assert cert.final_bound <= cert.sound_against, (i, w.values)
    assert min(seen.values()) > 50  # genuinely mixed cases
    ok(3, f"1000 mixed instances ({seen[CaseTag.CASE1]} case1/{seen[CaseTag.CASE2]} case2): "
          "0.36 <= bound <= exact probability, exact")


def test_criterion_04_partition_identities(case2_batch):
    for w, rep in case2_batch:
        assert sum(rep.probs) == 1
        assert sum(rep.joints) == rep.total_prob
        assert rep.total_prob == threshold_probability(w, 1)
    ok(4, "500 case-2 instances: sum Pr(A_k) = 1 and sum joint = Pr(|s_n|<=1), exact")


def test_criterion_05_conditional_links(case2_batch):
    checked = 0
    for w, rep in case2_batch:
        for i, k in enumerate(rep.ks):
            if k >= w.n or rep.probs[i] == 0:
                continue
            bound = max(g(k, w.values[k]), h(k, w.values[k]))
            assert rep.conds[i] >= bound, (w.values, k)
            checked += 1
    assert checked > 200
    ok(5, f"conditional links on the same 500 instances ({checked} events): "
          "cond_k >= max(g_k, h_k) exactly")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(40506)
    for i in range(200):
        n = int(rng.integers(1, 13))
        w = rational_unit_vector(rng, n)
        t = Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 7)))
        strict = bool(rng.integers(0, 2))
        assert threshold_probability(w, t, strict) == threshold_probability_naive(w, t, strict)
    ok(6, "200 instances (n<=12): meet-in-the-middle = naive enumeration, exact match")


def _bruteforce_tail_moments(w, k):
    """Independent oracle: integer-scaled enumeration of all tail patterns."""
    fracs = [Fraction(v) for v in w.values[k:]]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    m = len(ints)
    s2 = 0
    s4 = 0
    for signs in itertools.product((-1, 1), repeat=m):
        s = sum(sg * a for sg, a in zip(signs, ints))
        s2 += s * s
        s4 += s * s * s * s
    return (
        Fraction(s2, (1 << m) * denom**2),
        Fraction(s4, (1 << m) * denom**4),
    )


def test_criterion_07_moment_oracle():
    rng = np.random.default_rng(40507)
    for i in range(200):
        n = int(rng.integers(1, 11))
        w = rational_unit_vector(rng, n)
        for k in range(n + 1):
            tm = tail_moments(w, k)
            b2, b4 = _bruteforce_tail_moments(w, k)
            assert tm.m2 == b2, (i, k)
            assert tm.m4 == b4, (i, k)
    ok(7, "200 instances (n<=10), all k: closed-form moments = brute force, exact")


def test_criterion_08_lemma_sweep():
    rep = lemma_sweep(1000)
    assert rep.ok, rep.violations
    assert not rep.violations
    mms = [r.minmax for r in rep.rows]
    assert all(a <= b for a, b in zip(mms, mms[1:]))  # exact Fractions
    assert mms[0] == Fraction(9, 25) and min(mms) == mms[0]
    for k in range(2, 10_001):
        cp = crossing_point(k, check=False)
        assert g(k, cp) == h(k, cp), k
    ok(8, "k=2..1000 closed-form sweep: zero violations; minmax nondecreasing "
          "from 0.36; crossing equality exact for k<=10^4")


def test_criterion_09_sharpness_instance():
    w = from_squares(UNIFORM4)
    assert threshold_probability(w, 1, strict=True) == Fraction(3, 8)
    assert threshold_probability(w, 1) == Fraction(7, 8)
    ok(9, "uniform-4: Pr(|s|<1) = 3/8 (sharp) and Pr(|s|<=1) = 7/8, exact")


def test_criterion_10_worked_instance():
    w = from_squares(UNIFORM4)
    cert = theorem_bound(w)
    assert cert.final_bound == Fraction(7, 18)
    assert hybrid_bound(w) == Fraction(25, 36)
    assert threshold_probability(w, 1) == Fraction(7, 8)
    rep = prefix_partition(w)
    assert rep.probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    assert rep.conds == (Fraction(3, 4), None, Fraction(1))
    ok(10, "uniform-4 worked instance: certificate 7/18, hybrid 25/36, exact 7/8, "
           "partition {1/2, 0, 1/2} with conditionals {3/4, -, 1}")


def test_criterion_11_search_sanity():
    start = time.monotonic()
    res = minimize_probability(2, 10_000, 0)
    elapsed = time.monotonic() - start
    assert res.best_prob == Fraction(1, 2)
    target = 1 / math.sqrt(2)
    for v in res.best_w.values:
        assert abs(v - target) <= 1e-6
    assert elapsed < 10
    ok(11, f"n=2 search (seed 0, budget 10^4): best_prob = 1/2 at ~(1/sqrt2, 1/sqrt2), "
           f"{elapsed:.1f}s")


def test_criterion_12_mitm_performance_n40():
    rng = np.random.default_rng(40512)
    w = canonicalize(list(rng.standard_normal(40)), FLOAT)
    start = time.monotonic()
    p = threshold_probability(w, 1.0)
    elapsed = time.monotonic() - start
    assert 0 <= p <= 1
    assert elapsed <= 30
    ok(12, f"n=40 float meet-in-the-middle threshold query in {elapsed:.2f}s (<= 30s)")


def test_criterion_13_cli_determinism(capsys):
    configs = (
        # criterion 3's CLI face: certificates with exact cross-check
        ("certify", "sq:9/25,4/25,4/25,4/25,4/25", "--exact-check", "--no-timestamp"),
        ("certify", "sq:16/25,9/25", "--exact-check", "--no-timestamp"),
        # criterion 8's CLI face
        ("lemmas", "--k-max", "1000", "--no-timestamp"),
        # criterion 11's CLI face
        ("search", "--n", "2", "--budget", "10000", "--seed", "0", "--no-timestamp"),
    )
    for args in configs:
        assert cli_main(list(args)) == 0
        first = capsys.readouterr().out.encode()
        assert cli_main(list(args)) == 0
        second = capsys.readouterr().out.encode()
        assert first == second, args
    ok(13, "repeated CLI runs (certify/lemmas/search, fixed seeds, no timestamp) "
           "are byte-identical")
