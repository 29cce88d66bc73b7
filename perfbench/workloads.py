"""Seeded workloads: the calls each child times and how each is checked.

Every workload turns a seed into a fixed list of calls.  A call carries the
input class the generator assigned, the timed operation, a reference
computed after the timed loop from code that shares nothing with the
engine, and a verifier comparing the two.

Workloads and why they were chosen:

* ``mitm-query`` - library ``threshold_probability`` on vectors built in
  set-up, in four numeric classes: rational-norm integers (the int path),
  one shared radicand (``canonicalize(ints, "exact")`` with an irrational
  norm), multi-radicand ``from_squares`` and float.  Half-sum generation,
  sort/unique, pair counting and ``SqrtSum`` comparisons do the work;
  certificates, the partition walk, rendering and the CLI do none.
* ``partition-walk`` - ``prefix_partition``, ``hybrid_bound`` and
  ``sum_distribution`` on Case-2 vectors in float and rational exact mode.
  The prefix walk, tail dictionaries and the distribution tuple do the work;
  the MITM pair count and radical arithmetic do none.
* ``certify-cli`` - in-process ``radsum.cli.main(argv)`` over seeded argv
  lists, mostly ``certify`` at n=25..40 (where the exact check is skipped)
  plus a fixed share of ``mc``, ``lemmas`` and ``search``.  Argument and
  ``sq:`` parsing, radicand factoring, ``SqrtSum`` arithmetic in g_k/h_k,
  tail moments, rendering and the JSON envelope do the work.

Class proportions are chosen so that the median and the tail percentile
each fall inside one class's cluster of latencies rather than on a gap
between two clusters.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from typing import Callable

import numpy as np

from radsum import bounds, cli, engine, weights
from radsum.weights import EXACT, FLOAT


@dataclass(frozen=True)
class Call:
    """One timed operation: ``run()`` is timed; ``verify(run(),
    reference())`` is evaluated after the timed loop."""

    cls: str
    run: Callable[[], object]
    reference: Callable[[], object]
    verify: Callable[[object, object], bool]


# -- integer reference machinery ------------------------------------------------


def sum_counts(a: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of sum(eps_i * a_i) over all sign vectors, by integer
    convolution: (values, counts) with nonzero counts only."""
    total = sum(a)
    counts = np.zeros(2 * total + 1, dtype=np.int64)
    counts[total] = 1
    for x in a:
        nxt = np.zeros_like(counts)
        nxt[:-x] += counts[x:]
        nxt[x:] += counts[:-x]
        counts = nxt
    values = np.flatnonzero(counts) - total
    return values, counts[values + total]


def count_within_norm(a: list[int], strict: bool, dist=None) -> int:
    """Sign vectors with (eps . a)^2 <= |a|^2 (< when strict); this is the
    admissible count of Pr(|eps . a/|a|| <= 1) in exact arithmetic.
    ``dist`` is the (values, counts) distribution of eps . a when known."""
    values, counts = sum_counts(a) if dist is None else dist
    norm_sq = sum(x * x for x in a)
    sq = values * values
    inside = sq < norm_sq if strict else sq <= norm_sq
    return int(counts[inside].sum())


def _random_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def square_norm_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi] whose sum of squares is a perfect square: n-3
    random entries, then a seeded search over the last three."""
    span = list(range(lo, hi + 1))
    while True:
        head = _random_ints(rng, n - 3, lo, hi)
        base = sum(x * x for x in head)
        bs = span[:]
        cs = span[:]
        rng.shuffle(bs)
        rng.shuffle(cs)
        for b in bs:
            for c in cs:
                rest = base + b * b + c * c
                for m in range(isqrt(rest + lo * lo - 1) + 1, isqrt(rest + hi * hi) + 1):
                    e = isqrt(m * m - rest)
                    if e * e == m * m - rest:
                        return head + [b, c, e]


def nonsquare_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi] whose sum of squares is not a perfect square,
    so no signed sum lies on the boundary |eps . a| = |a|."""
    while True:
        a = _random_ints(rng, n, lo, hi)
        norm_sq = sum(x * x for x in a)
        if isqrt(norm_sq) ** 2 != norm_sq:
            return a


SQUAREFREE = tuple(
    d for d in range(2, 400) if all(d % (p * p) for p in range(2, isqrt(d) + 1))
)


def _decimal_count(q: list[int]) -> int:
    """Admissible count for weights sqrt(q_i / sum q) with 60-digit decimal
    sums; used only where a float sum lies within 1e-9 of the boundary."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(q)
        xs = [(Decimal(v) / Decimal(total)).sqrt() for v in q]
        hits = 0
        for mask in range(1 << len(xs)):
            s = sum((x if (mask >> i) & 1 else -x) for i, x in enumerate(xs))
            hits += abs(s) <= 1
    return hits


def signed_sums(xs: np.ndarray) -> np.ndarray:
    """All 2^n signed sums, enumerated directly (small n only)."""
    sums = np.zeros(1, dtype=xs.dtype)
    for x in xs:
        sums = np.concatenate([sums - x, sums + x])
    return sums


# -- mitm-query -------------------------------------------------------------------

# (class, n, strict) per slot of one repetition.  Per repetition: 30%
# rational calls (the fastest cluster), 40% float calls, where the median
# falls, and 30% radical calls (one- and multi-radicand), the slowest
# cluster, which holds the tail percentile.
MITM_PATTERN = (
    ("rational", 32, False),
    ("float", 38, False),
    ("one_radicand", 16, False),
    ("float", 38, False),
    ("rational", 32, True),
    ("multi_radicand", 12, False),
    ("float", 38, False),
    ("rational", 32, False),
    ("float", 38, False),
    ("one_radicand", 16, True),
    ("rational", 32, False),
    ("float", 38, False),
    ("multi_radicand", 12, False),
    ("float", 38, False),
    ("rational", 32, True),
    ("one_radicand", 16, False),
    ("float", 38, False),
    ("multi_radicand", 12, False),
    ("rational", 32, False),
    ("float", 38, False),
)
MITM_TINY = {"rational": 12, "one_radicand": 8, "multi_radicand": 6, "float": 12}


def _mitm_call(rng: random.Random, cls: str, n: int, strict: bool) -> Call:
    if cls == "multi_radicand":
        q = rng.sample(SQUAREFREE, n)
        w = weights.from_squares(q, EXACT)

        def reference():
            sums = np.abs(signed_sums(np.sqrt(np.asarray(q, dtype=float) / sum(q))))
            if np.any(np.abs(sums - 1.0) <= 1e-9):
                return _decimal_count(q)
            hits, _ = engine.admissible_count(weights.from_squares(q, FLOAT), 1.0)
            return hits

        return Call(
            cls,
            lambda: engine.threshold_probability(w, 1, strict),
            reference,
            lambda result, hits: result == Fraction(hits, 1 << n),
        )
    if cls == "rational":
        a = square_norm_ints(rng, n, 1, 999)
    else:
        a = nonsquare_ints(rng, n, 1, 999)
    mode = FLOAT if cls == "float" else EXACT
    w = weights.canonicalize(a, mode)
    if mode == FLOAT:
        check = lambda result, hits: result == hits / (1 << n)
    else:
        check = lambda result, hits: result == Fraction(hits, 1 << n)
    return Call(
        cls,
        lambda: engine.threshold_probability(w, 1, strict),
        lambda: count_within_norm(a, strict),
        check,
    )


def mitm_calls(rng: random.Random, reps: int, tiny: bool) -> list[Call]:
    return [
        _mitm_call(rng, cls, MITM_TINY[cls] if tiny else n, strict)
        for _ in range(reps)
        for cls, n, strict in MITM_PATTERN
    ]


# -- partition-walk ---------------------------------------------------------------

# Float vectors draw from [70000, 99999], so almost every signed sum is
# distinct (generic weights); rational vectors draw from [1400, 1999], where
# the seeded search for a square norm stays cheap.  A max/min entry ratio
# below 1.5 keeps every vector in Case 2 (x1 + x2 <= 1) for n >= 9.
PART_RANGES = {"float": (70000, 99999), "rational": (1400, 1999)}

# (class, operation, n); float prefix_partition at n=19 is the slowest
# cluster and holds the tail percentile.
PARTITION_PATTERN = (
    ("float", "prefix_partition", 19),
    ("float", "hybrid_bound", 18),
    ("rational", "prefix_partition", 20),
    ("float", "sum_distribution", 17),
    ("rational", "hybrid_bound", 20),
    ("float", "prefix_partition", 19),
    ("float", "hybrid_bound", 18),
    ("rational", "prefix_partition", 20),
    ("float", "sum_distribution", 17),
    ("rational", "sum_distribution", 20),
)
PARTITION_TINY = 9


def _partition_call(rng: random.Random, cls: str, op: str, n: int) -> Call:
    lo, hi = PART_RANGES[cls]
    if cls == "rational":
        a = square_norm_ints(rng, n, lo, hi)
    else:
        a = nonsquare_ints(rng, n, lo, hi)
    mode = FLOAT if cls == "float" else EXACT
    w = weights.canonicalize(a, mode)
    total = 1 << n

    def distribution():
        return np.unique(signed_sums(np.array(a, dtype=np.int64)), return_counts=True)

    def exact_prob():
        hits = count_within_norm(a, False, distribution())
        return Fraction(hits, total) if mode == EXACT else hits / total

    if op == "prefix_partition":

        def verify(report, ref):
            p, p_mitm = ref
            return report.total_prob == p == p_mitm and sum(report.probs) == 1

        return Call(
            cls,
            lambda: engine.prefix_partition(w),
            lambda: (exact_prob(), engine.threshold_probability(w, 1)),
            verify,
        )
    if op == "hybrid_bound":
        slack = 0 if mode == EXACT else 1e-12

        def verify(hb, ref):
            cert, p = ref
            return cert - slack <= hb <= p + slack

        return Call(
            cls,
            lambda: bounds.hybrid_bound(w),
            lambda: (bounds.case2_certificate(w).final_bound, exact_prob()),
            verify,
        )

    def verify(dist, ref):
        values, counts = ref
        got_counts = np.array([c for _, c in dist.entries], dtype=np.int64)
        if mode == EXACT:
            # Exact values are s/|a| for integers s; rescale exactly.
            m = isqrt(sum(x * x for x in a))
            got_values = np.array([int(v * m) for v, _ in dist.entries], dtype=np.int64)
        else:
            # Distinct integer sums are 1/|a| apart, far above rounding, so
            # rounding v*|a| recovers s; equal sums may round to several
            # floats, so aggregate counts per integer.
            norm = math.sqrt(sum(x * x for x in a))
            scaled = np.rint(np.array([v for v, _ in dist.entries]) * norm).astype(np.int64)
            got_values, inverse = np.unique(scaled, return_inverse=True)
            got_counts = np.bincount(inverse, weights=got_counts).astype(np.int64)
        return (
            int(got_counts.sum()) == total
            and np.array_equal(got_values, values)
            and np.array_equal(got_counts, counts)
        )

    return Call(cls, lambda: engine.sum_distribution(w), distribution, verify)


def partition_calls(rng: random.Random, reps: int, tiny: bool) -> list[Call]:
    return [
        _partition_call(rng, cls, op, PARTITION_TINY if tiny else n)
        for _ in range(reps)
        for cls, op, n in PARTITION_PATTERN
    ]


# -- certify-cli ------------------------------------------------------------------

# (class, n).  Per repetition: 30% fast calls (float and Case-1 certify,
# mc, lemmas, search), 40% one-radicand certify, where the median falls,
# and 30% multi-radicand Case-2 certify, the slowest cluster, which holds
# the tail percentile.
CLI_PATTERN = (
    ("certify_one_radicand", 26),
    ("certify_multi_radicand", 36),
    ("certify_float", 32),
    ("certify_one_radicand", 28),
    ("mc", 30),
    ("certify_multi_radicand", 40),
    ("certify_one_radicand", 25),
    ("certify_case1", 30),
    ("certify_multi_radicand", 38),
    ("certify_one_radicand", 27),
    ("lemmas", 16),
    ("certify_one_radicand", 26),
    ("certify_multi_radicand", 36),
    ("certify_float", 40),
    ("certify_one_radicand", 28),
    ("search", 8),
    ("certify_multi_radicand", 40),
    ("certify_one_radicand", 25),
    ("certify_multi_radicand", 38),
    ("certify_one_radicand", 27),
)
# Tiny sizes shrink only the non-certify calls: certify stays at the
# pattern's n, which is cheap and keeps each class in its own domain (at
# n=6 the multi-radicand draws are often Case 1).
CLI_TINY = {"search": 4, "lemmas": 4, "mc": 8}
MC_SAMPLES = 20_000
LEMMA_GRID = 500
SEARCH_BUDGET = 100


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``radsum.cli.main(argv)`` with stdout and stderr captured in memory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _g(k: int, x: float) -> float:
    return (1 - (1 - k * x * x) / (2 - x) ** 2) / 2


def _h(k: int, x: float) -> float:
    return (1 - (1 - (1 - x) ** 2 / k) / (2 - x) ** 2) / 2


def certificate_bound(squares: list[float]) -> tuple[str, float]:
    """(case, bound) of the theorem certificate recomputed in floats from the
    closed forms of g_k, h_k and the tail moments; ``squares`` are x_i^2."""
    total = math.fsum(squares)
    q = sorted((s / total for s in squares), reverse=True)
    x = [math.sqrt(v) for v in q]
    n = len(x)
    x2 = x[1] if n > 1 else 0.0
    if x[0] + x2 > 1:
        m2 = math.fsum(q[2:])
        m4 = 3 * m2 * m2 - 2 * math.fsum(v * v for v in q[2:])
        term2 = 1 - m2 / (1 + x[0] - x2) ** 2
        term4 = 1 - m4 / (1 + x[0] + x2) ** 4
        return "case1", (term2 + term4) / 4
    if n <= 2:
        return "case2", 1.0
    per_k = (min(1.0, max(0.0, _g(k, x[k]), _h(k, x[k]))) for k in range(2, n))
    return "case2", min(1.0, min(per_k))


def _verify_certify(out, squares: list[float]) -> bool:
    code, text = out
    if code != 0:
        return False
    result = json.loads(text)["result"]
    case, bound = certificate_bound(squares)
    final = float(result["final_bound"]["decimal"])
    floor = 93 / 256 if case == "case1" else 9 / 25
    return result["case"] == case and final >= floor and abs(final - bound) <= 1e-9


def _certify_tokens(rng: random.Random, cls: str, n: int) -> tuple[str, list[float]]:
    if cls == "certify_float":
        digits = [rng.randint(1, 999) for _ in range(n)]
        return ",".join(f"0.{d:03d}" for d in digits), [(d / 1000) ** 2 for d in digits]
    if cls == "certify_one_radicand":
        # Perfect-square tokens with a non-square sum: every weight is a
        # rational multiple of one shared radical.
        while True:
            q = [rng.randint(1, 31) ** 2 for _ in range(n)]
            if isqrt(sum(q)) ** 2 != sum(q):
                break
    elif cls == "certify_multi_radicand":
        q = [rng.randint(100, 999) for _ in range(n)]
    else:  # certify_case1: two dominant tokens, so x1 + x2 > 1
        tail = [rng.randint(100, 999) for _ in range(n - 2)]
        t = sum(tail)
        q = [4 * t + rng.randint(0, 999), t // 2 + rng.randint(0, 99)] + tail
    return "sq:" + ",".join(map(str, q)), [float(v) for v in q]


def _cli_call(rng: random.Random, cls: str, n: int) -> Call:
    if cls.startswith("certify"):
        text, squares = _certify_tokens(rng, cls, n)
        return Call(
            cls,
            lambda: run_cli(["certify", text]),
            lambda: squares,
            _verify_certify,
        )
    if cls == "mc":
        a = nonsquare_ints(rng, n, 1, 99)
        seed = rng.randrange(2**32)
        argv = ["mc", ",".join(map(str, a)), "--samples", str(MC_SAMPLES), "--seed", str(seed)]

        def verify(out, p):
            code, text = out
            if code != 0:
                return False
            est = json.loads(text)["result"]["estimate"]["decimal"]
            sigma = math.sqrt(p * (1 - p) / MC_SAMPLES)
            return abs(float(est) - p) <= 5 * sigma + 1e-12

        return Call(cls, lambda: run_cli(argv), lambda: count_within_norm(a, False) / (1 << n), verify)
    if cls == "lemmas":
        k_max = n + rng.randint(0, 4)
        argv = ["lemmas", "--mode", "exact", "--k-max", str(k_max),
                "--grid-points", str(LEMMA_GRID), "--format", "json"]

        def reference():
            # Closed forms: crossing at 1/(k+1), min-max 3k(k+1)/(2(2k+1)^2).
            return [
                (str(Fraction(1, k + 1)), str(Fraction(3 * k * (k + 1), 2 * (2 * k + 1) ** 2)))
                for k in range(2, k_max + 1)
            ]

        def verify(out, ref):
            code, text = out
            if code != 0:
                return False
            result = json.loads(text)["result"]
            rows = [(r["crossing_x"]["exact"], r["minmax"]["exact"]) for r in result["rows"]]
            return result["ok"] and rows == ref

        return Call(cls, lambda: run_cli(argv), reference, verify)
    # search: the reported best probability must be a count of sign vectors
    # of the reported weights, bracketed by a float recount with 1e-9 slack
    # at the boundary, and never below the theorem floor.
    seed = rng.randrange(2**32)
    argv = ["search", "--n", str(n), "--budget", str(SEARCH_BUDGET), "--seed", str(seed)]

    def verify(out, _):
        code, text = out
        if code != 0:
            return False
        result = json.loads(text)["result"]
        xs = np.array([float(v["decimal"]) for v in result["best_w"]])
        sums = np.abs(signed_sums(xs))
        hits = Fraction(result["best_prob_exact"]) * (1 << n)
        lo = int(np.count_nonzero(sums < 1 - 1e-9))
        hi = int(np.count_nonzero(sums <= 1 + 1e-9))
        return hits.denominator == 1 and lo <= hits <= hi and hits >= Fraction(9, 25) * (1 << n)

    return Call(cls, lambda: run_cli(argv), lambda: None, verify)


def cli_calls(rng: random.Random, reps: int, tiny: bool) -> list[Call]:
    return [
        _cli_call(rng, cls, CLI_TINY.get(cls, n) if tiny else n)
        for _ in range(reps)
        for cls, n in CLI_PATTERN
    ]


# Builders: ``build(rng, reps, tiny)`` makes ``reps`` repetitions of the
# workload's pattern (at tiny sizes when ``tiny``).
WORKLOADS = {
    "mitm-query": mitm_calls,
    "partition-walk": partition_calls,
    "certify-cli": cli_calls,
}


def warm_up(name: str) -> None:
    """Run every kind of call once on small inputs not in the timed list,
    so lazy imports and first-call costs land in set-up."""
    rng = random.Random(f"warm-up:{name}")
    seen = set()
    for call in WORKLOADS[name](rng, 1, True):
        kind = (call.cls, call.run.__code__)  # each operation has its own lambda
        if kind not in seen:
            seen.add(kind)
            call.run()
