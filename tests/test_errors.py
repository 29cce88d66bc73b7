"""The input gates every module shares, and the error discipline of the
source tree."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import radsum
from radsum import (
    FLOAT,
    InputError,
    admissible_count,
    canonicalize,
    crossing_point,
    exact_sqrt,
    from_squares,
    g,
    h,
    hybrid_bound,
    lemma_sweep,
    minimize_probability,
    minmax_bound,
    monte_carlo,
    prefix_partition,
    sum_distribution,
    tail_moments,
    theorem_bound,
    threshold_probability,
    threshold_probability_naive,
)

W = from_squares([1, 1, 1, 1])  # x = (1/2, 1/2, 1/2, 1/2), Case 2
WF = canonicalize([0.6, 0.8], FLOAT)

# (name, call taking the value, out-of-range values)
INTEGER_ARGS = [
    ("limit-threshold_probability", lambda v: threshold_probability(W, limit=v), [-1]),
    ("limit-naive", lambda v: threshold_probability_naive(W, limit=v), [-1]),
    ("limit-sum_distribution", lambda v: sum_distribution(W, limit=v), [-1]),
    ("limit-prefix_partition", lambda v: prefix_partition(W, limit=v), [-1]),
    ("limit-hybrid_bound", lambda v: hybrid_bound(W, limit=v), [-1]),
    ("limit-theorem_bound", lambda v: theorem_bound(W, limit=v), [-1]),
    ("limit-minimize_probability", lambda v: minimize_probability(2, 5, 0, limit=v), [-1]),
    ("k-g", lambda v: g(v, Fraction(1, 2)), [1, -3]),
    ("k-h", lambda v: h(v, Fraction(1, 2)), [1]),
    ("k-crossing_point", crossing_point, [1]),
    ("k-minmax_bound", minmax_bound, [0]),
    ("k-tail_moments", lambda v: tail_moments(W, v), [-1, 5]),
    ("samples", lambda v: monte_carlo(W, 1, samples=v, seed=0), [0]),
    ("seed-monte_carlo", lambda v: monte_carlo(W, 1, samples=10, seed=v), [-1, 2**64]),
    ("k_max", lemma_sweep, [1]),
    ("n", lambda v: minimize_probability(v, 5, 0), [1, 41]),
    ("budget", lambda v: minimize_probability(2, v, 0), [0]),
    ("seed-minimize_probability", lambda v: minimize_probability(2, 5, v), [-1, 2**64]),
    ("exponent", lambda v: exact_sqrt(2) ** v, [-1]),
]
NOT_PLAIN_INTS = [True, False, 2.0, np.int64(2), "2"]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}-{value!r}")
        for name, call, bad in INTEGER_ARGS
        for value in NOT_PLAIN_INTS + bad
    ],
)
def test_integer_arguments_take_plain_ints_in_range(call, value):
    with pytest.raises(InputError, match="must be an integer"):
        call(value)


def test_integer_messages_name_the_range():
    with pytest.raises(InputError, match=r"size limit must be an integer >= 0, got -1$"):
        threshold_probability(W, limit=-1)
    with pytest.raises(InputError, match=r"seed must be an integer in \[0, 18446744073709551615\], got -1$"):
        monte_carlo(W, 1, samples=10, seed=-1)
    with pytest.raises(InputError, match=r"k must be an integer in \[0, 4\], got True$"):
        tail_moments(W, True)


# -- thresholds ----------------------------------------------------------------


def _threshold_calls(w):
    yield lambda t: threshold_probability(w, t)
    yield lambda t: admissible_count(w, t)
    yield lambda t: threshold_probability_naive(w, t)
    yield lambda t: sum_distribution(w).probability(t)
    if w.mode == FLOAT:
        yield lambda t: monte_carlo(w, t, samples=10, seed=0)


@pytest.mark.parametrize(
    "w, t",
    [(WF, t) for t in ("abc", "1/0", "nan", "-inf", "1e400", "1e-400", "-1", -0.5, None, 10**400)]
    + [(W, t) for t in ("abc", "1/0", "nan", "-1", 0.5, -1, Fraction(-1, 3), None)],
)
def test_every_threshold_error_comes_from_the_one_gate(w, t):
    for call in _threshold_calls(w):
        with pytest.raises(InputError, match="threshold") as info:
            call(t)
        assert info.traceback[-1].name == "_normalize_threshold"


def test_threshold_strings_read_as_rationals():
    for t in ("3/7", " 2 ", "1_0", "0.5", "-0"):
        assert threshold_probability(WF, t) == threshold_probability(WF, float(Fraction(t)))
        assert threshold_probability(W, t) == threshold_probability(W, Fraction(t))
    # an exact t is not bound by the float range (the CLI, which renders
    # t as a decimal, is)
    assert threshold_probability(W, "1e400") == 1


def _error(call) -> str:
    with pytest.raises(InputError) as info:
        call()
    return str(info.value)


def test_threshold_messages_carry_the_value():
    assert _error(lambda: threshold_probability(WF, "1e400")) == (
        "invalid input: threshold '1e400' exceeds the float range"
    )
    assert _error(lambda: monte_carlo(WF, Fraction(1, 10**400))) == (
        f"invalid input: threshold {Fraction(1, 10**400)!r} underflows to 0 in float mode"
    )
    assert _error(lambda: threshold_probability(WF, "abc")) == (
        "invalid input: bad threshold 'abc' (could not convert string to float: 'abc')"
    )
    assert _error(lambda: threshold_probability(W, "abc")) == (
        "invalid input: bad exact threshold 'abc' (Invalid literal for Fraction: 'abc')"
    )


# -- source discipline -----------------------------------------------------------


def test_no_assert_statements_in_the_package():
    """Invariants are ``SoundnessError``s: ``python -O`` strips asserts."""
    found = []
    for path in sorted(Path(radsum.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
