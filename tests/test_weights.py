"""Canonicalization, case dispatch, and the input grammar."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsum import (
    EXACT,
    FLOAT,
    CaseTag,
    DegenerateVectorError,
    InputError,
    WeightVector,
    canonicalize,
    case_of,
    exact_sqrt,
    from_squares,
    parse_weights,
)


class TestCanonicalizeExamples:
    def test_three_four_five(self):
        w = canonicalize([3, 4], EXACT)
        assert w.values == (Fraction(4, 5), Fraction(3, 5))
        assert w.scale == 5
        wf = canonicalize([3.0, 4.0], FLOAT)
        assert wf.values == (0.8, 0.6)

    def test_sign_absorption(self):
        w = canonicalize([-1], EXACT)
        assert w.values == (Fraction(1),)

    def test_symmetric_pair(self):
        w = canonicalize([1, 1], EXACT)
        assert w.values[0] == w.values[1] == exact_sqrt(Fraction(1, 2))
        assert w.squares == (Fraction(1, 2), Fraction(1, 2))

    def test_norm_squared_is_one(self):
        w = canonicalize([2, 5, 1], EXACT)
        assert sum(w.squares) == 1

    def test_zero_entries_kept(self):
        w = canonicalize([1, 0], EXACT)
        assert w.values == (Fraction(1), Fraction(0))
        assert w.n == 2


class TestCanonicalizeErrors:
    def test_all_zero(self):
        with pytest.raises(DegenerateVectorError, match="degenerate vector"):
            canonicalize([0, 0], EXACT)
        with pytest.raises(DegenerateVectorError, match="degenerate vector"):
            canonicalize([0.0], FLOAT)

    def test_non_finite(self):
        with pytest.raises(InputError, match="invalid input"):
            canonicalize([1.0, float("nan")], FLOAT)
        with pytest.raises(InputError, match="invalid input"):
            canonicalize([float("inf")], FLOAT)

    def test_empty(self):
        with pytest.raises(InputError):
            canonicalize([], FLOAT)

    def test_float_rejected_in_exact_mode(self):
        with pytest.raises(InputError, match="float"):
            canonicalize([0.5, 0.5], EXACT)

    def test_multi_radical_rejected_in_exact_mode(self):
        with pytest.raises(InputError, match="rational squares"):
            canonicalize([1 + exact_sqrt(2)], EXACT)

    def test_bad_mode(self):
        with pytest.raises(InputError):
            canonicalize([1], "decimal")

    @pytest.mark.parametrize("entry", ["1", 1j], ids=["str", "complex"])
    def test_unsupported_exact_entry_type(self, entry):
        with pytest.raises(InputError) as raised:
            canonicalize([1, entry], EXACT)
        assert str(raised.value) == f"invalid input: unsupported exact entry type {type(entry).__name__}"


class TestCanonicalizeProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ).filter(lambda xs: any(abs(x) > 1e-9 for x in xs))
    )
    @settings(max_examples=200, deadline=None)
    def test_float_idempotent_and_unit(self, xs):
        w = canonicalize(xs, FLOAT)
        again = canonicalize(list(w.values), FLOAT)
        assert again.values == w.values
        assert abs(math.fsum(v * v for v in w.values) - 1.0) <= 1e-12

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=20),
            min_size=1,
            max_size=4,
        ).filter(lambda xs: any(xs)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_invariance_under_signs_and_permutation(self, xs, rnd):
        w = canonicalize(xs, EXACT)
        shuffled = [x if rnd.random() < 0.5 else -x for x in xs]
        rnd.shuffle(shuffled)
        assert canonicalize(shuffled, EXACT).values == w.values

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=20),
            min_size=1,
            max_size=4,
        ).filter(lambda xs: any(xs))
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_idempotent(self, xs):
        w = canonicalize(xs, EXACT)
        assert canonicalize(list(w.values), EXACT).values == w.values

    def test_extreme_scales_do_not_overflow(self):
        w = canonicalize([1e200, 1e200], FLOAT)
        assert w.values[0] == pytest.approx(1 / math.sqrt(2))
        w = canonicalize([1e-200, 1e-200], FLOAT)
        assert w.values[0] == pytest.approx(1 / math.sqrt(2))


def literal_exact(raw):
    """Exact canonicalization by its literal construction: divide each entry
    by the ``SqrtSum`` square root of the norm, sort by ``SqrtSum``
    comparison.  Error types and messages are the library's."""
    from radsum.algebraic import SqrtSum

    if len(raw) == 0:
        raise InputError("invalid input: empty weight list")
    entries = []
    for i, e in enumerate(raw):
        if isinstance(e, bool):
            raise InputError(f"invalid input: bool entry at index {i}")
        if isinstance(e, float):
            raise InputError(
                "invalid input: float values are not allowed in exact mode; "
                "pass ints/Fractions (or use float mode)"
            )
        if isinstance(e, SqrtSum) and len(e.terms) > 1:
            raise InputError(
                "invalid input: exact weights must have rational squares "
                f"(entry at index {i} has multiple radical terms)"
            )
        entries.append(SqrtSum.from_rational(e))
    norm_sq = sum((e * e).as_fraction() for e in entries)
    if norm_sq == 0:
        raise DegenerateVectorError("degenerate vector: all entries are zero")
    norm = SqrtSum.sqrt_rational(norm_sq)
    xs = sorted((abs(e) / norm for e in entries), reverse=True)
    rational = lambda x: x.as_fraction() if x.is_rational else x
    return [rational(x) for x in xs], [(x * x).as_fraction() for x in xs], rational(norm)


def assert_same_exact(got, want):
    from radsum.algebraic import SqrtSum

    assert type(got) is type(want) and got == want
    if isinstance(got, SqrtSum):
        assert list(got.terms.items()) == list(want.terms.items())


_exact_entries = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.builds(
        lambda c, q: c * exact_sqrt(q),
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
        st.fractions(min_value=0, max_value=60, max_denominator=12),
    ),
    st.sampled_from([0, Fraction(0), exact_sqrt(0), exact_sqrt(4), -exact_sqrt(Fraction(1, 9))]),
)


class TestExactConstructor:
    @given(st.lists(_exact_entries, min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_construction(self, raw):
        try:
            values, squares, scale = literal_exact(raw)
        except DegenerateVectorError:
            with pytest.raises(DegenerateVectorError):
                canonicalize(raw, EXACT)
            return
        w = canonicalize(raw, EXACT)
        assert len(w.values) == len(values)
        for got, want in zip((*w.values, w.scale), (*values, scale)):
            assert_same_exact(got, want)
        assert w.squares == tuple(squares)
        assert all(type(q) is Fraction for q in w.squares)

    @pytest.mark.parametrize(
        "raw",
        [[], [0, Fraction(0), exact_sqrt(0)], [1, 0.5], [3, True], [1, 1 + exact_sqrt(2)]],
        ids=["empty", "all-zero", "float", "bool", "multi-term"],
    )
    def test_error_parity(self, raw):
        with pytest.raises((InputError, DegenerateVectorError)) as want:
            literal_exact(raw)
        with pytest.raises(want.type) as got:
            canonicalize(raw, EXACT)
        assert str(got.value) == str(want.value)

    def test_factors_only_the_total(self, monkeypatch):
        from radsum import weights

        real, seen = weights.squarefree_decompose, []
        monkeypatch.setattr(weights, "squarefree_decompose", lambda n: seen.append(n) or real(n))
        w = canonicalize([Fraction(3, 7), 2 * exact_sqrt(6), 0, -5, exact_sqrt(Fraction(1, 3))], EXACT)
        # total 9/49 + 24 + 25 + 1/3 = 7279/147
        assert sum(w.squares) == 1
        assert sorted(seen) == [147, 7279]


class TestWeightVectorOrder:
    @pytest.mark.parametrize(
        "w",
        [from_squares([16, 9]), from_squares([3, 2, 2, 1]), canonicalize([4, 3], FLOAT)],
        ids=["rational", "radical", "float"],
    )
    def test_direct_construction_checks_the_order(self, w):
        assert WeightVector(w.values, w.squares, w.mode, w.scale) == w
        with pytest.raises(InputError, match="sorted descending"):
            WeightVector(w.values[::-1], w.squares[::-1], w.mode, w.scale)

    def test_direct_construction_needs_a_value(self):
        with pytest.raises(InputError) as raised:
            WeightVector((), (), EXACT, Fraction(1))
        assert str(raised.value) == "weight vector must have n >= 1"


class TestFromSquares:
    def test_normalizes_square_sum(self):
        w = from_squares([16, 9])
        assert w.values == (Fraction(4, 5), Fraction(3, 5))

    def test_irrational_weights(self):
        w = from_squares([Fraction(1, 2), Fraction(1, 2)])
        assert w.values[0] == exact_sqrt(Fraction(1, 2))
        assert w.squares == (Fraction(1, 2), Fraction(1, 2))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            from_squares([Fraction(1, 2), Fraction(-1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(InputError) as raised:
            from_squares([])
        assert str(raised.value) == "invalid input: empty squared-weight list"

    def test_unfactorable_square_asks_for_float_mode(self, capsys, monkeypatch):
        # the product of two primes near 10^12, which no other test factors
        # (``squarefree_decompose`` is cached), is past a lowered budget
        from radsum import algebraic
        from radsum.cli import main

        def prime_from(p):
            while not algebraic._is_probable_prime(p, algebraic._Budget()):
                p += 1
            return p

        semiprime = prime_from(10**12 + 7**5) * prime_from(10**12 + 11**5)
        monkeypatch.setattr(algebraic, "_RHO_BUDGET", 20_000)
        with pytest.raises(InputError, match=r"effort budget.*; use float mode$"):
            from_squares([semiprime, 1])
        assert main(["exact", f"sq:{semiprime},1", "--no-timestamp"]) == 1
        assert capsys.readouterr().err.endswith("; use float mode\n")
        assert main(["exact", f"sq:{semiprime},1", "--mode", "float", "--no-timestamp"]) == 0

    @given(st.lists(st.fractions(min_value=0, max_value=60, max_denominator=50), min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_token_square_roots(self, qs):
        # the literal construction: each normalized square's root on its own
        from radsum.algebraic import SqrtSum

        total = sum(qs)
        if not total:
            return
        w = from_squares(qs)
        squares = sorted((q / total for q in qs), reverse=True)
        assert w.squares == tuple(squares)
        for got, q in zip((*w.values, w.scale), (*squares, total)):
            x = SqrtSum.sqrt_rational(q)
            want = x.as_fraction() if x.is_rational else x
            assert type(got) is type(want) and got == want
            if isinstance(got, SqrtSum):
                assert list(got.terms.items()) == list(want.terms.items())

    def test_factors_each_numerator_and_denominator_once(self, monkeypatch):
        from radsum import weights

        real, seen = weights.squarefree_decompose, []
        monkeypatch.setattr(weights, "squarefree_decompose", lambda n: seen.append(n) or real(n))
        qs = [Fraction(3, 7), 5, Fraction(11, 2), 0, 13]  # total 335/14
        from_squares(qs)
        assert sorted(seen) == sorted([335, 14, 3, 7, 5, 1, 11, 2, 13, 1])


class TestCaseOf:
    def test_examples(self):
        assert case_of(canonicalize([3, 4], EXACT)) is CaseTag.CASE1
        assert case_of(canonicalize([1], EXACT)) is CaseTag.CASE2
        assert case_of(from_squares([Fraction(1, 4)] * 4)) is CaseTag.CASE2

    def test_exact_tie_is_case2(self):
        # x = (3/5, 2/5, 1/5 * 12 of them): x1 + x2 = 1 exactly
        squares = [Fraction(9, 25), Fraction(4, 25)] + [Fraction(1, 25)] * 12
        w = from_squares(squares)
        assert w.x1 + w.x2 == 1
        assert case_of(w) is CaseTag.CASE2

    def test_n1_uses_zero_x2(self):
        w = canonicalize([7], EXACT)
        assert w.x2 == 0
        assert case_of(w) is CaseTag.CASE2


class TestGrammar:
    def test_decimal_list(self):
        w = parse_weights("0.8,0.6")
        assert w.mode == FLOAT
        assert w.values == (0.8, 0.6)

    def test_squared_rationals(self):
        w = parse_weights("sq:16/25,9/25")
        assert w.mode == EXACT
        assert w.values == (Fraction(4, 5), Fraction(3, 5))

    def test_squares_normalized(self):
        assert parse_weights("sq:16,9").values == (Fraction(4, 5), Fraction(3, 5))

    def test_whitespace_tolerated(self):
        w = parse_weights("sq: 1/4 , 1/4 , 1/4 , 1/4 ")
        assert w.values == (Fraction(1, 2),) * 4

    def test_mode_override(self):
        # squares in float mode are the float weights of the squares
        assert parse_weights("sq:1,2,3", FLOAT) == from_squares([1, 2, 3], FLOAT)
        assert parse_weights("sq:1,2,3", EXACT) == parse_weights("sq:1,2,3")
        assert parse_weights("0.8,0.6", FLOAT) == parse_weights("0.8,0.6")
        with pytest.raises(InputError, match="use the sq: grammar"):
            parse_weights("0.8,0.6", EXACT)
        with pytest.raises(InputError, match="unknown numeric mode"):
            parse_weights("0.8,0.6", "fast")

    @pytest.mark.parametrize(
        "text", ["", "sq:", "abc", "sq:1/0", "sq:-1/4", "0.5,,0.5", "sq:1/4;1/4"]
    )
    def test_bad_grammar(self, text):
        with pytest.raises(InputError):
            parse_weights(text)
