"""Bound functions, certificates, and the inequality-chain checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASE2_KINDS, case2_vector, random_case1, random_case2, rational_unit_vector
from radsum import (
    CASE1_FLOOR,
    CASE2_FLOOR,
    EXACT,
    FLOAT,
    CaseTag,
    InputError,
    SizeLimitError,
    SoundnessError,
    WrongCaseError,
    canonicalize,
    case1_certificate,
    case_of,
    case2_certificate,
    crossing_point,
    decomposition_check,
    exact_sqrt,
    from_squares,
    g,
    h,
    hybrid_bound,
    minmax_bound,
    prefix_partition,
    theorem_bound,
    threshold_probability,
    verify_certificate,
)
from radsum import bounds
from radsum.algebraic import SqrtSum


class TestBoundFunctions:
    def test_g_at_one_third_is_9_25(self):
        assert g(2, Fraction(1, 3)) == Fraction(9, 25)

    def test_g_endpoints(self):
        assert g(2, Fraction(0)) == Fraction(3, 8)
        for k in (2, 3, 7, 50):
            assert g(k, Fraction(1)) == Fraction(k, 2)

    def test_h_values(self):
        assert h(2, Fraction(1, 3)) == Fraction(9, 25)
        assert h(2, Fraction(0)) == Fraction(7, 16)
        for k in (2, 3, 7, 50):
            assert h(k, Fraction(1)) == 0

    def test_int_arguments_stay_exact(self):
        assert g(2, 0) == Fraction(3, 8)
        assert h(3, 1) == 0

    def test_float_path(self):
        assert g(2, 1 / 3) == pytest.approx(0.36)
        assert h(2, 1 / 3) == pytest.approx(0.36)

    def test_radical_argument(self):
        x = exact_sqrt(Fraction(1, 8))
        val = g(2, x)
        alt = (1 - (1 - 2 * x * x) / ((2 - x) * (2 - x))) / 2
        assert val == alt

    def test_domain_errors(self):
        with pytest.raises(InputError, match="domain"):
            g(2, Fraction(3, 2))
        with pytest.raises(InputError, match="domain"):
            h(2, Fraction(-1, 10))
        with pytest.raises(InputError):
            g(1, Fraction(1, 2))

    def test_alternate_algebraic_form(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 40))
            x = Fraction(int(rng.integers(0, 101)), 100)
            lhs = g(k, x)
            rhs = Fraction(1, 2) * ((2 - x) ** 2 - 1 + k * x * x) / (2 - x) ** 2
            assert lhs == rhs


class TestCrossingAndMinmax:
    def test_crossing_examples(self):
        assert crossing_point(2) == Fraction(1, 3)
        assert crossing_point(3) == Fraction(1, 4)
        cp9 = crossing_point(9)
        assert cp9 == Fraction(1, 10)
        assert g(9, cp9) == h(9, cp9)

    def test_crossing_exact_equality_range(self):
        for k in range(2, 200):
            cp = crossing_point(k)
            assert g(k, cp) == h(k, cp)

    def test_minmax_values(self):
        assert minmax_bound(2) == Fraction(9, 25)
        assert minmax_bound(3) == Fraction(18, 49)

    def test_minmax_large_k_limit(self):
        assert abs(float(minmax_bound(10**6)) - 0.375) < 1e-5


class TestCase1Certificate:
    def test_empty_tail(self):
        cert = theorem_bound(canonicalize([3, 4], EXACT), exact_check=True)
        d = cert.intermediates
        assert (d.m2, d.m4, d.term2, d.term4) == (0, 0, 1, 1)
        assert cert.final_bound == Fraction(1, 2)
        assert cert.sound_against == Fraction(1, 2)
        verify_certificate(cert)

    def test_radical_instance_formula_arithmetic(self):
        # x = (4/5, 1/2, sqrt(11)/10): replicate the chain with literal
        # Fraction arithmetic and compare.
        w = from_squares([Fraction(16, 25), Fraction(1, 4), Fraction(11, 100)])
        cert = theorem_bound(w, exact_check=True)
        m2 = Fraction(11, 100)
        m4 = m2 * m2
        term2 = 1 - m2 / Fraction(13, 10) ** 2
        term4 = 1 - m4 / Fraction(23, 10) ** 4
        assert cert.intermediates.term2 == term2 == Fraction(158, 169)
        assert cert.intermediates.term4 == term4 == Fraction(279720, 279841)
        assert cert.final_bound == (term2 + term4) / 4
        assert float(cert.final_bound) == pytest.approx(0.48362, abs=5e-6)
        assert cert.sound_against == Fraction(3, 4)

    def test_floor_and_soundness_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 15))
            w = random_case1(rng, n)
            cert = theorem_bound(w, exact_check=True)
            assert cert.final_bound >= CASE1_FLOOR
            assert cert.final_bound <= cert.sound_against
            assert cert.intermediates.term2 >= Fraction(1, 2)
            assert cert.intermediates.term4 >= 1 - Fraction(3, 64)

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError, match="not case 1"):
            case1_certificate(from_squares([Fraction(1, 4)] * 4))


class TestCase2Certificate:
    def test_uniform_four_worked_example(self):
        cert = theorem_bound(from_squares([Fraction(1, 4)] * 4), exact_check=True)
        per = {e.k: e.max_value for e in cert.intermediates.per_k}
        assert per == {2: Fraction(7, 18), 3: Fraction(4, 9)}
        assert cert.intermediates.argmin_k == 2
        assert cert.final_bound == Fraction(7, 18)
        assert cert.sound_against == Fraction(7, 8)
        verify_certificate(cert)

    def test_small_n_is_one(self):
        assert case2_certificate(canonicalize([1, 0], EXACT)).final_bound == 1
        assert case2_certificate(canonicalize([1], EXACT)).final_bound == 1

    def test_floor_and_soundness_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 15))
            w = random_case2(rng, n)
            cert = theorem_bound(w, exact_check=True)
            assert cert.final_bound >= CASE2_FLOOR
            assert cert.final_bound <= cert.sound_against

    @given(st.sampled_from(CASE2_KINDS), st.integers(3, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_every_max_lies_in_floor_to_half(self, kind, n, seed):
        # (k+1) x_{k+1}^2 <= 1 keeps g_k and h_k below 1/2 and minmax_bound
        # keeps their max at least 9/25, so no max leaves [9/25, 1/2); float
        # rounding can break the floor (test_float_max_near_the_floor)
        w = case2_vector(kind, n, seed)
        vectors = [] if w is None else [w]
        if w is not None and w.mode == EXACT:
            vectors.append(canonicalize(w.as_floats(), FLOAT))
        if kind == "float-ties":  # x_3 = 1/3, the min-max point of k = 2
            vectors += [canonicalize([1.0] * 9, FLOAT), from_squares([1] * 9)]
        for w in (v for v in vectors if case_of(v) is CaseTag.CASE2):
            for e in case2_certificate(w).intermediates.per_k:
                assert CASE2_FLOOR <= e.max_value < Fraction(1, 2), (w.values, e.k, e.max_value)

    @pytest.mark.xfail(raises=SoundnessError, strict=True,
                       reason="float max(g_2, h_2) rounds to 0.36, one ulp below 9/25")
    def test_float_max_near_the_floor(self):
        # x_3 = 0.3333333333333334: the real max(g_2, h_2) is at least 9/25,
        # but its float is 0.36 < 9/25, so the floor check refuses a valid
        # instance
        ws = [1.0, 1.0, 1.0000000000000002, 1.0000000000000002, 1.0000000000000004,
              1.0000000000000004, 1.0000000000000007, 1.0000000000000007, 1.0000000000000009]
        theorem_bound(canonicalize(ws, FLOAT), exact_check=False)

    def test_zero_tail_weights_no_special_case(self):
        w = canonicalize([3, 4, 0, 0, 0], EXACT)
        assert case_is(w) == "case1"

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError, match="not case 2"):
            case2_certificate(canonicalize([3, 4], EXACT))

    def test_exact_check_only_in_theorem_bound(self):
        w = from_squares([Fraction(1, 4)] * 4)
        for certificate in (case1_certificate, case2_certificate):
            with pytest.raises(TypeError):
                certificate(w, exact_check=True)


def case_is(w):
    from radsum import case_of

    return case_of(w).value


class TestTheoremBound:
    def test_dispatch_examples(self):
        assert theorem_bound(canonicalize([3, 4], EXACT)).final_bound == Fraction(1, 2)
        assert theorem_bound(from_squares([Fraction(1, 4)] * 4)).final_bound == Fraction(7, 18)
        assert theorem_bound(canonicalize([1], EXACT)).final_bound == 1

    def test_auto_check_attaches_exact_probability(self):
        cert = theorem_bound(from_squares([Fraction(1, 4)] * 4))
        assert cert.sound_against == Fraction(7, 8)

    def test_auto_check_respects_the_limit(self):
        w = canonicalize([0.3] * 10, FLOAT)
        assert theorem_bound(w, limit=5).sound_against is None
        assert theorem_bound(w, limit=10).sound_against == threshold_probability(w, 1.0)
        with pytest.raises(SizeLimitError):
            theorem_bound(w, exact_check=True, limit=5)
        with pytest.raises(InputError, match="size limit"):
            theorem_bound(w, limit=-1)

    def test_no_check_when_disabled(self):
        cert = theorem_bound(from_squares([Fraction(1, 4)] * 4), exact_check=False)
        assert cert.sound_against is None

    @pytest.mark.parametrize("exact_check", ["no", "", 1, 0, None, np.bool_(True), "AUTO"])
    def test_exact_check_is_true_false_or_auto(self, exact_check):
        # read by truthiness, "no" would run the check and attach 7/8
        with pytest.raises(InputError, match="exact_check must be True, False or 'auto'"):
            theorem_bound(from_squares([Fraction(1, 4)] * 4), exact_check=exact_check)

    def test_universality_random_mixed(self, rng):
        for _ in range(80):
            n = int(rng.integers(1, 15))
            w = rational_unit_vector(rng, n)
            cert = theorem_bound(w)
            assert cert.final_bound >= Fraction(9, 25)
            assert cert.final_bound <= cert.sound_against

    def test_float_mode(self, rng):
        w = canonicalize([0.8, 0.6], FLOAT)
        cert = theorem_bound(w)
        assert cert.final_bound == 0.5
        assert cert.sound_against == 0.5


class TestHybridBound:
    def test_uniform_four_value(self):
        assert hybrid_bound(from_squares([Fraction(1, 4)] * 4)) == Fraction(25, 36)

    def test_one_zero(self):
        assert hybrid_bound(canonicalize([1, 0], EXACT)) == 1

    def test_sandwich_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 13))
            w = random_case2(rng, n)
            cert = case2_certificate(w)
            hb = hybrid_bound(w)
            exact = threshold_probability(w, 1)
            assert cert.final_bound <= hb <= exact

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError):
            hybrid_bound(canonicalize([3, 4], EXACT))

    @pytest.mark.parametrize("limit", [-1, True, 2.5])
    def test_invalid_limit_is_input_error_at_n_1(self, limit):
        # n = 1 enumerates nothing, but the limit is still checked first
        with pytest.raises(InputError, match="size limit must be an integer"):
            hybrid_bound(canonicalize([3], EXACT), limit=limit)

    @staticmethod
    def _partition_formula(w):
        """The oracle: the bound over the event probabilities of the full
        partition report, summed in the same order as hybrid_bound."""
        one = Fraction(1) if w.mode == EXACT else 1.0
        report = prefix_partition(w)
        total = one - one
        for k, p in zip(report.ks[:-1], report.probs):
            if p == 0:
                continue
            total = total + p * bounds._max_g_h(k, w.values[k], w.squares[k], w.mode)[2]
        return total + report.probs[-1] * one

    @given(st.sampled_from(CASE2_KINDS), st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_partition_formula(self, kind, n, seed):
        w = case2_vector(kind, n, seed)
        vectors = [w] if w is not None else []
        if kind == "float-ties":
            vectors += [canonicalize([1.0] * 9, FLOAT), canonicalize([0.5] * 4, FLOAT)]
        for w in vectors:
            got, want = hybrid_bound(w), self._partition_formula(w)
            assert type(got) is type(want) and got == want, (w.values, got, want)
            if w.mode == FLOAT:
                assert got.hex() == want.hex()

    def test_builds_no_tail_table(self, monkeypatch):
        from radsum import engine

        calls, real = [], engine._tail_distributions
        monkeypatch.setattr(engine, "_tail_distributions", lambda *a: calls.append(a) or real(*a))
        vectors = [w for kind in CASE2_KINDS if (w := case2_vector(kind, 12, 7)) is not None]
        assert len(vectors) >= 4
        for w in vectors:
            hybrid_bound(w)
        assert calls == []
        prefix_partition(vectors[0])
        assert calls

    @pytest.mark.parametrize(
        "w",
        [
            random_case2(np.random.default_rng(3), 10),
            canonicalize([27, 7, 29, 18, 17, 3, 29, 24, 2], EXACT),
            from_squares([1, 2, 3, 5, 6, 7, 1, 2, 3, 5]),
        ],
        ids=["rational", "one_radicand", "multi_radicand"],
    )
    def test_walk_slip_is_soundness_error(self, monkeypatch, w):
        # a frontier merge that loses one sum's count breaks the partition
        # mass, which the walk checks for hybrid_bound as for prefix_partition
        from radsum import engine

        assert case_of(w) is CaseTag.CASE2
        real = engine._merge_equal
        monkeypatch.setattr(engine, "_merge_equal", lambda keys, counts: tuple(x[:-1] for x in real(keys, counts)))
        for run in (hybrid_bound, prefix_partition):
            with pytest.raises(SoundnessError, match="partition mass"):
                run(w)


@st.composite
def exact_weights(draw):
    """``(x, q)``: a canonical exact weight and its square, from a
    multi-radicand ``from_squares`` draw, a one-radicand ``canonicalize``
    draw, a rational in [0, 1] (as Fraction and as SqrtSum), or x = 0 or
    x = 1 (as int, Fraction and SqrtSum)."""
    kind = draw(st.sampled_from(["multi", "one", "rational", "zero", "one_point"]))
    if kind in ("multi", "one"):
        ints = draw(st.lists(st.integers(1, 999), min_size=2, max_size=12))
        w = from_squares(ints) if kind == "multi" else canonicalize(ints, EXACT)
        i = draw(st.integers(0, w.n - 1))
        return w.values[i], w.squares[i]
    if kind == "rational":
        den = draw(st.integers(1, 10**30))
        v = Fraction(draw(st.integers(0, den)), den)
        return draw(st.sampled_from([v, SqrtSum.from_rational(v)])), v * v
    v = 0 if kind == "zero" else 1
    return draw(st.sampled_from([v, Fraction(v), SqrtSum.from_rational(v)])), v * v


def _same(a, b) -> bool:
    """Equal value, equal SqrtSum term order and equal float rendering."""
    if type(a) is not type(b) or a != b or float(a) != float(b):
        return False
    return not isinstance(a, SqrtSum) or list(a.terms.items()) == list(b.terms.items())


class TestClosedFormGH:
    """``bounds._g_h`` evaluates g_k, h_k in closed form on every exact
    weight; the literal ``g``/``h`` are the oracle."""

    @given(st.integers(2, 60), st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_literal_definitions(self, k, data):
        if data.draw(st.booleans()):
            x, q = data.draw(exact_weights())
        else:
            x = Fraction(1, k + 1)
            q = x * x
        gv, hv = bounds._g_h(k, x, q)
        assert _same(gv, g(k, x)) and _same(hv, h(k, x))

    def test_pick_rule_matches_comparison(self, monkeypatch):
        # In exact mode (k+1)^2 q >= 1 picks g exactly where g >= h does,
        # the crossing x = 1/(k+1), where the two are equal, included.
        monkeypatch.setattr(bounds, "_g_h", lambda k, x, q: ("g", "h"))
        for k in range(2, 40):
            cp = Fraction(1, k + 1)
            eps = Fraction(1, 10**6)
            for x in (Fraction(0), cp - eps, cp, cp + eps, Fraction(1)):
                want = "g" if g(k, x) >= h(k, x) else "h"
                assert bounds._max_g_h(k, x, x * x, EXACT)[2] == want

    @pytest.mark.parametrize(
        "w",
        [
            from_squares([977, 901, 305, 437, 899, 165, 984, 52, 613]),
            canonicalize([27, 7, 29, 18, 17, 3, 29, 24, 2], EXACT),
        ],
        ids=["multi_radicand", "one_radicand"],
    )
    def test_certificate_never_inverts(self, monkeypatch, w):
        assert case_is(w) == "case2"
        assert all(isinstance(v, SqrtSum) for v in w.values)
        want = case2_certificate(w).to_json_dict()

        def no_inverse(self):
            raise AssertionError("SqrtSum.inverse called")

        monkeypatch.setattr(SqrtSum, "inverse", no_inverse)
        assert case2_certificate(w).to_json_dict() == want


class TestConditionalLink:
    def test_cond_dominates_max_g_h(self, rng):
        # The inequality behind the Case-2 chain, reproduced exactly on the
        # partition's conditional probabilities.
        checked = 0
        for _ in range(25):
            n = int(rng.integers(3, 13))
            w = random_case2(rng, n)
            rep = prefix_partition(w)
            for i, k in enumerate(rep.ks):
                if k == w.n or rep.probs[i] == 0:
                    continue
                x_next = w.values[k]
                bound = max(g(k, x_next), h(k, x_next))
                assert rep.conds[i] >= bound
                checked += 1
        assert checked > 10


class TestDecompositionCheck:
    def test_empty_tail_equality(self):
        rep = decomposition_check(canonicalize([3, 4], EXACT))
        assert rep.lhs == rep.rhs == Fraction(1, 2)
        assert rep.p_plus == rep.p_minus == 1

    def test_radical_instance(self):
        w = from_squares([Fraction(16, 25), Fraction(1, 4), Fraction(11, 100)])
        rep = decomposition_check(w)
        assert rep.lhs == Fraction(3, 4)
        assert rep.rhs == Fraction(1, 2)
        assert rep.p_plus == rep.p_minus == 1

    def test_random_case1_links_hold(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 16))
            w = random_case1(rng, n)
            rep = decomposition_check(w)
            assert rep.lhs >= rep.rhs
            assert rep.p_minus >= rep.term2
            assert rep.p_plus >= rep.term4

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError):
            decomposition_check(from_squares([Fraction(1, 4)] * 4))


class TestCertificateSerialization:
    def test_case1_json_fields(self):
        cert = theorem_bound(canonicalize([3, 4], EXACT), exact_check=True)
        doc = cert.to_json_dict()
        assert doc["case"] == "case1"
        assert doc["final_bound"] == {"decimal": "0.5", "exact": "1/2"}
        assert set(doc["intermediates"]) == {"m2", "m4", "denom2", "denom4", "term2", "term4"}
        assert doc["sound_against"]["exact"] == "1/2"

    def test_case2_json_fields(self):
        cert = case2_certificate(from_squares([Fraction(1, 4)] * 4))
        doc = cert.to_json_dict()
        assert doc["case"] == "case2"
        assert doc["intermediates"]["argmin_k"] == 2
        ks = [e["k"] for e in doc["intermediates"]["per_k"]]
        assert ks == [2, 3]
        assert doc["intermediates"]["per_k"][0]["max"]["exact"] == "7/18"

    def test_verify_rejects_tampered_floor(self):
        cert = case1_certificate(canonicalize([3, 4], EXACT))
        import dataclasses

        bad = dataclasses.replace(cert, final_bound=Fraction(1, 3))
        with pytest.raises(SoundnessError, match="floor"):
            verify_certificate(bad)

    def test_verify_rejects_bound_above_exact(self):
        cert = theorem_bound(canonicalize([3, 4], EXACT), exact_check=True)
        import dataclasses

        bad = dataclasses.replace(cert, final_bound=Fraction(99, 100))
        with pytest.raises(SoundnessError, match="exceeds"):
            verify_certificate(bad)
