"""Rule evaluation: hand-checked node sums, correction terms, extrapolation
weights, the compact/generic identity, and the floor model."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hfpquad import _kernels, quadrature
from hfpquad.errors import DerivativesRequiredError, EvaluationError
from hfpquad.harness import integrand_norms
from hfpquad.integrands import (
    PoissonKernelU,
    TrigPolynomial,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from hfpquad.oracles import GeometricKernelCase, hfp_reference
from hfpquad.quadrature import (
    COMPACT_PAIRS,
    CompactRule,
    PeriodicIntegrand,
    RuleSpec,
    compact_rule,
    correction_sum,
    extrapolation_weights,
    max_compact_level,
    midpoint_sum,
    plain_trap_sum,
    roundoff_floor,
    t_hat,
    wrap_to_fundamental,
)

TWO_PI = 2.0 * math.pi


def cosec2_integrand(t=1.0):
    # f(x) = 1/sin^2((x-t)/2), m = 2, g = psi_2(x-t)
    u = TrigPolynomial((1.0,))
    return singular_periodic_integrand(u, m=2, t=t, n_derivs=2)


def cot_integrand(t=1.0):
    u = TrigPolynomial((1.0,))
    return singular_periodic_integrand(u, m=1, t=t, n_derivs=1)


def supersingular_one(t=1.0):
    u = TrigPolynomial((1.0,))
    return singular_periodic_integrand(u, m=3, t=t, n_derivs=3)


class TestWrap:
    def test_examples(self):
        integ = PeriodicIntegrand(1, 1.0, 0.0, TWO_PI, lambda x: np.ones_like(x))
        assert wrap_to_fundamental(TWO_PI, integ) == pytest.approx(0.0, abs=1e-15)
        x = 1.0 + math.pi
        assert wrap_to_fundamental(x, integ) == x
        assert wrap_to_fundamental(-TWO_PI / 4, integ) == pytest.approx(
            TWO_PI * 0.75, rel=1e-15
        )

    def test_periodicity_of_f(self):
        integ = supersingular_one(t=0.7)
        xs = integ.t + np.array([0.3, 1.1, 2.9, -1.7])
        f0 = integ.f_eval(xs)
        f1 = integ.f_eval(xs + integ.period)
        f2 = integ.f_eval(xs - 3 * integ.period)
        np.testing.assert_allclose(f0, f1, rtol=1e-12)
        np.testing.assert_allclose(f0, f2, rtol=1e-12)

    @pytest.mark.parametrize("x", [1.0, 4.0, -3.0, np.float64(-7.5), np.array(2.25)])
    def test_f_eval_scalar(self, x):
        integ = PeriodicIntegrand(3, 0.5, -3.0, 3.0, np.cos)
        got = integ.f_eval(x)
        assert type(got) is float
        assert got == integ.f_eval(np.array([x]))[0]


class TestNodeSums:
    def test_plain_odd_kernel_vanishes(self):
        integ = supersingular_one()
        for n in (4, 8, 12):
            assert plain_trap_sum(integ, n) == pytest.approx(0.0, abs=1e-11)

    def test_plain_cot_vanishes(self):
        assert plain_trap_sum(cot_integrand(), 8) == pytest.approx(0.0, abs=1e-12)

    def test_plain_cosec2_hand_value(self):
        # n=4: (pi/2)(1/sin^2(pi/4) + 1/sin^2(pi/2) + 1/sin^2(3pi/4)) = 5 pi/2
        val = plain_trap_sum(cosec2_integrand(), 4)
        assert val == pytest.approx(5 * math.pi / 2, rel=1e-14)

    def test_midpoint_hand_values(self):
        integ = cosec2_integrand()
        # n=2, level=1: pi*(1/sin^2(pi/4) + 1/sin^2(3pi/4)) = 4 pi
        assert midpoint_sum(integ, 2, level=1) == pytest.approx(4 * math.pi, rel=1e-14)
        # n=1, level=2: (h/2)*(same two nodes) with h = 2 pi, also 4 pi
        assert midpoint_sum(integ, 1, level=2) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_level2_equals_level1_at_doubled_n(self):
        # the h/4-offset sum on 2n nodes is the h/2-offset sum of the 2n grid
        integ = cosec2_integrand()
        for n in (1, 3, 6):
            assert midpoint_sum(integ, n, level=2) == pytest.approx(
                midpoint_sum(integ, 2 * n, level=1), rel=1e-14
            )

    def test_deeper_levels_equal_level1(self):
        # level l at n is level 1 at 2^(l-1) n; the rules with m >= 5 use
        # levels up to m//2 + 1
        integ = cosec2_integrand()
        for level in (3, 4):
            for n in (1, 3, 6):
                assert midpoint_sum(integ, n, level=level) == pytest.approx(
                    midpoint_sum(integ, 2 ** (level - 1) * n, level=1), rel=1e-14
                )

    def test_midpoint_odd_kernel_vanishes(self):
        integ = supersingular_one()
        assert midpoint_sum(integ, 6, level=1) == pytest.approx(0.0, abs=1e-11)

    def test_preconditions(self):
        integ = cosec2_integrand()
        with pytest.raises(ValueError):
            plain_trap_sum(integ, 1)
        with pytest.raises(ValueError):
            midpoint_sum(integ, 0)
        with pytest.raises(ValueError):
            midpoint_sum(integ, 4, level=0)

    @staticmethod
    def mixed_sign_terms(size):
        # g values and rule-like offsets: k/100 for k = 1..size/2 and their negatives
        g = np.random.default_rng(5).standard_normal(size)
        half = size // 2
        y = np.concatenate([np.arange(1, half + 1), -np.arange(1, size - half + 1)]) * 1e-2
        return g, y

    @pytest.mark.parametrize("size", [7, 4001, 2**18])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_singular_sum_against_fsum(self, m, size):
        # math.fsum is exactly rounded; numpy's pairwise sum (8-way blocks of
        # up to 128 terms, then halving) is within (19 + log2 n) u sum|x_j|
        g, y = self.mixed_sign_terms(size)
        terms = g / y**m
        bound = (19 + math.ceil(math.log2(size))) * 2**-53 * math.fsum(np.abs(terms))
        assert abs(_kernels.singular_sum(g, y, m) - math.fsum(terms)) <= bound

    @pytest.mark.parametrize("size", [7, 4001, 2**18])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_singular_sum_sign_symmetry(self, m, size):
        # every rule pairs offsets y and -y; y^m must round alike on both
        # (numpy's y**m does not: its negative bases take another pow path)
        g, y = self.mixed_sign_terms(size)
        assert _kernels.singular_sum(g, -y, m) == (-1) ** m * _kernels.singular_sum(g, y, m)

    def test_evaluator_failure_carries_node_index(self):
        def bad_g(x):
            x = np.asarray(x, float)
            return np.where(np.abs(x - 2.0) < 0.3, np.nan, 1.0)

        integ = PeriodicIntegrand(2, 1.0, 1.0 - math.pi, 1.0 + math.pi, bad_g)
        with pytest.raises(EvaluationError) as info:
            plain_trap_sum(integ, 16)
        assert info.value.node_index is not None

    def test_raising_evaluator_is_chained(self):
        def raising_g(x):
            if np.any(np.abs(np.asarray(x) - 2.0) < 0.3):
                raise RuntimeError("no data here")
            return np.ones_like(x)

        integ = PeriodicIntegrand(2, 1.0, 1.0 - math.pi, 1.0 + math.pi, raising_g)
        with pytest.raises(EvaluationError, match="no data here") as info:
            plain_trap_sum(integ, 16)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_scalar_only_evaluator_raises(self):
        # no silent node-by-node fallback: g must take the node array
        integ = PeriodicIntegrand(2, 1.0, 1.0 - math.pi, 1.0 + math.pi, lambda x: math.cos(x))
        with pytest.raises(EvaluationError):
            plain_trap_sum(integ, 16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_derivative_rejected(self, bad):
        integ = GeometricKernelCase(eta=0.5, t=1.0).integrand()
        derivs = list(integ.g_derivs_at_t)
        derivs[1] = bad
        with pytest.raises(EvaluationError, match="order 1"):
            PeriodicIntegrand(3, integ.t, integ.a, integ.b, integ.g_eval, tuple(derivs))

    # g is finite, but 1e300/y^3 overflows where |y| < 1.8e-3: from n = 3,600
    # on, the nodes next to t (the first node of each rule's first family)
    @pytest.mark.parametrize(
        "spec, level",
        [(RuleSpec(3, 0, 2**12), 0), (RuleSpec(3, 2, 2**12, path="compact"), 1)],
        ids=["generic", "compact"],
    )
    def test_overflowing_quotient_is_named(self, spec, level):
        integ = PeriodicIntegrand(
            3, 0.0, -math.pi, math.pi, lambda x: np.full_like(x, 1e300), (1e300, 0.0, 0.0, 0.0)
        )
        # the error is the report, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="overflowed .* where g is finite") as info:
                t_hat(spec, integ)
        x = quadrature._family_nodes(integ, spec.n, level)[1]
        assert (info.value.node_index, info.value.node_x) == (0, x[0])

    def test_overflowing_sum_of_finite_terms_raises(self):
        # m = 2: every term 1e307/y^2 is positive and finite, their sum is not
        integ = PeriodicIntegrand(2, 0.0, -math.pi, math.pi, lambda x: np.full_like(x, 1e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="sum of g/.* over 15 nodes overflowed"):
                plain_trap_sum(integ, 16)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_g_is_not_an_overflow(self, bad):
        integ = supersingular_one()
        x = float(quadrature._family_nodes(integ, 16, 0)[1][3])
        broken = dataclasses.replace(integ, g_eval=lambda xs: np.where(xs == x, bad, integ.g_eval(xs)))
        with pytest.raises(EvaluationError, match="evaluator returned a non-finite value") as info:
            plain_trap_sum(broken, 16)
        assert (info.value.node_index, info.value.node_x) == (3, x)


class TestCorrectionSum:
    def test_m1(self):
        g = TrigPolynomial((0.5, 0.3), (0.2,))
        integ = singular_periodic_integrand(g, m=1, t=0.9, n_derivs=1)
        n = 10
        h = TWO_PI / n
        expected = -integ.g_derivs_at_t[1] * h
        assert correction_sum(integ, n) == pytest.approx(expected, rel=1e-14)

    def test_m3(self):
        g = TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4))
        integ = singular_periodic_integrand(g, m=3, t=0.9, n_derivs=3)
        n = 8
        h = TWO_PI / n
        gp, gppp = integ.g_derivs_at_t[1], integ.g_derivs_at_t[3]
        expected = math.pi**2 / 3 * gp / h - gppp * h / 6
        assert correction_sum(integ, n) == pytest.approx(expected, rel=1e-13)

    def test_m2_with_special_numerator(self):
        # pick u with u''(t) chosen so that g''(t) = 0, then only the
        # h^{-1} term survives
        t = 1.3
        integ = cosec2_integrand(t)
        # g = psi_2 * 1: g(t) = 4, g''(t) = psi_2''(0)
        n = 6
        h = TWO_PI / n
        g0, g2 = integ.g_derivs_at_t[0], integ.g_derivs_at_t[2]
        expected = math.pi**2 / 3 * g0 / h - 0.5 * g2 * h
        assert correction_sum(integ, n) == pytest.approx(expected, rel=1e-14)

    def test_missing_derivatives(self):
        integ = PeriodicIntegrand(3, 1.0, 0.0, TWO_PI, lambda x: np.ones_like(x))
        with pytest.raises(DerivativesRequiredError):
            correction_sum(integ, 8)


class TestExtrapolationWeights:
    def test_displayed_values(self):
        assert extrapolation_weights(1).alpha == (Fraction(-1), Fraction(2))
        assert extrapolation_weights(2).alpha == (
            Fraction(-2),
            Fraction(5),
            Fraction(-2),
        )
        assert extrapolation_weights(3).alpha == (
            Fraction(-16, 7),
            Fraction(6),
            Fraction(-3),
            Fraction(2, 7),
        )

    @pytest.mark.parametrize("s", range(0, 9))
    def test_weights_sum_to_one_exactly(self, s):
        assert sum(extrapolation_weights(s).alpha) == Fraction(1)


# The paper's closed forms, written out by hand: the oracle for the rules
# that compact_rule derives from the extrapolation weights.  Families are
# (level, weight in units of h): level 0 is t + jh, j = 1..n-1, level l the
# odd multiples of h/2^l.  Corrections are (order, coef) for the term
# coef pi^(m-order) g^(order)(t) h^(1-m+order).
_PLAIN = ((0, Fraction(1)),)  # h * sum f(t + jh), j = 1..n-1
_MID1 = ((1, Fraction(1)),)  # h * sum f(t + jh - h/2)
_MID2 = ((1, Fraction(2)), (2, Fraction(-1, 2)))  # 2h sum f(t+jh-h/2) - (h/2) sum f(t+jh/2-h/4)

CLOSED_FORMS = {
    (1, 0): CompactRule(1, 0, _PLAIN, ((1, Fraction(1)),)),
    (1, 1): CompactRule(1, 1, _MID1, ()),
    (2, 0): CompactRule(2, 0, _PLAIN, ((0, Fraction(-1, 3)), (2, Fraction(1, 2)))),
    (2, 1): CompactRule(2, 1, _MID1, ((0, Fraction(-1)),)),
    (2, 2): CompactRule(2, 2, _MID2, ()),
    (3, 0): CompactRule(3, 0, _PLAIN, ((1, Fraction(-1, 3)), (3, Fraction(1, 6)))),
    (3, 1): CompactRule(3, 1, _MID1, ((1, Fraction(-1)),)),
    (3, 2): CompactRule(3, 2, _MID2, ()),
    (4, 0): CompactRule(
        4, 0, _PLAIN, ((0, Fraction(-1, 45)), (2, Fraction(-1, 6)), (4, Fraction(1, 24)))
    ),
    (4, 1): CompactRule(4, 1, _MID1, ((0, Fraction(-1, 3)), (2, Fraction(-1, 2)))),
    (4, 2): CompactRule(4, 2, _MID2, ((0, Fraction(2)),)),
    (4, 3): CompactRule(
        4, 3, ((1, Fraction(16, 7)), (2, Fraction(-5, 7)), (3, Fraction(1, 28))), ()
    ),
}


class TestCompactRules:
    @pytest.mark.parametrize("pair", sorted(CLOSED_FORMS))
    def test_derived_rule_is_closed_form(self, pair):
        rule = compact_rule(*pair)
        assert rule == CLOSED_FORMS[pair]
        assert all(type(w) is Fraction for _, w in rule.families)
        assert all(type(c) is Fraction for _, c in rule.deriv_corrections)

    def test_pairs(self):
        assert COMPACT_PAIRS == {
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 1),
            (2, 2),
            (3, 0),
            (3, 1),
            (3, 2),
            (4, 0),
            (4, 1),
            (4, 2),
            (4, 3),
        }
        # every m >= 1 has rules s = 0..m//2 + 1; the set is the m <= 4 ones
        assert max_compact_level(1) == 1
        assert max_compact_level(4) == 3
        assert max_compact_level(6) == 4
        assert compact_rule(6, 4).deriv_corrections == ()
        with pytest.raises(ValueError):
            compact_rule(0, 0)
        with pytest.raises(ValueError):
            compact_rule(2, 3)
        with pytest.raises(ValueError):
            max_compact_level(0)

    def test_m2_s1_descriptor(self):
        rule = compact_rule(2, 1)
        # -pi^2 g(t) h^-1: pi^(m - order), h^(1 - m + order)
        assert rule.deriv_corrections == ((0, Fraction(-1)),)
        n = 5
        ((level, _),) = rule.families
        integ = singular_periodic_integrand(TrigPolynomial((1.0,)), m=2, t=0.3)
        y, _ = quadrature._family_nodes(integ, n, level)
        half = (TWO_PI / n) / 2
        # in units of h/2: the odd multiples 1, 3, ..., 2n - 1, each wrapped
        # by one period (2n) into the period centered at t
        unwrapped = np.where(y < 0, y / half + 2 * n, y / half)
        np.testing.assert_array_equal(unwrapped, np.arange(1, 2 * n, 2))

    def test_m4_s2_correction(self):
        rule = compact_rule(4, 2)
        # 2 pi^4 g(t) h^-3: pi^(m - order), h^(1 - m + order)
        assert rule.deriv_corrections == ((0, Fraction(2)),)

    def test_m1_s1_no_corrections(self):
        assert compact_rule(1, 1).deriv_corrections == ()

    def test_m3_s2_node_layout(self):
        rule = compact_rule(3, 2)
        assert rule.families == ((1, Fraction(2)), (2, Fraction(-1, 2)))
        n = 3
        integ = singular_periodic_integrand(TrigPolynomial((1.0,)), m=3, t=0.3)
        quarter = (TWO_PI / n) / 4
        # in units of h/4: level 1 is 2, 6, 10 and level 2 is 1, 3, ..., 11,
        # each wrapped by one period (4n) into the period centered at t
        for level, expected in ((1, [2, 6, 10]), (2, np.arange(1, 4 * n, 2))):
            y, _ = quadrature._family_nodes(integ, n, level)
            unwrapped = np.where(y < 0, y / quarter + 4 * n, y / quarter)
            np.testing.assert_array_equal(unwrapped, expected)


class TestTHat:
    def test_eta_zero_gives_zero(self):
        case = GeometricKernelCase(eta=0.0, t=1.0)
        integ = case.integrand()
        for s in (0, 1, 2):
            val = t_hat(RuleSpec(3, s, 8, path="compact"), integ)
            assert val == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize(
        "s,n,eta,expected",
        [
            (0, 10, 0.1, 2.91e-10),
            (0, 10, 0.5, 8.68e-3),
            (1, 10, 0.5, 8.72e-3),
            (2, 10, 0.5, 1.75e-2),
            (2, 20, 0.5, 4.19e-5),
        ],
    )
    def test_paper_table_errors(self, s, n, eta, expected):
        case = GeometricKernelCase(eta=eta, t=1.0)
        integ = case.integrand()
        err = abs(t_hat(RuleSpec(3, s, n, path="compact"), integ) - case.exact())
        assert err == pytest.approx(expected, rel=0.02)

    def test_m_mismatch(self):
        integ = supersingular_one()
        with pytest.raises(ValueError):
            t_hat(RuleSpec(2, 0, 8), integ)

    @pytest.mark.parametrize("m, s", [p for p in COMPACT_PAIRS if compact_rule(*p).deriv_corrections])
    def test_compact_path_raises_before_g(self, m, s):
        calls = []
        integ = PeriodicIntegrand(m, 0.7, 0.7 - math.pi, 0.7 + math.pi, lambda x: calls.append(x) or np.cos(x))
        with pytest.raises(DerivativesRequiredError):
            t_hat(RuleSpec(m, s, 40, path="compact"), integ)
        assert calls == []  # the derivative check comes before any g evaluation

    def test_rule_spec_validation(self):
        with pytest.raises(ValueError):
            RuleSpec(3, 0, 1)
        with pytest.raises(ValueError):
            RuleSpec(3, 3, 8, path="compact")
        with pytest.raises(ValueError):
            RuleSpec(3, 0, 8, path="nope")
        for name, args in [("n", (3, 2, 10.0)), ("n", (3, 1, 10.5)), ("m", (3.0, 2, 10)), ("s", (3, 2.0, 10))]:
            for path in ("compact", "generic"):
                with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                    RuleSpec(*args, path=path)
        # numpy integers are integers
        integ = supersingular_one()
        spec = RuleSpec(np.int64(3), np.int32(2), np.int64(10), path="compact")
        assert t_hat(spec, integ) == t_hat(RuleSpec(3, 2, 10, path="compact"), integ)

    def test_compact_equals_generic_combination(self):
        # algebraic identity: the closed forms are the weighted combinations
        # of the base rule at n, 2n, 4n, ...
        rng = np.random.default_rng(42)
        for m, s in sorted(COMPACT_PAIRS):
            if s == 0:
                continue
            u = random_trig_polynomial(rng, degree=5)
            t = rng.uniform(0.2, 1.8)
            integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
            n = 8
            compact_val = t_hat(RuleSpec(m, s, n, path="compact"), integ)
            weights = extrapolation_weights(s).alpha
            parts = [
                float(w) * t_hat(RuleSpec(m, 0, (2**k) * n), integ)
                for k, w in enumerate(weights)
            ]
            scale = max(max(abs(p) for p in parts), 1e-30)
            assert abs(compact_val - math.fsum(parts)) <= 50 * 2**-53 * scale * 10

    @pytest.mark.parametrize("m", [5, 6])
    def test_compact_equals_generic_above_m4(self, m):
        # criterion 06's draws for the orders above the paper's.  Its
        # tolerance relative to the values alone does not cover the rounding
        # here, which grows like (N/T)^(m-1) on the finest grid N = 2^s n:
        # the absolute part is 100 x the roundoff floor, a model of m = 3,
        # scaled by (N/T)^(m-3), as in the property tests
        rng = np.random.default_rng(7)
        for s in range(1, max_compact_level(m) + 1):
            for _ in range(10):
                u = random_trig_polynomial(rng, degree=6)
                t = float(rng.uniform(-1.5, 1.5))
                n = int(rng.choice([6, 8, 10, 12]))
                integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
                compact_val = t_hat(RuleSpec(m, s, n, path="compact"), integ)
                parts = [
                    float(w) * t_hat(RuleSpec(m, 0, (2**k) * n), integ)
                    for k, w in enumerate(extrapolation_weights(s).alpha)
                ]
                combo = math.fsum(parts)
                scale = max(abs(compact_val), abs(combo), max(abs(p) for p in parts))
                N = 2**s * n
                floor = roundoff_floor(*integrand_norms(integ), TWO_PI, N) * (N / TWO_PI) ** (m - 3)
                assert abs(compact_val - combo) <= 100 * floor + 1e-12 * scale

    def test_m5_matches_reference(self):
        # criterion 05's tolerance at n <= 10: the rule's rounding grows like
        # (2^s n)^(m-1), and at m = 6 hfp_reference does not always reach
        # its 1e-10 tolerance
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_trig_polynomial(rng, degree=6)
            t = float(rng.uniform(-2.0, 2.0))
            integ = singular_periodic_integrand(u, m=5, t=t, n_derivs=12)
            ref = hfp_reference(
                integ.g_eval, integ.g_derivs_at_t, 5, integ.a, integ.b, t, smoothing=6
            )
            for s in range(max_compact_level(5) + 1):
                for n in (8, 10):
                    val = t_hat(RuleSpec(5, s, n, path="compact"), integ)
                    assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_base_rule_decay_beats_n8(self):
        # corrected plain sum converges faster than n^-8 before the floor
        case = GeometricKernelCase(eta=0.3, t=1.0)
        integ = case.integrand()
        exact = case.exact()
        errs = {
            n: abs(t_hat(RuleSpec(3, 0, n), integ) - exact) for n in (8, 16, 32, 64)
        }
        assert errs[64] / errs[8] < (64 / 8) ** -8

    def test_monotonic_decrease_eta_half(self):
        case = GeometricKernelCase(eta=0.5, t=1.0)
        integ = case.integrand()
        exact = case.exact()
        errs = [abs(t_hat(RuleSpec(3, 0, n), integ) - exact) for n in (10, 20, 30, 40)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("m", [1, 3])
    def test_even_u_odd_m_gives_zero(self, m):
        # u even about t makes the integrand odd about t
        t = 0.8

        class EvenAboutT:
            def __call__(self, x):
                return self.deriv(0, x)

            def deriv(self, order, x):
                x = np.asarray(x, float)
                base = TrigPolynomial((0.0, 1.0, 0.3))
                return base.deriv(order, x - t)

        u = EvenAboutT()
        integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
        for s in range(max_compact_level(m) + 1):
            val = t_hat(RuleSpec(m, s, 12, path="compact"), integ)
            assert val == pytest.approx(0.0, abs=1e-10)


class TestVectorG:
    """A vector-valued g of P rows: one rule value per row."""

    T0 = 0.7
    SHIFTS = np.array([-2.9, -0.4, 0.0, 1.3, 3.1])

    def vector(self, g_derivs=None):
        def g(x):
            return np.cos(np.add.outer(self.SHIFTS, x))

        return PeriodicIntegrand(
            m=3, t=self.T0, a=self.T0 - math.pi, b=self.T0 + math.pi, g_eval=g,
            g_derivs_at_t=g_derivs,
        )

    def row(self, i):
        c = float(self.SHIFTS[i])
        return dataclasses.replace(self.vector(), g_eval=lambda x: np.cos(c + x))

    @pytest.mark.parametrize("s", [s for m, s in COMPACT_PAIRS if m == 3])
    def test_compact_rule_per_row(self, s):
        rule = compact_rule(3, s)
        spec = RuleSpec(3, s, 40, path="compact")
        if rule.deriv_corrections:
            with pytest.raises(DerivativesRequiredError):
                t_hat(spec, self.vector())
            return
        got = t_hat(spec, self.vector())
        assert got.shape == self.SHIFTS.shape
        for i, v in enumerate(got):
            assert v == t_hat(spec, self.row(i))

    def test_generic_path_raises_before_g(self):
        calls = []
        g = self.vector().g_eval
        vector = dataclasses.replace(self.vector(), g_eval=lambda x: calls.append(x) or g(x))
        for s in (0, 1, 2):
            with pytest.raises(DerivativesRequiredError):
                t_hat(RuleSpec(3, s, 40), vector)
        assert calls == []  # the derivative check comes before any g evaluation

    def test_f_eval_per_row(self):
        xs = np.linspace(-7.0, 7.0, 8)
        rows = self.vector().f_eval(xs)
        assert rows.shape == (self.SHIFTS.size, xs.size)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row, self.row(i).f_eval(xs))

    @pytest.mark.parametrize(
        "spec", [RuleSpec(3, 2, 40, path="compact"), RuleSpec(3, 0, 40)], ids=["compact", "generic"]
    )
    def test_rejects_derivatives(self, spec):
        with pytest.raises(ValueError, match="vector-valued g"):
            t_hat(spec, self.vector(g_derivs=(1.0, 0.0, -1.0, 0.0)))

    @pytest.mark.parametrize(
        "g",
        [lambda x: np.ones(x.size + 1), lambda x: np.ones((2, 2, x.size)), lambda x: 1.0],
        ids=["other-nodes", "two-leading-axes", "scalar"],
    )
    def test_wrong_shape_raises(self, g):
        integ = dataclasses.replace(self.vector(), g_eval=g)
        # the rule's one g call covers its lattices P(80) and P(160): 40 + 80 nodes
        with pytest.raises(EvaluationError, match=r"shape .* for nodes of shape \(120,\)"):
            t_hat(RuleSpec(3, 2, 40, path="compact"), integ)

    def test_non_finite_row_names_node(self):
        bad = float(quadrature._family_nodes(self.vector(), 16, 0)[1][7])

        def g(x):
            vals = np.cos(np.add.outer(self.SHIFTS, x))
            vals[3, x == bad] = np.nan
            return vals

        integ = dataclasses.replace(self.vector(), g_eval=g)
        with pytest.raises(EvaluationError, match="non-finite") as info:
            plain_trap_sum(integ, 16)
        assert info.value.node_index == 7
        assert info.value.node_x == bad


class TestNestedGrids:
    """The generic path evaluates g once, on the finest grid 2^s n."""

    @staticmethod
    def per_grid(integ, s, n):
        # the rule as its definition reads: one plain sum per grid
        alpha = extrapolation_weights(s).alpha
        return math.fsum(
            float(w) * (plain_trap_sum(integ, 2**k * n) - correction_sum(integ, 2**k * n))
            for k, w in enumerate(alpha)
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 1000, 4096])
    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_per_grid_sums(self, m, s, n):
        integ = singular_periodic_integrand(PoissonKernelU(0.6), m=m, t=0.7, n_derivs=m)
        assert t_hat(RuleSpec(m, s, n), integ) == self.per_grid(integ, s, n)

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_one_g_call_on_finest_grid(self, s):
        integ = GeometricKernelCase(eta=0.5, t=1.0).integrand()
        sizes = []
        g = integ.g_eval
        counted = dataclasses.replace(integ, g_eval=lambda x: sizes.append(np.size(x)) or g(x))
        t_hat(RuleSpec(3, s, 1024), counted)
        assert sizes == [2**s * 1024 - 1]


class TestGMemo:
    """An integrand evaluates g at most once per node across t_hat calls."""

    SWEEP = [2**k for k in range(6, 17)]

    @staticmethod
    def counted(integ):
        sizes = []
        g = integ.g_eval
        return dataclasses.replace(integ, g_eval=lambda x: sizes.append(np.size(x)) or g(x)), sizes

    # g points of one doubling sweep n = 2^6..2^16: every node of the finest
    # rule once
    @pytest.mark.parametrize(
        "s, path, points",
        [(0, "compact", 65_535), (0, "generic", 65_535), (2, "compact", 262_080), (2, "generic", 262_143)],
    )
    def test_doubling_sweep_points(self, s, path, points):
        integ, sizes = self.counted(GeometricKernelCase(eta=0.7, t=1.0).integrand())
        for n in self.SWEEP:
            t_hat(RuleSpec(3, s, n, path=path), integ)
        assert sum(sizes) == points
        assert len(sizes) == len(self.SWEEP)  # one g call per rule

    def test_repeated_rule_calls_no_g(self):
        integ, sizes = self.counted(GeometricKernelCase(eta=0.7, t=1.0).integrand())
        spec = RuleSpec(3, 1, 40)
        first = t_hat(spec, integ)
        assert t_hat(spec, integ) == first and len(sizes) == 1
        # the level-0 family at 40 holds every lattice of the one at 20
        t_hat(RuleSpec(3, 0, 20), integ)
        assert len(sizes) == 1

    def test_replace_starts_an_empty_memo(self):
        integ = GeometricKernelCase(eta=0.7, t=1.0).integrand()
        other = singular_periodic_integrand(PoissonKernelU(0.3), m=3, t=1.0)
        specs = [RuleSpec(3, s, n, path=path) for s in (0, 2) for n in (8, 16) for path in ("compact", "generic")]
        for spec in specs:
            t_hat(spec, integ)
        swapped = dataclasses.replace(integ, g_eval=other.g_eval, g_derivs_at_t=other.g_derivs_at_t)
        for spec in specs:
            assert t_hat(spec, swapped) == t_hat(spec, other) != t_hat(spec, integ)

    def test_non_finite_memo_value_named_in_the_later_family(self):
        integ = GeometricKernelCase(eta=0.7, t=1.0).integrand()
        # node 5 of the grid at 16 is node 11 of the grid at 32
        bad = float(quadrature._family_nodes(integ, 16, 0)[1][5])
        g = integ.g_eval
        broken = dataclasses.replace(integ, g_eval=lambda x: np.where(x == bad, np.nan, g(x)))
        with pytest.raises(EvaluationError) as coarse:
            plain_trap_sum(broken, 16)
        with pytest.raises(EvaluationError) as fine:
            plain_trap_sum(broken, 32)
        with pytest.raises(EvaluationError) as fresh:
            plain_trap_sum(dataclasses.replace(broken), 32)
        assert (coarse.value.node_index, coarse.value.node_x) == (5, bad)
        assert (fine.value.node_index, fine.value.node_x) == (fresh.value.node_index, bad) == (11, bad)


class TestLargeNFloor:
    # criterion 09 stops at n = 100; the node sum's summation order only
    # shows at the sizes here, up to 2^18 nodes in one sum
    NS = [2**k for k in range(10, 17)]

    @pytest.mark.parametrize("path", ["compact", "generic"])
    @pytest.mark.parametrize("s", [0, 1, 2])
    @pytest.mark.parametrize("eta", [0.5, 0.9])
    def test_error_within_100x_floor(self, eta, s, path):
        case = GeometricKernelCase(eta=eta, t=1.0)
        integ = case.integrand()
        exact = case.exact()
        norms = integrand_norms(integ)
        for n in self.NS:
            assert eta**n < 1e-18  # truncation negligible: the error is roundoff
            err = abs(t_hat(RuleSpec(3, s, n, path=path), integ) - exact)
            floor = roundoff_floor(*norms, TWO_PI, 2**s * n)
            assert err <= 100.0 * floor, f"n={n}: error {err:.3e} > 100 x floor {floor:.3e}"

    def test_envelope_near_poisson_peak(self):
        # near the peak of the Poisson numerator (x = 0) g must not cancel:
        # with 1 - 2 eta cos x + eta^2 as written this case erred by
        # 130 x roundoff_floor
        case = GeometricKernelCase(eta=0.9, t=0.05)
        integ = case.integrand()
        err = abs(t_hat(RuleSpec(3, 2, 4096, path="compact"), integ) - case.exact())
        floor = roundoff_floor(*integrand_norms(integ), TWO_PI, 4 * 4096)
        assert err <= 100.0 * floor


class TestRoundoffFloor:
    def test_zero_norms(self):
        assert roundoff_floor(0.0, 0.0, 0.0, TWO_PI, 50) == 0.0

    def test_double_precision_value(self):
        # 2 zeta(3)/T^2 * u * n^2 with T = 2 pi, n = 100, u = 2^-53
        val = roundoff_floor(1.0, 0.0, 0.0, TWO_PI, 100, 2.0**-53)
        assert val == pytest.approx(6.760915618107715e-14, rel=1e-12)

    def test_quad_precision_value(self):
        val = roundoff_floor(1.0, 0.0, 0.0, TWO_PI, 100, 1.93e-34)
        assert val == pytest.approx(1.1753104424539802e-31, rel=1e-12)

    def test_all_terms(self):
        n, T = 40, TWO_PI
        val = roundoff_floor(2.0, 3.0, 4.0, T, n, 1e-16)
        K = (
            2 * 1.2020569031595943 / T**2 * 2.0
            + math.pi**2 / (3 * T * n) * 3.0
            + T / (6 * n**3) * 4.0
        )
        assert val == pytest.approx(K * 1e-16 * n**2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            roundoff_floor(-1.0, 0.0, 0.0, TWO_PI, 10)
        with pytest.raises(ValueError):
            roundoff_floor(1.0, 0.0, 0.0, TWO_PI, 10, unit=0.0)

    @pytest.mark.parametrize(
        "norms, period, n, unit",
        [
            ((1.0, 0.0, 0.0), TWO_PI, 0, 2.0**-53),
            ((1.0, 0.0, 0.0), TWO_PI, -5, 2.0**-53),
            ((1.0, 0.0, 0.0), 0.0, 10, 2.0**-53),
            ((1.0, 0.0, 0.0), -1.0, 10, 2.0**-53),
            ((1.0, 0.0, 0.0), math.nan, 10, 2.0**-53),
            ((math.nan, 0.0, 0.0), TWO_PI, 10, 2.0**-53),
            ((1.0, math.inf, 0.0), TWO_PI, 10, 2.0**-53),
            ((1.0, 0.0, -1e-300), TWO_PI, 10, 2.0**-53),
            ((1.0, 0.0, 0.0), TWO_PI, 10, math.inf),
            ((1.0, 0.0, 0.0), TWO_PI, 10, math.nan),
        ],
    )
    def test_rejects_what_has_no_floor(self, norms, period, n, unit):
        # n = 0 and T = 0 once divided by zero; n < 0, T < 0 and a NaN
        # norm once returned a number
        with pytest.raises(ValueError):
            roundoff_floor(*norms, period, n, unit)
