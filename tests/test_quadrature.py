"""Rule evaluation: hand-checked node sums, correction terms, extrapolation
weights, the compact/generic identity, and the floor model."""

import dataclasses
import math
import re
import sys
import threading
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
    numerator_factor,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from hfpquad.oracles import GeometricKernelCase, hfp_reference
from hfpquad.quadrature import (
    COMPACT_PAIRS,
    CompactRule,
    PeriodicIntegrand,
    RuleSpec,
    SplitNumerator,
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


def held_bytes():
    """The bytes the store of shared tables holds; each entry's count is
    checked against its value's arrays and its key's bytes."""
    held = 0
    for key, (value, nbytes) in quadrature._TABLES.items():
        arrays = [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        assert nbytes == sum(a.nbytes for a in arrays) + sum(len(k) for k in key if isinstance(k, bytes))
        held += nbytes
    return held


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

    @pytest.mark.parametrize("x", [0.5, 0.5 + 6.0, np.array([1.0, -2.0, 0.5 - 12.0])])
    def test_f_eval_at_t_is_an_evaluation_error(self, x):
        # a point that wraps onto t names its index and x, before g runs
        calls = []
        integ = PeriodicIntegrand(3, 0.5, -3.0, 3.0, lambda x: calls.append(x) or np.cos(x))
        idx = 2 if np.ndim(x) else 0
        with pytest.raises(EvaluationError, match=r"f is singular at point \d+ .* wraps onto t=0\.5") as info:
            integ.f_eval(x)
        assert (info.value.node_index, info.value.node_x) == (idx, float(np.ravel(x)[idx]))
        assert calls == []

    @pytest.mark.parametrize(
        "a, b", [(-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308), (1.0, 1.0), (2.0, -2.0)]
    )
    def test_a_period_that_is_infinite_empty_or_reversed_is_rejected(self, a, b):
        # [-1, inf) was accepted, and t_hat then raised from _family
        # converting NaN to an integer
        with pytest.raises(ValueError, match=r"^the period \[a, b\) must be finite and non-empty \(got a="):
            PeriodicIntegrand(3, 0.0, a, b, np.cos)


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

    # a float n or level once reached _primitives' cache, whose entry then
    # served the equal integer and broke every rule on that family for the
    # rest of the process
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda integ: plain_trap_sum(integ, 16.0), "n"),
            (lambda integ: midpoint_sum(integ, 8.0), "n"),
            (lambda integ: midpoint_sum(integ, 8, 1.0), "level"),
            (lambda integ: correction_sum(integ, 16.0), "n"),
        ],
        ids=["plain_trap_sum", "midpoint_sum-n", "midpoint_sum-level", "correction_sum"],
    )
    def test_non_integer_is_refused(self, call, name):
        integ = singular_periodic_integrand(PoissonKernelU(0.6), m=3, t=0.7, n_derivs=3)
        quadrature._primitives.cache_clear()
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(integ)
        fresh = dataclasses.replace(integ)
        for spec in (RuleSpec(3, 0, 16), RuleSpec(3, 0, 16, path="compact"), RuleSpec(3, 2, 4)):
            assert math.isfinite(t_hat(spec, fresh))

    @pytest.mark.parametrize("n", [0, -3])
    def test_correction_sum_needs_positive_n(self, n):
        # n = 0 divided by zero and n = -3 gave a value
        integ = singular_periodic_integrand(PoissonKernelU(0.6), m=3, t=0.7, n_derivs=3)
        with pytest.raises(ValueError, match="^correction sum needs n >= 1$"):
            correction_sum(integ, n)

    def test_numpy_integers_accepted(self):
        integ = singular_periodic_integrand(PoissonKernelU(0.6), m=3, t=0.7, n_derivs=3)
        assert plain_trap_sum(integ, np.int64(16)) == plain_trap_sum(integ, 16)
        assert midpoint_sum(integ, np.int32(8), np.int64(2)) == midpoint_sum(integ, 8, 2)
        assert correction_sum(integ, np.int64(16)) == correction_sum(integ, 16)

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

    # finite derivatives whose correction terms overflow: the g'(t) term
    # of the rules at n = 4 is about -2.1e308 or more.  These rules once
    # returned -inf or inf, or raised ValueError from math.fsum
    @pytest.mark.parametrize(
        "derivs", [(0.0, 1e308, 0.0, -1e308), (0.0, 1e308, 0.0, 1e308), (1e308,) * 4], ids=["opposite", "same", "all"]
    )
    @pytest.mark.parametrize(
        "rule",
        [
            lambda integ: t_hat(RuleSpec(3, 0, 4), integ),
            lambda integ: t_hat(RuleSpec(3, 0, 4, path="compact"), integ),
            lambda integ: t_hat(RuleSpec(3, 1, 4, path="compact"), integ),
            lambda integ: correction_sum(integ, 4),
        ],
        ids=["generic", "compact-s0", "compact-s1", "correction_sum"],
    )
    def test_overflowing_correction_term_is_named(self, derivs, rule):
        integ = PeriodicIntegrand(3, 0.0, -math.pi, math.pi, lambda x: np.ones_like(x), derivs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=r"^the g\^\(1\)\(t\) correction term .*overflowed$"):
                rule(integ)

    def test_overflowing_rule_value_is_named(self):
        # m = 1, n = 2: the node sum term is -g = -1e308 and the correction
        # term g'(t) h = -1.005e308, both finite; each rule's value, their
        # sum, overflows
        integ = PeriodicIntegrand(1, 0.0, -math.pi, math.pi, lambda x: np.full_like(x, 1e308), (1e308, -3.2e307))
        assert plain_trap_sum(integ, 2) == -1e308 and math.isfinite(correction_sum(integ, 2))
        with pytest.raises(EvaluationError, match="^the rule value overflowed$"):
            t_hat(RuleSpec(1, 0, 2, path="compact"), integ)
        with pytest.raises(EvaluationError, match="^the rule value overflowed$"):
            t_hat(RuleSpec(1, 0, 2), integ)


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

    def test_float32_endpoints_sum_as_scalars(self):
        # float32 endpoints give a float32 period, so the compact rule's
        # family terms are numpy float32 scalars, not arrays
        derivs = (math.cos(1.0), -math.sin(1.0), -math.cos(1.0))
        wide = PeriodicIntegrand(m=2, t=1.0, a=0.0, b=2 * math.pi, g_eval=np.cos, g_derivs_at_t=derivs)
        narrow = PeriodicIntegrand(
            m=2, t=1.0, a=np.float32(0.0), b=np.float32(2 * math.pi), g_eval=np.cos, g_derivs_at_t=derivs
        )
        for path in ("compact", "generic"):
            spec = RuleSpec(2, 1, 16, path=path)
            val = t_hat(spec, narrow)
            assert np.ndim(val) == 0
            assert val == pytest.approx(t_hat(spec, wide), rel=1e-6)

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

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 1000, 4096])
    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_per_grid_sums(self, m, s, n):
        # the rule as its definition reads, one plain sum less its correction
        # per grid, up to rounding: both sides weigh the same memoized sums,
        # grouped otherwise, so they differ by a few u times the size of the
        # grids' terms (at most 1.2 u on these cases)
        integ = singular_periodic_integrand(PoissonKernelU(0.6), m=m, t=0.7, n_derivs=m)
        grids = [
            (float(w), plain_trap_sum(integ, 2**k * n), correction_sum(integ, 2**k * n))
            for k, w in enumerate(extrapolation_weights(s).alpha)
        ]
        per_grid = math.fsum(w * (plain - corr) for w, plain, corr in grids)
        size = sum(abs(w) * (abs(plain) + abs(corr)) for w, plain, corr in grids)
        assert abs(t_hat(RuleSpec(m, s, n), integ) - per_grid) <= 4 * 2.0**-53 * size

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
    # rule once, in one g call per block of at most _G_BLOCK new nodes.  At
    # s = 0 the rules up to n = 16384 add at most 8192 nodes each (one call)
    # and n = 32768 and 65536 add 16384 and 32768 (2 and 4 calls); at s = 2
    # the finest grid is 4n, and n = 8192 ... 65536 take 2, 4, 8 and 16 calls
    @pytest.mark.parametrize(
        "s, path, points, calls",
        [(0, "compact", 65_535, 15), (0, "generic", 65_535, 15), (2, "compact", 262_080, 37), (2, "generic", 262_143, 37)],
    )
    def test_doubling_sweep_points(self, s, path, points, calls):
        integ, sizes = self.counted(GeometricKernelCase(eta=0.7, t=1.0).integrand())
        for n in self.SWEEP:
            t_hat(RuleSpec(3, s, n, path=path), integ)
        assert sum(sizes) == points
        assert len(sizes) == calls and max(sizes) <= quadrature._G_BLOCK

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


def fsum_rows(sums):
    """math.fsum of the sums, per row for a vector g's arrays."""
    if np.ndim(sums[0]):
        return np.array([math.fsum(row) for row in zip(*sums)])
    return math.fsum(sums)


class TestSplitFill:
    """A split g = psi(x - t) u(x) fills the memo with S_N, the sum of
    f = psi(y) u/y^m on the exact offsets of each lattice P(N), psi(|y|) and
    |y|^m read from the shared lattice table; u is u(x_hat) at the wrapped
    nodes, or, for a u with ``from_half_sine``, u from the half-angle sum for
    sin((t + y)/2).  A plain g is the split psi = 1, u = g: its S_N sums
    g(x_hat)/y^m.  Up to ``_G_BLOCK`` nodes S_N is one pairwise sum of f, so
    it equals an independent f's ``.sum()`` bit for bit; a level-0 family's
    sum is the fsum of its lattices' S_N."""

    EPS = np.finfo(float).eps

    # plain gs, each called at x_hat: PoissonKernelU's from_half_sine is
    # for a split's u, not for a plain g
    PLAIN = {
        "plain-scalar": TrigPolynomial((0.5, 1.0, -0.3), (0.2, 0.7)),
        "plain-half-sine-attribute": PoissonKernelU(0.6),
        "plain-vector": lambda x: np.stack([PoissonKernelU(0.6)(x), -3.0 * np.cos(x)]),
    }

    @staticmethod
    def lattice_nodes(integ, N):
        # P(N) alone, as the rules build it
        return quadrature._family_nodes(integ, N // 2, 1) if N % 2 == 0 else quadrature._family_nodes(integ, N, 0)

    @staticmethod
    def half_sines(integ, N):
        # sin(x/2) at the nodes of P(N) by the half-angle sum: node k has
        # k = qB + r, phi = t/2 + qB theta, or t/2 + (qB - N) theta where it
        # wraps, theta = delta/2, and sin(x/2) = sin phi cos r theta + cos phi sin r theta
        family = quadrature._lattice(integ, N)
        ks, inside, delta = family
        B = quadrature._lattice_table(None, integ.m, N, delta, max(inside, len(ks) - inside))[2]
        k = np.arange(ks.start, ks.stop, ks.step)
        qB, theta = k - k % B, 0.5 * delta
        phi = 0.5 * integ.t + np.where(np.arange(k.size) < inside, qB, qB - N) * theta
        r_theta = (k % B) * theta
        return np.sin(phi) * np.cos(r_theta) + np.cos(phi) * np.sin(r_theta)

    @staticmethod
    def integrand(m, t, centered, u=PoissonKernelU(0.6)):
        integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
        # a period [-pi, pi) that puts t next to where the nodes wrap
        return integ if centered else dataclasses.replace(integ, a=-math.pi, b=math.pi)

    @classmethod
    def plain(cls, m, t, centered, g):
        return dataclasses.replace(cls.integrand(m, t, centered), g_eval=g, g_derivs_at_t=None)

    @staticmethod
    def fill(integ):
        # level-0 families first, then odd N and N = 2 mod 4 lattices, and
        # level-2 families
        for n in (64, 16, 2, 3, 6, 7, 10, 96):
            plain_trap_sum(integ, n)
        for n in (5, 9, 33):
            midpoint_sum(integ, n, 2)

    @pytest.mark.parametrize("t, centered", [(0.3, True), (-2.9, True), (3.1, False), (-3.1, False)])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_fill_is_the_split_bit_for_bit(self, m, t, centered):
        # a u without from_half_sine, a TrigPolynomial or a plain callable, is
        # called on the wrapped nodes x_hat, and so is a plain g
        poisson = PoissonKernelU(0.6)
        base = self.integrand(m, t, centered)
        integs = [
            dataclasses.replace(base, g_eval=SplitNumerator(base.g_eval.psi, u, t))
            for u in (TrigPolynomial((0.5, 1.0, -0.3), (0.2, 0.7)), lambda x: poisson(x))
        ]
        integs += [self.plain(m, t, centered, g) for g in self.PLAIN.values()]
        for integ in integs:
            self.fill(integ)
            g = integ.g_eval

            def expected(y, x_hat):
                numerator = g(x_hat) if quadrature._split(integ) is None else g.psi(y) * g.u(x_hat)
                return numerator / quadrature.int_power(y, m)

            for N, S in integ._f_memo.items():
                assert np.array_equal(S, expected(*self.lattice_nodes(integ, N)).sum(axis=-1)), N
            for n in (16, 64, 96):
                [total] = quadrature._family_sums(integ, [(n, 0)])
                sums = [expected(*self.lattice_nodes(integ, N)).sum(axis=-1) for N, _ in quadrature._primitives(n, 0)]
                assert np.array_equal(total, fsum_rows(sums)), n

    @pytest.mark.parametrize("t, centered", [(0.3, True), (-2.9, True), (3.1, False), (-3.1, False)])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_half_sine_fill_is_the_half_angle_sum_bit_for_bit(self, m, t, centered):
        integ = self.integrand(m, t, centered)
        self.fill(integ)
        g = integ.g_eval

        def expected(N):
            y = self.lattice_nodes(integ, N)[0]
            return g.psi(y) * g.u.from_half_sine(self.half_sines(integ, N)) / quadrature.int_power(y, m)

        for N, S in integ._f_memo.items():
            assert S == expected(N).sum(), N
        for n in (16, 64, 96):
            [total] = quadrature._family_sums(integ, [(n, 0)])
            assert total == math.fsum(expected(N).sum() for N, _ in quadrature._primitives(n, 0)), n

    @pytest.mark.parametrize("t, centered", [(0.3, True), (3.1, False), (-3.1, False)])
    def test_a_lattice_sum_depends_on_its_lattice_alone(self, monkeypatch, t, centered):
        # S_N of P(N) filled alone, inside the level-0 family at 1536 that
        # holds it, and in one fill of all of them, in blocks of the default
        # size or of 7, 64 or 1000 nodes, which cut lattices into pieces
        # within a row and across their wrap; a lattice of several pieces
        # sums within (log2 N) u sum |f| of its exact sum
        for block in (quadrature._G_BLOCK, 7, 64, 1000):
            monkeypatch.setattr(quadrature, "_G_BLOCK", block)
            alone = {}
            for N in (3, 96, 97, 192, 384, 1536):
                integ = self.integrand(3, t, centered)
                quadrature._memoize(integ, [N])
                alone[N] = integ._f_memo[N]
            family = self.integrand(3, t, centered)
            plain_trap_sum(family, 1536)
            for N in (3, 96, 192, 384, 1536):
                assert family._f_memo[N] == alone[N], (block, N)
            together = self.integrand(3, t, centered)
            quadrature._memoize(together, list(alone))
            for N, S in alone.items():
                assert together._f_memo[N] == S, (block, N)
                [(_, f)] = quadrature._fill(together, [N], arrays=True)
                assert abs(S - math.fsum(f)) <= math.log2(N) * self.EPS / 2 * np.abs(f).sum(), (block, N)

    @pytest.mark.parametrize("N", [2**15 + 1, 2**16, 3 * 2**14])
    def test_a_lattice_above_a_block_sums_its_pieces(self, N):
        # P(N) of more than _G_BLOCK nodes: the fsum of the pairwise sums of
        # its pieces cut at multiples of _G_BLOCK from its start, within
        # (log2 N) u sum |f| of its exact sum
        integ = self.integrand(3, 0.3, True)
        S = quadrature._family_sums(integ, [(N // 2, 1) if N % 2 == 0 else (N, 0)])[0]
        [(_, f)] = quadrature._fill(integ, [N], arrays=True)
        assert f.size > quadrature._G_BLOCK
        pieces = [f[lo : lo + quadrature._G_BLOCK].sum() for lo in range(0, f.size, quadrature._G_BLOCK)]
        assert S == integ._f_memo[N] == math.fsum(pieces)
        assert abs(S - math.fsum(f)) <= math.log2(N) * self.EPS / 2 * np.abs(f).sum()

    # lattices of both parities, N = 2 mod 4, and a level-0 family at 96
    # whose primitives are 96, 48, ..., 3
    PACKED = (2, 3, 6, 7, 10, 97, 192, 1536)

    @pytest.mark.parametrize("numerator", ["split-poisson", "split-trig", *PLAIN])
    @pytest.mark.parametrize("t, centered", [(0.3, True), (-2.9, True), (3.1, False), (-3.1, False)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_packed_blocks_give_each_lattice_its_lone_sum(self, monkeypatch, m, t, centered, numerator):
        # each lattice alone is one block of one piece (the view runs) at
        # the default block size; in blocks of 7, 64 or 1000 nodes most
        # blocks hold pieces of several lattices (the gathered pass), cut
        # within a row and across the wrap; each S_N, and a level-0
        # family's fsum of them, is what the lattices filled alone give
        if numerator in self.PLAIN:
            base = self.plain(m, t, centered, self.PLAIN[numerator])
        else:
            u = PoissonKernelU(0.6) if numerator == "split-poisson" else TrigPolynomial((0.5, 1.0, -0.3), (0.2, 0.7))
            base = self.integrand(m, t, centered, u)
        lattices = self.PACKED + tuple(N for N, _ in quadrature._primitives(96, 0))
        for block in (quadrature._G_BLOCK, 7, 64, 1000):
            monkeypatch.setattr(quadrature, "_G_BLOCK", block)
            alone = {}
            for N in lattices:
                integ = dataclasses.replace(base)
                quadrature._memoize(integ, [N])
                alone[N] = integ._f_memo[N]
                if numerator in self.PLAIN and block > 1000:
                    y, x_hat = self.lattice_nodes(integ, N)
                    assert np.array_equal(alone[N], (base.g_eval(x_hat) / quadrature.int_power(y, m)).sum(axis=-1)), N
            packed = dataclasses.replace(base)
            quadrature._memoize(packed, list(self.PACKED))
            for N in self.PACKED:
                assert np.array_equal(packed._f_memo[N], alone[N]), (block, N)
            family = dataclasses.replace(base)
            [total] = quadrature._family_sums(family, [(96, 0)])
            assert np.array_equal(total, fsum_rows([alone[N] for N, _ in quadrature._primitives(96, 0)])), block

    @pytest.mark.parametrize("half_sine", [True, False])
    def test_packed_block_names_a_non_finite_node_and_keeps_the_memo(self, monkeypatch, half_sine):
        integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.4)
        g = integ.g_eval
        # node 11 of the family at 32 is node 1 of P(8)
        bad = float(quadrature._family_nodes(integ, 32, 0)[1][11])
        S_bad = self.half_sines(integ, 8)[1]

        class Poles(PoissonKernelU):
            def from_half_sine(self, S):
                return np.where(S == S_bad, np.inf, super().from_half_sine(S))

        u = Poles(0.5) if half_sine else (lambda x: np.where(x == bad, np.inf, g.u(x)))
        split = dataclasses.replace(integ, g_eval=SplitNumerator(g.psi, u, integ.t))
        monkeypatch.setattr(quadrature, "_G_BLOCK", 7)
        with pytest.raises(EvaluationError) as info:
            plain_trap_sum(split, 32)
        assert (info.value.node_index, info.value.node_x) == (11, bad)
        # a u that raises on a packed block leaves the memo as it was
        held = dict(split._f_memo)
        calls = []

        def flaky(x):
            # the second block, P(7)'s six nodes, raises: P(3) and P(5) fill
            # the first block, and P(7) is not cut to fill its last node
            calls.append(x.size)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return x * 0.0 + 1.0

        broken = dataclasses.replace(split, g_eval=SplitNumerator(g.psi, flaky, integ.t))
        broken._f_memo.update(held)
        with pytest.raises(EvaluationError, match="^u failed on 6 nodes: boom"):
            quadrature._memoize(broken, [3, 5, 7, 64])
        assert calls == [6, 6]
        assert broken._f_memo.keys() == held.keys()
        assert all(broken._f_memo[N] is f for N, f in held.items())

    @pytest.mark.parametrize("vector", [False, True])
    def test_level0_ladder_sums_equal_a_fresh_fill(self, vector):
        # a doubling ladder of level-0 families after one fill of their
        # lattices packed with others: each rung's sum is bit for bit what a
        # fresh integrand gives, and the memo holds one value per lattice, a
        # float or one per row of a vector g
        integ = GeometricKernelCase(eta=0.6, t=1.0).integrand()
        if vector:
            g = integ.g_eval
            integ = dataclasses.replace(integ, g_eval=lambda x: np.stack([g(x), -2.0 * g(x)]), g_derivs_at_t=None)
        quadrature._memoize(integ, [5, 7, 64] + [N for N, _ in quadrature._primitives(24, 0)])
        for n in (24, 48, 96):
            [total] = quadrature._family_sums(integ, [(n, 0)])
            [fresh] = quadrature._family_sums(dataclasses.replace(integ), [(n, 0)])
            assert np.array_equal(total, fresh), n
        assert all(np.shape(S) == ((2,) if vector else ()) for S in integ._f_memo.values())

    @pytest.mark.parametrize("eta, ulps", [(0.5, 8), (0.9, 40)])
    def test_u_from_half_sines_is_close_to_u_at_t_plus_y(self, eta, ulps):
        # against u(t + j delta) in 40 digits at the doubles t and delta;
        # u at the wrapped nodes x_hat reads at most 4.6 and 26.5 ulp here
        mpmath = pytest.importorskip("mpmath")
        u = PoissonKernelU(eta)
        for t, centered in ((0.3, True), (-2.9, True), (3.1, False)):
            integ = self.integrand(3, t, centered, u)
            for N in (6, 7, 96, 97, 768):
                family = quadrature._lattice(integ, N)
                ks, inside, delta = family
                table = quadrature._lattice_table(None, 3, N, delta, max(inside, len(ks) - inside))
                rows = quadrature._half_angle_rows(integ, [table])
                values = u.from_half_sine(quadrature._half_sines(family, rows, 0, 0, len(ks)))
                with mpmath.workdps(40):
                    for i, (k, value) in enumerate(zip(ks, values)):
                        x = mpmath.mpf(t) + (k - (N if i >= inside else 0)) * mpmath.mpf(delta)
                        exact = (1 - eta * mpmath.cos(x)) / (1 - 2 * eta * mpmath.cos(x) + eta**2)
                        assert abs(value - exact) <= ulps * np.spacing(float(exact)), (t, N, k)

    @pytest.mark.parametrize("u", [PoissonKernelU(0.6), TrigPolynomial((0.5, 1.0, -0.3), (0.2, 0.7))])
    @pytest.mark.parametrize("t", [0.3, -2.9])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_fill_is_close_to_the_g_quotient(self, m, t, u):
        # psi at the exact offset y against g_eval's psi at fl(x_hat) - t
        integ = self.integrand(m, t, True, u)
        self.fill(integ)
        for N, S in integ._f_memo.items():
            y, x_hat = self.lattice_nodes(integ, N)
            quotient = integ.g_eval(x_hat) / quadrature.int_power(y, m)
            if N == 2 and m % 2:
                # the lone node at T/2 is psi's zero: both are roundoff of 0
                bound = 8 * self.EPS * np.abs(u(x_hat))
                assert np.all(np.abs(S) <= bound) and np.all(np.abs(quotient) <= bound)
            else:
                assert abs(S - quotient.sum()) <= 8 * self.EPS * np.abs(quotient).sum(), N

    def test_second_integrand_reads_the_table(self, monkeypatch):
        psi_calls, u_sizes = [], []
        u = PoissonKernelU(0.7)

        def psi(y):
            psi_calls.append(y.size)
            return numerator_factor(3, y)

        def counted_u(x):
            u_sizes.append(x.size)
            return u(x)

        def integrand(t):
            integ = singular_periodic_integrand(u, m=3, t=t)
            return dataclasses.replace(integ, g_eval=SplitNumerator(psi, counted_u, t))

        specs = [RuleSpec(3, 2, 4096, path="compact"), RuleSpec(3, 2, 4096, path="generic")]
        first = integrand(0.3)
        for spec in specs:
            t_hat(spec, first)
        assert psi_calls
        psi_calls.clear(), u_sizes.clear()
        second = integrand(-1.1)
        t_hat(specs[0], second)
        # P(8192) and P(16384): 4,096 and 8,192 nodes, a block each
        assert psi_calls == [] and u_sizes == [4096, quadrature._G_BLOCK]
        u_sizes.clear()
        value = t_hat(specs[1], second)
        # the level-0 family at 16384 lacks P(4096), ..., P(2): 4095 nodes
        assert psi_calls == [] and u_sizes == [4095]
        # the table changes no value: an empty store gives the same doubles
        monkeypatch.setattr(quadrature, "_TABLES", {})
        assert t_hat(specs[1], integrand(-1.1)) == value and psi_calls

    @pytest.mark.parametrize("split", [True, False])
    def test_offset_table_stays_within_its_bound(self, monkeypatch, split):
        integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.4)
        if not split:
            g = integ.g_eval
            integ = dataclasses.replace(integ, g_eval=lambda x: g(x))
        specs = [RuleSpec(3, 2, 2**k, path="compact") for k in range(3, 14)]
        values = [t_hat(spec, dataclasses.replace(integ)) for spec in specs]
        bound = 2**16 + 2**12
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", bound)
        for spec, value in zip(specs, values):
            # each integrand starts with an empty memo, so every rule reads the table
            assert t_hat(spec, dataclasses.replace(integ)) == value
            assert 0 < held_bytes() <= bound
        # an entry of P(2^15) has 8,192 offsets and 4 KiB of half-angle
        # rows: a split's psi(|y|) and |y|^m need 132 KiB, used but not
        # kept, and a plain g's |y|^m alone 68 KiB
        entries = [value for key, (value, _) in quadrature._TABLES.items() if key[0] is quadrature._lattice_table.__wrapped__]
        assert all((psi_abs is None) != split for psi_abs, *_ in entries)
        assert max(power.size for _, power, *_ in entries) == (4096 if split else 8192)

    def test_threads_share_the_offset_table(self, monkeypatch):
        # four threads run compact rules on integrands of their own, all of
        # them inserting into and evicting from the one store; a switch
        # interval of 1 us interleaves them inside each other's table reads
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", 2**16)

        def rules(k):
            for i in range(300):
                m = 1 + (i + k) % 4
                integ = singular_periodic_integrand(PoissonKernelU(0.5), m=m, t=0.7 * k - 1.2)
                yield RuleSpec(m, max_compact_level(m), 8 + i, path="compact"), integ

        values, errors = {}, []

        def work(k):
            try:
                values[k] = [t_hat(spec, integ) for spec, integ in rules(k)]
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 0 < held_bytes() <= 2**16
        # each value is the one a thread alone gives
        for k in range(4):
            assert values[k] == [t_hat(spec, integ) for spec, integ in rules(k)], k

    def test_a_fill_reads_one_table_per_lattice(self, monkeypatch):
        # psi(|y|), |y|^m and the half-angle rows of a lattice are one store
        # entry: a half-sine fill of k lattices makes k lookups, not 2k
        keys, table = [], quadrature._table
        monkeypatch.setattr(quadrature, "_table", lambda key, *build: keys.append(key) or table(key, *build))
        integ = self.integrand(3, 0.3, True)
        assert hasattr(integ.g_eval.u, "from_half_sine")
        lattices = [3, 5, 7, 64, 96]
        quadrature._memoize(integ, lattices)
        assert [(key[0], key[3]) for key in keys] == [(quadrature._lattice_table.__wrapped__, N) for N in lattices]

    def test_unallocatable_lattice_raises(self):
        # P(2^61)'s offset table needs about 2^59 doubles for psi(|y|) alone,
        # 4 EiB, which no machine grants: np.empty raises before allocating
        integ = singular_periodic_integrand(TrigPolynomial((0.5, 1.0, -0.3), (0.2, 0.7)), m=3, t=0.3)
        with pytest.raises(EvaluationError, match=rf"offset table of the lattice P\({2**61}\)") as info:
            t_hat(RuleSpec(3, 2, 2**60, path="compact"), integ)
        assert isinstance(info.value.__cause__, MemoryError)

    def test_threads_on_one_integrand_give_the_serial_values(self):
        # four threads run generic rules s = 0, 1 at n = 2^6 ... 2^14, each in
        # its own order, on one integrand per trial, so they fill and read
        # its memo at once; a switch interval of 1 us interleaves them inside
        # each other's fills.  A memo of node arrays and views once returned
        # wrong values here in most trials of 30; 40 trials failed in 10 of
        # 10 runs, where each lattice sum is a function of its lattice alone
        specs = [RuleSpec(3, s, 2**k) for s in (0, 1) for k in range(6, 15)]
        orders = [specs, specs[::-1], specs[1::2] + specs[::2], specs[::2][::-1] + specs[1::2][::-1]]

        def integrand():
            return singular_periodic_integrand(PoissonKernelU(0.7), m=3, t=0.3, n_derivs=3)

        serial_integ = integrand()
        serial = {spec: t_hat(spec, serial_integ) for spec in specs}
        wrong, errors = [], []

        def work(integ, order):
            try:
                for spec in order:
                    value = t_hat(spec, integ)
                    if value != serial[spec]:
                        wrong.append((spec, value))
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                integ = integrand()
                threads = [threading.Thread(target=work, args=(integ, order)) for order in orders]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []

    def test_replace_drops_the_split(self):
        integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.4)
        assert quadrature._split(dataclasses.replace(integ)) is integ.g_eval
        assert quadrature._split(dataclasses.replace(integ, g_eval=lambda x: integ.g_eval(x))) is None
        # a split about another point is a plain g of this integrand
        assert quadrature._split(dataclasses.replace(integ, t=0.5)) is None

    def test_failures_name_psi_u_and_the_node(self):
        integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.4)
        g = integ.g_eval

        def split(psi=g.psi, u=g.u):
            return dataclasses.replace(integ, g_eval=SplitNumerator(psi, u, integ.t))

        def fails(y):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError, match=r"^u failed on 7 nodes: boom"):
            plain_trap_sum(split(u=fails), 8)
        with pytest.raises(EvaluationError, match=r"^psi failed on \d+ offsets: boom"):
            plain_trap_sum(split(psi=lambda y: fails(y) if y.size else y), 1024 + 1)
        bad = float(quadrature._family_nodes(integ, 32, 0)[1][11])
        with pytest.raises(EvaluationError) as info:
            plain_trap_sum(split(u=lambda x: np.where(x == bad, np.nan, g.u(x))), 32)
        assert (info.value.node_index, info.value.node_x) == (11, bad)
        # a u that fails on its second block leaves nothing in the memo
        calls = []

        def flaky_u(x):
            calls.append(x.size)
            return fails(x) if len(calls) == 2 else g.u(x)

        flaky = split(u=flaky_u)
        with pytest.raises(EvaluationError, match="^u failed"):
            plain_trap_sum(flaky, 2**14)
        assert flaky._f_memo == {}
        assert plain_trap_sum(flaky, 2**14) == plain_trap_sum(integ, 2**14)
        # a plain g is named as the integrand evaluator, and one that fails
        # on its second block (8,191 nodes of P(8192) down to P(2)) leaves
        # nothing in the memo either
        calls.clear()
        flaky = dataclasses.replace(integ, g_eval=lambda x: flaky_u(x) * g.psi(x - integ.t))
        with pytest.raises(EvaluationError, match="^integrand evaluator failed on 8191 nodes: boom"):
            plain_trap_sum(flaky, 2**14)
        assert calls == [quadrature._G_BLOCK, 8191] and flaky._f_memo == {}

    def test_half_sine_failures_name_u(self):
        # from_half_sine goes through the same checked call as u
        class Raising(PoissonKernelU):
            def from_half_sine(self, S):
                raise RuntimeError("boom")

        class Short(PoissonKernelU):
            def from_half_sine(self, S):
                return super().from_half_sine(S)[1:]

        integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.4)
        for u, message in ((Raising(0.5), r"^u failed on 7 nodes: boom"), (Short(0.5), r"^u returned shape \(6,\) for nodes of shape \(7,\)")):
            split = dataclasses.replace(integ, g_eval=SplitNumerator(integ.g_eval.psi, u, integ.t))
            with pytest.raises(EvaluationError, match=message):
                plain_trap_sum(split, 8)
            assert split._f_memo == {}

    @pytest.mark.parametrize("split", [True, False])
    def test_repeated_generic_rule_reuses_the_family(self, split):
        integ = GeometricKernelCase(eta=0.7, t=1.0).integrand()
        if not split:
            g = integ.g_eval
            integ = dataclasses.replace(integ, g_eval=lambda x: g(x))
        spec = RuleSpec(3, 2, 1024)
        first = t_hat(spec, integ)
        memo = dict(integ._f_memo)
        assert t_hat(spec, integ) == first
        assert integ._f_memo.keys() == memo.keys()
        assert all(integ._f_memo[N] is f for N, f in memo.items())


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

    @pytest.mark.parametrize(
        "args, what",
        [
            # once inf, which floor_check passes every row against
            ((1e308, 1e308, 1e308, 1e-3, 1), "term 2 zeta(3)/T^2 ||g||"),
            # T^2 underflows to 0: once ZeroDivisionError
            ((1.0, 0.0, 0.0, 1e-300, 10), "term 2 zeta(3)/T^2 ||g||"),
            # 6 n^3 is no double: once OverflowError
            ((0.0, 0.0, 1.0, 1.0, 10**103), "term T/(6 n^3) ||g'''||"),
            # each term finite, their K(n) u n^2 not
            ((1e300, 0.0, 0.0, 1.0, 10**20), "value K(n) u n^2"),
        ],
    )
    def test_overflowing_floor_raises(self, args, what):
        with pytest.raises(EvaluationError, match=f"^the roundoff floor's {re.escape(what)} overflowed"):
            roundoff_floor(*args)


class TestNodeCountBound:
    """A rule or sum on a lattice P(N) with N past ``_MAX_NODES`` (2^63 - 1,
    where the fill's range of node indices no longer has a length) raises
    EvaluationError naming N, before any lattice is filled."""

    @pytest.fixture
    def integ(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_fill", lambda *args, **kwargs: pytest.fail("a lattice was filled"))
        return singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.3)

    def test_t_hat(self, integ):
        # generic s = 70 at n = 8: its finest grid is P(2^73)
        with pytest.raises(EvaluationError, match=rf"^the node lattice P\({2**73}\) of {2**73} points"):
            t_hat(RuleSpec(3, 70, 8), integ)

    def test_plain_trap_sum(self, integ):
        with pytest.raises(EvaluationError, match=rf"^the node lattice P\({2**70}\) of {2**70} points"):
            plain_trap_sum(integ, 2**70)

    def test_midpoint_sum(self, integ):
        with pytest.raises(EvaluationError, match=rf"^the node lattice P\({2**73}\) of {2**73} points"):
            midpoint_sum(integ, 8, 70)


class TestLatticeNumpyRefuses:
    """P(2^62) is within ``_MAX_NODES``, but its offset table, about 2^60
    doubles, is past what numpy allocates at all: np.empty raises ValueError
    ("array is too big") before allocating anything, and the table names
    the lattice as it does for a MemoryError."""

    MESSAGE = rf"^the offset table of the lattice P\({2**62}\), \d+ offsets, cannot be allocated$"

    @pytest.fixture
    def integ(self):
        return singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.3, n_derivs=3)

    def test_t_hat(self, integ):
        with pytest.raises(EvaluationError, match=self.MESSAGE) as info:
            t_hat(RuleSpec(3, 0, 2**62, path="generic"), integ)
        assert isinstance(info.value.__cause__, ValueError)

    def test_plain_trap_sum(self, integ):
        with pytest.raises(EvaluationError, match=self.MESSAGE) as info:
            plain_trap_sum(integ, 2**62)
        assert isinstance(info.value.__cause__, ValueError)

    def test_midpoint_sum(self, integ):
        with pytest.raises(EvaluationError, match=self.MESSAGE) as info:
            midpoint_sum(integ, 2**61)
        assert isinstance(info.value.__cause__, ValueError)


class TestSplitPsiHashable:
    """The shared tables are keyed on psi, so a split g needs a hashable psi."""

    class UnhashablePsi:
        __hash__ = None

        def __call__(self, y):
            return np.ones_like(y)

    def test_unhashable_psi_is_refused(self):
        psi = self.UnhashablePsi()
        with pytest.raises(ValueError, match=re.escape(f"psi must be hashable, as the shared tables are keyed on it (got {psi!r})")):
            SplitNumerator(psi, np.cos, 0.3)

    @dataclasses.dataclass(frozen=True)
    class ListPsi:
        coefs: list

        def __call__(self, y):
            return np.polynomial.polynomial.polyval(y * y, self.coefs)

    def test_psi_whose_hash_raises_is_refused(self):
        # the class defines __hash__, but hashing an instance hashes its list
        with pytest.raises(ValueError, match="psi must be hashable") as info:
            SplitNumerator(self.ListPsi([1.0, 0.5]), np.cos, 0.3)
        assert isinstance(info.value.__cause__, TypeError)
