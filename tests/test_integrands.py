"""Series coefficients, smooth-numerator evaluation, and the u(x) families."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hfpquad import quadrature
from hfpquad.errors import EvaluationError
from hfpquad.integrands import (
    PoissonKernelU,
    TrigPolynomial,
    kernel_factor_series,
    numerator_factor,
    numerator_factor_derivs,
    random_trig_polynomial,
    singular_periodic_integrand,
)

TWO_PI = 2.0 * math.pi


class TestKernelFactorSeries:
    def test_m1_is_z_cot_z_times_unity(self):
        # (z/sin z) cos z = z cot z = 1 - z^2/3 - z^4/45 - 2 z^6/945 - ...
        w = kernel_factor_series(1)
        assert w[0] == 1
        assert w[1] == Fraction(-1, 3)
        assert w[2] == Fraction(-1, 45)
        assert w[3] == Fraction(-2, 945)

    def test_m3_flat_to_fourth_order(self):
        w = kernel_factor_series(3)
        assert w[0] == 1
        assert w[1] == 0
        assert w[2] == Fraction(-1, 15)

    def test_m2_even_kernel(self):
        # (z/sin z)^2 = 1 + z^2/3 + z^4/15 + ...
        w = kernel_factor_series(2)
        assert w[1] == Fraction(1, 3)
        assert w[2] == Fraction(1, 15)


class TestNumeratorFactor:
    def test_value_at_zero(self):
        for m in (1, 2, 3, 4):
            assert numerator_factor(m, 0.0, TWO_PI) == pytest.approx(
                2.0**m, rel=1e-15
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_branch_continuity(self, m):
        # values straddling the series/direct and direct/reflected switches
        # must agree to rounding (the function barely varies over 2e-13)
        T = TWO_PI
        for z0 in (0.5, 0.5 * math.pi):
            y0 = (z0 + 1e-13) * T / math.pi
            y1 = (z0 - 1e-13) * T / math.pi
            v0 = numerator_factor(m, y0, T)
            v1 = numerator_factor(m, y1, T)
            # abs term: odd-m factors cross zero at z = pi/2
            assert v0 == pytest.approx(v1, rel=5e-12, abs=1e-10)

    def test_matches_direct_theta_product(self):
        # psi_m(y)/y^m must equal theta_m(y) away from zero
        T = TWO_PI
        for m in (1, 2, 3, 4):
            for y in (0.3, 1.2, -2.4, 3.0):
                z = math.pi * y / T
                theta = (
                    math.cos(z) / math.sin(z) ** m
                    if m % 2
                    else 1.0 / math.sin(z) ** m
                )
                assert numerator_factor(m, y, T) / y**m == pytest.approx(
                    theta, rel=1e-13
                )

    def test_near_pole_accuracy(self):
        # reflected branch: relative accuracy survives up to |y| -> T
        T = TWO_PI
        for y in (T - 1e-3, -(T - 1e-2)):
            v = numerator_factor(3, y, T)
            yr = T - abs(y)
            w = math.pi * yr / T
            ref = (T / math.pi) ** 3 * (abs(math.pi * y / T) / math.sin(w)) ** 3 * (
                -math.cos(w)
            )
            assert v == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("period", [TWO_PI, 1.0])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_array_call_is_elementwise(self, m, period):
        # each y of an array call gets the double of a scalar call, whatever
        # branch the other points take: series (|z| <= 0.5), closed form
        # (|z| <= pi/2) and reflection mixed in a shuffled order
        rng = np.random.default_rng(10 * m + int(period))
        sign = rng.choice([-1.0, 1.0], 30)
        z = np.concatenate(
            [rng.uniform(0.0, 0.5, 10), rng.uniform(0.5, 0.5 * math.pi, 10), rng.uniform(0.5 * math.pi, 3.1, 10)]
        )
        y = rng.permutation(sign * z * period / math.pi)
        y_in = y.copy()
        for yi, value in zip(y, numerator_factor(m, y, period)):
            got = numerator_factor(m, float(yi), period)
            assert type(got) is float and got.hex() == float(value).hex()
        # the in-place steps leave the caller's array alone
        np.testing.assert_array_equal(y, y_in)

    def test_derivs_at_zero(self):
        # psi_1''(0) = -1/3 for T = 2 pi; odd orders vanish
        d = numerator_factor_derivs(1, 4, TWO_PI)
        assert d[0] == pytest.approx(2.0, rel=1e-15)
        assert d[1] == 0.0 and d[3] == 0.0
        assert d[2] == pytest.approx(-1.0 / 3.0, rel=1e-14)
        # central finite-difference cross-check of psi_3 at 0
        d3 = numerator_factor_derivs(3, 4, TWO_PI)
        h = 1e-2
        fd2 = (
            numerator_factor(3, h, TWO_PI)
            - 2 * numerator_factor(3, 0.0, TWO_PI)
            + numerator_factor(3, -h, TWO_PI)
        ) / h**2
        assert d3[2] == pytest.approx(fd2, abs=5e-4)


class TestTrigPolynomial:
    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        u = random_trig_polynomial(rng, degree=4)
        x = 0.83
        h = 1e-5
        fd1 = (u(x + h) - u(x - h)) / (2 * h)
        assert u.deriv(1, x) == pytest.approx(fd1, rel=1e-8)
        fd2 = (u(x + h) - 2 * u(x) + u(x - h)) / h**2
        assert u.deriv(2, x) == pytest.approx(fd2, rel=1e-5)

    def test_vectorized(self):
        # a scalar x is a Python float equal, bit for bit, to its element of
        # an array call; a 2-D x keeps its shape
        u = random_trig_polynomial(np.random.default_rng(3))
        xs = np.random.default_rng(4).uniform(-TWO_PI, TWO_PI, 37)
        for order in (0, 1, 5):
            values = u.deriv(order, xs)
            for x, value in zip(xs, values):
                scalar = u.deriv(order, float(x))
                assert type(scalar) is float and scalar == value
            grid = u.deriv(order, xs[:36].reshape(4, 9))
            assert grid.shape == (4, 9)
            np.testing.assert_array_equal(grid, values[:36].reshape(4, 9))

    @pytest.mark.parametrize("order", range(13))
    def test_scalar_equals_its_array_element_at_every_order(self, order):
        # a scalar runs Horner's rule on Python floats, an array on numpy's
        # arrays: the same IEEE operations, so the same double
        rng = np.random.default_rng(100 + order)
        for degree in range(9):
            u = random_trig_polynomial(rng, degree=degree)
            xs = rng.uniform(-TWO_PI, TWO_PI, 6)
            for x, value in zip(xs, u.deriv(order, xs)):
                for scalar in (float(x), np.float64(x), np.array(x)):
                    got = u.deriv(order, scalar)
                    assert type(got) is float and got == value

    def test_list_coefficients_equal_tuples(self):
        u = random_trig_polynomial(np.random.default_rng(11))
        listed = TrigPolynomial(list(u.cos_coeffs), list(u.sin_coeffs))
        xs = np.random.default_rng(12).uniform(-TWO_PI, TWO_PI, 9)
        for order in (0, 1, 4, 4):  # 4 twice: formed, then kept
            np.testing.assert_array_equal(listed.deriv(order, xs), u.deriv(order, xs))
            assert listed.deriv(order, 0.3) == u.deriv(order, 0.3)

    def test_kept_coefficients_do_not_admit_a_bad_order(self):
        u = TrigPolynomial((0.3, 0.1, 0.2), (0.4, -0.5))
        u.deriv(2, 0.3)
        with pytest.raises(ValueError, match=r"got 2\.0"):
            u.deriv(2.0, 0.3)

    def test_periodicity(self):
        u = TrigPolynomial((0.3, 0.1, 0.2), (0.4, -0.5))
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(u(xs), u(xs + TWO_PI), rtol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 3, 7, 11])
    def test_accuracy_against_a_40_digit_sum(self, order):
        # Horner in e^(ix): within 6 u sum_k k^order (|a_k| + |b_k|) of the
        # exact sum at the double x
        rng = np.random.default_rng(order)
        for _ in range(40):
            u = random_trig_polynomial(rng)
            xs = rng.uniform(-TWO_PI, TWO_PI, 5)
            for x, value in zip(xs, u.deriv(order, xs)):
                assert abs(value - _mp_trig_sum(u, order, x)) <= _trig_bound(u, order)

    @pytest.mark.parametrize(
        "cos, sin",
        [
            ((), ()),
            ((0.7,), ()),
            ((), (0.3, -0.8, 0.5)),
            ((0.2, -0.4, 0.0, 0.0), (0.9, 0.0, 0.0)),
            ((0.6, -0.9), ()),
            ((0.3, 0.5, -0.7, -0.2), ()),
        ],
        ids=["empty", "constant", "sin-only", "trailing-zeros", "degree-1", "cos-only"],
    )
    @pytest.mark.parametrize("order", [0, 1, 2, 5])
    def test_edge_polynomials_match_the_direct_sum(self, cos, sin, order):
        # at degree 0 and 1 the array path's Horner loop runs no step; an
        # empty sin_coeffs gives gamma_k with a zero component
        u = TrigPolynomial(cos, sin)
        xs = np.linspace(-TWO_PI, TWO_PI, 11)
        for x, value in zip(xs, u.deriv(order, xs)):
            assert abs(value - _mp_trig_sum(u, order, x)) <= _trig_bound(u, order)
            assert u.deriv(order, float(x)).hex() == float(value).hex()


def _mp_trig_sum(u, order, x):
    """sum_k k^order (a_k cos(kx + order pi/2) + b_k sin(kx + order pi/2)) in
    40-digit arithmetic at the double x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x, shift = mpmath.mpf(float(x)), order * mpmath.pi / 2
        terms = [
            a * mpmath.mpf(k) ** order * mpmath.cos(k * x + shift)
            for k, a in enumerate(u.cos_coeffs)
        ]
        terms += [
            b * mpmath.mpf(k) ** order * mpmath.sin(k * x + shift)
            for k, b in enumerate(u.sin_coeffs, start=1)
        ]
        return float(mpmath.fsum(terms))


def _trig_bound(u, order):
    """6 u sum_k k^order (|a_k| + |b_k|), u = 2^-53."""
    terms = [k**order * abs(a) for k, a in enumerate(u.cos_coeffs)]
    terms += [k**order * abs(b) for k, b in enumerate(u.sin_coeffs, start=1)]
    return 6 * 2.0**-53 * math.fsum(terms)


@pytest.mark.parametrize("u", [PoissonKernelU(0.5), TrigPolynomial((1.0, 0.5), (0.2,))])
def test_a_bad_derivative_order_is_named(u):
    for order in (-1, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match=rf"^order must be .*\(got {order!r}\)$"):
            u.deriv(order, 0.3)
    # numpy's integers are orders too
    assert u.deriv(np.int64(3), 0.3) == u.deriv(3, 0.3)
    np.testing.assert_array_equal(u.deriv(np.uint8(2), [0.3, 1.0]), u.deriv(2, [0.3, 1.0]))


class TestPoissonKernelU:
    def test_values(self):
        assert PoissonKernelU(0.0)(1.2345) == pytest.approx(1.0, rel=1e-15)
        assert PoissonKernelU(0.5)(0.0) == pytest.approx(2.0, rel=1e-15)
        assert PoissonKernelU(0.5)(math.pi) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            PoissonKernelU(1.0)

    @pytest.mark.parametrize("order", range(0, 7))
    def test_derivatives_match_truncated_series(self, order):
        eta, x = 0.45, 0.9
        u = PoissonKernelU(eta)
        M = 200  # tail eta^M M^order is far below 1e-16 here
        series = math.fsum(
            eta**m * m**order * math.cos(m * x + order * math.pi / 2)
            for m in range(1, M + 1)
        )
        if order == 0:
            series += 1.0
        assert u.deriv(order, x) == pytest.approx(series, rel=1e-12, abs=1e-13)


    @pytest.mark.parametrize("order", range(1, 6))
    def test_scalar_equals_its_array_element(self, order):
        # real arithmetic on Python floats or on numpy arrays: the same IEEE
        # operations, so the same double
        rng = np.random.default_rng(300 + order)
        for eta in (0.3, 0.6, 0.9, -0.5):
            u = PoissonKernelU(eta)
            xs = rng.uniform(-TWO_PI, TWO_PI, 64)
            for x, value in zip(xs, u.deriv(order, xs)):
                for scalar in (float(x), np.float64(x), np.array(x)):
                    got = u.deriv(order, scalar)
                    assert type(got) is float and got == value

    @pytest.mark.parametrize("order", range(1, 6))
    def test_accuracy_against_a_40_digit_sum(self, order):
        # within 16 u sum_k k^order eta^k of Re(i^order sum_k k^order q^k),
        # q = eta e^(ix) at the double x (at most 11.8 u here); a negative eta
        # is not covered: 1 - q's half-angle form cancels near x = pi there
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(400 + order)
        for eta in (0.05, 0.3, 0.6, 0.9, 0.99):
            u = PoissonKernelU(eta)
            xs = rng.uniform(-TWO_PI, TWO_PI, 40)
            with mpmath.workdps(40):
                bound = 16 * 2.0**-53 * float(mpmath.polylog(-order, eta))
                for x, value in zip(xs, u.deriv(order, xs)):
                    q = eta * mpmath.expj(mpmath.mpf(float(x)))
                    exact = mpmath.re(mpmath.mpc(0, 1) ** order * mpmath.polylog(-order, q))
                    assert abs(value - exact) <= bound, (eta, x)


class TestIntegrandFactory:
    def test_geometric_case_derivative_identity(self):
        # for m = 3 and T = 2 pi the first four derivative values of g at t
        # are 8 times those of u
        eta, t = 0.4, 1.1
        u = PoissonKernelU(eta)
        integ = singular_periodic_integrand(u, m=3, t=t, n_derivs=3)
        for i in range(4):
            assert integ.g_derivs_at_t[i] == pytest.approx(
                8.0 * u.deriv(i, t), rel=1e-13
            )

    def test_g_eval_consistent_with_derivs(self):
        rng = np.random.default_rng(3)
        u = random_trig_polynomial(rng, degree=3)
        integ = singular_periodic_integrand(u, m=2, t=0.4, n_derivs=5)
        h = 1e-3
        stencil = np.array([-2, -1, 0, 1, 2]) * h + integ.t
        vals = integ.g_eval(stencil)
        fd2 = (vals[0] * (-1 / 12) + vals[1] * (4 / 3) + vals[2] * (-5 / 2)
               + vals[3] * (4 / 3) + vals[4] * (-1 / 12)) / h**2
        assert integ.g_derivs_at_t[2] == pytest.approx(fd2, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_leibniz_derivs_one_u_call_per_order(self, m):
        u = random_trig_polynomial(np.random.default_rng(m), degree=5)
        orders = []

        class Counted:
            def __call__(self, x):
                return u(x)

            def deriv(self, order, x):
                orders.append(order)
                return u.deriv(order, x)

        n_derivs = m + 7
        t = 0.7
        integ = singular_periodic_integrand(Counted(), m=m, t=t, n_derivs=n_derivs)
        assert orders == list(range(n_derivs + 1))
        psi0 = numerator_factor_derivs(m, n_derivs, TWO_PI)
        for i, d in enumerate(integ.g_derivs_at_t):
            ref = 0.0
            for j in range(0, i + 1, 2):
                ref += math.comb(i, j) * psi0[j] * float(u.deriv(i - j, t))
            assert d == ref

    @pytest.mark.parametrize("kind", ["raises", "two values"])
    def test_failing_u_deriv_is_an_evaluation_error(self, kind):
        u = TrigPolynomial((1.0, 0.5))

        class Broken:
            __call__ = u.__call__

            def deriv(self, order, x):
                if order == 0:
                    return u.deriv(order, x)
                if kind == "raises":
                    raise RuntimeError("no derivative")
                return np.ones(2)

        with pytest.raises(EvaluationError, match=r"^u\.deriv (failed|returned shape)") as info:
            singular_periodic_integrand(Broken(), m=3, t=0.5)
        assert isinstance(info.value.__cause__, RuntimeError) == (kind == "raises")

    def test_interval_centered(self):
        u = PoissonKernelU(0.2)
        integ = singular_periodic_integrand(u, m=3, t=2.5)
        assert integ.a == pytest.approx(2.5 - math.pi)
        assert integ.b == pytest.approx(2.5 + math.pi)
        assert integ.a < integ.t < integ.b

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("u", [PoissonKernelU(0.5), TrigPolynomial((1.0, 2.0), ())])
    def test_non_finite_t_is_rejected_before_any_evaluation(self, u, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular point must satisfy a < t < b"):
                singular_periodic_integrand(u, m=3, t=t)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_period_that_is_not_finite_and_positive_is_rejected(self, period):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular point must satisfy a < t < b"):
                singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=1.0, period=period)

    def test_period_whose_psi_derivatives_overflow_is_rejected(self):
        # (T/pi)^3 is no double at T = 1e308: psi_3(0) was an OverflowError
        with pytest.raises(EvaluationError, match=r"^g derivative of order 0 at t is not finite \(inf\)$"):
            singular_periodic_integrand(TrigPolynomial((1.0,)), m=3, t=0.0, period=1e308)


# g_eval runs the evaluators on slices of _G_BLOCK nodes.  Each node's
# double must not depend on the slicing: the result equals the unblocked
# product psi_m(x - t) u(x) and g_eval on small pieces, bit for bit.
_BLOCK = quadrature._G_BLOCK


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("u", [PoissonKernelU(0.7), random_trig_polynomial(np.random.default_rng(5))])
@pytest.mark.parametrize("m", range(1, 7))
def test_blocked_g_eval_is_bit_for_bit(m, u, size):
    t = 0.4
    integ = singular_periodic_integrand(u, m=m, t=t)
    x = np.random.default_rng(size).uniform(integ.a, integ.b, size)
    g = integ.g_eval(x)
    np.testing.assert_array_equal(g, numerator_factor(m, x - t) * np.asarray(u(x)))
    pieces = [integ.g_eval(x[i : i + 1000]) for i in range(0, size, 1000)]
    np.testing.assert_array_equal(g, np.concatenate(pieces))
    # a 2-D node array keeps its shape and each node its double
    even = 2 * (size // 2)
    np.testing.assert_array_equal(integ.g_eval(x[:even].reshape(2, -1)), g[:even].reshape(2, -1))


@pytest.mark.parametrize("u", [PoissonKernelU(0.7), TrigPolynomial((0.5, 1.0), (0.3,))])
@pytest.mark.parametrize("m", range(1, 7))
def test_blocked_g_eval_on_a_scalar_and_on_no_nodes(m, u):
    integ = singular_periodic_integrand(u, m=m, t=0.4)
    x = 1.3
    g = integ.g_eval(np.float64(x))
    assert type(g) is np.float64
    assert g == numerator_factor(m, x - 0.4) * u(x)
    assert g == integ.g_eval(np.array([x]))[0]
    for empty in (np.empty(0), np.empty((0, 3))):
        g_empty = integ.g_eval(empty)
        assert isinstance(g_empty, np.ndarray) and g_empty.shape == empty.shape
