"""The exact Fourier-symbol oracle and the Taylor-subtraction reference."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from hfpquad import oracles
from hfpquad.errors import DerivativesRequiredError, EvaluationError, ReferenceConvergenceError
from hfpquad.integrands import (
    PoissonKernelU,
    TrigPolynomial,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from hfpquad.oracles import (
    GeometricKernelCase,
    exact_hfp,
    exact_supersingular,
    fourier_symbol,
    hfp_power_integral,
    hfp_reference,
)

TWO_PI = 2.0 * math.pi


class TestPoissonU:
    def test_values(self):
        assert PoissonKernelU(0.0)(2.2) == pytest.approx(1.0, rel=1e-15)
        assert PoissonKernelU(0.5)(0.0) == pytest.approx(2.0, rel=1e-15)
        assert PoissonKernelU(0.5)(math.pi) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            PoissonKernelU(1.2)


class TestExactSupersingular:
    def test_trivial_zeros(self):
        assert exact_supersingular(0.0, 1.7) == 0.0
        assert exact_supersingular(0.4, 0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, -0.4])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.8])
    def test_matches_series(self, eta, t):
        # the closed form against the mode-by-mode sum of the Poisson series
        # 4 pi sum_k eta^k k^2 sin(kt), cut where its tail is below 1e-16
        K = next(K for K in range(10, 10**4, 10) if 8 * math.pi * (K + 1) ** 2 * abs(eta) ** (K + 1) / (1 - abs(eta)) < 1e-16)
        series = exact_hfp(TrigPolynomial(tuple(eta**k for k in range(K + 1))), 3, t)
        closed = exact_supersingular(eta, t)
        assert abs(closed - series) <= 1e-16 + 1e-12 * abs(closed)

    def test_is_exact_hfp_at_m3(self):
        for eta in (0.0, 0.3, -0.4, 0.9, 0.99):
            for t in (0.0, 1e-3, 1.0, -2.5, math.pi):
                q = eta * cmath.exp(1j * t)
                # 1 - q in the half-angle form (1 - eta) + 2 eta sin^2(t/2) - i eta sin t
                half = math.sin(0.5 * t)
                one_minus_q = complex((1.0 - eta) + 2.0 * eta * (half * half), -q.imag)
                closed = 4.0 * math.pi * (q * (1.0 + q) / one_minus_q**3).imag
                assert exact_supersingular(eta, t) == closed == exact_hfp(PoissonKernelU(eta), 3, t)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exact_supersingular(1.0, 1.0)

    def test_case_validation(self):
        with pytest.raises(ValueError):
            GeometricKernelCase(eta=1.5, t=1.0)


class TestFourierMode:
    """fourier_symbol(m, k) = c_m(k), the finite part of theta_m(y) e^(iky)."""

    def test_examples(self):
        assert fourier_symbol(3, 0) == 0
        assert fourier_symbol(3, 1) == pytest.approx(-4j * math.pi)
        assert fourier_symbol(3, -2) == pytest.approx(16j * math.pi)
        assert fourier_symbol(1, 5) == 2j * math.pi
        assert fourier_symbol(2, -3) == -12 * math.pi
        # modes the kernel annihilates are an exact 0
        assert fourier_symbol(4, 1) == fourier_symbol(6, 1) == fourier_symbol(6, 2) == 0

    def test_conjugate_symmetry(self):
        for m in range(1, 8):
            for k in range(1, 11):
                assert fourier_symbol(m, -k) == fourier_symbol(m, k).conjugate()

    @pytest.mark.parametrize("m", range(1, 8))
    def test_zero_mode(self, m):
        assert fourier_symbol(m, 0) == 0

    def test_m3_is_the_closed_mode_formula(self):
        # the m = 3 mode formula -sgn(k) 4 pi i k^2 e^(ikt), bit for bit
        for t in (0.0, 0.77, -2.9):
            for k in range(-10, 11):
                sgn = (k > 0) - (k < 0)
                closed = -sgn * 4j * math.pi * k**2 * cmath.exp(1j * k * t)
                assert fourier_symbol(3, k) * cmath.exp(1j * k * t) == closed

    def test_m_below_one_raises(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            fourier_symbol(0, 1)

    def test_overflowing_symbol_raises(self):
        # R_6(10^80) once raised OverflowError from the integer division
        with pytest.raises(EvaluationError, match=r"^the symbol c_6\(10{80}\) overflowed$"):
            fourier_symbol(6, 10**80)


def _reference(u, m, t):
    integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m + 6)
    return hfp_reference(integ.g_eval, integ.g_derivs_at_t, m, integ.a, integ.b, t, smoothing=6)


class TestExactHfp:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_reference(self, m):
        # the reference's own error grows with m: over 60 draws the gap
        # reached 1.8e-10 at m = 5 and 1.7e-9 at m = 6
        rng = np.random.default_rng(0)
        for _ in range(3):
            u = random_trig_polynomial(rng)
            t = float(rng.uniform(-3.0, 3.0))
            value = exact_hfp(u, m, t)
            assert abs(value - _reference(u, m, t)) <= 1e-9 * (1.0 + abs(value))

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("eta", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.9, 3.1])
    def test_poisson_equals_truncated_series(self, m, eta, t):
        # the cut series misses sum_(k>K) |c_m(k)| eta^k, which the k^(m-1)
        # growth of c_m makes up to 1.5e-4 here; rounding is measured
        # against the sum of the terms' moduli
        K = next(K for K in range(1, 10**4) if eta**K < 1e-18)
        series = exact_hfp(TrigPolynomial(tuple(eta**k for k in range(K + 1))), m, t)
        closed = exact_hfp(PoissonKernelU(eta), m, t)
        size, tail = (math.fsum(abs(fourier_symbol(m, k)) * eta**k for k in ks) for ks in (range(1, K + 1), range(K + 1, 20 * K)))
        assert abs(closed - series) <= tail + 1e-14 * size

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("eta", [0.5, 0.9, 0.99, 0.999])
    def test_poisson_against_40_digits(self, m, eta):
        # 1 - q in the half-angle form keeps the error within 16 u of the
        # sum of the terms' moduli sum_p |2 pi r_p S_p(q)| as eta -> 1 (at
        # most 7.8 u here); 1.0 - q as written reached 2382 u at eta = 0.999
        mpmath = pytest.importorskip("mpmath")
        coefs, den = oracles._symbol_poly(m)
        for t in (1e-5, 1e-3, 0.1, 0.5, 1.3, 2.9, -0.7, -3.0):
            with mpmath.workdps(40):
                q = eta * mpmath.expj(mpmath.mpf(t))
                terms = [2 * mpmath.pi * mpmath.mpf(c) / den * mpmath.polylog(-p, q) for p, c in enumerate(coefs) if c]
                exact = mpmath.re(mpmath.mpc(0, 1) ** m * mpmath.fsum(terms))
                size = float(mpmath.fsum(abs(term) for term in terms))
            assert abs(exact_hfp(PoissonKernelU(eta), m, t) - exact) <= 16 * 2.0**-53 * size, t

    def test_annihilated_modes_sum_to_zero(self):
        # c_6(1) = c_6(2) = 0 and c_m(0) = 0: the oracle is an exact 0
        assert exact_hfp(TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4)), 6, 1.0) == 0.0

    def test_modes_of_both_signs_that_overflow_raise(self):
        # a +inf and a -inf term once raised ValueError from math.fsum
        with pytest.raises(EvaluationError, match=r"^the cos mode k=1 overflowed$"):
            exact_hfp(TrigPolynomial((1e308, 1e308), (1e308,)), 3, 0.3)

    def test_one_mode_that_overflows_raises(self):
        # mode k = 2000 at m = 6 once returned inf
        with pytest.raises(EvaluationError, match=r"^the cos mode k=2000 overflowed$"):
            exact_hfp(TrigPolynomial((0.0,) * 2000 + (1e300,)), 6, 0.3)

    def test_finite_modes_whose_sum_overflows_raise(self):
        # terms 1.46e308 and 1.06e308
        with pytest.raises(EvaluationError, match=r"^the sum of 2 modes at m=1 overflowed$"):
            exact_hfp(TrigPolynomial((0.0, 2.5e307, 2.5e307)), 1, 1.2)

    def test_poisson_power_that_underflows_raises(self):
        # (1 - q)^(p+1) underflows to 0 as eta -> 1 at t = 0, which once
        # raised ZeroDivisionError from the complex division
        with pytest.raises(EvaluationError, match=r"^the k\^19 term overflowed$"):
            exact_hfp(PoissonKernelU(1.0 - 2.0**-53), 30, 0.0)

    def test_other_u_raises(self):
        with pytest.raises(TypeError, match="TrigPolynomial or a PoissonKernelU"):
            exact_hfp(math.cos, 3, 1.0)

    @pytest.mark.parametrize("u", [TrigPolynomial((1.0, 2.0)), PoissonKernelU(0.5)])
    def test_m_below_one_raises(self, u):
        with pytest.raises(ValueError, match="m must be >= 1"):
            exact_hfp(u, 0, 1.0)

    @pytest.mark.parametrize("u", [TrigPolynomial((0.0, 1.0), (0.5,)), PoissonKernelU(0.5)])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_raises(self, u, t):
        with pytest.raises(ValueError, match=re.escape(f"t must be finite (got {t!r})")):
            exact_hfp(u, 4, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_raises_at_m3(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            exact_supersingular(0.5, t)
        with pytest.raises(ValueError, match="t must be finite"):
            GeometricKernelCase(0.5, t).exact()


class TestPowerIntegral:
    def test_examples(self):
        assert hfp_power_integral(-3, 0.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert hfp_power_integral(-1, 0.0, 3.0, 1.0) == pytest.approx(math.log(2))
        assert hfp_power_integral(0, 0.0, 2.0, 1.0) == pytest.approx(2.0)

    def test_regular_cases_match_quadrature(self):
        # p >= 0 must agree with the ordinary integral
        a, b, t = -0.5, 2.0, 0.25
        for p in (0, 1, 2, 3):
            exact = (b**(p + 1) - a**(p + 1)) / (p + 1) if t == 0 else None
            xs = np.linspace(a, b, 20001)
            approx = np.trapezoid((xs - t) ** p, xs)
            assert hfp_power_integral(p, a, b, t) == pytest.approx(approx, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            hfp_power_integral(-1, 0.0, 1.0, 2.0)

    def test_overflowing_value_raises(self):
        # 1000^401 is no double: once OverflowError from the power
        with pytest.raises(EvaluationError, match=r"^the finite part of \(x - t\)\^400 over .* overflowed"):
            hfp_power_integral(400, -1e3, 1e3, 0.0)


def _const_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def per_segment_panel_integrate(fn, breaks, counts):
    """Gauss panels with one fn call per segment and panel count, each on
    the panel nodes of that segment alone: the reference for the single
    call on the nodes of all of them."""
    sums = []
    for panels in counts:
        pieces = [fn(segment, (panels,)) for segment in zip(breaks[:-1], breaks[1:])]
        sums.append(math.fsum(np.concatenate(pieces)))
    return sums


def test_panel_nodes_are_each_segments_own():
    # a segment's panel nodes and weights at one count are those of its
    # own np.linspace cuts, whatever segments and counts share the entry
    xs, ws = np.polynomial.legendre.leggauss(oracles._GAUSS_ORDER)
    breaks = (-math.pi, -0.0314, 0.0, 0.0314, math.pi)
    y, w = oracles._panel_nodes(breaks, (4, 8))
    start = 0
    for panels in (4, 8):
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            edges = np.linspace(lo, hi, panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            size = panels * oracles._GAUSS_ORDER
            assert np.array_equal(y[start : start + size], (mid[:, None] + half[:, None] * xs).ravel())
            assert np.array_equal(w[start : start + size], (half[:, None] * ws).ravel())
            start += size
    assert start == y.size == w.size


_REF_US = [("trig", TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4))), ("poisson", PoissonKernelU(0.6))]


class TestReference:
    def test_constant_numerator_cpv(self):
        val = hfp_reference(_const_one, [1.0] + [0.0] * 6, 1, 0.0, 3.0, 1.0)
        assert val == pytest.approx(math.log(2.0), rel=1e-12)

    def test_linear_numerator_hypersingular(self):
        g = lambda x: np.asarray(x, dtype=float)
        val = hfp_reference(g, [1.0, 1.0] + [0.0] * 5, 2, 0.0, 2.0, 1.0)
        assert val == pytest.approx(-2.0, rel=1e-12)

    def test_odd_integrand_vanishes_on_symmetric_interval(self):
        # g even about t with odd m makes g/(x-t)^3 odd, so the finite part
        # over a symmetric interval is zero
        t = 0.5
        g = lambda x: np.cos(np.asarray(x, dtype=float) - t)
        derivs = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0]
        val = hfp_reference(g, derivs, 3, t - 1.0, t + 1.0, t)
        assert val == pytest.approx(0.0, abs=1e-11)

    def test_smoothing_order_independence(self):
        t = 0.9
        g = lambda x: np.exp(np.sin(np.asarray(x, dtype=float)))

        def taylor_coeffs(x0, order):
            # derivatives of exp(sin x) at x0 via series composition:
            # exp of the sin series by the standard product recurrence
            sin_c = [
                math.sin(x0 + k * math.pi / 2) / math.factorial(k)
                for k in range(order + 1)
            ]
            e = [0.0] * (order + 1)
            e[0] = math.exp(sin_c[0])
            for k in range(1, order + 1):
                e[k] = sum(j * sin_c[j] * e[k - j] for j in range(1, k + 1)) / k
            return [e[k] * math.factorial(k) for k in range(order + 1)]

        derivs = taylor_coeffs(t, 12)
        v1 = hfp_reference(g, derivs[:8], 3, t - 2.0, t + 2.0, t, smoothing=4)
        v2 = hfp_reference(g, derivs[:10], 3, t - 2.0, t + 2.0, t, smoothing=6)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_matches_closed_form_for_geometric_case(self):
        eta, t = 0.3, 1.0
        u = PoissonKernelU(eta)
        integ = singular_periodic_integrand(u, m=3, t=t, n_derivs=8)
        ref = hfp_reference(
            integ.g_eval, integ.g_derivs_at_t, 3, integ.a, integ.b, t, smoothing=4
        )
        assert ref == pytest.approx(exact_supersingular(eta, t), abs=1e-8)

    # the remainder is read from its lead term next to t, on four segments
    # about t; "lead" in the ids names that term.  The first two doublings
    # always run; the degree-80 polynomial at m = 1 needs a third
    @pytest.mark.parametrize(
        "m, u, min_passes",
        [pytest.param(m, u, 2, id=f"{m}-{name}-lead") for m in range(1, 6) for name, u in _REF_US]
        + [pytest.param(1, random_trig_polynomial(np.random.default_rng(1), degree=80), 3, id="1-degree80-lead")],
    )
    def test_equals_per_segment_reference(self, monkeypatch, m, u, min_passes):
        integ = singular_periodic_integrand(u, m=m, t=0.8, n_derivs=m + 6)
        calls = []
        g = integ.g_eval

        def counted(x):
            calls.append(x.size)
            return g(x)

        def ref():
            return hfp_reference(counted, integ.g_derivs_at_t, m, integ.a, integ.b, integ.t, smoothing=6)

        value = ref()
        g_calls = len(calls)
        monkeypatch.setattr(oracles, "_panel_integrate", per_segment_panel_integrate)
        calls.clear()
        assert value == ref()
        passes = len(calls) // 4  # one call per segment and panel doubling
        assert len(calls) == 4 * passes and passes >= min_passes
        # one g call for the first two doublings, one per further doubling
        assert g_calls == passes - 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_lead_order_required(self, m):
        # orders 0..m+K-1 are subtracted; the lead term needs order m+K too
        integ = singular_periodic_integrand(_REF_US[0][1], m=m, t=0.8, n_derivs=m + 5)
        calls = []
        counted = lambda x: calls.append(x) or integ.g_eval(x)
        with pytest.raises(DerivativesRequiredError, match=f"through order {m + 6}"):
            hfp_reference(counted, integ.g_derivs_at_t, m, integ.a, integ.b, integ.t, smoothing=6)
        assert calls == []  # the derivative check comes before any g evaluation

    def test_insufficient_derivatives(self):
        with pytest.raises(DerivativesRequiredError):
            hfp_reference(_const_one, [1.0, 0.0], 2, 0.0, 2.0, 1.0, smoothing=4)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "_REF_TOL", 1e-16)
        monkeypatch.setattr(oracles, "_REF_MAX_PANELS", 8)
        g = lambda x: np.exp(np.sin(np.asarray(x, dtype=float)))
        derivs = [1.0] * 8
        with pytest.raises(ReferenceConvergenceError, match="tol=1e-16 with 8 panels"):
            hfp_reference(g, derivs, 3, -1.0, 1.0, 0.0, smoothing=4)


def _nan_near_two(x):
    return np.where(np.abs(x - 2.0) < 0.1, np.nan, np.cos(x))


def _fails(x):
    raise RuntimeError("g failed")


class TestReferenceEvaluationErrors:
    """hfp_reference checks g as the rules do: the first panel pass raises
    EvaluationError naming the node, and a bad derivative raises before g runs."""

    M, A, B, T = 3, -math.pi, math.pi, 0.3
    DERIVS = [1.0] * 8  # orders 0..m+K at the default K = 4

    @pytest.mark.parametrize(
        "g, bad",
        [
            (_nan_near_two, lambda x: abs(x - 2.0) < 0.1),
            (lambda x: np.full_like(x, math.inf), lambda x: True),
            (_fails, None),
        ],
        ids=["nan-near-2", "inf", "raises"],
    )
    def test_bad_g_raises_on_the_first_pass(self, g, bad):
        calls = []

        def counted(x):
            calls.append(x.copy())
            return g(x)

        with pytest.raises(EvaluationError) as info:
            hfp_reference(counted, self.DERIVS, self.M, self.A, self.B, self.T)
        assert len(calls) == 1  # no panel doubling ran
        err = info.value
        if bad is None:
            assert "g failed" in str(err) and err.node_index is None
        else:
            assert err.node_x == float(calls[0][err.node_index])
            assert bad(err.node_x)
            assert not any(bad(x) for x in calls[0][: err.node_index])  # the first bad node
            assert f"(x={err.node_x!r})" in str(err)

    def test_remainder_that_is_not_finite_raises_on_the_first_pass(self):
        # on the period [-1e-300, 1e-300] every far offset's y^2 underflows
        # to 0, so (g - P)/y^2 is 0/0: the reference once warned "invalid
        # value encountered in divide" 10 times and sampled g on 524,032
        # nodes before ReferenceConvergenceError
        calls = []

        def counted(x):
            calls.append(x.copy())
            return np.cos(x)

        message = r"^the reference's remainder term is not finite at node \d+ \(x="
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=message) as info:
                hfp_reference(counted, [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0], 2, -1e-300, 1e-300, 0.0)
        assert len(calls) == 1  # no panel doubling ran
        assert info.value.node_x == float(calls[0][info.value.node_index])

    def test_non_finite_derivative_raises_before_g(self):
        calls = []
        derivs = list(self.DERIVS)
        derivs[2] = math.nan
        with pytest.raises(EvaluationError, match="order 2 at t is not finite"):
            hfp_reference(lambda x: calls.append(x) or np.cos(x), derivs, self.M, self.A, self.B, self.T)
        assert calls == []
