"""Closed-form oracle values and the Taylor-subtraction reference."""

import math

import numpy as np
import pytest

from hfpquad import oracles
from hfpquad.errors import DerivativesRequiredError, ReferenceConvergenceError
from hfpquad.integrands import PoissonKernelU, TrigPolynomial, singular_periodic_integrand
from hfpquad.oracles import (
    GeometricKernelCase,
    exact_supersingular,
    fourier_mode_hfp,
    hfp_power_integral,
    hfp_reference,
    supersingular_series,
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
        closed = exact_supersingular(eta, t)
        series, bound = supersingular_series(eta, t)
        assert abs(closed - series) <= bound + 1e-12 * abs(closed)

    def test_series_cap_raises(self):
        # the tail bound of eta = 0.9999 is ~1e11 when the term cap is hit
        with pytest.raises(ReferenceConvergenceError, match="tail bound"):
            supersingular_series(0.9999, 1.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exact_supersingular(1.0, 1.0)

    def test_case_validation(self):
        with pytest.raises(ValueError):
            GeometricKernelCase(eta=1.5, t=1.0)


class TestFourierMode:
    def test_examples(self):
        assert fourier_mode_hfp(0, 0.3) == 0
        assert fourier_mode_hfp(1, 0.0) == pytest.approx(-4j * math.pi)
        assert fourier_mode_hfp(-2, 0.0) == pytest.approx(16j * math.pi)

    def test_conjugate_symmetry(self):
        t = 0.77
        for m in (1, 2, 5):
            assert fourier_mode_hfp(-m, t) == pytest.approx(
                fourier_mode_hfp(m, t).conjugate()
            )


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


def _const_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def per_segment_panel_integrate(fn, breakpoints, panels_per_seg, order=16):
    """Gauss panels with one fn call per segment: the reference for the
    single call on all segments' nodes."""
    xs, ws = oracles._gauss_nodes(order)
    pieces = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        edges = np.linspace(lo, hi, panels_per_seg + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
        weights = (half[:, None] * ws[None, :]).ravel()
        pieces.append(weights * fn(nodes))
    return math.fsum(np.concatenate(pieces))


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

    # with a derivative beyond the subtracted ones the remainder has its lead
    # term and four segments about t, without it two; without it the
    # cancellation next to t stalls the doubling near 1e-6 at m >= 3
    @pytest.mark.parametrize("lead", [True, False], ids=["lead", "no-lead"])
    @pytest.mark.parametrize(
        "u", [TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4)), PoissonKernelU(0.6)], ids=["trig", "poisson"]
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_per_segment_reference(self, monkeypatch, m, u, lead):
        integ = singular_periodic_integrand(u, m=m, t=0.8, n_derivs=m + 6 if lead else m + 5)
        calls = []
        g = integ.g_eval

        def counted(x):
            calls.append(x.size)
            return g(x)

        def ref():
            return hfp_reference(counted, integ.g_derivs_at_t, m, integ.a, integ.b, integ.t,
                                 smoothing=6, tol=1e-10 if lead else 1e-4)

        value = ref()
        levels = len(calls)  # one g call per panel doubling
        monkeypatch.setattr(oracles, "_panel_integrate", per_segment_panel_integrate)
        calls.clear()
        assert value == ref()
        assert len(calls) == levels * (4 if lead else 2)

    def test_insufficient_derivatives(self):
        with pytest.raises(DerivativesRequiredError):
            hfp_reference(_const_one, [1.0, 0.0], 2, 0.0, 2.0, 1.0, smoothing=4)

    def test_nonconvergence_raises(self):
        g = lambda x: np.exp(np.sin(np.asarray(x, dtype=float)))
        derivs = [1.0] * 8
        with pytest.raises(ReferenceConvergenceError):
            hfp_reference(
                g, derivs, 3, -1.0, 1.0, 0.0, smoothing=4, tol=1e-16, max_panels=8
            )
