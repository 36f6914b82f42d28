"""Collocation systems: weight pattern, cardinal kernel, assembly, solve,
and the manufactured problem."""

import cmath
import dataclasses
import functools
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from hfpquad import ie_solver, quadrature
from hfpquad.errors import (
    DerivativesRequiredError,
    EvaluationError,
    ReferenceConvergenceError,
    SingularSystemError,
)
from hfpquad.ie_solver import (
    _RHS_BLOCK,
    _RHS_N_HIGH,
    _RHS_NORM_INTERVALS,
    CollocationSystem,
    PeriodicKernel,
    _grid_indices,
    _kernel_slice_integrand,
    _residue_weights,
    ak_coefficients,
    build_advanced_system,
    build_simple_system,
    cardinal_derivative_matrix,
    dirichlet_kernel,
    dirichlet_kernel_deriv,
    manufactured_rhs,
    solve_collocation,
    supersingular_cotangent_kernel,
)
from hfpquad.integrands import (
    PoissonKernelU,
    TrigPolynomial,
    numerator_factor,
    numerator_factor_derivs,
    singular_periodic_integrand,
)
from hfpquad.oracles import exact_supersingular, fourier_symbol, hfp_reference
from hfpquad.quadrature import RuleSpec, compact_rule, roundoff_floor, t_hat
from test_quadrature import held_bytes

TWO_PI = 2.0 * math.pi


def constant_kernel(value=1.0, a=-math.pi, b=math.pi):
    diag = (
        (lambda t: value),
        (lambda t: 0.0),
        (lambda t: 0.0),
        (lambda t: 0.0),
    )
    return PeriodicKernel(
        a, b, psi=lambda y: np.full(np.shape(y), value), u_xderivs_diag=diag
    )


def epsilon_weight(i: int, j: int) -> int:
    """The paper's weight pattern of the simple system, in units of T/(4n):
    8 when |i-j-2| is divisible by 4, -2 when |i-j-1| is divisible by 2, 0
    otherwise (the diagonal among them)."""
    if abs(i - j - 2) % 4 == 0:
        return 8
    if abs(i - j - 1) % 2 == 0:
        return -2
    return 0


class TestEpsilonWeights:
    def test_examples(self):
        assert epsilon_weight(5, 3) == 8  # i - j = 2
        assert epsilon_weight(4, 4) == 0  # diagonal
        assert epsilon_weight(4, 3) == -2  # i - j = 1
        assert epsilon_weight(7, 3) == 0  # i - j = 4
        # the (3, 2) rule's families on the residues d = j - i, in units of h/4
        hh = 0.25
        weights = _residue_weights(compact_rule(3, 2), 12, 4 * hh) / hh
        assert [weights[d % 12] for d in (-2, 0, -1, -4)] == [8, 0, -2, 0]

    def test_branch_disjointness_and_row_sums(self):
        n = 5
        N = 4 * n
        for i in range(1, N + 1):
            row = [epsilon_weight(i, j) for j in range(1, N + 1)]
            for j, val in enumerate(row, start=1):
                eight = abs(i - j - 2) % 4 == 0
                minus = abs(i - j - 1) % 2 == 0
                assert not (eight and minus)
                if eight:
                    assert (i - j) % 2 == 0 and val == 8
                elif minus:
                    assert (i - j) % 2 == 1 and val == -2
                else:
                    assert val == 0
            assert sum(row) == 4 * n
            assert row.count(8) == n
            assert row.count(-2) == 2 * n

    def test_pattern_array_matches_scalar_weight(self):
        # the simple system's weights, read from compact_rule(3, 2), are the
        # literal pattern times hhat = h/4, bit for bit
        h = TWO_PI / 64
        weights = _residue_weights(compact_rule(3, 2), 256, h)
        assert weights.shape == (256,)
        assert np.array_equal(weights, [epsilon_weight(0, d) * (h / 4.0) for d in range(256)])


class TestDirichletKernel:
    def test_cardinal_values(self):
        assert dirichlet_kernel(8, 0.0, TWO_PI) == 1.0
        for n in (4, 8, 16):
            xs = np.arange(n) * TWO_PI / n
            mat = dirichlet_kernel(n, xs[:, None] - xs[None, :], TWO_PI)
            np.testing.assert_allclose(mat, np.eye(n), atol=2e-15)

    def test_point_value(self):
        expected = math.cos(math.pi / 8) / math.sin(math.pi / 8) / 4.0
        assert dirichlet_kernel(4, TWO_PI / 8, TWO_PI) == pytest.approx(
            expected, rel=1e-14
        )

    def test_odd_n_rejected(self):
        # n = 2 is the smallest the cardinal kernel takes
        assert dirichlet_kernel(2, 0.0, TWO_PI) == 1.0
        for n in (0, -2, 3, 5, 7):
            message = rf"the cardinal kernel needs even n >= 2 \(got n={n}\)"
            with pytest.raises(ValueError, match=message):
                dirichlet_kernel(n, 0.1, TWO_PI)
            with pytest.raises(ValueError, match=message):
                dirichlet_kernel_deriv(1, n, 0.1, TWO_PI)

    def test_interpolation_property(self):
        rng = np.random.default_rng(11)
        for n in (4, 8, 16):
            xs = np.arange(n) * TWO_PI / n
            v = rng.standard_normal(n)
            recon = dirichlet_kernel(n, xs[:, None] - xs[None, :], TWO_PI) @ v
            np.testing.assert_allclose(recon, v, atol=1e-14)

    def test_derivatives_at_zero(self):
        for n in (4, 8, 12):
            assert dirichlet_kernel_deriv(1, n, 0.0, TWO_PI) == 0.0
            assert dirichlet_kernel_deriv(3, n, 0.0, TWO_PI) == 0.0
            expected = -((math.pi / TWO_PI) ** 2) * (n**2 + 2) / 3.0
            assert dirichlet_kernel_deriv(2, n, 0.0, TWO_PI) == pytest.approx(
                expected, rel=1e-13
            )

    def test_derivative_matches_finite_differences(self):
        # observed order of the central-difference error must be ~2
        n, T = 8, TWO_PI
        y = 0.37
        exact = dirichlet_kernel_deriv(1, n, y, T)
        errs = []
        for step in (1e-3, 5e-4):
            fd = (dirichlet_kernel(n, y + step, T) - dirichlet_kernel(n, y - step, T)) / (
                2 * step
            )
            errs.append(abs(fd - exact))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.9

    def test_periodicity(self):
        n, T = 8, TWO_PI
        ys = np.array([0.3, 1.2, -2.2])
        for k in (1, 2, 3):
            np.testing.assert_allclose(
                dirichlet_kernel_deriv(k, n, ys, T),
                dirichlet_kernel_deriv(k, n, ys + T, T),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_derivative_matrix_differentiates_trig_polys(self):
        # spectrally exact on polynomials below the Nyquist degree
        from hfpquad.integrands import TrigPolynomial

        n, T = 16, TWO_PI
        grid = np.arange(n) * T / n
        u = TrigPolynomial((0.5, 1.0, -0.3, 0.2), (0.7, 0.1, -0.4))
        for k in (1, 2, 3):
            got = cardinal_derivative_matrix(k, n, T) @ u(grid)
            np.testing.assert_allclose(got, u.deriv(k, grid), rtol=1e-11, atol=1e-10)


class TestAkCoefficients:
    def test_constant_numerator(self):
        kern = constant_kernel(1.0)
        a0, a1, a2, a3 = ak_coefficients(kern, 0.3, 0.1)
        assert a0 == 0.0
        assert a1 == pytest.approx(-10.0 * math.pi**2 / 3.0, rel=1e-15)
        assert a2 == 0.0
        assert a3 == pytest.approx(1.0 / 60.0, rel=1e-15)

    def test_ratio_property(self):
        # A_2/A_3 = 3 U_1/U_0 independent of h
        diag = (
            (lambda t: 2.0),
            (lambda t: 0.5),
            (lambda t: -1.0),
            (lambda t: 0.25),
        )
        kern = PeriodicKernel(-math.pi, math.pi, psi=np.ones_like, u_xderivs_diag=diag)
        for h in (0.1, 0.02):
            _, _, a2, a3 = ak_coefficients(kern, 0.0, h)
            assert a2 / a3 == pytest.approx(3.0 * 0.5 / 2.0, rel=1e-14)

    def test_cosine_numerator(self):
        # U(t,x) = cos(x-t): U_0=1, U_1=0, U_2=-1, U_3=0
        diag = (
            (lambda t: 1.0),
            (lambda t: 0.0),
            (lambda t: -1.0),
            (lambda t: 0.0),
        )
        kern = PeriodicKernel(-math.pi, math.pi, psi=np.cos, u_xderivs_diag=diag)
        h = 0.05
        _, a1, _, _ = ak_coefficients(kern, 0.7, h)
        assert a1 == pytest.approx(-math.pi**2 / 3.0 / h - h / 2.0, rel=1e-14)

    def test_missing_derivatives(self):
        kern = PeriodicKernel(-math.pi, math.pi, psi=np.ones_like)
        with pytest.raises(DerivativesRequiredError):
            ak_coefficients(kern, 0.0, 0.1)


class TestSimpleSystem:
    def test_diagonal_is_lambda(self):
        kern = supersingular_cotangent_kernel()
        sys_ = build_simple_system(kern, lambda x: np.zeros_like(x), 2.5, 4)
        np.testing.assert_array_equal(np.diag(sys_.matrix), 2.5 * np.ones(16))

    def test_grid_layout(self):
        kern = supersingular_cotangent_kernel()
        n = 3
        sys_ = build_simple_system(kern, lambda x: np.zeros_like(x), 1.0, n)
        hh = (TWO_PI / n) / 4
        assert len(sys_.grid) == 4 * n
        assert sys_.grid[0] == pytest.approx(kern.a + hh)
        assert sys_.grid[-1] == pytest.approx(kern.b)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_rows_reproduce_rule(self, n):
        # row i applied to samples of a smooth phi equals the derivative-free
        # rule for f(x) = K(x_i, x) phi(x)
        kern = supersingular_cotangent_kernel()
        lam = 1.0
        sys_ = build_simple_system(kern, lambda x: np.zeros_like(x), lam, n)
        phi = PoissonKernelU(0.4)
        samples = np.asarray(phi(sys_.grid))
        quad_rows = (sys_.matrix - lam * np.eye(4 * n)) @ samples
        row_scale = float(np.max(np.abs(quad_rows)))

        for i in (0, 1, 2 * n - 1, 4 * n - 1):
            integrand = _kernel_slice_integrand(kern, phi, float(sys_.grid[i]))
            direct = t_hat(RuleSpec(3, 2, n, path="compact"), integrand)
            # relative to the row scale: some collocation points sit at zero
            # crossings of the transform
            scale = max(abs(direct), abs(quad_rows[i]), row_scale)
            assert abs(quad_rows[i] - direct) <= 1e-13 * scale


class TestAdvancedSystem:
    def test_diagonal_constant_numerator(self):
        kern = constant_kernel(1.0)
        lam = 3.0
        sys_ = build_advanced_system(kern, lambda x: np.zeros_like(x), lam, 8)
        np.testing.assert_allclose(np.diag(sys_.matrix), lam, rtol=1e-12)

    def test_entries_finite(self):
        kern = supersingular_cotangent_kernel()
        sys_ = build_advanced_system(kern, lambda x: np.zeros_like(x), 1.0, 4)
        assert np.all(np.isfinite(sys_.matrix))

    def test_odd_n_rejected(self):
        kern = supersingular_cotangent_kernel()
        for n in (0, -2, 2, 3, 7):
            message = rf"advanced approach needs even n >= 4 \(got n={n}\)"
            with pytest.raises(ValueError, match=message):
                build_advanced_system(kern, lambda x: np.zeros_like(x), 1.0, n)


class TestBuilderN:
    @pytest.mark.parametrize("build", [build_simple_system, build_advanced_system])
    @pytest.mark.parametrize("n", [8.0, 8.5])
    def test_non_integral_n_is_rejected_before_w(self, build, n):
        calls = []
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer (got {n!r})")):
            build(supersingular_cotangent_kernel(), lambda x: calls.append(x) or np.cos(x), 1.0, n)
        assert calls == []

    @pytest.mark.parametrize("build", [build_simple_system, build_advanced_system])
    def test_numpy_integer_n(self, build):
        kern = supersingular_cotangent_kernel()
        expected = build(kern, np.cos, 1.0, 8).matrix
        np.testing.assert_array_equal(build(kern, np.cos, 1.0, np.int64(8)).matrix, expected)


class TestPeriod:
    """A kernel's period [a, b) is finite and non-empty, or the kernel is
    refused before any system is built."""

    MESSAGE = r"^the period \[a, b\) must be finite and non-empty \(got a="

    @pytest.mark.parametrize("build", [build_simple_system, build_advanced_system])
    def test_empty_period_is_rejected(self, build):
        # the simple builder returned the column [1, 0, ..., 0], the
        # advanced one raised ZeroDivisionError
        with pytest.raises(ValueError, match=self.MESSAGE):
            build(supersingular_cotangent_kernel(1.0, 1.0), np.cos, 1.0, 4)

    @pytest.mark.parametrize("build, residues", [(build_simple_system, 32), (build_advanced_system, 8)])
    def test_offset_cube_that_underflows_raises(self, build, residues):
        # the simple builder returned the column [1, nan, nan, nan, 0, ...]
        # after "invalid value encountered in divide"
        message = rf"^the offset power dy\*\*3 underflowed to 0 at residue 1 of {residues} \(dy="
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=message):
                build(supersingular_cotangent_kernel(0.0, 1e-300), np.cos, 1.0, 8)

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_reversed_or_infinite_period_is_rejected(self, a, b):
        # (2, 1) built a system of period -1
        with pytest.raises(ValueError, match=self.MESSAGE):
            PeriodicKernel(a, b, psi=np.ones_like)


class TestBadRhs:
    """Both builders take one finite right-hand side value per grid point."""

    BUILDS = [(build_simple_system, 4), (build_advanced_system, 8)]

    @pytest.mark.parametrize("build, n", BUILDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_names_the_first_point(self, build, n, bad):
        def w(x):
            out = np.cos(x)
            out[[3, 5]] = bad
            return out

        kern = supersingular_cotangent_kernel()
        x3 = float(build(kern, np.cos, 1.0, n).grid[3])
        with pytest.raises(EvaluationError, match=re.escape(f"grid point 3 (x={x3!r})")) as info:
            build(kern, w, 1.0, n)
        assert (info.value.node_index, info.value.node_x) == (3, x3)

    @pytest.mark.parametrize("build, n", BUILDS)
    @pytest.mark.parametrize("w", [lambda x: 1.0, lambda x: np.cos(x)[:-1]], ids=["scalar", "short"])
    def test_wrong_shape_names_both_shapes(self, build, n, w):
        kern = supersingular_cotangent_kernel()
        N = build(kern, np.cos, 1.0, n).grid.size
        shapes = f"rhs evaluator returned shape {np.shape(w(np.zeros(N)))} for grid points of shape {(N,)}"
        with pytest.raises(EvaluationError, match=re.escape(shapes)):
            build(kern, w, 1.0, n)

    @pytest.mark.parametrize("build, n", BUILDS)
    def test_raising_w_is_an_evaluation_error(self, build, n):
        def w(x):
            raise RuntimeError("w failed")

        with pytest.raises(EvaluationError, match="rhs evaluator failed.*w failed") as info:
            build(supersingular_cotangent_kernel(), w, 1.0, n)
        assert isinstance(info.value.__cause__, RuntimeError)


def _raising(*args):
    raise RuntimeError("user code failed")


def _cotangent_with(**functions) -> PeriodicKernel:
    """The cotangent kernel with some of its functions replaced."""
    kern = supersingular_cotangent_kernel()
    declared = {"psi": kern.psi, "u_xderivs_diag": kern.u_xderivs_diag, **functions}
    if "centered" in functions:
        declared["psi"] = None
    return PeriodicKernel(kern.a, kern.b, **declared)


def _advanced_build_with_u(k, fn):
    """The advanced build of the cotangent kernel with U_k replaced by fn."""
    diag = list(supersingular_cotangent_kernel().u_xderivs_diag)
    diag[k] = fn
    return build_advanced_system(_cotangent_with(u_xderivs_diag=tuple(diag)), np.cos, 1.0, 8)


#: 64 points forming one period, so a psi kernel's rhs takes the grid path
_GRID = -math.pi + np.arange(1, 65) * (TWO_PI / 64)
_POINTS = np.array([0.5, 1.0])

#: (name the error gives, where the collocation code calls it) -> a run with fn in its place
USER_FUNCTIONS = {
    ("phi", "grid rhs"): lambda fn: manufactured_rhs(supersingular_cotangent_kernel(), fn, 1.0)(_GRID),
    ("phi", "batched rhs"): lambda fn: manufactured_rhs(supersingular_cotangent_kernel(), fn, 1.0)(_POINTS),
    ("psi", "simple build"): lambda fn: build_simple_system(_cotangent_with(psi=fn), np.cos, 1.0, 4),
    ("psi", "advanced build"): lambda fn: build_advanced_system(_cotangent_with(psi=fn), np.cos, 1.0, 8),
    ("psi", "grid rhs"): lambda fn: manufactured_rhs(_cotangent_with(psi=fn), np.cos, 1.0)(_GRID),
    ("centered", "simple build"): lambda fn: build_simple_system(_cotangent_with(centered=fn), np.cos, 1.0, 4),
    ("centered", "batched rhs"): lambda fn: manufactured_rhs(_cotangent_with(centered=fn), np.cos, 1.0)(_POINTS),
    **{(f"U_{k}", "advanced build"): functools.partial(_advanced_build_with_u, k) for k in range(4)},
}

BAD_FUNCTIONS = {"raises": _raising, "scalar": lambda *args: 1.0, "three values": lambda *args: np.ones(3)}


class TestUserFunctionErrors:
    """Every user function the collocation code calls goes through one checked
    call: one that raises, or returns another shape than its input's, gives
    EvaluationError naming it, chained to what it raised.  A U_k returns one
    value, so a scalar is its right shape."""

    @pytest.mark.parametrize(
        "function, site, kind",
        [
            (*key, kind)
            for key in USER_FUNCTIONS
            for kind in BAD_FUNCTIONS
            if not (key[0].startswith("U_") and kind == "scalar")
        ],
    )
    def test_failure_names_the_function(self, function, site, kind):
        with pytest.raises(EvaluationError, match=rf"^{function} (failed|returned shape)") as info:
            USER_FUNCTIONS[function, site](BAD_FUNCTIONS[kind])
        assert isinstance(info.value.__cause__, RuntimeError) == (kind == "raises")


class TestNonFiniteLambda:
    """A non-finite lam is an input error, raised before phi or w is evaluated."""

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_manufactured_rhs(self, lam):
        calls = []
        kern = supersingular_cotangent_kernel()
        with pytest.raises(ValueError, match="lambda must be finite"):
            manufactured_rhs(kern, lambda x: calls.append(x) or np.cos(x), lam)
        assert calls == []

    @pytest.mark.parametrize("build, n", TestBadRhs.BUILDS)
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_builders(self, build, n, lam):
        calls = []
        kern = supersingular_cotangent_kernel()
        with pytest.raises(ValueError, match="lambda must be finite"):
            build(kern, lambda x: calls.append(x) or np.cos(x), lam, n)
        assert calls == []


class TestSolve:
    def test_identity_system(self):
        # K = 0: solution is w at the nodes, up to the FFT's rounding (the
        # identity is circulant)
        kern = constant_kernel(0.0)
        w = lambda x: np.cos(np.asarray(x, float))
        sys_ = build_simple_system(kern, w, 1.0, 4)
        sol = solve_collocation(sys_)
        assert sol.structure == "circulant"
        np.testing.assert_allclose(sol.values, w(sys_.grid), rtol=0.0, atol=1e-15)
        assert sol.residual <= 1e-15

    def test_singular_matrix_raises(self):
        # the zero matrix is circulant with every eigenvalue 0
        kern = constant_kernel(0.0)
        sys_ = build_simple_system(kern, lambda x: np.ones_like(x), 0.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError) as info:
                solve_collocation(sys_)
        assert info.value.condition == math.inf

    def test_residual_small_for_well_conditioned(self):
        kern = supersingular_cotangent_kernel()
        w = lambda x: np.cos(np.asarray(x, float))
        sys_ = build_simple_system(kern, w, 1.0, 8)
        sol = solve_collocation(sys_)
        assert sol.residual <= 1e-10 * np.max(np.abs(sys_.rhs))


class TestManufactured:
    def test_zero_solution(self):
        kern = supersingular_cotangent_kernel()
        w = manufactured_rhs(kern, lambda x: np.zeros_like(np.asarray(x, float)), 1.0)
        assert w(0.7) == pytest.approx(0.0, abs=1e-12)

    def test_zero_kernel(self):
        kern = constant_kernel(0.0)
        phi = PoissonKernelU(0.3)
        w = manufactured_rhs(kern, phi, 1.0)
        ts = np.array([0.1, 1.4, -2.0])
        np.testing.assert_allclose(w(ts), phi(ts), rtol=1e-12)

    def test_matches_fourier_mode_oracle(self):
        # w(t) - lam phi(t) equals the mode-wise transform of phi's series
        eta, lam = 0.3, 1.0
        kern = supersingular_cotangent_kernel()
        phi = PoissonKernelU(eta)
        w = manufactured_rhs(kern, phi, lam)
        for t in (0.25, 1.0, 2.9):
            modewise = sum(
                (eta**k / 2.0)
                * (fourier_symbol(3, k) * cmath.exp(1j * k * t) + fourier_symbol(3, -k) * cmath.exp(-1j * k * t)).real
                for k in range(1, 120)
            )
            assert w(t) - lam * float(phi(t)) == pytest.approx(modewise, abs=1e-9)
            assert modewise == pytest.approx(exact_supersingular(eta, t), abs=1e-12)

    # w(t) = lam phi(t) + exact_supersingular(eta, t) in closed form.  At
    # _RHS_N_HIGH = 96 the rule's rounding, which grows like n_high^2, leaves
    # 2-3e-10, up to 31 times tol; an n_high chosen by doubling from a small
    # start is the fix
    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="rhs rounding at n_high = 96 exceeds tol"
    )
    @pytest.mark.parametrize("eta", [0.1, 0.4])
    @pytest.mark.parametrize("n", [16, 256])
    def test_matches_closed_form_at_tol(self, eta, n):
        lam, tol = 1.2, 1e-11
        kern = supersingular_cotangent_kernel()
        phi = PoissonKernelU(eta)
        grid = build_simple_system(kern, np.zeros_like, lam, n).grid
        got = manufactured_rhs(kern, phi, lam)(grid)
        want = lam * phi(grid) + np.array([exact_supersingular(eta, float(t)) for t in grid])
        assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))

    def test_simple_solution_converges(self):
        eta, lam = 0.3, 1.0
        kern = supersingular_cotangent_kernel()
        phi = PoissonKernelU(eta)
        w = manufactured_rhs(kern, phi, lam)
        errs = []
        for n in (4, 8, 16):
            sys_ = build_simple_system(kern, w, lam, n)
            sol = solve_collocation(sys_)
            errs.append(float(np.max(np.abs(sol.values - phi(sys_.grid)))))
        assert errs[0] > 10 * errs[1] > 100 * errs[2]

    def test_simple_and_advanced_agree(self):
        eta, lam = 0.3, 1.0
        kern = supersingular_cotangent_kernel()
        phi = PoissonKernelU(eta)
        w = manufactured_rhs(kern, phi, lam)
        simple = solve_collocation(build_simple_system(kern, w, lam, 8))
        advanced = solve_collocation(build_advanced_system(kern, w, lam, 16))
        simple_grid = build_simple_system(kern, w, lam, 8).grid
        adv_grid = build_advanced_system(kern, w, lam, 16).grid
        # advanced node j>0 coincides with simple node 2j; adv node 0 with
        # simple node 32 (one period up)
        err_s = float(np.max(np.abs(simple.values - phi(simple_grid))))
        err_a = float(np.max(np.abs(advanced.values - phi(adv_grid))))
        for j in range(1, 16):
            diff = abs(advanced.values[j] - simple.values[2 * j - 1])
            assert diff <= 2.0 * max(err_s, err_a) + 1e-12


def t_dependent_kernel():
    """K(t,x) = (1.5 + sin t) cos(y/2)/sin^3(y/2), y = x - t, declared by
    its centered numerator (1.5 + sin t) psi_3(y).

    The diagonal derivatives are (1.5 + sin t) psi_3^(k)(0), and the finite
    part of K(t,.) times PoissonKernelU(eta) is (1.5 + sin t) times
    exact_supersingular(eta, t).
    """

    def centered(t, y):
        return (1.5 + np.sin(t)) * numerator_factor(3, y, TWO_PI)

    psi0 = numerator_factor_derivs(3, 3, TWO_PI)
    diag = tuple((lambda v: (lambda t: (1.5 + math.sin(t)) * v))(v) for v in psi0)
    return PeriodicKernel(-math.pi, math.pi, centered=centered, u_xderivs_diag=diag)


def noise_allowance(kernel, phi, ts):
    """The rhs's noise allowance per point, 50 roundoff_floor(||g||, 0, 0,
    T, 8 _RHS_N_HIGH), with ||g|| the largest |g| of the point's kernel
    slice over _RHS_NORM_INTERVALS + 1 equispaced offsets."""
    T = kernel.period
    g = _kernel_slice_integrand(kernel, phi, np.asarray(ts, float)).g_eval(
        np.linspace(-T / 2.0, T / 2.0, _RHS_NORM_INTERVALS + 1)
    )
    g_norm = np.max(np.abs(g), axis=-1)
    return np.array([50.0 * roundoff_floor(v, 0.0, 0.0, T, 8 * _RHS_N_HIGH) for v in g_norm])


def per_point_rhs(kernel, phi, lam, ts):
    """lam phi(t) + the fine rule on t's own kernel slice, point by point."""
    spec = RuleSpec(3, 2, 2 * _RHS_N_HIGH, path="compact")
    return [
        lam * phi(float(t)) + t_hat(spec, _kernel_slice_integrand(kernel, phi, float(t)))
        for t in ts
    ]


def gated_cotangent_kernel(t_on):
    """The cotangent kernel for t >= t_on and zero below, so a slice's rule
    value is exactly 0 (and its doubling check passes) for t < t_on."""

    def centered(t, y):
        return np.where(np.asarray(t) >= t_on, numerator_factor(3, y, TWO_PI), 0.0)

    return PeriodicKernel(-math.pi, math.pi, centered=centered)


class TestBatchedRhs:
    def test_shape_follows_input(self):
        kern = supersingular_cotangent_kernel()
        w = manufactured_rhs(kern, PoissonKernelU(0.3), 1.0)
        ts = np.array([[0.1, 1.4, -2.0], [0.5, 2.5, -0.3]])
        got = w(ts)
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got, w(ts.ravel()).reshape(2, 3))

    def test_zero_dimensional_gives_float(self):
        kern = supersingular_cotangent_kernel()
        w = manufactured_rhs(kern, PoissonKernelU(0.3), 1.0)
        for t in (0.7, np.float64(0.7), np.array(0.7)):
            got = w(t)
            assert type(got) is float
            assert got == w(np.array([0.7]))[0]

    def test_empty_gives_empty(self):
        kern = supersingular_cotangent_kernel()
        w = manufactured_rhs(kern, PoissonKernelU(0.3), 1.0)
        assert w(np.array([])).shape == (0,)
        assert w(np.empty((0, 3))).shape == (0, 3)

    def test_doubling_check_names_first_failing_point(self):
        # rows before index 100 have a zero kernel; the failure sits in the
        # second block and every later row fails as well
        ts = np.linspace(-3.0, 3.0, 3 * _RHS_BLOCK)
        kern = gated_cotangent_kernel(ts[100])
        w = manufactured_rhs(kern, PoissonKernelU(0.97), 1.0)
        np.testing.assert_array_equal(w(ts[:100]), PoissonKernelU(0.97)(ts[:100]))
        with pytest.raises(ReferenceConvergenceError, match=re.escape(f"t={float(ts[100])!r}:")):
            w(ts)

    def test_non_finite_phi_raises(self):
        poisson = PoissonKernelU(0.3)

        def phi(x):
            x = np.asarray(x, float)
            return np.where(np.abs(x - 1.0) < 0.05, np.nan, poisson(x))

        w = manufactured_rhs(supersingular_cotangent_kernel(), phi, 1.0)
        ts = np.linspace(-3.0, 3.0, 2 * _RHS_BLOCK)
        with pytest.raises(EvaluationError, match="non-finite"):
            w(ts)

    def test_non_finite_norm_sample_raises(self):
        # the naive centered form is 0 * inf at y = 0, a norm sample offset
        # that no rule node hits; a NaN noise bound must not pass the
        # doubling check
        def centered(t, y):
            return y**3 * np.cos(y / 2.0) / (8.0 * np.sin(y / 2.0) ** 3)

        kern = PeriodicKernel(-math.pi, math.pi, centered=centered)
        w = manufactured_rhs(kern, PoissonKernelU(0.3), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError, match=re.escape(f"t={0.5!r} is not finite")) as info:
                w(np.array([0.5, math.pi]))
        assert (info.value.node_index, info.value.node_x) == (0, 0.5)

    @pytest.mark.parametrize("t", [547.6843192758206, 10000.3, -3000.7])
    def test_points_many_periods_out(self, t):
        # t is reduced into [a, b) before the nodes t + y are formed
        lam, tol = 1.0, 1e-11
        kern, phi = supersingular_cotangent_kernel(), PoissonKernelU(0.3)
        got = manufactured_rhs(kern, phi, lam)(t)
        want = lam * phi(t) + exact_supersingular(0.3, t)
        assert abs(got - want) <= tol * (1.0 + abs(want)) + noise_allowance(kern, phi, [t])[0]

    def test_slice_g_takes_1d_offsets(self, monkeypatch):
        # the rows of a batch share their offsets: g sees them once, 1-D,
        # and returns one row per point
        shapes = []
        real = ie_solver.t_hat

        def t_hat(spec, integrand):
            g = integrand.g_eval

            def recording(y):
                vals = g(y)
                shapes.append((np.shape(y), vals.shape))
                return vals

            return real(spec, dataclasses.replace(integrand, g_eval=recording))

        monkeypatch.setattr(ie_solver, "t_hat", t_hat)
        w = manufactured_rhs(supersingular_cotangent_kernel(), PoissonKernelU(0.3), 1.0)
        w(np.linspace(-3.0, 3.0, 5))
        assert shapes
        for y_shape, g_shape in shapes:
            assert len(y_shape) == 1
            assert g_shape == (5,) + y_shape


def builder_grid(approach, n):
    """The collocation grid of the simple (4n points) or advanced (n) builder."""
    build = build_simple_system if approach == "simple" else build_advanced_system
    return build(supersingular_cotangent_kernel(), np.zeros_like, 1.0, n).grid


class TestGridRhs:
    """A psi kernel's rhs on one period of a uniform grid: one FFT
    convolution per rule, anchored to the batched rule at the first point."""

    @pytest.mark.parametrize("eta", [0.1, 0.4])
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("approach", ["simple", "advanced"])
    def test_matches_closed_form(self, approach, n, eta):
        lam, tol = 1.2, 1e-11
        kern, phi = supersingular_cotangent_kernel(), PoissonKernelU(eta)
        grid = builder_grid(approach, n)
        got = manufactured_rhs(kern, phi, lam)(grid)
        want = lam * phi(grid) + np.array([exact_supersingular(eta, float(t)) for t in grid])
        bound = tol * (1.0 + np.abs(got)) + noise_allowance(kern, phi, grid)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("approach, n", [("simple", 16), ("simple", 256), ("advanced", 64)])
    def test_matches_batched_rule(self, approach, n):
        # an (N, 1) array takes the batched rule
        kern, phi = supersingular_cotangent_kernel(), PoissonKernelU(0.4)
        grid = builder_grid(approach, n)
        w = manufactured_rhs(kern, phi, 1.2)
        got, batched = w(grid), w(grid[:, None])[:, 0]
        assert np.all(np.abs(got - batched) <= noise_allowance(kern, phi, grid))

    @pytest.mark.parametrize("pick", ["shuffled", "partial", "scalar"])
    def test_other_inputs_take_the_per_point_rule(self, pick):
        kern, phi, lam = supersingular_cotangent_kernel(), PoissonKernelU(0.3), 1.2
        grid = builder_grid("simple", 16)
        ts = {
            "shuffled": np.random.default_rng(0).permutation(grid),
            "partial": grid[:40],
            "scalar": float(grid[5]),
        }[pick]
        got = np.atleast_1d(manufactured_rhs(kern, phi, lam)(ts))
        assert list(got) == per_point_rhs(kern, phi, lam, np.atleast_1d(ts))

    def test_lattice_above_the_cap_takes_the_per_point_rule(self, monkeypatch):
        monkeypatch.setattr(ie_solver, "_RHS_LATTICE_MAX", 512)  # n = 4 needs 768
        kern, phi, lam = supersingular_cotangent_kernel(), PoissonKernelU(0.3), 1.2
        grid = builder_grid("simple", 4)
        assert list(manufactured_rhs(kern, phi, lam)(grid)) == per_point_rhs(kern, phi, lam, grid)

    def test_drifting_rule_fails_on_a_grid(self, monkeypatch):
        # as hfpbench's ie-solve control: the rule disagrees between n_high
        # and 2 n_high, and the anchor's doubling check sees it
        real = ie_solver.t_hat

        def drifting(spec, integrand):
            return real(spec, integrand) + 1e-6 * spec.n

        monkeypatch.setattr(ie_solver, "t_hat", drifting)
        w = manufactured_rhs(supersingular_cotangent_kernel(), PoissonKernelU(0.3), 1.0)
        with pytest.raises(ReferenceConvergenceError, match="doubling check"):
            w(builder_grid("simple", 4))

    def test_anchor_catches_a_lattice_shift_common_to_both_rules(self, monkeypatch):
        # both rules one lattice point off: the doubling check passes
        real = ie_solver._rule_on_lattice
        monkeypatch.setattr(ie_solver, "_rule_on_lattice", lambda *args: np.roll(real(*args), 1))
        grid = builder_grid("simple", 16)
        w = manufactured_rhs(supersingular_cotangent_kernel(), PoissonKernelU(0.3), 1.0)
        with pytest.raises(
            ReferenceConvergenceError, match=re.escape(f"per-point rule at t={float(grid[0])!r}:")
        ):
            w(grid)

    def test_non_finite_phi_on_the_lattice_raises(self):
        poisson = PoissonKernelU(0.3)

        def phi(x):
            x = np.asarray(x, float)
            return np.where(np.abs(x - 1.0) < 0.05, np.nan, poisson(x))

        kern = supersingular_cotangent_kernel()
        w = manufactured_rhs(kern, phi, 1.0)
        grid = builder_grid("advanced", 16)
        with pytest.raises(EvaluationError, match="not finite at lattice point") as info:
            w(grid)
        # the error names the first lattice point within 0.05 of x = 1
        L = math.lcm(grid.size, 8 * _RHS_N_HIGH, _RHS_NORM_INTERVALS)
        x = kern.a + np.arange(L) * (kern.period / L)
        i = int(np.flatnonzero(np.abs(x - 1.0) < 0.05)[0])
        assert (info.value.node_index, info.value.node_x) == (i, float(x[i]))
        assert f"x={float(x[i])!r}" in str(info.value)

    def test_grid_detection(self):
        kern = supersingular_cotangent_kernel()
        a, T = kern.a, kern.period
        for approach, n in (("simple", 4), ("simple", 256), ("advanced", 16)):
            grid = builder_grid(approach, n)
            k = _grid_indices(grid, a, T)
            assert np.array_equal(k, k[0] + np.arange(grid.size))
        grid = builder_grid("advanced", 16)
        assert _grid_indices(grid + T, a, T) is not None  # a later period
        assert _grid_indices(grid + 1e-9, a, T) is None  # off the grid
        assert _grid_indices(grid[::-1], a, T) is None
        assert _grid_indices(grid[:8], a, T) is None  # half a period
        assert _grid_indices(grid[:1], a, T) is None
        assert _grid_indices(np.array([np.nan, 0.0]), a, T) is None

    def test_grid_many_periods_out(self):
        # the anchor goes through the batched rule at the grid's first point,
        # here t = 547.72, 87.7 periods out
        lam, tol, eta = 1.2, 1e-11, 0.3
        kern, phi = supersingular_cotangent_kernel(), PoissonKernelU(eta)
        grid = kern.a + (87 * 64 + 43 + np.arange(64)) * (kern.period / 64)
        assert _grid_indices(grid, kern.a, kern.period) is not None
        got = manufactured_rhs(kern, phi, lam)(grid)
        want = lam * phi(grid) + np.array([exact_supersingular(eta, float(t)) for t in grid])
        bound = tol * (1.0 + np.abs(got)) + noise_allowance(kern, phi, grid)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("N", [16, 64, 1024, 40])
    def test_norm_sample_equals_the_modulo_gather(self, N):
        # the gather the grid path used before |psi phi| = |psi| |phi| and
        # the strided view, kept as the reference; L = 768, 768, 3072, 3840
        L = math.lcm(N, 8 * 96, 256)
        rng = np.random.default_rng(N)
        samples = rng.standard_normal(L)
        ys = np.linspace(-math.pi, math.pi, 257)
        psi_ys = rng.standard_normal(257) * numerator_factor(3, ys, TWO_PI)
        assert (samples < 0).any() and (samples > 0).any() and (psi_ys < 0).any()
        offsets = np.arange(257) * (L // 256) - L // 2
        rows = (np.arange(N)[:, None] * (L // N) + offsets) % L
        want = np.max(np.abs(psi_ys * samples[rows]), axis=-1)
        got = ie_solver._lattice_norms(psi_ys, samples, N)
        assert L == {16: 768, 64: 768, 1024: 3072, 40: 3840}[N]
        assert np.array_equal(got, want)


class TestPsiTable:
    """A psi kernel's values are evaluated once per kernel and offsets."""

    def counting_kernel(self, calls):
        kern = supersingular_cotangent_kernel()

        def psi(y):
            calls.append(np.shape(y))
            return numerator_factor(3, y, kern.period)

        return PeriodicKernel(kern.a, kern.b, psi=psi, u_xderivs_diag=kern.u_xderivs_diag)

    @pytest.mark.parametrize("approach, n", [("simple", 16), ("simple", 256), ("advanced", 64)])
    def test_second_solve_calls_psi_zero_times(self, approach, n):
        calls = []
        kern, phi, lam = self.counting_kernel(calls), PoissonKernelU(0.3), 1.2
        build = build_simple_system if approach == "simple" else build_advanced_system
        values = []
        for _ in range(2):
            calls.clear()
            system = build(kern, manufactured_rhs(kern, phi, lam), lam, n)
            values.append(solve_collocation(system).values)
        assert calls == []
        assert np.array_equal(values[0], values[1])

    def test_batched_rhs_reads_the_table(self):
        calls = []
        kern, phi = self.counting_kernel(calls), PoissonKernelU(0.3)
        ts = np.array([0.3, -1.2, 2.9])
        first = manufactured_rhs(kern, phi, 1.0)(ts)
        calls.clear()
        assert np.array_equal(manufactured_rhs(kern, phi, 1.0)(ts[::-1]), first[::-1])
        assert calls == []

    @pytest.mark.parametrize(
        "y", [0.3, np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 12).reshape(3, 4)]
    )
    def test_values_equal_psi_and_are_read_only(self, y):
        kern = supersingular_cotangent_kernel()
        got = kern.numerator_centered(None, y)
        want = np.asarray(numerator_factor(3, y, kern.period), dtype=float)
        assert got.shape == want.shape == np.shape(y)
        assert np.array_equal(got, want)
        assert got is kern.numerator_centered(None, np.array(y))  # one entry per shape and bytes
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0.0

    def test_one_cotangent_kernel_per_ends(self):
        assert supersingular_cotangent_kernel() is supersingular_cotangent_kernel()
        assert supersingular_cotangent_kernel() is supersingular_cotangent_kernel(-math.pi, math.pi)
        assert supersingular_cotangent_kernel(0, 1) is supersingular_cotangent_kernel(0.0, 1.0)
        assert supersingular_cotangent_kernel(0.0, 1.0) is not supersingular_cotangent_kernel()

    def test_table_holds_at_most_its_cap(self, monkeypatch):
        # an entry holds its key's offset bytes and psi's values, 16 bytes
        # per offset; one above the store's bound is returned but not kept
        bound = 2**14
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", bound)
        kern = supersingular_cotangent_kernel()
        for size in range(1, 1100, 13):
            y = np.linspace(-1.0, 1.0, size)
            assert np.array_equal(kern.numerator_centered(None, y), numerator_factor(3, y, kern.period))
            key = (quadrature._psi_table.__wrapped__, kern.psi, ie_solver._frombuffer, y.shape, y.tobytes())
            kept = key in quadrature._TABLES
            assert kept == (16 * size <= bound)
            assert 0 < held_bytes() <= bound


def fresh_rule_on_lattice(kernel, n_rule, spectrum, L):
    """The rule on the lattice with its column built and transformed afresh."""
    column = np.zeros(L)
    column[:: L // (4 * n_rule)] = ie_solver._assemble(kernel, None, compact_rule(3, 2), n_rule, 0.0)["column"]
    return np.fft.irfft(np.fft.rfft(column) * spectrum, L)


class TestLatticeSpectrum:
    """A rule's lattice spectrum is built once per kernel, n_rule and L."""

    @pytest.mark.parametrize("L", [768, 3072, 3840])
    @pytest.mark.parametrize("n_rule", [_RHS_N_HIGH, 2 * _RHS_N_HIGH])
    def test_rule_equals_fresh_column(self, n_rule, L):
        kern = supersingular_cotangent_kernel()
        x = kern.a + np.arange(L) * (kern.period / L)
        spectrum = np.fft.rfft(PoissonKernelU(0.3)(x))
        want = fresh_rule_on_lattice(kern, n_rule, spectrum, L)
        for _ in range(2):  # built, then read from the table
            assert np.array_equal(ie_solver._rule_on_lattice(kern, n_rule, spectrum, L), want)

    @pytest.mark.parametrize("approach, n", [("simple", 16), ("simple", 256), ("advanced", 64)])
    def test_second_grid_rhs_assembles_nothing(self, monkeypatch, approach, n):
        kern, grid = supersingular_cotangent_kernel(), builder_grid(approach, n)
        manufactured_rhs(kern, PoissonKernelU(0.3), 1.2)(grid)
        calls = []
        real = ie_solver._assemble
        monkeypatch.setattr(ie_solver, "_assemble", lambda *args: calls.append(args) or real(*args))
        manufactured_rhs(kern, PoissonKernelU(0.2), 0.7)(grid)
        assert calls == []

    def test_spectrum_is_read_only(self):
        spectrum = ie_solver._lattice_spectrum(supersingular_cotangent_kernel(), _RHS_N_HIGH, 768)
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = 0.0

    def test_table_holds_at_most_its_cap(self, monkeypatch):
        # a spectrum on L points holds (L/2 + 1) * 16 bytes; from L = 8,448
        # on it is above the store's bound, returned but not kept
        bound = 2**16
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", bound)
        kern = supersingular_cotangent_kernel()
        for L in range(768, 768 * 18, 768):
            spectrum = ie_solver._lattice_spectrum(kern, _RHS_N_HIGH, L)
            assert spectrum.size == L // 2 + 1 and not spectrum.flags.writeable
            kept = (ie_solver._lattice_spectrum.__wrapped__, kern, _RHS_N_HIGH, L) in quadrature._TABLES
            assert kept == (L < 8448)
            assert 0 < held_bytes() <= bound


# ---------------------------------------------------------------------------
# assembly against an entry-by-entry reference, and the condition paths
# ---------------------------------------------------------------------------


def cotangent_kernel_by_centered():
    """The cotangent kernel declared without psi, by a t-independent
    ``centered``: its systems are assembled and solved as dense."""
    base = supersingular_cotangent_kernel()
    return PeriodicKernel(
        base.a,
        base.b,
        centered=lambda t, y: numerator_factor(3, y, TWO_PI),
        u_xderivs_diag=base.u_xderivs_diag,
    )


ORACLE_KERNELS = {
    "cotangent": supersingular_cotangent_kernel,
    "cotangent_by_centered": cotangent_kernel_by_centered,
    "t_dependent": t_dependent_kernel,
}


def reference_simple_matrix(kernel, lam, n):
    """The simple system's matrix from epsilon_weight(i, j) and the centered
    integer offset of each entry (i, j); one kernel call per row."""
    N = 4 * n
    hh = (kernel.period / n) / 4.0
    grid = kernel.a + np.arange(1, N + 1, dtype=np.int64) * hh
    ref = np.zeros((N, N))
    for i in range(N):
        cols = [j for j in range(N) if epsilon_weight(i + 1, j + 1) != 0]
        eps = np.array([epsilon_weight(i + 1, j + 1) for j in cols])
        dy = np.array([(j - i + 2 * n) % N - 2 * n for j in cols]) * hh
        num = kernel.numerator_centered(np.full(dy.shape, grid[i]), dy)
        ref[i, cols] = eps * hh * (num / dy**3)
        ref[i, i] = lam
    return ref


def reference_advanced_matrix(kernel, lam, n):
    """The advanced system's matrix: h K off the diagonal from each entry's
    centered integer offset, lam + A_0 on it, then the A_k D_n^(k) terms."""
    T = kernel.period
    h = T / n
    grid = kernel.a + np.arange(n, dtype=np.int64) * h
    amat = np.array([ak_coefficients(kernel, float(t), h) for t in grid])
    ref = np.zeros((n, n))
    for i in range(n):
        cols = [j for j in range(n) if j != i]
        dy = np.array([(j - i + n // 2) % n - n // 2 for j in cols]) * h
        num = kernel.numerator_centered(np.full(dy.shape, grid[i]), dy)
        ref[i, cols] = h * (num / dy**3)
        ref[i, i] = lam + amat[i, 0]
    for k in (1, 2, 3):
        ref += amat[:, k][:, None] * cardinal_derivative_matrix(k, n, T)
    return ref


class TestCirculantLayout:
    # the one layout of every collocation matrix: entry (i, j) =
    # rows[i, (i - j) mod N], a 1-D rows standing for N equal rows
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("n_rows", [1, "N"])
    def test_equals_the_index_formula(self, N, n_rows):
        rows = np.random.default_rng(N).standard_normal(N if n_rows == 1 else (N, N))
        table = np.broadcast_to(rows, (N, N)).copy()
        got = ie_solver._circulant(rows)
        want = np.array([[table[i, (i - j) % N] for j in range(N)] for i in range(N)])
        assert np.array_equal(got, want)
        got[...] = 0.0  # a fresh array: writing to it leaves rows as they were
        assert np.array_equal(np.broadcast_to(rows, (N, N)), table)


class TestAssemblyOracle:
    # bit for bit: the builders evaluate the same entries on a residue layout
    @pytest.mark.parametrize("kernel_name", sorted(ORACLE_KERNELS))
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_simple_matches_reference(self, kernel_name, n):
        kern = ORACLE_KERNELS[kernel_name]()
        with np.errstate(divide="ignore", invalid="ignore"):
            got = build_simple_system(kern, lambda x: np.zeros_like(x), 1.3, n).matrix
            want = reference_simple_matrix(kern, 1.3, n)
        assert np.all(np.isfinite(want))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel_name", sorted(ORACLE_KERNELS))
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_advanced_matches_reference(self, kernel_name, n):
        kern = ORACLE_KERNELS[kernel_name]()
        got = build_advanced_system(kern, lambda x: np.zeros_like(x), 0.7, n).matrix
        want = reference_advanced_matrix(kern, 0.7, n)
        assert np.all(np.isfinite(want))
        assert np.array_equal(got, want)

    # A_2 of these kernels is identically zero: its D^(2) term is skipped,
    # which leaves the matrix == (up to the sign of zero)
    @pytest.mark.parametrize("kernel_name", ["cotangent_by_centered", "t_dependent"])
    def test_dense_skips_zero_ak_column(self, monkeypatch, kernel_name):
        orders = []
        real = ie_solver._cardinal_row

        def counted(k, n, period):
            orders.append(k)
            return real(k, n, period)

        monkeypatch.setattr(ie_solver, "_cardinal_row", counted)
        kern = ORACLE_KERNELS[kernel_name]()
        got = build_advanced_system(kern, lambda x: np.zeros_like(x), 0.7, 16).matrix
        assert orders == [1, 3]
        assert np.array_equal(got, reference_advanced_matrix(kern, 0.7, 16))


class TestConditionPaths:
    @pytest.mark.parametrize(
        "build, n",
        [
            (build_simple_system, 2),
            (build_simple_system, 16),
            (build_simple_system, 64),
            (build_advanced_system, 4),
            (build_advanced_system, 64),
            (build_advanced_system, 256),
        ],
    )
    def test_circulant_condition_equals_svd(self, build, n):
        sys_ = build(supersingular_cotangent_kernel(), np.cos, 1.0, n)
        sol = solve_collocation(sys_)
        assert sol.structure == "circulant"
        assert sol.condition == pytest.approx(np.linalg.cond(sys_.matrix), rel=1e-9)

    def test_one_ulp_off_is_dense(self):
        sys_ = build_simple_system(supersingular_cotangent_kernel(), np.cos, 1.0, 4)
        assert solve_collocation(sys_).structure == "circulant"
        matrix = sys_.matrix.copy()
        matrix[3, 5] = np.nextafter(matrix[3, 5], np.inf)
        dense = CollocationSystem(
            grid=sys_.grid, matrix=matrix, rhs=sys_.rhs
        )
        sol = solve_collocation(dense)
        assert sol.structure == "dense"
        assert sol.condition == float(np.linalg.cond(matrix))

    @pytest.mark.parametrize("kernel_name", ["t_dependent"])
    def test_kernel_not_depending_on_x_minus_t_is_dense(self, kernel_name):
        sys_ = build_simple_system(ORACLE_KERNELS[kernel_name](), np.cos, 1.0, 4)
        assert solve_collocation(sys_).structure == "dense"

    @pytest.mark.parametrize("where", [(0, 0), (3, 5)])
    def test_nan_entry_raises(self, where):
        matrix = np.eye(8)
        matrix[where] = np.nan
        system = CollocationSystem(
            grid=np.arange(8.0), matrix=matrix, rhs=np.ones(8)
        )
        with pytest.raises(SingularSystemError, match="non-finite"):
            solve_collocation(system)


def column_system(column):
    N = len(column)
    return CollocationSystem(
        grid=np.arange(float(N)), column=np.asarray(column, float), rhs=np.ones(N),
    )


class TestCirculantSolve:
    @pytest.mark.parametrize(
        "build, n",
        [
            (build_simple_system, 2),
            (build_simple_system, 16),
            (build_simple_system, 64),
            (build_simple_system, 256),
            (build_advanced_system, 4),
            (build_advanced_system, 64),
            (build_advanced_system, 256),
        ],
    )
    def test_fft_solve_matches_dense_solve(self, build, n):
        sys_ = build(supersingular_cotangent_kernel(), np.cos, 1.2, n)
        assert sys_.column is not None
        sol = solve_collocation(sys_)
        assert sol.structure == "circulant"
        want = np.linalg.solve(sys_.matrix, sys_.rhs)
        assert np.max(np.abs(sol.values - want)) <= 1e-10 * np.max(np.abs(want))
        assert sol.residual <= 1e-10 * np.max(np.abs(sys_.rhs))

    def test_matrix_is_built_once_from_the_column(self):
        sys_ = build_simple_system(supersingular_cotangent_kernel(), np.cos, 1.0, 4)
        matrix = sys_.matrix
        assert matrix is sys_.matrix
        N = sys_.column.size
        for i in range(N):
            np.testing.assert_array_equal(matrix[i], np.roll(sys_.column[::-1], i + 1))

    def test_takes_one_of_matrix_and_column(self):
        with pytest.raises(ValueError, match="exactly one"):
            CollocationSystem(grid=np.zeros(2), rhs=np.zeros(2))
        with pytest.raises(ValueError, match="exactly one"):
            CollocationSystem(
                grid=np.zeros(2), rhs=np.zeros(2),
                matrix=np.eye(2), column=np.array([1.0, 0.0]),
            )

    def test_kernel_takes_one_of_centered_and_psi(self):
        with pytest.raises(ValueError, match="exactly one"):
            PeriodicKernel(-math.pi, math.pi)
        with pytest.raises(ValueError, match="exactly one"):
            PeriodicKernel(-math.pi, math.pi, centered=lambda t, y: y, psi=np.ones_like)

    def test_nan_in_column_raises(self):
        column = np.zeros(8)
        column[0], column[3] = 1.0, np.nan
        with pytest.raises(SingularSystemError, match="non-finite") as info:
            solve_collocation(column_system(column))
        assert math.isnan(info.value.condition)

    def test_zero_eigenvalue_raises_without_warning(self):
        # the rows sum to zero, so the constant vector is in the kernel
        column = [1.0, -1.0] + [0.0] * 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError) as info:
                solve_collocation(column_system(column))
        assert info.value.condition == math.inf

    @pytest.mark.parametrize(
        "build, n",
        [(build_simple_system, n) for n in (2, 5, 16, 64)]
        + [(build_advanced_system, n) for n in (4, 16, 64)],
    )
    def test_psi_and_u_centered_declarations_agree(self, build, n):
        # the psi and centered declarations of one kernel: the matrices are
        # equal; the rhs of the psi kernel takes the grid path and the
        # centered one the batched rule, so they agree within the rule's
        # noise allowance and the solutions within cond times it
        phi, lam = PoissonKernelU(0.3), 1.2
        by_psi, by_centered = supersingular_cotangent_kernel(), cotangent_kernel_by_centered()
        sys_psi = build(by_psi, manufactured_rhs(by_psi, phi, lam), lam, n)
        sys_c = build(by_centered, manufactured_rhs(by_centered, phi, lam), lam, n)
        assert sys_psi.column is not None and sys_c.column is None
        assert np.array_equal(sys_psi.matrix, sys_c.matrix)
        allowance = noise_allowance(by_psi, phi, sys_psi.grid)
        assert np.all(np.abs(sys_psi.rhs - sys_c.rhs) <= allowance)
        sol_psi, sol_c = solve_collocation(sys_psi), solve_collocation(sys_c)
        assert (sol_psi.structure, sol_c.structure) == ("circulant", "dense")
        rel_rhs = np.linalg.norm(allowance) / np.linalg.norm(sys_c.rhs)
        rel_sol = np.linalg.norm(sol_psi.values - sol_c.values) / np.linalg.norm(sol_c.values)
        assert rel_sol <= sol_c.condition * rel_rhs


class TestGridEnds:
    """A t-dependent kernel at and next to the ends a and b of the period."""

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_t_dependent_kernel_on_simple_grid(self, n):
        # the grid's last point is b, and at n = 128 its first point
        # a + T/(4n) is 0.012 from a
        kern, phi = t_dependent_kernel(), PoissonKernelU(0.3)
        sys_ = build_simple_system(kern, manufactured_rhs(kern, phi, 1.0), 1.0, n)
        assert np.all(np.isfinite(sys_.rhs))
        sol = solve_collocation(sys_)
        assert sol.structure == "dense"
        assert np.max(np.abs(sol.values - phi(sys_.grid))) <= 1e-9

    def test_batched_rhs_next_to_the_ends(self):
        lam, tol, eta = 1.0, 1e-11, 0.3
        kern, phi = t_dependent_kernel(), PoissonKernelU(eta)
        ts = np.array([3.13, 3.14, math.pi - 1e-3, -3.14])
        got = manufactured_rhs(kern, phi, lam)(ts)
        fp = np.array([(1.5 + math.sin(t)) * exact_supersingular(eta, t) for t in ts])
        want = lam * phi(ts) + fp
        bound = tol * (1.0 + np.abs(want)) + noise_allowance(kern, phi, ts)
        assert np.all(np.abs(got - want) <= bound)


class TestSharedTables:
    """The solver's tables (psi columns, lattice spectra, cardinal rows) and
    the rules' (offset and half-angle tables, Gauss nodes) share one store."""

    RUNS = [("simple", 16, 0.3, 1.2), ("advanced", 16, 0.2, 0.7), ("simple", 64, 0.25, 1.5), ("advanced", 64, 0.35, 0.9)]

    @staticmethod
    def solve(approach, n, eta, lam):
        kern, phi = supersingular_cotangent_kernel(), PoissonKernelU(eta)
        build = build_simple_system if approach == "simple" else build_advanced_system
        system = build(kern, manufactured_rhs(kern, phi, lam), lam, n)
        sol = solve_collocation(system)
        return system.rhs.tolist(), system.column.tolist(), sol.values.tolist(), sol.condition

    def test_threads_share_the_store(self, monkeypatch):
        # four threads run rhs, build and solve on the one cotangent kernel,
        # each in its own order, inserting into and evicting from a store
        # too small for all their tables; a switch interval of 1 us
        # interleaves them inside each other's table reads
        serial = [self.solve(*run) for run in self.RUNS]
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", 2**15)
        values, errors = {}, []

        def work(k):
            try:
                order = self.RUNS[k:] + self.RUNS[:k]
                values[k] = [self.solve(*run) for run in order * 2]
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
        assert 0 < held_bytes() <= 2**15
        for k in range(4):
            assert values[k] == (serial[k:] + serial[:k]) * 2, k

    def test_held_bytes_stay_within_the_bound(self, monkeypatch):
        # rules, the reference oracle and solves, with the default store and
        # then with one of 32 KiB: the same doubles, and never more bytes held
        split = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.4)
        trig = singular_periodic_integrand(TrigPolynomial((0.5, 1.0, -0.3), (0.2, 0.7)), m=2, t=-1.1, n_derivs=9)
        # the first step keeps entries: every lattice table of the 2^13 rule
        # is over the bound, so a store that has seen only it holds nothing
        steps = [
            lambda: t_hat(RuleSpec(2, 2, 40, path="compact"), dataclasses.replace(trig)),
            lambda: t_hat(RuleSpec(3, 2, 2**13, path="compact"), dataclasses.replace(split)),
            lambda: hfp_reference(trig.g_eval, trig.g_derivs_at_t, 2, trig.a, trig.b, trig.t, smoothing=6),
            lambda: self.solve("simple", 64, 0.3, 1.2),
            lambda: self.solve("advanced", 16, 0.2, 0.7),
            lambda: cardinal_derivative_matrix(2, 32, 2.0).tolist(),
        ]
        want = [step() for step in steps]
        bound = 2**15
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", bound)
        for step, value in zip(steps * 2, want * 2):
            assert step() == value
            assert 0 < held_bytes() <= bound
        # P(2^15)'s lattice table, psi(|y|) and |y|^3 on 8,192 offsets and
        # its half-angle rows, is 132 KiB: the first rule used it, and the
        # store did not keep it
        assert not any(key[0] is quadrature._lattice_table and key[3] == 2**15 for key in quadrature._TABLES)
