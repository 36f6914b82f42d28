"""Convergence tables, rate fits, floor checks."""

import dataclasses
import math

import numpy as np
import pytest

from hfpquad.errors import EvaluationError, HfpquadError, InsufficientPreFloorDataError
from hfpquad.harness import (
    NORM_SAMPLES,
    ConvergenceReport,
    ReportRow,
    convergence_table,
    convergence_table_for,
    empirical_rate,
    floor_check,
    integrand_norms,
)
from hfpquad.integrands import PoissonKernelU, TrigPolynomial, singular_periodic_integrand
from hfpquad.oracles import GeometricKernelCase
from hfpquad.quadrature import RuleSpec, _family_nodes, _prefetch_g, t_hat

TWO_PI = 2.0 * math.pi


def synthetic_report(ns, errors, norms=(0.0, 0.0, 0.0)):
    rows = [ReportRow(n=n, value=0.0, error=e) for n, e in zip(ns, errors)]
    return ConvergenceReport(
        m=3,
        s=0,
        t=1.0,
        period=TWO_PI,
        eta=None,
        oracle_name="synthetic",
        oracle_value=0.0,
        rows=rows,
        g_norms=norms,
        floor_estimate=0.0,
    )


class TestConvergenceTable:
    def test_rows_sorted_and_complete(self):
        case = GeometricKernelCase(eta=0.4, t=1.0)
        rep = convergence_table(case, 0, [30, 10, 20])
        assert [r.n for r in rep.rows] == [10, 20, 30]
        assert rep.oracle_name == "exact_supersingular"
        assert rep.eta == 0.4

    def test_paper_value(self):
        case = GeometricKernelCase(eta=0.5, t=1.0)
        rep = convergence_table(case, 0, [20])
        assert rep.rows[0].error == pytest.approx(2.10e-5, rel=0.05)

    def test_rules_agree_within_factor_four(self):
        # pre-floor errors of s = 0, 1, 2 stay within a factor of 4
        case = GeometricKernelCase(eta=0.5, t=1.0)
        reps = [convergence_table(case, s, [10, 20, 30]) for s in (0, 1, 2)]
        for i in range(3):
            errs = [rep.rows[i].error for rep in reps]
            assert max(errs) / min(errs) < 4.0

    def test_errors_decrease_until_floor(self):
        case = GeometricKernelCase(eta=0.3, t=1.0)
        rep = convergence_table(case, 0, [6, 8, 10, 12, 14, 16, 18, 20])
        prev = None
        for row in rep.rows:
            if row.error <= 100.0 * rep.floor_at(row.n):
                break
            if prev is not None:
                assert row.error < prev
            prev = row.error


class TestTableEvaluatesGOnce:
    U = TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4))

    @pytest.mark.parametrize("path", ["compact", "generic"])
    def test_one_g_call(self, path):
        integ = singular_periodic_integrand(self.U, m=3, t=0.4)
        calls = []
        g = integ.g_eval
        counted = dataclasses.replace(integ, g_eval=lambda x: calls.append(x.size) or g(x))
        rep = convergence_table_for(counted, 0.0, "zero", 2, [30, 10, 20, 10], path=path)
        assert len(calls) == 2  # the table's one pass and integrand_norms' samples
        for row in rep.rows:
            assert row.value == t_hat(RuleSpec(3, 2, row.n, path=path), integ)

    def test_non_finite_g_in_one_row_names_its_node(self):
        integ = singular_periodic_integrand(self.U, m=4, t=0.4)
        # a node of the n = 30 row only: 7T/240 is on no grid of n = 10 or 20
        # (multiples of T/160)
        bad = float(_family_nodes(integ, 30, 3)[1][3])
        g = integ.g_eval

        def nan_at_bad(x):
            return np.where(x == bad, np.nan, g(x))

        broken = dataclasses.replace(integ, g_eval=nan_at_bad)
        spec = RuleSpec(4, 3, 30, path="compact")
        with pytest.raises(EvaluationError) as direct:
            t_hat(spec, broken)
        with pytest.raises(EvaluationError) as table:
            convergence_table_for(broken, 0.0, "zero", 3, [10, 20, 30, 40])
        assert table.value.node_x == direct.value.node_x == bad
        assert table.value.node_index == direct.value.node_index
        # the rows before it are fine
        convergence_table_for(broken, 0.0, "zero", 3, [10, 20])

    def test_nodes_not_prefetched_raise(self):
        integ = singular_periodic_integrand(self.U, m=3, t=0.4)
        served = _prefetch_g(integ, [RuleSpec(3, 2, 10, path="compact")])
        assert t_hat(RuleSpec(3, 2, 10, path="compact"), served) == t_hat(
            RuleSpec(3, 2, 10, path="compact"), integ
        )
        with pytest.raises(HfpquadError, match="not prefetched"):
            served.g_eval(np.array([0.4, 1.0]))
        with pytest.raises(HfpquadError, match="not prefetched"):
            t_hat(RuleSpec(3, 2, 12, path="compact"), served)

    def test_empty_n_list(self):
        integ = singular_periodic_integrand(self.U, m=3, t=0.4)
        with pytest.raises(ValueError, match="empty"):
            convergence_table_for(integ, 0.0, "zero", 2, [])


class TestEmpiricalRate:
    def test_eta_half_slope(self):
        case = GeometricKernelCase(eta=0.5, t=1.0)
        rep = convergence_table(case, 0, [10, 15, 20, 25, 30, 35, 40])
        fit = empirical_rate(rep)
        assert fit.slope == pytest.approx(math.log(0.5), rel=0.10)
        assert not fit.floor_dominated
        assert rep.fitted_rate == fit.slope

    def test_eta_tenth_slope_two_rows_plus_one(self):
        # the eta = 0.1 decay is so fast only a handful of rows are usable
        case = GeometricKernelCase(eta=0.1, t=1.0)
        rep = convergence_table(case, 0, [6, 8, 10, 12, 14, 16, 18, 20])
        fit = empirical_rate(rep)
        assert fit.slope == pytest.approx(math.log(0.1), rel=0.15)

    def test_insufficient_rows(self):
        rep = synthetic_report([10, 20, 30], [1e-3, 1e-16, 1e-16], norms=(1.0, 0, 0))
        with pytest.raises(InsufficientPreFloorDataError):
            empirical_rate(rep)

    def test_flat_rows_flagged(self):
        rep = synthetic_report([10, 20, 30, 40], [1e-6, 1.1e-6, 0.9e-6, 1e-6])
        fit = empirical_rate(rep)
        assert fit.floor_dominated
        assert fit.slope == pytest.approx(0.0, abs=0.05)


class TestFloorCheck:
    def test_eta_tenth_plateau(self):
        case = GeometricKernelCase(eta=0.1, t=1.0)
        rep = convergence_table(case, 0, [60, 70, 80, 90, 100])
        check = floor_check(rep)
        assert check.passed
        for n, err, bound in check.rows:
            assert err <= bound

    def test_zero_integrand(self):
        case = GeometricKernelCase(eta=0.0, t=1.0)
        rep = convergence_table(case, 0, [10, 20])
        # errors and bounds are both at the zero scale
        check = floor_check(rep)
        assert check.passed

    def test_paper_quad_precision_plateau_consistent(self):
        # reported large-n plateau values at unit 1.93e-34 sit within the
        # 100x envelope of K(n) u n^2 for the eta = 0.1 numerator scale
        from hfpquad.quadrature import roundoff_floor

        g_norm = 8.0 * (1.0 - 0.1) / (1.0 - 0.2 + 0.01)  # 8 * max|u|
        bound = 100.0 * roundoff_floor(g_norm, 0.0, 0.0, TWO_PI, 100, 1.93e-34)
        for plateau in (1.04e-30, 1.73e-30, 2.83e-30):
            assert plateau <= bound

    def test_norms_sane(self):
        case = GeometricKernelCase(eta=0.3, t=1.0)
        g, gp, gppp = integrand_norms(case.integrand())
        u_max = (1.0 - 0.3) / (1.0 - 0.6 + 0.09)
        assert g == pytest.approx(8.0 * u_max, rel=0.05)
        assert gp > 0 and gppp > 0

    def test_vector_g_norms_are_the_largest_row_norms(self):
        # differencing across the rows once gave (13.3, 4.5e3, 1.9e9) here
        trig = singular_periodic_integrand(
            TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4)), m=3, t=1.0
        )
        poisson = singular_periodic_integrand(PoissonKernelU(0.4), m=3, t=1.0)
        both = dataclasses.replace(
            trig, g_eval=lambda x: np.stack([trig.g_eval(x), poisson.g_eval(x)])
        )
        rows = [integrand_norms(trig), integrand_norms(poisson)]
        assert integrand_norms(both) == tuple(map(max, zip(*rows)))

    def test_scalar_g_norms_difference_the_nodes(self):
        # axis=-1 changes nothing for a scalar g
        for integ in (
            singular_periodic_integrand(TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4)), m=3, t=1.0),
            singular_periodic_integrand(PoissonKernelU(0.4), m=3, t=1.0),
        ):
            xs = np.linspace(integ.a, integ.b, NORM_SAMPLES)
            g = integ.g_eval(xs)
            g1 = np.gradient(g, xs[1] - xs[0])
            g3 = np.gradient(np.gradient(g1, xs[1] - xs[0]), xs[1] - xs[0])
            want = tuple(float(np.max(np.abs(v))) for v in (g, g1, g3))
            assert integrand_norms(integ) == want
