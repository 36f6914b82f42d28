"""Convergence tables, rate fits, floor checks."""

import collections
import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from hfpquad import quadrature
from hfpquad.errors import EvaluationError, InsufficientPreFloorDataError
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
from hfpquad.oracles import GeometricKernelCase, hfp_reference
from hfpquad.quadrature import PeriodicIntegrand, RuleSpec, _family_nodes, roundoff_floor, t_hat
from test_quadrature import held_bytes

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

    @pytest.mark.parametrize(
        "m, s, path",
        [(m, s, "compact") for m in range(1, 7) for s in range(m // 2 + 2)]
        + [(m, s, "generic") for m in (1, 3, 4) for s in range(4)],
    )
    def test_rows_are_t_hat_bit_for_bit(self, m, s, path):
        # each row reads the memo the table filled for every row at once:
        # its double is t_hat's on a fresh integrand
        integ = singular_periodic_integrand(self.U, m=m, t=0.4, n_derivs=m)
        ns = [30, 10, 24, 10, 7, 40]
        rows = convergence_table_for(integ, 0.0, "zero", s, ns, path=path).rows
        assert [r.n for r in rows] == sorted(set(ns))
        for row in rows:
            value = t_hat(RuleSpec(m, s, row.n, path=path), dataclasses.replace(integ))
            assert row.value.hex() == value.hex()

    def test_the_rule_and_smallest_n_are_checked_as_rule_spec_checks_them(self):
        integ = singular_periodic_integrand(self.U, m=3, t=0.4)
        with pytest.raises(ValueError, match="base rule needs n >= 2"):
            convergence_table_for(integ, 0.0, "zero", 0, [10, 1])
        with pytest.raises(ValueError, match="has no compact form"):
            convergence_table_for(integ, 0.0, "zero", 3, [10], path="compact")
        with pytest.raises(ValueError, match="unknown rule path"):
            convergence_table_for(integ, 0.0, "zero", 1, [10], path="fast")

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


class TestFloorAtNodeCount:
    def test_floor_is_evaluated_at_the_rules_node_count(self):
        # the rule at level s = 2 sums nodes T/(4n) apart, so the row at
        # n = 100 has the floor of N = 400 nodes, 15 times the model at n
        rep = convergence_table(GeometricKernelCase(eta=0.5, t=1.0), 2, list(range(10, 101, 10)))
        assert rep.floor_estimate == rep.floor_at(100) == roundoff_floor(*rep.g_norms, TWO_PI, 400)
        assert rep.floor_estimate > 10 * roundoff_floor(*rep.g_norms, TWO_PI, 100)
        # the plateau rows sit within a few floors at N; at n they reach 25
        plateau = [r for r in rep.rows if r.n >= 50]
        assert all(r.error <= 5 * rep.floor_at(r.n) for r in plateau)
        assert max(r.error / roundoff_floor(*rep.g_norms, TWO_PI, r.n) for r in plateau) > 20
        assert [bound for _, _, bound in floor_check(rep).rows] == [100 * rep.floor_at(r.n) for r in rep.rows]

    def test_level_zero_floor_is_at_n(self):
        rep = convergence_table(GeometricKernelCase(eta=0.5, t=1.0), 0, [40, 80])
        assert rep.floor_estimate == rep.floor_at(80) == roundoff_floor(*rep.g_norms, TWO_PI, 80)


class TestFloorCheck:
    def test_eta_tenth_plateau(self):
        case = GeometricKernelCase(eta=0.1, t=1.0)
        rep = convergence_table(case, 0, [60, 70, 80, 90, 100])
        check = floor_check(rep)
        assert check.passed
        for n, err, bound in check.rows:
            assert err <= bound

    def test_nan_error_fails(self):
        # a NaN compares false with every bound, so it once passed
        rep = synthetic_report([10, 20], [math.nan, 0.0], norms=(1.0, 0.0, 0.0))
        check = floor_check(rep)
        assert not check.passed

    def test_non_finite_norm_sample_raises(self):
        # the rule never samples x = a here, so the rows are finite; the
        # norm sample does, and once gave NaN norms, a NaN floor and a
        # floor check that passed at errors of 1.10 and 0.90
        a = -math.pi
        integ = PeriodicIntegrand(
            m=1, t=0.3, a=a, b=math.pi, g_eval=lambda x: np.where(x == a, np.nan, np.cos(x))
        )
        assert np.all(np.isfinite([t_hat(RuleSpec(1, 1, n, path="compact"), integ) for n in (10, 20)]))
        with pytest.raises(EvaluationError) as info:
            convergence_table_for(integ, 0.0, "zero", s=1, n_list=[10, 20])
        assert info.value.node_x == a
        with pytest.raises(EvaluationError, match="x=-3.14159"):
            integrand_norms(integ)

    def test_overflowing_norm_sample_raises(self):
        # at 1e302 the third difference of g = A sin 200x overflows; it once
        # gave a RuntimeWarning and then ValueError from roundoff_floor
        def integrand(amplitude):
            return PeriodicIntegrand(
                m=3, t=0.3, a=0.3 - math.pi, b=0.3 + math.pi, g_eval=lambda x: amplitude * np.sin(200.0 * x)
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="the g''' norm .* overflowed"):
                convergence_table_for(integrand(1e302), 0.0, "zero", s=2, n_list=[10, 20], path="compact")
            rep = convergence_table_for(integrand(1e301), 0.0, "zero", s=2, n_list=[10, 20], path="compact")
        assert all(map(math.isfinite, rep.g_norms)) and math.isfinite(rep.floor_estimate)

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
        # g at the nodes t + y of the offsets y from a - t to b - t: psi(y)
        # u(t + y) for a split g, g(t + y) for a plain one; axis=-1 changes
        # nothing for a scalar g
        for split in (
            singular_periodic_integrand(TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4)), m=3, t=1.0),
            singular_periodic_integrand(PoissonKernelU(0.4), m=3, t=-2.5),
        ):
            y = np.linspace(split.a - split.t, split.b - split.t, NORM_SAMPLES)
            x = np.clip(split.t + y, split.a, split.b)
            dy = y[1] - y[0]
            plain = dataclasses.replace(split, g_eval=lambda x, g=split.g_eval: g(x))
            for integ, g in ((split, split.g_eval.psi(y) * split.g_eval.u(x)), (plain, split.g_eval(x))):
                g1 = np.gradient(g, dy)
                g3 = np.gradient(np.gradient(g1, dy), dy)
                want = tuple(float(np.max(np.abs(v))) for v in (g, g1, g3))
                assert integrand_norms(integ) == want


class TestSampleTables:
    """The norm sample's and the reference's offsets, and psi on them, are
    store entries keyed on the scalars the offsets are made from."""

    @staticmethod
    def integrand(k, i):
        m, t = 1 + (i + k) % 4, -3.0 + 0.37 * i
        u = TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4)) if i % 2 else PoissonKernelU(0.4)
        integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m + 6)
        # every third one a plain g, which runs at t + y with psi = 1
        return dataclasses.replace(integ, g_eval=lambda x, g=integ.g_eval: g(x)) if i % 3 == 0 else integ

    @classmethod
    def values(cls, k):
        out = []
        for i in range(16):
            integ = cls.integrand(k, i)
            out.append(integrand_norms(integ))
            derivs = integ.g_derivs_at_t
            out.append(hfp_reference(integ.g_eval, derivs, integ.m, integ.a, integ.b, integ.t, smoothing=6))
        return out

    def test_threads_share_the_sample_tables(self, monkeypatch):
        # four threads sample integrands of their own, inserting into and
        # evicting from a store that holds two norm-sample entries at most;
        # a switch interval of 1 us interleaves them inside each other's
        # table reads
        serial = [self.values(k) for k in range(4)]
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", 2**16)
        values, errors = {}, []

        def work(k):
            try:
                values[k] = self.values(k)
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
        for k in range(4):
            assert values[k] == serial[k], k

    def test_periods_centred_on_t_share_a_few_entries(self, monkeypatch):
        # the offsets a - t and b - t of a period centred on t take a few
        # doubles between them, so 200 values of t read a few entries
        monkeypatch.setattr(quadrature, "_TABLES", {})
        monkeypatch.setattr(quadrature, "_TABLE_BYTES", 2**23)
        for t in np.linspace(-3.0, 3.0, 200):
            integ = singular_periodic_integrand(TrigPolynomial((0.5, 0.3), (0.2,)), m=2, t=float(t), n_derivs=8)
            integrand_norms(integ)
            hfp_reference(integ.g_eval, integ.g_derivs_at_t, 2, integ.a, integ.b, integ.t, smoothing=6)
        # a psi table's key is (_psi_table, psi, offsets, *their key)
        psi_table = quadrature._psi_table.__wrapped__
        kinds = collections.Counter(
            key[2].__name__ + " psi" if key[0] is psi_table else key[0].__name__ for key in quadrature._TABLES
        )
        assert set(kinds) == {"_norm_offsets", "_norm_offsets psi", "_panel_nodes", "_panel_offsets psi"}
        assert kinds["_norm_offsets"] == kinds["_norm_offsets psi"] <= 5
        assert kinds["_panel_nodes"] == kinds["_panel_offsets psi"] <= 10
