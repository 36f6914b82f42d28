"""Convergence tables, empirical rate fits, and roundoff-floor comparisons.

Reproduces the error-vs-n table layout used to validate the rules: one row
per n holding the rule value and its error against a trusted oracle, a
least-squares rate fit over the rows that sit clearly above the roundoff
floor, and a check that the observed error plateau stays under the floor
model's envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientPreFloorDataError
from .oracles import GeometricKernelCase
from .quadrature import (
    DOUBLE_UNIT,
    PeriodicIntegrand,
    RuleSpec,
    _call,
    _check_finite,
    _memoize_rules,
    max_compact_level,
    roundoff_floor,
    t_hat,
)

__all__ = [
    "ReportRow",
    "ConvergenceReport",
    "RateFit",
    "FloorCheck",
    "convergence_table",
    "convergence_table_for",
    "empirical_rate",
    "floor_check",
    "integrand_norms",
]

#: errors above this multiple of the floor estimate count as pre-floor data
PRE_FLOOR_FACTOR = 100.0

#: fewest pre-floor rows a rate fit takes
MIN_RATE_ROWS = 3

#: fitted slopes smaller than this in magnitude mark a floor-dominated table
FLAT_SLOPE = 0.05

#: equispaced points on [a, b] that integrand_norms samples g at
NORM_SAMPLES = 4096


@dataclass
class ReportRow:
    n: int
    value: float
    error: float


@dataclass
class ConvergenceReport:
    """Error table for one case: rows sorted by strictly increasing n."""

    m: int
    s: int
    t: float
    period: float
    eta: Optional[float]
    oracle_name: str
    oracle_value: float
    rows: list[ReportRow]
    g_norms: tuple[float, float, float]
    floor_estimate: float
    fitted_rate: Optional[float] = None

    def floor_at(self, n: int) -> float:
        g, gp, gppp = self.g_norms
        return roundoff_floor(g, gp, gppp, self.period, n)


@dataclass
class RateFit:
    slope: float
    rows_used: int
    floor_dominated: bool


@dataclass
class FloorCheck:
    rows: list[tuple[int, float, float]]  # (n, error, bound)
    safety_factor: float
    passed: bool


def integrand_norms(integrand: PeriodicIntegrand) -> tuple[float, float, float]:
    """Crude max-norms of g, g', g''' by differencing g on NORM_SAMPLES
    equispaced points.

    Order-of-magnitude accuracy is all the floor model needs.  A
    vector-valued g is differenced along its nodes, so each norm is the
    largest over its rows.  g goes through the rule's evaluator checks, so
    a non-finite sample raises EvaluationError naming its x.
    """
    xs = np.linspace(integrand.a, integrand.b, NORM_SAMPLES)
    g = _check_finite(_call("integrand evaluator", "nodes", integrand.g_eval, xs, rows=True), xs)
    dx = xs[1] - xs[0]
    g1 = np.gradient(g, dx, axis=-1)
    g2 = np.gradient(g1, dx, axis=-1)
    g3 = np.gradient(g2, dx, axis=-1)
    return float(np.max(np.abs(g))), float(np.max(np.abs(g1))), float(np.max(np.abs(g3)))


def _preferred_path(m: int, s: int) -> str:
    return "compact" if s <= max_compact_level(m) else "generic"


def convergence_table_for(
    integrand: PeriodicIntegrand,
    oracle_value: float,
    oracle_name: str,
    s: int,
    n_list: Sequence[int],
    eta: Optional[float] = None,
    path: Optional[str] = None,
) -> ConvergenceReport:
    """Table of rule values and errors against a precomputed oracle value.

    g is evaluated once, on the nodes of every row that the integrand's
    memo lacks (see PeriodicIntegrand); each row is then ``t_hat`` of the
    integrand, which reads g from the memo.
    """
    ns = sorted(set(int(n) for n in n_list))
    if not ns:
        raise ValueError("n_list is empty")
    rule_path = path or _preferred_path(integrand.m, s)
    specs = [RuleSpec(integrand.m, s, n, path=rule_path) for n in ns]
    _memoize_rules(integrand, specs)
    rows = []
    for spec in specs:
        val = t_hat(spec, integrand)
        rows.append(ReportRow(n=spec.n, value=val, error=abs(val - oracle_value)))

    norms = integrand_norms(integrand)
    floor_est = roundoff_floor(*norms, integrand.period, max(ns))
    return ConvergenceReport(
        m=integrand.m,
        s=s,
        t=integrand.t,
        period=integrand.period,
        eta=eta,
        oracle_name=oracle_name,
        oracle_value=oracle_value,
        rows=rows,
        g_norms=norms,
        floor_estimate=floor_est,
    )


def convergence_table(
    case: GeometricKernelCase,
    s: int,
    n_list: Sequence[int],
) -> ConvergenceReport:
    """Error table for the geometric-kernel case against its closed form."""
    integrand = case.integrand()
    return convergence_table_for(
        integrand,
        oracle_value=case.exact(),
        oracle_name="exact_supersingular",
        s=s,
        n_list=n_list,
        eta=case.eta,
    )


def empirical_rate(report: ConvergenceReport) -> RateFit:
    """Least-squares slope of ln(error) vs n over the pre-floor rows.

    For the geometric-kernel family the expected slope is ln(eta).  Rows
    whose error is within PRE_FLOOR_FACTOR of the per-n floor estimate are
    excluded; fewer than MIN_RATE_ROWS surviving rows is an error.  A slope
    below FLAT_SLOPE in magnitude marks the fit floor-dominated.
    """
    pre = [
        r
        for r in report.rows
        if r.error > PRE_FLOOR_FACTOR * report.floor_at(r.n) and r.error > 0.0
    ]
    if len(pre) < MIN_RATE_ROWS:
        raise InsufficientPreFloorDataError(
            f"insufficient pre-floor data: {len(pre)} rows above "
            f"{PRE_FLOOR_FACTOR}x floor, need {MIN_RATE_ROWS}"
        )
    ns = np.array([r.n for r in pre], dtype=float)
    logs = np.log([r.error for r in pre])
    slope = float(np.polyfit(ns, logs, 1)[0])
    fit = RateFit(
        slope=slope, rows_used=len(pre), floor_dominated=abs(slope) < FLAT_SLOPE
    )
    report.fitted_rate = slope
    return fit


def floor_check(
    report: ConvergenceReport,
    unit: float = DOUBLE_UNIT,
    safety_factor: float = PRE_FLOOR_FACTOR,
) -> FloorCheck:
    """Observed plateau vs the floor model: error_n <= safety * K(n) u n^2."""
    rows = []
    ok = True
    for r in report.rows:
        bound = safety_factor * roundoff_floor(*report.g_norms, report.period, r.n, unit)
        rows.append((r.n, r.error, bound))
        if not r.error <= bound:  # so a NaN error fails
            ok = False
    return FloorCheck(rows=rows, safety_factor=safety_factor, passed=ok)
