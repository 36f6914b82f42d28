"""Closed-form finite-part values and an independent brute-force reference.

The geometric-kernel family (supersingular kernel paired with the Poisson
sum u(x) = sum eta^m cos mx) has a closed-form integral value that every
rule is validated against.  For arbitrary smooth numerators, a
Taylor-subtraction reference integrator provides the second, independent
route: subtract enough of the Taylor polynomial of g at t so the remainder
integrand is regular, integrate it by adaptive Gauss panels, and add back
the finite-part values of the subtracted monomials in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DerivativesRequiredError, ReferenceConvergenceError
from .integrands import PoissonKernelU, singular_periodic_integrand
from .quadrature import PeriodicIntegrand

__all__ = [
    "GeometricKernelCase",
    "exact_supersingular",
    "supersingular_series",
    "fourier_mode_hfp",
    "hfp_power_integral",
    "hfp_reference",
]

TWO_PI = 2.0 * math.pi
_SERIES_MAX_TERMS = 100000
#: the series' tail bound is pushed below this
_SERIES_TOL = 1e-16


@dataclass(frozen=True)
class GeometricKernelCase:
    """Supersingular (m=3) test case on period 2*pi with u the Poisson sum."""

    eta: float
    t: float

    period = TWO_PI
    m = 3

    def __post_init__(self):
        if not abs(self.eta) < 1.0:
            raise ValueError("eta must satisfy |eta| < 1")

    def u(self) -> PoissonKernelU:
        return PoissonKernelU(self.eta)

    def integrand(self) -> PeriodicIntegrand:
        return singular_periodic_integrand(
            self.u(), m=self.m, t=self.t, period=self.period, n_derivs=self.m
        )

    def exact(self) -> float:
        return exact_supersingular(self.eta, self.t)


def exact_supersingular(eta: float, t: float) -> float:
    """Closed-form finite-part value for the geometric-kernel case.

    4*pi * Im[ q(1+q)/(1-q)^3 ] with q = eta e^(it).
    """
    if not abs(eta) < 1.0:
        raise ValueError("eta must satisfy |eta| < 1")
    q = eta * cmath.exp(1j * t)
    return 4.0 * math.pi * (q * (1.0 + q) / (1.0 - q) ** 3).imag


def supersingular_series(eta: float, t: float) -> tuple[float, float]:
    """Partial-sum route 4*pi*sum_m eta^m m^2 sin(mt), with its tail bound.

    Returns (value, bound) where bound >= 4*pi*sum_{m>M} |eta|^m m^2; the
    cutoff M is chosen so the bound is below _SERIES_TOL.  Raises
    ReferenceConvergenceError when no M up to _SERIES_MAX_TERMS gets there.
    """
    if not abs(eta) < 1.0:
        raise ValueError("eta must satisfy |eta| < 1")
    if eta == 0.0:
        return 0.0, 0.0
    ae = abs(eta)

    def tail_bound(M: int) -> float:
        return 4.0 * math.pi * ae ** (M + 1) * (M + 1) ** 2 * 2.0 / (1.0 - ae)

    M = 10
    while tail_bound(M) > _SERIES_TOL:
        M += 10
        if M > _SERIES_MAX_TERMS:
            raise ReferenceConvergenceError(
                f"series tail bound {tail_bound(M):.3e} still above tol {_SERIES_TOL:.3e} "
                f"at {M} terms (eta={eta!r})"
            )
    ms = np.arange(1, M + 1, dtype=float)
    value = 4.0 * math.pi * math.fsum(eta**m * m * m * math.sin(m * t) for m in ms)
    return value, tail_bound(M)


def fourier_mode_hfp(mode: int, t: float) -> complex:
    """Finite part of the supersingular kernel against e^(i*mode*x).

    Over one full period: -sgn(mode) * i * 4*pi * mode^2 * e^(i*mode*t).
    """
    sgn = (mode > 0) - (mode < 0)
    return -sgn * 4j * math.pi * mode**2 * cmath.exp(1j * mode * t)


def hfp_power_integral(p: int, a: float, b: float, t: float) -> float:
    """Finite part of the integral of (x - t)^p over [a, b], a < t < b.

    p != -1: [(b-t)^(p+1) - (a-t)^(p+1)]/(p+1), the divergent boundary
    contribution at x = t discarded symmetrically; p = -1: log((b-t)/(t-a)).
    """
    if not a < t < b:
        raise ValueError("require a < t < b")
    if p == -1:
        return math.log((b - t) / (t - a))
    return ((b - t) ** (p + 1) - (a - t) ** (p + 1)) / (p + 1)


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_integrate(fn, breakpoints, panels_per_seg, order=16):
    """Gauss panels on every segment, with one fn call on all their nodes.

    ``fn`` must be elementwise; math.fsum is exactly rounded, so the sum
    does not depend on the order of the terms.
    """
    xs, ws = _gauss_nodes(order)
    nodes, weights = [], []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        edges = np.linspace(lo, hi, panels_per_seg + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes.append((mid[:, None] + half[:, None] * xs[None, :]).ravel())
        weights.append((half[:, None] * ws[None, :]).ravel())
    return math.fsum(np.concatenate(weights) * fn(np.concatenate(nodes)))


def hfp_reference(
    g_eval: Callable,
    g_derivs_at_t: Sequence[float],
    m: int,
    a: float,
    b: float,
    t: float,
    smoothing: int = 4,
    tol: float = 1e-10,
    max_panels: int = 4096,
) -> float:
    """Brute-force finite-part value by Taylor subtraction.

    Subtracts the Taylor polynomial of g at t through order m+K-1
    (K = ``smoothing``), integrates the regular remainder by doubling Gauss
    panels split at t, and adds the subtracted part back in closed form via
    hfp_power_integral.  ``g_derivs_at_t`` must cover orders 0..m+K-1; when
    an order-(m+K) value is also present, the remainder is evaluated from
    its own leading Taylor term inside a small window around t, which
    removes the subtractive cancellation there.
    """
    if smoothing < 2:
        raise ValueError("smoothing order K must be >= 2")
    if not a < t < b:
        raise ValueError("require a < t < b")
    n_sub = m + smoothing
    if len(g_derivs_at_t) < n_sub:
        raise DerivativesRequiredError(
            f"reference needs g derivatives at t through order {n_sub - 1} "
            f"(got {len(g_derivs_at_t)} values)"
        )
    d = np.array(
        [float(g_derivs_at_t[i]) / math.factorial(i) for i in range(n_sub)]
    )
    lead = None
    if len(g_derivs_at_t) > n_sub:
        lead = float(g_derivs_at_t[n_sub]) / math.factorial(n_sub)

    closed = math.fsum(
        d[i] * hfp_power_integral(i - m, a, b, t) for i in range(n_sub)
    )

    rho = min((b - a) / 200.0, 0.2 * min(t - a, b - t))

    def remainder(x):
        y = x - t
        near = np.abs(y) < rho if lead is not None else np.zeros(x.shape, dtype=bool)
        y_safe = np.where(near, 1.0, y)
        poly = np.zeros_like(y)
        for c in d[::-1]:
            poly = poly * y + c
        out = (g_eval(x) - poly) / y_safe**m
        if lead is not None:
            out = np.where(near, lead * y**smoothing, out)
        return out

    breakpoints = [a, t - rho, t, t + rho, b] if lead is not None else [a, t, b]
    prev = None
    panels = 4
    while panels <= max_panels:
        val = _panel_integrate(remainder, breakpoints, panels)
        if prev is not None and abs(val - prev) <= tol * (1.0 + abs(val)):
            return closed + val
        prev = val
        panels *= 2
    raise ReferenceConvergenceError(
        f"reference did not converge below tol={tol} with {max_panels} panels per segment"
    )
