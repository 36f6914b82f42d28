"""Exact finite-part values and an independent brute-force reference.

``exact_hfp`` sums the kernel's Fourier symbol c_m(k) in closed form, at
every m, against a trigonometric polynomial or the Poisson sum
u(x) = sum eta^k cos kx; ``exact_supersingular`` is its m = 3 Poisson
case, the paper's example.  For arbitrary smooth numerators, a
Taylor-subtraction reference integrator provides the second, independent
route: subtract enough of the Taylor polynomial of g at t so the remainder
integrand is regular, integrate it by adaptive Gauss panels, and add back
the finite-part values of the subtracted monomials in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import DerivativesRequiredError, ReferenceConvergenceError
from .integrands import PoissonKernelU, TrigPolynomial, _eulerian_row, singular_periodic_integrand
from .quadrature import PeriodicIntegrand, _check_finite, _rule_g

__all__ = [
    "GeometricKernelCase",
    "exact_supersingular",
    "fourier_symbol",
    "exact_hfp",
    "hfp_power_integral",
    "hfp_reference",
]

TWO_PI = 2.0 * math.pi
_GAUSS_ORDER = 16  # Gauss-Legendre nodes per reference panel
_REF_TOL = 1e-10  # two panel doublings agree to this, relative to 1 + |value|
_REF_MAX_PANELS = 4096  # panels per segment at the last doubling


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

    def integrand(self) -> PeriodicIntegrand:
        return singular_periodic_integrand(
            PoissonKernelU(self.eta), m=self.m, t=self.t, period=self.period, n_derivs=self.m
        )

    def exact(self) -> float:
        return exact_supersingular(self.eta, self.t)


def exact_supersingular(eta: float, t: float) -> float:
    """The geometric-kernel case, exact_hfp at m = 3: 4*pi Im[q(1+q)/(1-q)^3], q = eta e^(it)."""
    return exact_hfp(PoissonKernelU(eta), 3, t)


@lru_cache(maxsize=None)
def _symbol_poly(m: int) -> tuple[tuple[int, ...], int]:
    """(c, d) with c_m(k) = 2*pi i^m R_m(k) for k > 0, R_m(k) = sum_p c[p] k^p / d.

    Integrating by parts gives c_1 = 2*pi*i sgn k, c_(j+1) = 2ik c_j/j for
    even j and c_(j+1) = (2ik c_j + (j-1) c_(j-1))/j for odd j; R_m has only
    powers of the parity of m - 1.
    """
    if m < 1:
        raise ValueError("singularity order m must be >= 1")
    r_prev, r = [Fraction(0)], [Fraction(1)]  # R_0 and R_1
    for j in range(1, m):
        nxt = [Fraction(0)] + [2 * c for c in r]
        for p, c in enumerate(r_prev):
            nxt[p] -= (j % 2) * (j - 1) * c
        r_prev, r = r, [c / j for c in nxt]
    d = math.lcm(*(c.denominator for c in r))
    return tuple(int(c * d) for c in r), d


def fourier_symbol(m: int, k: int) -> complex:
    """c_m(k), the finite part of theta_m(y) e^(iky) over one period 2*pi:
    2*pi i^m R_m(k) for k > 0, conj(c_m(-k)) for k < 0 and 0 at k = 0.

    R_m(|k|) is one correctly rounded integer division, so a mode the
    kernel annihilates (c_4(1), c_6(2)) is an exact 0.
    """
    coefs, den = _symbol_poly(m)
    x = TWO_PI * (sum(c * abs(k) ** p for p, c in enumerate(coefs)) / den) if k else 0.0
    re, im = ((x, 0.0), (0.0, x), (-x, 0.0), (0.0, -x))[m % 4]
    return complex(re, im if k > 0 else -im)


def exact_hfp(u, m: int, t: float) -> float:
    """Finite part of theta_m(x - t) u(x) over one period 2*pi, in closed form.

    A TrigPolynomial is summed mode by mode against c_m(k).  For
    PoissonKernelU(eta), whose modes are eta^|k|/2, the sum is
    Re sum_p 2*pi i^m r_p S_p(q) with q = eta e^(it), r_p the coefficients
    of R_m and S_p(q) = sum_(k>=1) k^p q^k = q E_p(q)/(1 - q)^(p+1), E_p
    the Eulerian numerator in Horner form; Re(i^m s) is picked by m mod 4.
    Any other u raises TypeError, a non-finite t ValueError.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite (got {t!r})")
    coefs, den = _symbol_poly(m)
    if isinstance(u, TrigPolynomial):
        n_modes = max(len(u.cos_coeffs) - 1, len(u.sin_coeffs))
        modes = [fourier_symbol(m, k) * cmath.exp(1j * k * t) for k in range(1, n_modes + 1)]
        cos, sin = u.cos_coeffs[1:], u.sin_coeffs
        return math.fsum([a * z.real for a, z in zip(cos, modes)] + [b * z.imag for b, z in zip(sin, modes)])
    if not isinstance(u, PoissonKernelU):
        raise TypeError(f"exact_hfp takes a TrigPolynomial or a PoissonKernelU (got {type(u).__name__})")
    q = u.eta * cmath.exp(1j * t)
    terms = []
    for p, c in enumerate(coefs):
        if c:
            row = _eulerian_row(p)
            s = q * reduce(lambda acc, e: acc * q + e, row[-2::-1], row[-1]) / (1.0 - q) ** (p + 1)
            terms.append(TWO_PI * (c / den) * (s.real, -s.imag, -s.real, s.imag)[m % 4])
    return math.fsum(terms)


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


def _panel_integrate(fn, breakpoints, panels_per_seg):
    """_GAUSS_ORDER-node Gauss panels on every segment, one fn call on all.

    ``fn`` must be elementwise; math.fsum is exactly rounded, so the sum
    does not depend on the order of the terms.
    """
    xs, ws = _gauss_nodes(_GAUSS_ORDER)
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
) -> float:
    """Brute-force finite-part value by Taylor subtraction.

    Subtracts the Taylor polynomial of g at t through order m+K-1
    (K = ``smoothing``), integrates the regular remainder by doubling Gauss
    panels on [a, t-rho, t, t+rho, b] to _REF_TOL (at most _REF_MAX_PANELS
    per segment), and adds the subtracted part back in closed form via
    hfp_power_integral.  Inside |x - t| < rho the remainder is its leading
    term g^(m+K)(t)/(m+K)! (x-t)^K, free of the cancellation next to t, so
    ``g_derivs_at_t`` must cover orders 0..m+K; with fewer,
    DerivativesRequiredError is raised before g is called.  Otherwise it
    raises as ``t_hat`` does: PeriodicIntegrand checks m, t and the
    derivatives, and a g that fails raises EvaluationError naming the node
    on the first panel pass.

    The stopping test bounds the change between two doublings, not the
    error, and above m = 5 the two part ways: for PoissonKernelU(0.3) at
    m = 6, t = -0.3 (K = 6) the value is off by 6.0e-9 (1 + |value|).  For
    those orders use ``exact_hfp``.
    """
    if smoothing < 2:
        raise ValueError("smoothing order K must be >= 2")
    integrand = PeriodicIntegrand(m, t, a, b, g_eval, tuple(g_derivs_at_t))
    n_sub = m + smoothing
    if len(g_derivs_at_t) <= n_sub:
        raise DerivativesRequiredError(
            f"reference needs g derivatives at t through order {n_sub} "
            f"(got {len(g_derivs_at_t)} values)"
        )
    d = np.array([float(g_derivs_at_t[i]) / math.factorial(i) for i in range(n_sub)])
    lead = float(g_derivs_at_t[n_sub]) / math.factorial(n_sub)

    closed = math.fsum(d[i] * hfp_power_integral(i - m, a, b, t) for i in range(n_sub))

    rho = min((b - a) / 200.0, 0.2 * min(t - a, b - t))

    def remainder(x):
        y = x - t
        near = np.abs(y) < rho
        y_safe = np.where(near, 1.0, y)
        poly = np.zeros_like(y)
        for c in d[::-1]:
            poly = poly * y + c
        out = (_check_finite(_rule_g(integrand, x), x) - poly) / y_safe**m
        return np.where(near, lead * y**smoothing, out)

    breakpoints = [a, t - rho, t, t + rho, b]
    prev = None
    panels = 4
    while panels <= _REF_MAX_PANELS:
        val = _panel_integrate(remainder, breakpoints, panels)
        if prev is not None and abs(val - prev) <= _REF_TOL * (1.0 + abs(val)):
            return closed + val
        prev = val
        panels *= 2
    raise ReferenceConvergenceError(
        f"reference did not converge below tol={_REF_TOL} with {_REF_MAX_PANELS} panels per segment"
    )
