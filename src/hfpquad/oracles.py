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

from .errors import DerivativesRequiredError, EvaluationError, ReferenceConvergenceError
from .integrands import PoissonKernelU, TrigPolynomial, _eulerian_row, singular_periodic_integrand
from .quadrature import PeriodicIntegrand, _check_finite, _fsum, _sample, _shared

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
    kernel annihilates (c_4(1), c_6(2)) is an exact 0.  A value that
    overflows in doubles raises EvaluationError.
    """
    coefs, den = _symbol_poly(m)
    try:
        x = TWO_PI * (sum(c * abs(k) ** p for p, c in enumerate(coefs)) / den) if k else 0.0
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise EvaluationError(f"the symbol c_{m}({k}) overflowed")
    re, im = ((x, 0.0), (0.0, x), (-x, 0.0), (0.0, -x))[m % 4]
    return complex(re, im if k > 0 else -im)


def exact_hfp(u, m: int, t: float) -> float:
    """Finite part of theta_m(x - t) u(x) over one period 2*pi, in closed form.

    A TrigPolynomial is summed mode by mode against c_m(k).  For
    PoissonKernelU(eta), whose modes are eta^|k|/2, the sum is
    Re sum_p 2*pi i^m r_p S_p(q) with q = eta e^(it), r_p the coefficients
    of R_m and S_p(q) = sum_(k>=1) k^p q^k = q E_p(q)/(1 - q)^(p+1), E_p
    the Eulerian numerator in Horner form, and 1 - q formed as
    (1 - eta) + 2 eta sin^2(t/2) - i eta sin t; Re(i^m s) is picked by m mod 4.
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
    eta = u.eta
    q = eta * cmath.exp(1j * t)
    # 1 - eta cos t as (1 - eta) + 2 eta sin^2(t/2): as written it cancels
    # when eta -> 1 and t -> 0
    half = math.sin(0.5 * t)
    one_minus_q = complex((1.0 - eta) + 2.0 * eta * (half * half), -q.imag)
    terms = []
    for p, c in enumerate(coefs):
        if c:
            row = _eulerian_row(p)
            s = q * reduce(lambda acc, e: acc * q + e, row[-2::-1], row[-1]) / one_minus_q ** (p + 1)
            terms.append(TWO_PI * (c / den) * (s.real, -s.imag, -s.real, s.imag)[m % 4])
    return math.fsum(terms)


def hfp_power_integral(p: int, a: float, b: float, t: float) -> float:
    """Finite part of the integral of (x - t)^p over [a, b], a < t < b.

    p != -1: [(b-t)^(p+1) - (a-t)^(p+1)]/(p+1), the divergent boundary
    contribution at x = t discarded symmetrically; p = -1: log((b-t)/(t-a)).
    A value that overflows in doubles raises EvaluationError.
    """
    if not a < t < b:
        raise ValueError("require a < t < b")
    if p == -1:
        return math.log((b - t) / (t - a))
    try:
        value = ((b - t) ** (p + 1) - (a - t) ** (p + 1)) / (p + 1)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise EvaluationError(f"the finite part of (x - t)^{p} over [{a!r}, {b!r}] overflowed at t={t!r}")
    return value


@_shared
def _panel_nodes(breaks: tuple, counts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of the _GAUSS_ORDER-node Gauss panels on every
    segment between consecutive offsets of ``breaks``, at each count of
    panels per segment in ``counts``, the nodes of each count after those
    of the counts before it.

    Segment i is cut at np.linspace(breaks[i], breaks[i + 1], panels + 1),
    bit for bit, so a segment's nodes are the same doubles whichever
    segments and counts share the entry, and a node of the first count has
    the same index as in an entry of that count alone.
    """
    xs, ws = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    lo, hi = np.array(breaks[:-1]), np.array(breaks[1:])
    nodes, weights = [], []
    for panels in counts:
        edges = np.linspace(lo, hi, panels + 1, axis=-1)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        nodes.append((mid[..., None] + half[..., None] * xs).ravel())
        weights.append((half[..., None] * ws).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def _panel_offsets(breaks: tuple, counts: tuple) -> np.ndarray:
    """The offsets of ``_panel_nodes``: the reference samples g on them."""
    return _panel_nodes(breaks, counts)[0]


def _panel_integrate(fn, breaks: tuple, counts: tuple) -> list[float]:
    """The Gauss panel sum over the segments between ``breaks`` at each count
    of panels per segment, from one call fn(breaks, counts), which gives the
    finite weighted terms on the nodes of ``_panel_nodes(breaks, counts)``.

    math.fsum is exactly rounded, so each sum does not depend on the order
    of its terms; a sum that overflows raises EvaluationError.
    """
    terms = fn(breaks, counts).tolist()
    sums, start = [], 0
    for panels in counts:
        size = (len(breaks) - 1) * panels * _GAUSS_ORDER
        total = _fsum(terms[start : start + size])
        if not math.isfinite(total):
            raise EvaluationError(f"the reference's sum over {panels} panels per segment overflowed")
        sums.append(total)
        start += size
    return sums


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
    panels to _REF_TOL (at most _REF_MAX_PANELS per segment), and adds the
    subtracted part back in closed form via hfp_power_integral.  Inside
    |x - t| < rho the remainder is its leading term
    g^(m+K)(t)/(m+K)! (x-t)^K, free of the cancellation next to t, so
    ``g_derivs_at_t`` must cover orders 0..m+K; with fewer,
    DerivativesRequiredError is raised before g is called.

    The panels are laid on the offsets y = x - t, on the segments between
    [a - t, -rho, 0, rho, b - t]: their nodes and weights, and psi on the
    nodes for a split g, are read from the store of shared tables, one entry
    per breakpoint offsets and panel counts (``_panel_nodes``), so the
    periods centred on their t share a few entries.  g is sampled at
    t + y as ``integrand_norms`` samples it (``quadrature._sample``): a
    split g as psi(y) u(t + y), any other g at t + y.  g is called once for
    the first two doublings (4 and 8 panels per segment, the 4-panel nodes
    first) and once for each further doubling.

    It raises as ``t_hat`` does: PeriodicIntegrand checks m, t and the
    derivatives, and a g that fails, or a remainder term that is not
    finite, raises EvaluationError naming its node on the first pass.  A
    sum or closed-form part that overflows raises EvaluationError too.

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
    d = [float(g_derivs_at_t[i]) / math.factorial(i) for i in range(n_sub)]
    lead = float(g_derivs_at_t[n_sub]) / math.factorial(n_sub)

    closed = _fsum([d[i] * hfp_power_integral(i - m, a, b, t) for i in range(n_sub)])
    if not math.isfinite(closed):
        raise EvaluationError("the closed-form part of the reference overflowed")

    rho = float(min((b - a) / 200.0, 0.2 * min(t - a, b - t)))
    breaks = (float(a) - float(t), -rho, 0.0, rho, float(b) - float(t))

    def terms(breaks, counts):
        y, x, g = _sample(integrand, _panel_offsets, breaks, counts)
        if g.ndim > 1:
            raise ValueError("a vector-valued g carries no g derivatives")
        near = np.abs(y) < rho
        far = ~near
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            poly = np.zeros_like(y)
            for c in reversed(d):
                poly = poly * y + c
            out = g - poly
            # each power only where it is kept: pow on negative bases is slow
            out[far] /= y[far] ** m
            out[near] = lead * y[near] ** smoothing
            out *= _panel_nodes(breaks, counts)[1]
        return _check_finite(out, x, "the reference's remainder term is not finite at node {index} (x={x!r})")

    # 4 and 8 panels always run, as the first pass has nothing to compare with
    prev, val = _panel_integrate(terms, breaks, (4, 8))
    panels = 8
    while not abs(val - prev) <= _REF_TOL * (1.0 + abs(val)):
        panels *= 2
        if panels > _REF_MAX_PANELS:
            raise ReferenceConvergenceError(
                f"reference did not converge below tol={_REF_TOL} with {_REF_MAX_PANELS} panels per segment"
            )
        prev, [val] = val, _panel_integrate(terms, breaks, (panels,))
    value = closed + val
    if not math.isfinite(value):
        raise EvaluationError("the reference value overflowed")
    return value
