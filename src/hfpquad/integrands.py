"""Concrete periodic integrand families for the singular kernels.

The singular kernels are theta_m(y) = cos(pi y/T)/sin^m(pi y/T) for odd m and
1/sin^m(pi y/T) for even m; pairing one with a smooth T-periodic u gives
f(x) = theta_m(x - t) u(x), whose numerator g(x) = (x - t)^m f(x) is smooth
across the singular point.  This module evaluates g stably (series near the
removable singularity of the y^m/sin^m factor) and produces exact derivative
values of g at t via Leibniz from the series coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .quadrature import PeriodicIntegrand, _call

__all__ = [
    "TrigPolynomial",
    "random_trig_polynomial",
    "PoissonKernelU",
    "kernel_factor_series",
    "numerator_factor",
    "numerator_factor_derivs",
    "singular_periodic_integrand",
]

TWO_PI = 2.0 * math.pi

# series are carried to z^(2*_N_SERIES - 2); at the |z| <= 0.5 switch the
# truncation is below the rounding unit (convergence ratio (z/pi)^2)
_N_SERIES = 12
_Z_SWITCH = 0.5

# g is evaluated on slices of this many nodes, so that the evaluators'
# temporaries stay in cache; each node's double does not depend on the slice
_G_BLOCK = 8192


def _series_mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def _series_inv(a: Sequence[Fraction], n: int) -> list[Fraction]:
    # reciprocal of a power series with a[0] != 0
    inv = [Fraction(0)] * n
    inv[0] = 1 / a[0]
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if j < len(a):
                acc += a[j] * inv[k - j]
        inv[k] = -acc / a[0]
    return inv


@lru_cache(maxsize=None)
def kernel_factor_series(m: int, n_terms: int = _N_SERIES) -> tuple[Fraction, ...]:
    """Coefficients w_q of W_m(z) = sum w_q z^(2q).

    W_m(z) = (z/sin z)^m * cos z for odd m and (z/sin z)^m for even m,
    the removable-singularity factor y^m * theta_m(y) in angle units.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # coefficients in zeta = z^2
    sin_over_z = [
        Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(n_terms)
    ]
    w = _series_inv(sin_over_z, n_terms)
    out = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for _ in range(m):
        out = _series_mul(out, w, n_terms)
    if m % 2 == 1:
        cos = [Fraction((-1) ** k, math.factorial(2 * k)) for k in range(n_terms)]
        out = _series_mul(out, cos, n_terms)
    return tuple(out)


@lru_cache(maxsize=None)
def _series_floats(m: int) -> tuple[float, ...]:
    """kernel_factor_series(m) as floats, converted once per m."""
    return tuple(float(c) for c in kernel_factor_series(m))


def numerator_factor(m: int, y, period: float = TWO_PI):
    """psi_m(y) = y^m * theta_m(y), the smooth numerator factor.

    Three branches over z = pi*y/T: a series for |z| <= 0.5, the closed
    form for 0.5 < |z| <= pi/2, and a reflected form for |z| > pi/2 that
    reduces the angle through T - |y| (exact for |y| >= T/2), keeping full
    relative accuracy up to the poles at |y| -> T.
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    yf = np.atleast_1d(y).astype(float)
    z = math.pi * yf / period
    coeffs = _series_floats(m)
    w = np.empty_like(z)

    near = np.abs(z) <= _Z_SWITCH
    mid = (~near) & (np.abs(z) <= 0.5 * math.pi)
    far = (~near) & (~mid)

    if np.any(near):
        zn2 = z[near] ** 2
        acc = np.zeros_like(zn2)
        for c in reversed(coeffs):
            acc = acc * zn2 + c
        w[near] = acc
    if np.any(mid):
        zf = z[mid]
        val = (zf / np.sin(zf)) ** m
        if m % 2 == 1:
            val = val * np.cos(zf)
        w[mid] = val
    if np.any(far):
        # z = sign(y)(pi - wr), wr = pi(T - |y|)/T; sin z = sign(y) sin wr,
        # cos z = -cos wr; T - |y| is exact for |y| >= T/2
        yr = period - np.abs(yf[far])
        wr = math.pi * yr / period
        zf = np.abs(z[far])
        val = (zf / np.sin(wr)) ** m
        if m % 2 == 1:
            val = -val * np.cos(wr)
        w[far] = val
    out = (period / math.pi) ** m * w
    out = out.reshape(shape)
    return out if shape else float(out)


def numerator_factor_derivs(m: int, max_order: int, period: float = TWO_PI) -> list[float]:
    """[psi_m(0), psi_m'(0), ..., psi_m^(max_order)(0)].

    Odd-order values vanish (psi_m is even); even orders come from the
    series coefficients.
    """
    coeffs = kernel_factor_series(m, n_terms=max_order // 2 + 2)
    scale = period / math.pi
    out = []
    for j in range(max_order + 1):
        if j % 2 == 1:
            out.append(0.0)
        else:
            c = coeffs[j // 2]
            out.append(float(c) * math.factorial(j) * scale ** (m - j))
    return out


# ---------------------------------------------------------------------------
# smooth periodic factors u(x)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPolynomial:
    """u(x) = sum_k a_k cos(kx) + sum_k b_k sin(kx), period 2*pi.

    cos_coeffs is (a_0, a_1, ..., a_d); sin_coeffs is (b_1, ..., b_d).
    """

    cos_coeffs: tuple[float, ...]
    sin_coeffs: tuple[float, ...] = ()

    def __call__(self, x):
        return self.deriv(0, x)

    def deriv(self, order: int, x):
        x = np.asarray(x, dtype=float)
        shift = order * math.pi / 2.0
        acc = np.zeros_like(x)
        for k, a in enumerate(self.cos_coeffs):
            if a != 0.0:
                acc = acc + a * float(k) ** order * np.cos(k * x + shift)
        for k1, b in enumerate(self.sin_coeffs, start=1):
            if b != 0.0:
                acc = acc + b * float(k1) ** order * np.sin(k1 * x + shift)
        return acc if acc.shape else float(acc)


def random_trig_polynomial(rng: np.random.Generator, degree: int = 6) -> TrigPolynomial:
    """Random coefficients in [-1, 1]; constant term biased positive."""
    a = rng.uniform(-1.0, 1.0, size=degree + 1)
    b = rng.uniform(-1.0, 1.0, size=degree)
    return TrigPolynomial(tuple(a), tuple(b))


@lru_cache(maxsize=None)
def _eulerian_row(k: int) -> tuple[int, ...]:
    # <k, j> with sum_m m^k q^m = (sum_j <k,j> q^(j+1)) / (1-q)^(k+1), k >= 0
    row = (1,)
    for kk in range(2, k + 1):
        prev = row
        row = tuple(
            (j + 1) * (prev[j] if j < len(prev) else 0)
            + (kk - j) * (prev[j - 1] if 0 <= j - 1 < len(prev) else 0)
            for j in range(kk)
        )
    return row


@dataclass(frozen=True)
class PoissonKernelU:
    """u(x) = sum_{m>=0} eta^m cos(mx) = (1 - eta cos x)/(1 - 2 eta cos x + eta^2).

    Analytic in the strip |Im z| < log(1/eta); derivatives of every order in
    closed form through the power sums sum_m m^k q^m with q = eta e^(ix).
    The value itself is evaluated in the half-angle form
    ((1 - eta) + 2 eta s)/((1 - eta)^2 + 4 eta s), s = sin^2(x/2): the
    denominator as written cancels near x = 0, where its relative error
    grows to about u/(1 - eta)^2.
    """

    eta: float

    def __post_init__(self):
        if not abs(self.eta) < 1.0:
            raise ValueError("eta must satisfy |eta| < 1")

    def __call__(self, x):
        return self.deriv(0, x)

    def deriv(self, order: int, x):
        x = np.asarray(x, dtype=float)
        if order == 0:
            # np.square, not ** 2: a numpy scalar's ** 2 goes through libm
            # pow, which can differ from an array's x*x by an ulp
            s = np.square(np.sin(0.5 * x))
            eta = self.eta
            out = ((1.0 - eta) + 2.0 * eta * s) / ((1.0 - eta) ** 2 + 4.0 * eta * s)
            return out if out.shape else float(out)
        q = self.eta * np.exp(1j * x)
        num = np.zeros_like(q)
        for j, e in enumerate(_eulerian_row(order)):
            num = num + e * q ** (j + 1)
        s = num / (1.0 - q) ** (order + 1)
        out = np.real(1j**order * s)
        return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# integrand factory
# ---------------------------------------------------------------------------


def singular_periodic_integrand(
    u,
    m: int,
    t: float,
    period: float = TWO_PI,
    n_derivs: Optional[int] = None,
) -> PeriodicIntegrand:
    """Integrand f(x) = theta_m(x - t) u(x) on the period centered at t.

    ``u`` is a callable with a ``deriv(order, x)`` method (TrigPolynomial,
    PoissonKernelU).  g(x) = psi_m(x - t) u(x); derivative values of g at t
    are assembled by Leibniz from the series derivatives of psi_m and the
    analytic derivatives of u, up to order ``n_derivs`` (default m); a
    ``u.deriv(k, t)`` that raises or is not one value gives EvaluationError.
    A non-finite t, or a period not finite and > 0, is rejected before u runs.

    ``g_eval`` evaluates g in blocks of ``_G_BLOCK`` consecutive nodes of
    the flattened node array, so that a large rule's temporaries stay in
    cache; psi_m and u are elementwise, so every node gets the same double
    as in one unblocked call.
    """
    if n_derivs is None:
        n_derivs = m
    a = t - 0.5 * period
    b = t + 0.5 * period
    if not (math.isfinite(a) and math.isfinite(b) and a < t < b):
        raise ValueError("singular point must satisfy a < t < b")
    psi0 = numerator_factor_derivs(m, n_derivs, period)

    def g_eval(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty(flat.size)
        for i in range(0, flat.size, _G_BLOCK):
            xs = flat[i : i + _G_BLOCK]
            out[i : i + _G_BLOCK] = numerator_factor(m, xs - t, period) * np.asarray(u(xs), dtype=float)
        # [()] turns a 0-d result into a scalar and leaves arrays as they are
        return out.reshape(x.shape)[()]

    u0 = [float(_call("u.deriv", "point", u.deriv, k, t)) for k in range(n_derivs + 1)]
    derivs = []
    for i in range(n_derivs + 1):
        acc = 0.0
        for j in range(0, i + 1, 2):  # odd psi derivatives vanish
            acc += math.comb(i, j) * psi0[j] * u0[i - j]
        derivs.append(acc)

    return PeriodicIntegrand(
        m=m, t=t, a=a, b=b, g_eval=g_eval, g_derivs_at_t=tuple(derivs)
    )
