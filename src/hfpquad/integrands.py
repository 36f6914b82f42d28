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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np

from .quadrature import PeriodicIntegrand, SplitNumerator, _call, _require_integers

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
    relative accuracy up to the poles at |y| -> T.  Every branch reads |y|
    or an even power of z, so psi_m(-y) == psi_m(y) bit for bit.  The
    steps run in place (the series by Horner's rule from its last
    coefficient, which the step from 0 gives exactly as z^2 >= 0): an
    in-place IEEE operation rounds as the same operation written out, so
    each double is that of the formulas as written, and a point's double
    does not depend on the other points of the call.

    Its callers: the psi of ``singular_periodic_integrand``, which the rules
    evaluate once per lattice into their lattice table and ``g_eval`` at
    x - t, and the cotangent kernel of ``ie_solver``.
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    yf = np.atleast_1d(y)
    z = math.pi * yf / period
    coeffs = _series_floats(m)
    w = np.empty_like(z)

    az = np.abs(z)
    near = az <= _Z_SWITCH
    mid = (~near) & (az <= 0.5 * math.pi)
    far = (~near) & (~mid)

    if np.any(near):
        # the step from acc = 0 gives coeffs[-1] exactly, as zn2 >= 0
        zn2 = np.square(z[near])
        acc = np.full_like(zn2, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= zn2
            acc += c
        w[near] = acc
    if np.any(mid):
        zf = z[mid]
        val = np.sin(zf)
        np.divide(zf, val, out=val)
        val **= m
        if m % 2 == 1:
            val *= np.cos(zf, out=zf)
        w[mid] = val
    if np.any(far):
        # z = sign(y)(pi - wr), wr = pi(T - |y|)/T; sin z = sign(y) sin wr,
        # cos z = -cos wr; T - |y| is exact for |y| >= T/2
        wr = np.abs(yf[far])
        np.subtract(period, wr, out=wr)
        wr *= math.pi
        wr /= period
        zf = az[far]
        val = np.divide(zf, np.sin(wr), out=zf)
        val **= m
        if m % 2 == 1:
            # -(val cos wr) is -val * cos wr bit for bit: negation is exact
            val *= np.cos(wr, out=wr)
            np.negative(val, out=val)
        w[far] = val
    w *= (period / math.pi) ** m
    w = w.reshape(shape)
    return w if shape else float(w)


@lru_cache(maxsize=64)
def numerator_factor_derivs(m: int, max_order: int, period: float = TWO_PI) -> tuple[float, ...]:
    """(psi_m(0), psi_m'(0), ..., psi_m^(max_order)(0)), computed once per
    (m, max_order, period).

    Odd-order values vanish (psi_m is even); even orders come from the
    series coefficients.  A power of T/pi that overflows makes its value
    infinite (or NaN), which ``PeriodicIntegrand`` refuses as a g
    derivative.
    """
    coeffs = kernel_factor_series(m, n_terms=max_order // 2 + 2)
    scale = period / math.pi
    out = []
    for j in range(max_order + 1):
        if j % 2 == 1:
            out.append(0.0)
        else:
            try:
                power = scale ** (m - j)
            except OverflowError:
                power = math.inf
            out.append(float(coeffs[j // 2]) * math.factorial(j) * power)
    return tuple(out)


# ---------------------------------------------------------------------------
# smooth periodic factors u(x)
# ---------------------------------------------------------------------------


def _derivative_order(order) -> int:
    """``order`` as an int; ValueError naming it when it is negative or not an
    integer (numpy's integers pass, 1.5 does not)."""
    _require_integers(order=order)
    if order < 0:
        raise ValueError(f"order must be >= 0 (got {order!r})")
    return operator.index(order)


@dataclass(frozen=True)
class TrigPolynomial:
    """u(x) = sum_k a_k cos(kx) + sum_k b_k sin(kx), period 2*pi.

    cos_coeffs is (a_0, a_1, ..., a_d); sin_coeffs is (b_1, ..., b_d).

    ``deriv(order, x)`` is Re sum_k gamma_k z^k with z = cos x + i sin x and
    gamma_k = (ik)^order (a_k - i b_k), summed by Horner's rule in real
    arithmetic: one cos and one sin per point, and no k x + order pi/2 to
    round.  Against a 40-digit sum at the double x its error stays below
    6 u sum_k k^order (|a_k| + |b_k|), u = 2^-53, on random degree-6
    polynomials at orders 0, 1, 3, 7 and 11 (tested).  The steps are
    elementwise real operations, so a point's double does not depend on the
    shape of x: a scalar x runs them on Python floats, the same IEEE
    operations.  An array x runs them in place, in two scratch arrays, from
    gamma_d, which the first step from 0 gives exactly but for the sign of a
    zero component (a zero's sign reaches the result only where the result
    is zero); an in-place IEEE operation rounds as the same operation out of
    place, so every double is that of the written-out steps.  The gamma_k of
    an order are formed on its first call and kept with the instance.
    """

    cos_coeffs: tuple[float, ...]
    sin_coeffs: tuple[float, ...] = ()
    # order -> its ``_horner_coefficients``
    _gammas: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, x):
        return self.deriv(0, x)

    def _horner_coefficients(self, order: int):
        """((Re, Im) of gamma_d, ..., gamma_1) and Re gamma_0, formed on the
        order's first call."""
        order = _derivative_order(order)
        if order not in self._gammas:
            turn = 1j ** (order % 4)  # i^order, exactly
            pairs = zip_longest(self.cos_coeffs, (0.0, *self.sin_coeffs), fillvalue=0.0)
            gammas = [turn * complex(a, -b) * k**order for k, (a, b) in enumerate(pairs)]
            self._gammas[order] = (tuple((g.real, g.imag) for g in reversed(gammas[1:])), gammas[0].real)
        return self._gammas[order]

    def deriv(self, order: int, x):
        tail, head = self._horner_coefficients(order)
        x = np.asarray(x, dtype=float)
        # (re, im) times z in real operations: numpy's complex multiply uses
        # fused multiply-adds on arrays and not on scalars
        if not x.shape:
            c, s = float(np.cos(x)), float(np.sin(x))
            re = im = 0.0
            for g_re, g_im in tail:
                re, im = re * c - im * s + g_re, re * s + im * c + g_im
            return re * c - im * s + head
        c, s = np.cos(x), np.sin(x)
        # the same steps in place, from gamma_d: the first step from 0 gives
        # it but for the sign of a zero component
        (re_d, im_d), *steps = tail or ((0.0, 0.0),)
        re, im = np.full(x.shape, re_d), np.full(x.shape, im_d)
        a, b = np.empty(x.shape), np.empty(x.shape)
        for g_re, g_im in steps:
            np.multiply(re, c, out=a)
            a -= np.multiply(im, s, out=b)
            a += g_re
            np.multiply(re, s, out=b)
            im *= c
            b += im
            b += g_im
            re, im, a, b = a, b, re, im
        re *= c
        re -= np.multiply(im, s, out=im)
        re += head
        return re


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
    grows to about u/(1 - eta)^2.  ``from_half_sine(S)`` is that form on
    S = sin(x/2), which the rules' memo fill forms for a split's u at the
    nodes x = t + y by a half-angle sum, with no node coordinate (a plain g
    never runs through it); ``deriv(0, x)`` runs it on
    np.sin(0.5 x).  An order >= 1 is Re(i^order q E(q)/(1 - q)^(order+1)),
    E the Eulerian numerator by Horner's rule, in real arithmetic, with
    1/(1 - q) = conj(1 - q)/|1 - q|^2 in the same half-angle form; a scalar
    x runs it on Python floats, so it gives its element of an array call bit
    for bit.  For 0 <= eta < 1 its error against a 40-digit sum stays within
    16 u sum_k k^order eta^k at orders 1-5 (tested); for eta < 0 the
    half-angle form cancels near x = pi.
    """

    eta: float

    def __post_init__(self):
        if not abs(self.eta) < 1.0:
            raise ValueError("eta must satisfy |eta| < 1")

    def __call__(self, x):
        return self.deriv(0, x)

    def from_half_sine(self, S):
        """u(x) from S = sin(x/2), elementwise: the half-angle form above."""
        # np.square, not ** 2: a numpy scalar's ** 2 goes through libm
        # pow, which can differ from an array's x*x by an ulp
        s = np.square(S)
        eta = self.eta
        return ((1.0 - eta) + 2.0 * eta * s) / ((1.0 - eta) ** 2 + 4.0 * eta * s)

    def deriv(self, order: int, x):
        order = _derivative_order(order)
        x = np.asarray(x, dtype=float)
        if order == 0:
            out = self.from_half_sine(np.sin(0.5 * x))
            return out if out.shape else float(out)
        if x.shape:
            half, c, s = np.sin(0.5 * x), np.cos(x), np.sin(x)
        else:
            half, c, s = float(np.sin(0.5 * x)), float(np.cos(x)), float(np.sin(x))
        eta = self.eta
        # q = eta e^(ix), and 1/(1 - q) = conj(1 - q)/|1 - q|^2 with 1 - q in
        # the half-angle form ((1 - eta) + 2 eta sin^2(x/2)) - i eta sin x
        q_re, q_im = eta * c, eta * s
        sq = half * half
        den = (1.0 - eta) ** 2 + 4.0 * eta * sq
        w_re, w_im = ((1.0 - eta) + 2.0 * eta * sq) / den, q_im / den
        # sum_k k^order q^k = q E(q)/(1 - q)^(order + 1), E by Horner's rule
        row = _eulerian_row(order)
        re, im = float(row[-1]), 0.0
        for e in row[-2::-1]:
            re, im = re * q_re - im * q_im + e, re * q_im + im * q_re
        re, im = re * q_re - im * q_im, re * q_im + im * q_re
        for _ in range(order + 1):
            re, im = re * w_re - im * w_im, re * w_im + im * w_re
        # Re(i^order (re + i im))
        return (re, -im, -re, im)[order % 4]


# ---------------------------------------------------------------------------
# integrand factory
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _kernel_factor(m: int, period: float):
    """psi_m = numerator_factor(m, ., period) as one object per (m, period),
    so that the rules' lattice tables serve every integrand built with it."""
    return partial(numerator_factor, m, period=period)


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
    t and the period are taken as Python floats, so the ends and psi_m's
    derivatives are formed in doubles, whatever scalar types they came in.

    ``g_eval`` is a ``SplitNumerator`` with psi = psi_m (even, one shared
    object per (m, period)): the rules evaluate psi_m at the exact offsets
    y of their nodes, from a table shared by every integrand of the same m
    and period, and u once per block of nodes (``integrand_norms`` and
    ``hfp_reference`` read psi_m on their offsets alike), while
    ``g_eval(x)`` evaluates psi_m(x - t) u(x) as written.  A
    ``PoissonKernelU`` is evaluated by the rules at t + y through its
    ``from_half_sine``, any other u at the wrapped nodes fl(t + y).
    ``dataclasses.replace(integ, g_eval=...)`` drops the split.
    """
    if n_derivs is None:
        n_derivs = m
    t, period = float(t), float(period)
    a = t - 0.5 * period
    b = t + 0.5 * period
    if not (math.isfinite(a) and math.isfinite(b) and a < t < b):
        raise ValueError("singular point must satisfy a < t < b")
    psi0 = numerator_factor_derivs(m, n_derivs, period)
    u0 = [float(_call("u.deriv", "point", u.deriv, k, t)) for k in range(n_derivs + 1)]
    derivs = []
    for i in range(n_derivs + 1):
        acc = 0.0
        for j in range(0, i + 1, 2):  # odd psi derivatives vanish
            acc += math.comb(i, j) * psi0[j] * u0[i - j]
        derivs.append(acc)

    g_eval = SplitNumerator(_kernel_factor(m, period), u, t)
    return PeriodicIntegrand(
        m=m, t=t, a=a, b=b, g_eval=g_eval, g_derivs_at_t=tuple(derivs)
    )
