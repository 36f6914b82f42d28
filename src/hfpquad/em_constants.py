"""Exact Bernoulli numbers and the Riemann zeta values the correction sums use.

Bernoulli numbers are kept as exact rationals; conversion to floating point
happens only when a zeta value is produced.  Supported zeta arguments are the
ones that actually appear in the correction sums and the roundoff-floor model:
0, positive even integers, negative even integers, and 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import OrderTooLargeError, UnsupportedZetaArgumentError

#: Highest k for which B_{2k} / zeta(2k) are served by default (m up to 32).
DEFAULT_MAX_ORDER = 16


@lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n via the binomial recurrence sum_j C(n+1, j) B_j = 0."""
    vals = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * vals[j]
        vals.append(-acc / (k + 1))
    return tuple(vals)


def bernoulli_even(k: int, max_order: int = DEFAULT_MAX_ORDER) -> Fraction:
    """Exact B_{2k}.

    Raises OrderTooLargeError for k beyond ``max_order`` so that runaway
    rational arithmetic is an explicit failure rather than a stall.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > max_order:
        raise OrderTooLargeError(
            f"order too large: B_{2 * k} requested but max_order={max_order}"
        )
    return _bernoulli_list(2 * k)[2 * k]


@lru_cache(maxsize=None)
def _zeta3() -> float:
    # Partial sum plus Euler-Maclaurin tail: sum_{k>M} k^-3 =
    # 1/(2M^2) - 1/(2M^3) + 1/(4M^4) + O(M^-6).
    M = 2000
    partial = math.fsum(k**-3 for k in range(1, M + 1))
    tail = 0.5 / M**2 - 0.5 / M**3 + 0.25 / M**4
    return partial + tail


def zeta_even_rational(k: int, max_order: int = DEFAULT_MAX_ORDER) -> Fraction:
    """zeta(2k)/(2 pi)^(2k) = (-1)^(k+1) B_{2k} / (2 (2k)!), exactly; -1/2 at k = 0."""
    sign = 1 if k % 2 == 1 else -1
    return sign * Fraction(bernoulli_even(k, max_order=max_order), 2 * math.factorial(2 * k))


def zeta_at(j: int, max_order: int = DEFAULT_MAX_ORDER) -> float:
    """zeta(j) for j in {0} + {even} + {3}.

    zeta(2k) for k >= 0 from the Bernoulli formula (zeta(0) = -1/2),
    zeta(-2k) = 0, zeta(3) from the summed series with a tail correction.
    """
    if j == 3:
        return _zeta3()
    if j % 2 == 1:
        raise UnsupportedZetaArgumentError(f"unsupported zeta argument: {j}")
    if j < 0:
        return 0.0
    return float(zeta_even_rational(j // 2, max_order=max_order)) * (2.0 * math.pi) ** j
