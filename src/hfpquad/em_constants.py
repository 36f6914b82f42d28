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

#: Highest k for which B_{2k} / zeta(2k) are served (m up to 32).
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


def bernoulli_even(k: int) -> Fraction:
    """Exact B_{2k}.

    Raises OrderTooLargeError for k beyond DEFAULT_MAX_ORDER so that runaway
    rational arithmetic is an explicit failure rather than a stall.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > DEFAULT_MAX_ORDER:
        raise OrderTooLargeError(
            f"order too large: B_{2 * k} requested but DEFAULT_MAX_ORDER={DEFAULT_MAX_ORDER}"
        )
    return _bernoulli_list(2 * k)[2 * k]


#: zeta(3) (Apery's constant) rounded to the nearest double
_ZETA3 = 1.2020569031595942


def zeta_even_rational(k: int) -> Fraction:
    """zeta(2k)/(2 pi)^(2k) = (-1)^(k+1) B_{2k} / (2 (2k)!), exactly; -1/2 at k = 0."""
    sign = 1 if k % 2 == 1 else -1
    return sign * Fraction(bernoulli_even(k), 2 * math.factorial(2 * k))


def zeta_at(j: int) -> float:
    """zeta(j) for j in {0} + {even} + {3}.

    zeta(2k) for k >= 0 from the Bernoulli formula (zeta(0) = -1/2),
    zeta(-2k) = 0, zeta(3) the constant _ZETA3.
    """
    if j == 3:
        return _ZETA3
    if j % 2 == 1:
        raise UnsupportedZetaArgumentError(f"unsupported zeta argument: {j}")
    if j < 0:
        return 0.0
    return float(zeta_even_rational(j // 2)) * (2.0 * math.pi) ** j
