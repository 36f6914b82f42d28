"""Bernoulli/zeta constants: exactness against a second recurrence and the
defining series."""

import math
from fractions import Fraction

import pytest

from hfpquad.em_constants import bernoulli_even, zeta_at, zeta_even_rational
from hfpquad.errors import OrderTooLargeError, UnsupportedZetaArgumentError


def zigzag_numbers(count):
    """Euler zigzag numbers 1, 1, 1, 2, 5, 16, 61, 272, ... (boustrophedon
    transform of 1, 0, 0, ...); the tangent numbers are the odd-index entries."""
    seed = [1] + [0] * count
    prev = [seed[0]]
    out = [prev[-1]]
    for n in range(1, count + 1):
        cur = [seed[n]]
        for k in range(1, n + 1):
            cur.append(cur[k - 1] + prev[n - k])
        prev = cur
        out.append(cur[-1])
    return out


def bernoulli_via_tangent(k):
    """B_2k from the tangent-number identity, fully independent recurrence."""
    if k == 0:
        return Fraction(1)
    zz = zigzag_numbers(2 * k)
    tangent_k = zz[2 * k - 1]
    return Fraction((-1) ** (k - 1) * 2 * k * tangent_k, 4**k * (4**k - 1))


class TestBernoulli:
    def test_b0_is_one(self):
        assert bernoulli_even(0) == Fraction(1)

    def test_b2_and_b4_hand_values(self):
        assert bernoulli_even(1) == Fraction(1, 6)
        assert bernoulli_even(2) == Fraction(-1, 30)

    @pytest.mark.parametrize("k", range(0, 17))
    def test_matches_tangent_recurrence(self, k):
        assert bernoulli_even(k) == bernoulli_via_tangent(k)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLargeError):
            bernoulli_even(17)
        assert bernoulli_even(17, max_order=20) == bernoulli_via_tangent(17)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_even(-1)


class TestZeta:
    def test_special_points(self):
        assert zeta_at(0) == -0.5
        assert zeta_at(-4) == 0.0
        assert zeta_at(-2) == 0.0

    @pytest.mark.parametrize(
        "j,expected",
        [(2, math.pi**2 / 6), (4, math.pi**4 / 90), (6, math.pi**6 / 945)],
    )
    def test_even_closed_forms(self, j, expected):
        assert zeta_at(j) == pytest.approx(expected, rel=1e-14)

    def test_zeta3_against_partial_sums(self):
        z3 = zeta_at(3)
        for M in (100, 1000, 10000):
            partial = math.fsum(k**-3 for k in range(1, M + 1))
            tail_hi = 0.5 / M**2  # integral bound on the tail
            tail_lo = 0.5 / (M + 1) ** 2
            assert partial + tail_lo <= z3 <= partial + tail_hi

    @pytest.mark.parametrize("k", range(1, 9))
    def test_even_values_against_direct_summation(self, k):
        # direct sum of n^(-2k) with a midpoint-rule tail (error O(M^(-2k-1)))
        M = 200000 if k == 1 else 20000
        partial = math.fsum(n ** (-2 * k) for n in range(1, M + 1))
        tail = (M + 0.5) ** (1 - 2 * k) / (2 * k - 1)
        assert zeta_at(2 * k) == pytest.approx(partial + tail, rel=1e-12)

    def test_unsupported_arguments(self):
        for j in (5, 7, -3, 1):
            with pytest.raises(UnsupportedZetaArgumentError):
                zeta_at(j)


class TestZetaEvenRational:
    def test_hand_values(self):
        assert zeta_even_rational(0) == Fraction(-1, 2)
        assert zeta_even_rational(1) == Fraction(1, 24)  # (pi^2/6)/(2 pi)^2
        assert zeta_even_rational(2) == Fraction(1, 1440)  # (pi^4/90)/(2 pi)^4

    @pytest.mark.parametrize("k", range(0, 9))
    def test_scaled_is_zeta_at(self, k):
        assert float(zeta_even_rational(k)) * (2 * math.pi) ** (2 * k) == zeta_at(2 * k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_positive_for_k_at_least_one(self, k):
        assert zeta_even_rational(k) > 0
