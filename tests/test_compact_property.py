"""Property tests over the compact rules: each equals its generic
extrapolation combination (the identity of criterion 06, over drawn
inputs), is unchanged by a shift of t, a and b by one period, and is
linear in g.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfpquad.harness import integrand_norms  # noqa: E402
from hfpquad.integrands import (  # noqa: E402
    TrigPolynomial,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from hfpquad.quadrature import (  # noqa: E402
    COMPACT_PAIRS,
    RuleSpec,
    extrapolation_weights,
    roundoff_floor,
    t_hat,
)

TWO_PI = 2.0 * math.pi


# The polynomial comes from a drawn seed, with criterion 06's coefficient
# distribution, rather than from drawn coefficients: hypothesis then finds
# parity zeros such as u = sin 5x at t = 0 for m = 2, where every part is
# roundoff (~5e-15) and a tolerance relative to the values is meaningless.
@settings(max_examples=60, deadline=None, database=None)
@given(
    pair=st.sampled_from(sorted(COMPACT_PAIRS)),
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compact_equals_generic_combination(pair, t, n, seed):
    m, s = pair
    u = random_trig_polynomial(np.random.default_rng(seed), degree=6)
    integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
    compact = t_hat(RuleSpec(m, s, n, path="compact"), integ)
    parts = [
        float(w) * t_hat(RuleSpec(m, 0, (2**k) * n), integ)
        for k, w in enumerate(extrapolation_weights(s).alpha)
    ]
    combo = math.fsum(parts)
    # criterion 06's tolerance
    scale = max(abs(compact), abs(combo), max(abs(p) for p in parts))
    assert abs(compact - combo) <= 1e-12 * scale


# Tolerance for two computations of the same rule value: an absolute part,
# 100 x the roundoff floor at the finest grid 2^s n (criterion 09's
# envelope), which covers the parity zeros noted above, plus a part
# relative to the values' magnitude (criterion 06's 1e-12), which covers
# the large m = 4 values.
def _floor(integ, s, n):
    return roundoff_floor(*integrand_norms(integ), TWO_PI, 2**s * n)


def _compact(u, m, s, n, t):
    return t_hat(RuleSpec(m, s, n, path="compact"), singular_periodic_integrand(u, m=m, t=t))


# Coefficients drawn directly: zeros make sparse polynomials such as the
# parity zeros; the rest stay in [1e-3, 1] so nothing underflows.
_coefficient = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)
_trig_polynomial = st.builds(
    lambda a, b: TrigPolynomial(tuple(a), tuple(b)),
    st.lists(_coefficient, min_size=1, max_size=7),
    st.lists(_coefficient, max_size=6),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    pair=st.sampled_from(sorted(COMPACT_PAIRS)),
    u=_trig_polynomial,
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12]),
    direction=st.sampled_from([-1, 1]),
)
def test_shift_by_one_period(pair, u, t, n, direction):
    m, s = pair
    here = _compact(u, m, s, n, t)
    shifted = _compact(u, m, s, n, t + direction * TWO_PI)
    floor = _floor(singular_periodic_integrand(u, m=m, t=t), s, n)
    assert abs(here - shifted) <= 100 * floor + 1e-12 * (abs(here) + abs(shifted))


@settings(max_examples=60, deadline=None, database=None)
@given(
    pair=st.sampled_from(sorted(COMPACT_PAIRS)),
    u1=_trig_polynomial,
    u2=_trig_polynomial,
    c=st.floats(-4.0, 4.0),
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12]),
)
def test_linear_in_g(pair, u1, u2, c, t, n):
    m, s = pair

    def combine(x, y):
        x, y = np.array(x), np.array(y)
        size = max(len(x), len(y))
        return tuple(np.pad(x, (0, size - len(x))) + c * np.pad(y, (0, size - len(y))))

    total = TrigPolynomial(
        combine(u1.cos_coeffs, u2.cos_coeffs), combine(u1.sin_coeffs, u2.sin_coeffs)
    )
    lhs = _compact(total, m, s, n, t)
    parts = [_compact(u1, m, s, n, t), c * _compact(u2, m, s, n, t)]
    rhs = math.fsum(parts)
    # the sampled norms obey the triangle inequality, so this floor also
    # covers the floor of u1 + c u2
    floor = _floor(singular_periodic_integrand(u1, m=m, t=t), s, n) + abs(c) * _floor(
        singular_periodic_integrand(u2, m=m, t=t), s, n
    )
    scale = abs(lhs) + sum(abs(p) for p in parts)
    assert abs(lhs - rhs) <= 100 * floor + 1e-12 * scale
