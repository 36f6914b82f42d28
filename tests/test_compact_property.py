"""Property tests over the compact rules: each equals its generic
extrapolation combination (the identity of criterion 06, over drawn
inputs), is unchanged by a shift of t, a and b by one period, and is
linear in g.  A convergence table's rows equal t_hat per n bit for bit,
and an integrand odd about t gives rule values of zero within the floor.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfpquad.harness import convergence_table_for, integrand_norms  # noqa: E402
from hfpquad.integrands import (  # noqa: E402
    PoissonKernelU,
    TrigPolynomial,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from hfpquad.quadrature import (  # noqa: E402
    RuleSpec,
    _family_nodes,
    extrapolation_weights,
    max_compact_level,
    roundoff_floor,
    t_hat,
)

TWO_PI = 2.0 * math.pi

# Every compact rule up to m = 6: s runs 0..m//2 + 1.
_pair = st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m // 2 + 1)))


# Tolerance for two computations of the same rule value: an absolute part,
# 100 x the roundoff floor at the finest grid N = 2^s n (criterion 09's
# envelope), which covers the parity zeros noted below, plus a part
# relative to the values' magnitude (criterion 06's 1e-12), which covers
# the large m = 4 values.  The floor model K(N) u N^2 is that of m = 3;
# the nodes next to t round like (N/T)^(m-1), which the relative part no
# longer covers above m = 4, so there the floor is scaled by (N/T)^(m-3).
def _floor(integ, s, n):
    N = 2**s * n
    floor = roundoff_floor(*integrand_norms(integ), TWO_PI, N)
    return floor * (N / TWO_PI) ** (integ.m - 3) if integ.m > 4 else floor


# The polynomial comes from a drawn seed, with criterion 06's coefficient
# distribution, rather than from drawn coefficients: hypothesis then finds
# parity zeros such as u = sin 5x at t = 0 for m = 2, where every part is
# roundoff (~5e-15).  The two examples exceed criterion 06's tolerance,
# relative to the values alone, by rounding within 2 floors.
@settings(max_examples=60, deadline=None, database=None)
@given(
    pair=_pair,
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12]),
    seed=st.integers(0, 2**32 - 1),
)
@example(pair=(4, 1), t=-0.7074706614195243, n=12, seed=3567302812)
@example(pair=(4, 3), t=-2.1563267586219745, n=10, seed=2648514775)
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
    scale = max(abs(compact), abs(combo), max(abs(p) for p in parts))
    assert abs(compact - combo) <= 100 * _floor(integ, s, n) + 1e-12 * scale


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
    pair=_pair,
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
    pair=_pair,
    u1=_trig_polynomial,
    u2=_trig_polynomial,
    c=st.floats(-4.0, 4.0),
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12]),
)
# Subnormal c.  (1, 1): lhs and rhs 2 subnormal steps apart (1e-323), with
# both floors 0 and a relative term below one step; (6, 3): the rule
# amplifies the same rounding to 2.5e-319.  Both fail without the underflow
# term below.
@example(pair=(1, 1), u1=TrigPolynomial((0.0,)), u2=TrigPolynomial((0.5, 1.0)), c=-2.2517524146e-314, t=-1.0, n=10)
@example(pair=(6, 3), u1=TrigPolynomial((0.0,)), u2=TrigPolynomial((1.0,)), c=1e-323, t=-1.0, n=10)
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
    terms = 3 * sum(1 for b in u2.cos_coeffs + u2.sin_coeffs if b != 0.0)
    underflow = _underflow_floor(singular_periodic_integrand(u2, m=m, t=t), s, n, terms)
    assert abs(lhs - rhs) <= 100 * floor + 1e-12 * scale + underflow


# Higham's model of a rounded operation (Accuracy and Stability of Numerical
# Algorithms, 2nd ed., sec. 2.1) is fl(x op y) = (x op y)(1 + d) + e, with
# |d| <= u and |e| <= 2^-1075.  e is what is left where a result is
# subnormal, as when a subnormal c scales u2: neither the floor nor the
# relative term, both proportional to c, covers it.  Each nonzero coefficient
# of c u2 is rounded when it is formed and twice more in each evaluation of u
# (times k^order, then times the cosine or sine), so ``terms`` = 3 per
# coefficient, and g is off by up to terms * e at each node.  The rule
# amplifies that as its floor amplifies u ||g||, so the term is 100 floors
# of g, scaled to ||g|| = 1 at unit 1, times terms * e.  It scales by
# (N/T)^(m-3) from m = 4 on, not above m = 4 as ``_floor`` does, because the
# relative term that covers m = 4 there is below one subnormal step here.
def _underflow_floor(integ, s, n, terms):
    if not terms:
        return 0.0
    N = 2**s * n
    norms = np.array(integrand_norms(integ))
    amplification = roundoff_floor(*(norms / norms[0]), TWO_PI, N, unit=1.0)
    amplification *= (N / TWO_PI) ** max(integ.m - 3, 0)
    return math.ldexp(100 * terms * amplification, -1075)


# ---------------------------------------------------------------------------
# a table evaluates g once
# ---------------------------------------------------------------------------

# (m, s, path): compact s = 0..m//2 + 1, generic s = 0..3 (with derivatives)
_table_rule = st.integers(1, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, m // 2 + 1), st.just("compact"))
    | st.tuples(st.just(m), st.integers(0, 3), st.just("generic"))
)


def _vector_integrand(integ, us):
    """integ with g the stacked numerators of the polynomials us (no derivatives)."""
    rows = [singular_periodic_integrand(u, m=integ.m, t=integ.t).g_eval for u in us]
    return dataclasses.replace(
        integ, g_eval=lambda x: np.stack([g(x) for g in rows]), g_derivs_at_t=None
    )


@settings(max_examples=60, deadline=None, database=None)
@given(
    rule=_table_rule,
    u=_trig_polynomial,
    t=st.floats(-math.pi, math.pi),
    ns=st.lists(st.integers(2, 40), min_size=1, max_size=6),
    vector=st.lists(_trig_polynomial, min_size=1, max_size=3) | st.none(),
)
def test_table_rows_equal_t_hat(rule, u, t, ns, vector):
    m, s, path = rule
    integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
    if vector is not None:
        # a vector g carries no derivatives: only the derivative-free rule runs
        s, path = max_compact_level(m), "compact"
        integ = _vector_integrand(integ, [u, *vector])
    n_list = ns + ns[:1]  # unsorted, with a duplicate
    rows = convergence_table_for(integ, 0.0, "zero", s, n_list, path=path).rows
    assert [r.n for r in rows] == sorted(set(n_list))
    for row in rows:
        assert np.array_equal(row.value, t_hat(RuleSpec(m, s, row.n, path=path), integ))


# What the table relies on: an evaluator of ``integrands`` gives a node the
# same double whatever its position in the array and the array's length.
@settings(max_examples=60, deadline=None, database=None)
@given(
    m=st.integers(1, 6),
    u=_trig_polynomial | st.floats(-0.9, 0.9).map(PoissonKernelU),
    t=st.floats(-math.pi, math.pi),
    families=st.lists(st.tuples(st.integers(1, 50), st.integers(0, 3)), min_size=1, max_size=6),
)
def test_g_on_concatenated_nodes_equals_g_per_family(m, u, t, families):
    integ = singular_periodic_integrand(u, m=m, t=t)
    xs = [_family_nodes(integ, n, level)[1] for n, level in families]
    together = integ.g_eval(np.concatenate(xs))
    start = 0
    for x in xs:
        assert np.array_equal(together[start : start + x.size], integ.g_eval(x))
        start += x.size


# ---------------------------------------------------------------------------
# parity zeros
# ---------------------------------------------------------------------------


# f = theta_m(x - t) u(x) is odd about t when theta_m (odd for odd m) and u
# have opposite parity about t: u even about t for odd m, odd for even m.
# The node families are symmetric about t, so every rule value is a sum of
# cancelling pairs and is zero up to rounding, which criterion 06's relative
# tolerance cannot see.  Over 400 draws of seed 0 the worst |value|/_floor
# was 16 (m = 4); the bound is criterion 09's envelope of 100 floors.
@settings(max_examples=60, deadline=None, database=None)
@given(
    rule=_table_rule,
    coeffs=st.lists(_coefficient, min_size=2, max_size=7),
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12, 20]),
)
def test_parity_zeros(rule, coeffs, t, n):
    m, s, path = rule
    k = np.arange(len(coeffs))
    c = np.array(coeffs)
    if m % 2:  # sum c_k cos(k(x - t))
        u = TrigPolynomial(tuple(c * np.cos(k * t)), tuple((c * np.sin(k * t))[1:]))
    else:  # sum c_k sin(k(x - t))
        u = TrigPolynomial(tuple(-c * np.sin(k * t)), tuple((c * np.cos(k * t))[1:]))
    integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
    value = t_hat(RuleSpec(m, s, n, path=path), integ)
    assert abs(value) <= 100 * _floor(integ, s, n)
