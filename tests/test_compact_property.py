"""Property tests over the compact rules: each equals its generic
extrapolation combination (the identity of criterion 06, over drawn
inputs), is unchanged by a shift of t, a and b by one period, and is
linear in g.  A convergence table's rows equal t_hat per n bit for bit,
and an integrand odd about t gives rule values of zero within the floor.
The roundoff floor, the norm sample and the reference oracle are finite, or
an HfpquadError, on finite inputs.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import bisect
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfpquad import _kernels  # noqa: E402
from hfpquad.em_constants import zeta_at  # noqa: E402
from hfpquad.errors import EvaluationError, HfpquadError  # noqa: E402
from hfpquad.harness import _gradient, convergence_table_for, integrand_norms  # noqa: E402
from hfpquad.integrands import (  # noqa: E402
    PoissonKernelU,
    TrigPolynomial,
    random_trig_polynomial,
    singular_periodic_integrand,
)
from hfpquad.oracles import hfp_reference  # noqa: E402
from hfpquad.quadrature import (  # noqa: E402
    PeriodicIntegrand,
    RuleSpec,
    SplitNumerator,
    _family,
    _family_nodes,
    _primitives,
    compact_rule,
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
        # replace gives an integrand with an empty memo: t_hat evaluates g itself
        fresh = dataclasses.replace(integ)
        assert np.array_equal(row.value, t_hat(RuleSpec(m, s, row.n, path=path), fresh))


# ---------------------------------------------------------------------------
# f = g/y^m memoized on the primitive lattices
# ---------------------------------------------------------------------------

# base counts on doubling chains and on 3·2^k and 5·2^k, whose level-0
# families end in P(3) and P(5)
_memo_n = st.sampled_from([c * 2**k for c in (1, 3, 5) for k in range(7)][1:])


def _t_hat_reference(spec, integ):
    """t_hat unmemoized, in lattice form: each family's sum is the fsum of
    its primitive lattices' sums, each lattice's nodes built alone, g
    evaluated on them and summed by ``_kernels.singular_sum``; the generic
    path takes one plain sum per grid 2^k n and each grid's corrections,
    grouped as the rules group them.  A split
    g = psi(x - t) u(x) is evaluated as the split defines it, psi at the
    exact offsets.  Every lattice here has at most ``_G_BLOCK`` nodes, so
    its sum is one pairwise sum."""
    m, n, s = spec.m, spec.n, spec.s
    g = integ.g_eval

    def lattice_sum(N):
        y, x_hat = _family_nodes(integ, N // 2, 1) if N % 2 == 0 else _family_nodes(integ, N, 0)
        vals = g.psi(y) * g.u(x_hat) if isinstance(g, SplitNumerator) else g(x_hat)
        return _kernels.singular_sum(vals, y, m)

    def node_sum(n, level):
        sums = [lattice_sum(N) for N, _ in _primitives(n, level)]
        if np.ndim(sums[0]):  # a vector g: math.fsum per row
            return np.array([math.fsum(row) for row in zip(*sums)])
        return math.fsum(sums)

    h = integ.period / n
    if spec.path == "generic":
        # alpha_k times the base rule at 2^k n: its plain sum weighs
        # alpha_k 2^-k in units of h, its term of g^(order)(t) scales as
        # (h/2^k)^(1-m+order)
        alpha = extrapolation_weights(s).alpha
        families = [(2**k * n, 0, float(a / 2**k)) for k, a in enumerate(alpha)]
        base = [(order, 2.0 / math.factorial(order) * zeta_at(m - order)) for order in range(m % 2, m + 1, 2)]
        coefs = [
            (order, -float(a * Fraction(2) ** (k * (m - 1 - order))) * c) for k, a in enumerate(alpha) for order, c in base
        ]
    else:
        rule = compact_rule(m, s)
        families = [(n, level, float(w)) for level, w in rule.families]
        coefs = [(order, float(coef) * math.pi ** (m - order)) for order, coef in rule.deriv_corrections]
    corrections = math.fsum(c * integ.deriv_at_t(order) * h ** (1 - m + order) for order, c in coefs)
    sums = [w * h * node_sum(N, level) for N, level, w in families]
    if np.ndim(sums[0]):  # a vector g: math.fsum per row
        return np.array([math.fsum(row) for row in zip(*sums)]) + corrections
    return math.fsum(sums) + corrections


@settings(max_examples=40, deadline=None, database=None)
@given(
    m=st.integers(1, 6),
    u=_trig_polynomial,
    t=st.floats(-math.pi, math.pi),
    vector=st.lists(_trig_polynomial, min_size=1, max_size=2) | st.none(),
    data=st.data(),
)
def test_memoized_rules_equal_rules_on_a_fresh_integrand(m, u, t, vector, data):
    integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
    rules = [(s, "compact") for s in range(m // 2 + 2)] + [(s, "generic") for s in range(4)]
    if vector is not None:
        # a vector g carries no derivatives: only the derivative-free rule runs
        rules = [(max_compact_level(m), "compact")]
        integ = _vector_integrand(integ, [u, *vector])
    calls = data.draw(st.lists(st.tuples(st.sampled_from(rules), _memo_n), min_size=1, max_size=12))
    calls = data.draw(st.permutations(calls + calls[::2]))  # shuffled, with repeats
    for (s, path), n in calls:
        spec = RuleSpec(m, s, n, path=path)
        value = t_hat(spec, integ)
        assert np.array_equal(value, t_hat(spec, dataclasses.replace(integ)))
        assert np.array_equal(value, _t_hat_reference(spec, integ))


# What a lattice sum that depends on its lattice alone relies on: numpy's
# pairwise sum of a view, a piece of a block buffer at any offset (stride 1,
# the memo fill's pieces, rows of a vector g included) or a strided one,
# equals the sum of its contiguous copy.
@settings(max_examples=40, deadline=None, database=None)
@given(
    size=st.integers(1, 2**18),
    stride=st.sampled_from([1, 2, 3, 4, 8]),
    offset=st.integers(0, 200),
    rows=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_strided_sum_equals_contiguous_sum(size, stride, offset, rows, seed):
    rng = np.random.default_rng(seed)
    # magnitudes spread over decades, as f's are next to t
    length = offset + size * stride
    base = rng.standard_normal(rows + (length,)) * 10.0 ** rng.uniform(-8, 8, length)
    view = base[..., offset + stride - 1 :: stride]
    assert np.array_equal(view.sum(axis=-1), np.ascontiguousarray(view).sum(axis=-1))


# integrand_norms differences g by _gradient in place of np.gradient
@settings(max_examples=80, deadline=None, database=None)
@given(
    size=st.integers(3, 5000),
    rows=st.sampled_from([(), (3,)]),
    decades=st.integers(0, 300),
    dx=st.floats(1e-6, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_equals_np_gradient(size, rows, decades, dx, seed):
    rng = np.random.default_rng(seed)
    # magnitudes spread over up to 600 decades, both signs
    g = rng.standard_normal(rows + (size,)) * 10.0 ** rng.uniform(-decades, decades, rows + (size,))
    for step in (dx, np.float64(dx)):
        got, expected = _gradient(g, step), np.gradient(g, step, axis=-1)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# _family's wrap index: the estimate from (b - t)/delta moved by the wrap
# test, against the bisection it replaced, for t next to b, next to a and
# inside, over periods from 1e-3 to 1e3
@settings(max_examples=300, deadline=None, database=None)
@given(
    a=st.floats(-1e3, 1e3),
    period=st.floats(1e-3, 1e3),
    where=st.sampled_from(["next to b", "next to a", "inside"]),
    ulps=st.integers(1, 8),
    frac=st.floats(0.0, 1.0),
    n=st.integers(1, 300),
    level=st.integers(0, 3),
)
def test_family_wrap_index_equals_bisection(a, period, where, ulps, frac, n, level):
    b = a + period
    t = a + frac * period
    if where != "inside":
        t, toward = (b, a) if where == "next to b" else (a, b)
        for _ in range(ulps):
            t = np.nextafter(t, toward)
    if not a < t < b:
        return
    integ = PeriodicIntegrand(m=1, t=float(t), a=a, b=b, g_eval=np.cos)
    ks, inside, delta = _family(integ, n, level)
    t, b = float(integ.t), float(integ.b)
    assert inside == bisect.bisect_left(ks, True, key=lambda k: not t + k * delta < b)


@pytest.mark.parametrize("t", [-3.1, 0.3, 2.9])
def test_primitive_lattices_partition_a_family(t):
    integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=t)
    for n in range(1, 257):
        for level in range(4):
            _, x_hat = _family_nodes(integ, n, level)
            seen = np.zeros(x_hat.size, dtype=int)
            for N, idx in _primitives(n, level):
                # the same doubles as the family that is P(N) alone
                alone = _family_nodes(integ, N // 2, 1) if N % 2 == 0 else _family_nodes(integ, N, 0)
                assert x_hat[idx].tobytes() == alone[1].tobytes()
                seen[idx] += 1
            assert np.all(seen == 1), (n, level)


# What the table relies on: an evaluator of ``integrands`` gives a node the
# same double whatever its position in the array and the array's length.
@settings(max_examples=60, deadline=None, database=None)
@given(
    m=st.integers(1, 6),
    u=_trig_polynomial | st.floats(-0.9, 0.9).map(PoissonKernelU),
    t=st.floats(-math.pi, math.pi),
    # some families larger than g_eval's block of 8192 nodes
    families=st.lists(
        st.tuples(st.integers(1, 50) | st.integers(4000, 12000), st.integers(0, 3)),
        min_size=1,
        max_size=6,
    ),
)
def test_g_on_concatenated_nodes_equals_g_per_family(m, u, t, families):
    integ = singular_periodic_integrand(u, m=m, t=t)
    xs = [_family_nodes(integ, n, level)[1] for n, level in families]
    together = integ.g_eval(np.concatenate(xs))
    start = 0
    for x in xs:
        assert np.array_equal(together[start : start + x.size], integ.g_eval(x))
        start += x.size


def _family_nodes_reference(integ, n, level):
    """The node family by the np.where formula over int64 that
    _family_nodes replaced: its reference, bit for bit."""
    t, b = integ.t, integ.b
    delta = (integ.period / n) / 2**level
    total = 2**level * n
    k = np.arange(1, total, 2 if level else 1, dtype=np.int64)
    y = np.where(t + k * delta < b, k, k - total) * delta
    return y, np.clip(t + y, integ.a, b)


def _check_family_nodes(integ, n, level):
    y, x_hat = _family_nodes(integ, n, level)
    y_ref, x_ref = _family_nodes_reference(integ, n, level)
    assert y.tobytes() == y_ref.tobytes()
    assert x_hat.tobytes() == x_ref.tobytes()
    # the wrapped offsets are the tail: once a node wraps, every later one does
    wrapped = y < 0
    assert not np.any(wrapped[:-1] & ~wrapped[1:])


@settings(max_examples=200, deadline=None, database=None)
@given(
    t=st.floats(-math.pi, math.pi),
    n=st.integers(2, 3000),
    level=st.integers(0, 4),
)
def test_family_nodes_equal_the_np_where_formula(t, n, level):
    _check_family_nodes(singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=t), n, level)


def _edge_integrand(t, a, b):
    return PeriodicIntegrand(m=2, t=t, a=a, b=b, g_eval=np.cos)


# t + (n/2) delta rounds onto b (the node wraps), below b (it stays) or
# above b; a wrapped node rounds below a and is clipped; |t| = 1e3; t one
# ulp from a (no node wraps) or from b (every node wraps).
@pytest.mark.parametrize(
    "integ, n, level",
    [
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=2.8189476143269747), 100, 0),
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.23966150518651785), 300, 0),
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.07427745862364432), 302, 0),
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=0.3), 7, 1),
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=-1.2536126935942606), 100, 0),
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=1e3), 10, 2),
        (singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=-1e3), 11, 3),
        (_edge_integrand(math.nextafter(0.0, 1.0), 0.0, TWO_PI), 9, 0),
        (_edge_integrand(math.nextafter(1.0, 2.0), 1.0, 1.0 + TWO_PI), 12, 1),
        (_edge_integrand(math.nextafter(TWO_PI, 0.0), 0.0, TWO_PI), 9, 2),
    ],
)
def test_family_nodes_edges(integ, n, level):
    _check_family_nodes(integ, n, level)


def test_family_nodes_edge_cases_hit_their_edges():
    # t + (n/2) delta lands on, below and above b in the first three cases
    landed = []
    for t, n in ((2.8189476143269747, 100), (0.23966150518651785, 300), (0.07427745862364432, 302)):
        integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=t)
        landed.append(np.sign(t + (n // 2) * (integ.period / n) - integ.b))
    assert landed == [0.0, -1.0, 1.0]
    integ = singular_periodic_integrand(PoissonKernelU(0.5), m=3, t=-1.2536126935942606)
    y, x_hat = _family_nodes(integ, 100, 0)
    assert np.any(integ.t + y < integ.a) and x_hat.min() == integ.a


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


# norms, periods and n of every magnitude a double holds: the floor is a
# finite double or EvaluationError, never inf nor ZeroDivisionError
_magnitude = st.one_of(st.just(0.0), st.floats(5e-324, 1e308))


@settings(max_examples=300, deadline=None, database=None)
@given(
    norms=st.tuples(_magnitude, _magnitude, _magnitude),
    period=st.floats(5e-324, 1e308),
    n=st.one_of(st.integers(1, 2**20), st.integers(1, 10**308)),
)
@example(norms=(1e308, 1e308, 1e308), period=1e-3, n=1)
@example(norms=(1.0, 0.0, 0.0), period=1e-300, n=10)
def test_roundoff_floor_is_finite_or_an_evaluation_error(norms, period, n):
    try:
        floor = roundoff_floor(*norms, period, n)
    except EvaluationError:
        return
    assert math.isfinite(floor) and floor >= 0.0


# Numbers of every magnitude a double holds, as Python floats and ints and
# as numpy float64, float32 and int64 scalars, each within its own type's
# finite range: the inputs of the norm sample and the reference oracle.
_positive = st.one_of(
    st.floats(5e-324, 1e308),
    st.floats(5e-324, 1e308).map(np.float64),
    st.floats(0.0, float(np.finfo(np.float32).max), width=32, exclude_min=True).map(np.float32),
    st.integers(1, 10**308),
    st.integers(1, 2**62).map(np.int64),
)
_signed = st.one_of(st.just(0.0), _positive, _positive.map(lambda v: -v))


def _drawn_integrand(cos, sin, m, t, period, plain, n_derivs):
    """The split integrand of the drawn trigonometric polynomial, or with
    ``plain`` its g as a plain callable; None where the arguments are
    refused (ValueError) or a g derivative at t is not finite
    (EvaluationError), before any g value is sampled."""
    u = TrigPolynomial(tuple(cos), tuple(sin))
    try:
        integ = singular_periodic_integrand(u, m=m, t=t, period=period, n_derivs=n_derivs)
    except (ValueError, HfpquadError):
        return None
    return dataclasses.replace(integ, g_eval=lambda x: integ.g_eval(x)) if plain else integ


_drawn = dict(
    cos=st.lists(_signed, min_size=1, max_size=4),
    sin=st.lists(_signed, max_size=3),
    m=st.integers(1, 4),
    t=_signed,
    period=_positive,
    plain=st.booleans(),
)


@settings(max_examples=200, deadline=None, database=None)
@given(**_drawn)
@example(cos=[0.0], sin=[1e302], m=3, t=1.0, period=TWO_PI, plain=False)
def test_integrand_norms_are_finite_or_an_hfpquad_error(cos, sin, m, t, period, plain):
    integ = _drawn_integrand(cos, sin, m, t, period, plain, n_derivs=m)
    if integ is None:
        return
    try:
        norms = integrand_norms(integ)
    except HfpquadError:
        return
    assert all(map(math.isfinite, norms))


@settings(max_examples=100, deadline=None, database=None)
@given(**_drawn)
@example(cos=[1.0], sin=[], m=2, t=0.0, period=2e-300, plain=True)
def test_hfp_reference_is_finite_or_an_hfpquad_error(cos, sin, m, t, period, plain):
    integ = _drawn_integrand(cos, sin, m, t, period, plain, n_derivs=m + 4)
    if integ is None:
        return
    try:
        value = hfp_reference(integ.g_eval, integ.g_derivs_at_t, m, integ.a, integ.b, integ.t)
    except HfpquadError:
        return
    assert math.isfinite(value)
