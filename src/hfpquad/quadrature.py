"""Trapezoidal-type rules for finite-part integrals of periodic integrands.

The integrand model is f(x) = g(x)/(x - t)^m with f periodic of period
T = b - a and a single interior singular point t per period.  The plain
trapezoidal sum over one period, corrected by a short sum of derivative
terms at t, converges to the finite-part value faster than any power of n;
extrapolated combinations of the corrected rule trade derivative data for
extra function evaluations, down to fully derivative-free forms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .em_constants import zeta_at, zeta_even_rational
from .errors import DerivativesRequiredError, EvaluationError, HfpquadError

__all__ = [
    "PeriodicIntegrand",
    "RuleSpec",
    "CompactRule",
    "ExtrapolationWeights",
    "wrap_to_fundamental",
    "plain_trap_sum",
    "midpoint_sum",
    "correction_sum",
    "extrapolation_weights",
    "compact_rule",
    "t_hat",
    "roundoff_floor",
    "COMPACT_PAIRS",
    "max_compact_level",
]


# ---------------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicIntegrand:
    """f(x) = g(x)/(x - t)^m, extended T-periodically from [a, b].

    ``g_eval`` takes a numpy array of nodes and returns either an array of
    the same shape or, for a vector-valued g of P functions (the contract
    of ``scipy.integrate.quad_vec``), one of shape (P, *nodes).  ``t_hat``
    then returns P values, row i bit for bit the rule applied to the
    scalar integrand whose g is row i.  An evaluator that raises, returns
    another shape or a non-finite value gives EvaluationError.
    ``g_derivs_at_t`` holds [g(t), g'(t), ...] of a scalar g; rules that
    need derivative corrections refuse to run without enough entries
    rather than finite-differencing silently.  Instances are immutable.

    The rules' nodes lie on nested lattices (see ``_primitives``), and each
    instance memoizes the quotient f = g/(x - t)^m on the lattices its rules
    have evaluated: ``t_hat`` calls g, builds nodes and divides at most once
    per node of an integrand, and a rule is a set of sums over the memo, so
    g must give a node the same value whatever other nodes share the call.
    For a sequence of rules of growing n, such as a doubling sweep, the memo
    holds one double (one per row of a vector g) per distinct node
    evaluated, the finest rule's node count; a rule after a larger one on
    the same lattices can leave a node's value in more than one array.
    ``dataclasses.replace`` starts a new instance with an empty memo.
    """

    m: int
    t: float
    a: float
    b: float
    g_eval: Callable
    g_derivs_at_t: Optional[tuple[float, ...]] = None
    # lattice size N -> f on the primitive lattice P(N)
    _f_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("singularity order m must be >= 1")
        if not self.a < self.t < self.b:
            raise ValueError("singular point must satisfy a < t < b")
        for order, d in enumerate(self.g_derivs_at_t or ()):
            if not math.isfinite(d):
                raise EvaluationError(
                    f"g derivative of order {order} at t is not finite ({d!r})"
                )

    @property
    def period(self) -> float:
        return self.b - self.a

    def f_eval(self, x):
        """Evaluate f at x (scalar or array), wrapping into [a, b) first."""
        xw = _wrap(np.asarray(x, dtype=float), self.a, self.b)
        vals = _check_finite(_rule_g(self, xw), xw) / int_power(xw - self.t, self.m)
        return vals if vals.shape else float(vals)

    def deriv_at_t(self, order: int) -> float:
        if self.g_derivs_at_t is None or len(self.g_derivs_at_t) <= order:
            raise DerivativesRequiredError(
                f"g derivative of order {order} at t required but not supplied"
            )
        return float(self.g_derivs_at_t[order])


def wrap_to_fundamental(x, integrand: PeriodicIntegrand):
    """Shift x by the multiple of the period that lands it in [a, b)."""
    out = _wrap(np.asarray(x, dtype=float), integrand.a, integrand.b)
    return out if out.shape else float(out)


def _wrap(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """x shifted by the multiple of T = b - a that lands it in [a, b)."""
    T = b - a
    out = x - T * np.floor((x - a) / T)
    # guard against x exactly at b mapping to b through floor rounding
    return np.where(out >= b, out - T, out)


def _call(what: str, points: str, fn: Callable, *args, rows: bool = False) -> np.ndarray:
    """fn(*args) as floats, the one call into user code (g, w, phi, psi,
    ``centered``, U_k, ``u.deriv``), shaped as its last argument x, as the
    args broadcast, or (P, *x.shape) for a vector g (``rows``).  Another
    shape, or an exception other than HfpquadError, gives EvaluationError
    naming ``what``, chained to the exception; ``_check_finite`` checks values."""
    shape = np.shape(args[-1])
    try:
        vals = np.asarray(fn(*args), dtype=float)
    except HfpquadError:
        raise
    except Exception as exc:
        raise EvaluationError(f"{what} failed on {math.prod(shape)} {points}: {exc}") from exc
    if vals.shape != shape and vals.shape != np.broadcast(*args).shape and not (rows and vals.shape[1:] == shape):
        raise EvaluationError(f"{what} returned shape {vals.shape} for {points} of shape {shape}")
    return vals


def _rule_g(integrand: PeriodicIntegrand, x: np.ndarray) -> np.ndarray:
    """g_eval(x) through ``_call``; a vector g with ``g_derivs_at_t`` raises
    ValueError, as the scalar derivative corrections would hit every row alike."""
    vals = _call("integrand evaluator", "nodes", integrand.g_eval, x, rows=True)
    if vals.ndim > x.ndim and integrand.g_derivs_at_t is not None:
        raise ValueError("a vector-valued g carries no g derivatives")
    return vals


def _check_finite(
    vals: np.ndarray,
    x: np.ndarray,
    message: str = "integrand evaluator returned a non-finite value at node {index} (x={x!r})",
) -> np.ndarray:
    """vals, or EvaluationError naming the first node of x whose value is not
    finite (for a vector g, of any row) by ``message``'s {index} and {x}."""
    if not np.all(np.isfinite(vals)):
        # flat index into (P, *x.shape) modulo the node count is the node
        idx = int(np.flatnonzero(~np.isfinite(vals))[0]) % x.size
        xi = float(x.ravel()[idx])
        raise EvaluationError(message.format(index=idx, x=xi), node_index=idx, node_x=xi)
    return vals


# ---------------------------------------------------------------------------
# rule descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactRule:
    """One compact rule as weighted node sums plus derivative terms.

    ``families`` holds (level, weight) pairs: level 0 is the nodes t + jh,
    j = 1..n-1, and level l >= 1 the odd multiples of h/2^l; each node of a
    family weighs ``weight`` in units of h.  ``deriv_corrections`` holds
    (order, coef) pairs, each the term coef pi^(m-order) g^(order)(t)
    h^(1-m+order).
    """

    m: int
    s: int
    families: tuple[tuple[int, Fraction], ...]
    deriv_corrections: tuple[tuple[int, Fraction], ...]


#: The compact pairs with m <= 4, kept because hfpbench's paper-tables mix
#: is taken from this set; every m >= 1 has the levels s = 0..m//2 + 1.
COMPACT_PAIRS = frozenset((m, s) for m in range(1, 5) for s in range(m // 2 + 2))


def max_compact_level(m: int) -> int:
    """Largest s with a compact rule for this m, the first derivative-free
    level: the corrections scale as h^1, h^-1, ..., h^(1 - 2(m//2)) and each
    level removes one power."""
    if m < 1:
        raise ValueError(f"no compact rules for m={m}")
    return m // 2 + 1


@lru_cache(maxsize=None)
def compact_rule(m: int, s: int) -> CompactRule:
    """The level-s extrapolation of the corrected rule, regrouped by node.

    With alpha = extrapolation_weights(s), the base rule at 2^k n weighs its
    nodes by alpha_k h/2^k.  A node that is an odd multiple of h/2^level lies
    on the grids k >= level, so its family weighs sum_{k>=level} alpha_k 2^-k
    in units of h.  The nodes jh lie on every grid and get
    sum_k alpha_k 2^-k = 0 for s >= 1 (the first step removes h^1).  The
    correction term of g^(order) scales as h^(1-2j) on every grid, so its
    coefficient is the base one times sum_k alpha_k 2^(-k(1-2j)), which
    vanishes for the powers the extrapolation has eliminated.
    """
    if not 0 <= s <= max_compact_level(m):
        raise ValueError(f"no compact rule for (m={m}, s={s}); s runs 0..m//2 + 1")
    alpha = extrapolation_weights(s).alpha
    weights = ((level, sum(alpha[k] / 2**k for k in range(level, s + 1))) for level in range(s + 1))
    families = tuple((level, w) for level, w in weights if w)
    corrections = []
    for i in range(m // 2 + 1):
        order, j = 2 * i + m % 2, m // 2 - i
        # base term -(2/order!) zeta(2j) g^(order)(t) h^(1-2j), where
        # zeta(2j) = zeta_even_rational(j) 4^j pi^(2j)
        coef = (
            -Fraction(2, math.factorial(order))
            * 4**j
            * zeta_even_rational(j)
            * sum(a * Fraction(2) ** (k * (2 * j - 1)) for k, a in enumerate(alpha))
        )
        if coef:
            corrections.append((order, coef))
    return CompactRule(m, s, families, tuple(corrections))


def _require_integers(**values) -> None:
    """ValueError naming the first value that is not an integer: one whose type has no
    ``__index__``, which int and numpy's integers have and 3.0 has not."""
    for name, value in values.items():
        if not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer (got {value!r})")


@dataclass(frozen=True)
class RuleSpec:
    """Which rule to apply: order m, extrapolation level s, base count n."""

    m: int
    s: int
    n: int
    path: str = "generic"

    def __post_init__(self):
        _require_integers(m=self.m, s=self.s, n=self.n)
        if self.path not in ("compact", "generic"):
            raise ValueError(f"unknown rule path: {self.path!r}")
        if self.m < 1 or self.s < 0 or self.n < 1:
            raise ValueError("require m >= 1, s >= 0, n >= 1")
        if self.s == 0 and self.n < 2:
            raise ValueError("base rule needs n >= 2")
        if self.path == "compact" and self.s > max_compact_level(self.m):
            raise ValueError(f"(m={self.m}, s={self.s}) has no compact form")


# ---------------------------------------------------------------------------
# node sums
# ---------------------------------------------------------------------------


def _family_nodes(integrand: PeriodicIntegrand, n: int, level: int):
    """(y, x_hat): offsets y_j = x_j - t of a node family and wrapped nodes.

    Level 0 is the nodes jh, j = 1..n-1, and level l >= 1 the odd multiples
    of h/2^l.  Offsets are kept as integers times the spacing for as long
    as possible: the wrapped offset is (k - q*2^l n)*delta rather than a
    wrapped coordinate difference, which keeps the relative error of the
    singular denominator at the rounding unit instead of growing with n.
    For a power-of-two multiple of n the offsets of every coarser grid are
    the same doubles.
    """
    # Python floats, so the scalar wrap test below rounds as numpy's float64
    # arrays do whatever numeric types the integrand holds
    t, b = float(integrand.t), float(integrand.b)
    delta = float((integrand.period / n) / 2**level)
    total = 2**level * n
    ks = range(1, total, 2 if level else 1)
    # t + k*delta rounds monotonically in k, so the k with t + k*delta < b
    # are a leading run; the rest wrap to k - total
    inside = bisect.bisect_left(ks, True, key=lambda k: not t + k * delta < b)
    y = np.arange(ks.start, ks.stop, ks.step, dtype=float)
    y[inside:] -= total
    y *= delta
    x_hat = t + y
    np.clip(x_hat, integrand.a, b, out=x_hat)
    return y, x_hat


def _primitives(n: int, level: int) -> list[tuple[int, slice]]:
    """(N, indices) of each primitive lattice P(N) of the node family (n, level).

    P(N) is the nodes t + kT/N, 1 <= k < N, with k odd for an even N and any
    k for an odd N; its offsets are the same doubles in every family that
    holds it.  A level l >= 1 family is P(2^l n).  Level 0 at N is P(N),
    P(N/2), ... at the indices 2^e - 1 :: 2^(e+1), down to the odd part
    r = N/2^v of N at 2^v - 1 :: 2^v (P(1) has no nodes and is left out).
    """
    N = 2**level * n
    if level:
        return [(N, slice(None))]
    out, e = [], 0
    while N % 2 == 0:
        out.append((N, slice(2**e - 1, None, 2 ** (e + 1))))
        N, e = N // 2, e + 1
    if N > 1:
        out.append((N, slice(2**e - 1, None, 2**e)))
    return out


def int_power(y, m: int):
    """y^m for an integer m >= 1, exactly even or odd in y.

    numpy's ``pow`` is fast for positive bases only, so the power is taken
    of |y| and y's sign put back for odd m.  A multiplication chain would be
    faster, but it rounds to up to (m-1)/2 ulp against pow's half ulp, which
    the largest terms of an m = 4 rule carry into its value.  The result is
    a new float array of y's shape.
    """
    power = np.abs(y, out=np.empty(np.shape(y)))
    power **= m
    if m % 2:
        np.copysign(power, y, out=power)
    return power


def _memoize(integrand: PeriodicIntegrand, lattices) -> None:
    """Store f = g/y^m on each primitive lattice P(N), N in ``lattices``,
    that the memo lacks, from one g call.

    P(N) is built alone, as the level-1 family at N/2 (even N) or the
    level-0 family at N (odd N): the same doubles as in any family holding
    it.  f is stored unchecked (``_family_sums`` checks it), and is NaN
    where g is not finite, so an infinite f is a quotient that overflowed.
    """
    memo = integrand._f_memo
    nodes = {
        N: _family_nodes(integrand, N // 2, 1) if N % 2 == 0 else _family_nodes(integrand, N, 0)
        for N in dict.fromkeys(lattices)
        if N not in memo
    }
    if not nodes:
        return
    g = _rule_g(integrand, np.concatenate([x for _, x in nodes.values()]))
    g_finite, lo = np.isfinite(g).all(), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for N, (y, _) in nodes.items():
            g_N, lo = g[..., lo : lo + y.size], lo + y.size
            # dividing into the power's fresh array saves a node-sized allocation
            power = int_power(y, integrand.m)
            memo[N] = np.divide(g_N, power, out=power if g_N.shape == power.shape else None)
            if not g_finite:
                memo[N][~np.isfinite(g_N)] = np.nan


def _memoize_rules(integrand: PeriodicIntegrand, specs) -> None:
    """Fill the memo on every lattice of the specs' rules in one g call, so
    that ``t_hat`` of each spec calls no g and builds no nodes."""
    _memoize(integrand, [N for spec in specs for fam in _families(spec) for N, _ in _primitives(*fam)])


def _family_sums(integrand: PeriodicIntegrand, families) -> list[tuple[np.ndarray, object]]:
    """(f, sum of f) of each node family (n, level), in order, f from the memo.

    The lattices the memo lacks are filled first.  A family that is one
    lattice gets the memo's array itself, which nobody writes; a level-0
    family of more is assembled by strided copies, and the memo re-pointed
    at views of it, so a lattice's values are held once.  Each family's sum
    is checked in turn; only a non-finite one rebuilds the family's nodes,
    to name its first non-finite term by index and node in the family.
    """
    memo = integrand._f_memo
    parts = [_primitives(n, level) for n, level in families]
    _memoize(integrand, [N for ps in parts for N, _ in ps])
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (n, level), ps in zip(families, parts):
            if len(ps) == 1:
                f = memo[ps[0][0]]
            else:
                # a level-0 family at n: n - 1 nodes, the first lattice P(n)
                f = np.empty(memo[n].shape[:-1] + (n - 1,))
                for N, idx in ps:
                    f[..., idx] = memo[N]
                    memo[N] = f[..., idx]
            total = _sum(f)
            if not np.isfinite(total).all():
                x = _family_nodes(integrand, n, level)[1]
                if np.isinf(f[~np.isfinite(f)][:1]).any():
                    _check_finite(f, x, "g/(x - t)^m overflowed at node {index} (x={x!r}) where g is finite")
                _check_finite(f, x)
                raise EvaluationError(f"the sum of g/(x - t)^m over {x.size} nodes overflowed")
            out.append((f, total))
    return out


def _sum(f: np.ndarray):
    """Pairwise sum of f over its last axis: a float, or one per row of a vector g."""
    sums = f.sum(axis=-1)
    return sums if sums.ndim else float(sums)


def _family_sum(integrand: PeriodicIntegrand, n: int, level: int, weight: Fraction):
    """weight * h * sum of f over one node family (per row of a vector g)."""
    [(_, total)] = _family_sums(integrand, [(n, level)])
    return float(weight) * (integrand.period / n) * total


def plain_trap_sum(integrand: PeriodicIntegrand, n: int) -> float:
    """h * sum_{j=1}^{n-1} f(t + j h), h = T/n, nodes wrapped into [a, b)."""
    if n < 2:
        raise ValueError("plain trapezoidal sum needs n >= 2")
    return _family_sum(integrand, n, 0, Fraction(1))


def midpoint_sum(integrand: PeriodicIntegrand, n: int, level: int = 1) -> float:
    """Offset sums used by the extrapolated rules, level >= 1.

    level=1: h * sum_{j=1}^{n} f(t + jh - h/2)
    level=l: (h/2^(l-1)) * sum_{j=1}^{2^(l-1) n} f(t + jh/2^(l-1) - h/2^l)
    """
    if n < 1:
        raise ValueError("midpoint sum needs n >= 1")
    if level < 1:
        raise ValueError("level must be >= 1")
    return _family_sum(integrand, n, level, Fraction(1, 2 ** (level - 1)))


def correction_sum(integrand: PeriodicIntegrand, n: int) -> float:
    """Finite derivative correction removed from the plain sum.

    For m = 2r the sum runs over even derivatives of g at t, for m = 2r+1
    over odd ones; the plain trapezoidal sum minus this value is the base
    (s = 0) rule.
    """
    m = integrand.m
    h = integrand.period / n
    r, parity = m // 2, m % 2
    if integrand.g_derivs_at_t is None or len(integrand.g_derivs_at_t) <= m:
        raise DerivativesRequiredError(
            f"derivatives of g at t up to order {m} required for the s=0 rule"
        )
    terms = []
    for i in range(r + 1):
        order = 2 * i + parity
        terms.append(
            2.0
            * integrand.deriv_at_t(order)
            / math.factorial(order)
            * zeta_at(2 * r - 2 * i)
            * h ** (-2 * r + 2 * i + 1)
        )
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtrapolationWeights:
    """Exact coefficients alpha_k of the level-s combination of base rules."""

    s: int
    alpha: tuple[Fraction, ...]


@lru_cache(maxsize=None)
def extrapolation_weights(s: int) -> ExtrapolationWeights:
    """Weights from eliminating the powers h^1, h^-1, h^-3, ... in turn.

    Each elimination step uses the doubling pair (n, 2n): annihilating h^p
    combines values as (2^p X_{2n} - X_n)/(2^p - 1).  The resulting weights
    over the sequence n, 2n, ..., 2^s n are independent of m and sum to 1
    exactly.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    alpha = [Fraction(1)]
    for step in range(1, s + 1):
        p = 1 if step == 1 else -(2 * step - 3)
        two_p = Fraction(2) ** p
        a = 1 / (1 - two_p)
        b = two_p / (two_p - 1)
        new = [Fraction(0)] * (len(alpha) + 1)
        for k, w in enumerate(alpha):
            new[k] += a * w
            new[k + 1] += b * w
        alpha = new
    return ExtrapolationWeights(s=s, alpha=tuple(alpha))


# ---------------------------------------------------------------------------
# rule evaluation
# ---------------------------------------------------------------------------


def _fsum(terms: list):
    """math.fsum of the terms; of each row's terms for a vector g's arrays."""
    if np.ndim(terms[0]) == 0:
        return math.fsum(terms)
    return np.array([math.fsum(row) for row in np.stack(terms, axis=-1).tolist()])


def _families(spec: RuleSpec) -> list[tuple[int, int]]:
    """The node families (n, level) that ``t_hat(spec, ...)`` sums over, in order."""
    if spec.path == "compact":
        return [(spec.n, level) for level, _ in compact_rule(spec.m, spec.s).families]
    return [(2**spec.s * spec.n, 0)]


def _t_hat_compact(rule: CompactRule, integrand: PeriodicIntegrand, n: int):
    h, m = integrand.period / n, rule.m
    # corrections first: a missing derivative raises before g is evaluated
    corrections = math.fsum(
        float(coef) * math.pi ** (m - order) * integrand.deriv_at_t(order) * h ** (1 - m + order)
        for order, coef in rule.deriv_corrections
    )
    sums = _family_sums(integrand, [(n, level) for level, _ in rule.families])
    return _fsum([float(w) * h * total for (_, total), (_, w) in zip(sums, rule.families)]) + corrections


def _t_hat_generic(integrand: PeriodicIntegrand, n: int, s: int) -> float:
    """fsum of alpha_k * (plain_trap_sum(2^k n) - correction_sum(2^k n)).

    The plain grids at n, 2n, ..., 2^s n nest: node j of the grid at 2^k n
    is node j*2^(s-k) of the finest grid, with the same offset double.  So
    each plain sum sums a strided view of f on the finest grid; numpy sums
    a strided view bit for bit as its contiguous copy, the per-grid array.
    """
    # corrections first: a missing derivative raises before g is evaluated
    corrections = [correction_sum(integrand, 2**k * n) for k in range(s + 1)]
    [(f, total)] = _family_sums(integrand, [(2**s * n, 0)])
    # k = s is the finest grid itself
    plains = [_sum(f[..., 2 ** (s - k) - 1 :: 2 ** (s - k)]) for k in range(s)] + [total]
    return math.fsum(
        float(w) * ((integrand.period / (2**k * n)) * plain - corrections[k])
        for k, (w, plain) in enumerate(zip(extrapolation_weights(s).alpha, plains))
    )


def t_hat(spec: RuleSpec, integrand: PeriodicIntegrand):
    """Evaluate the rule described by ``spec`` on ``integrand``.

    The generic path combines base rules at n, 2n, ..., 2^s n with the
    extrapolation weights and therefore needs g derivatives up to order m;
    the compact path evaluates the same combination regrouped by node and is
    derivative-free at the top level s for each m.  For a vector-valued g
    (see PeriodicIntegrand) the result is an array, one value per row of g,
    each bit for bit the value of that row's own scalar integrand.
    """
    if spec.m != integrand.m:
        raise ValueError(
            f"rule order m={spec.m} does not match integrand m={integrand.m}"
        )
    if spec.path == "compact":
        return _t_hat_compact(compact_rule(spec.m, spec.s), integrand, spec.n)
    return _t_hat_generic(integrand, spec.n, spec.s)


# ---------------------------------------------------------------------------
# roundoff floor
# ---------------------------------------------------------------------------

#: unit roundoff of IEEE double precision
DOUBLE_UNIT = 2.0**-53


def roundoff_floor(
    g_norm: float,
    gp_norm: float,
    gppp_norm: float,
    period: float,
    n: int,
    unit: float = DOUBLE_UNIT,
) -> float:
    """Upper envelope K(n) * u * n^2 for the computed-rule error at large n.

    K(n) = 2 zeta(3)/T^2 * ||g|| + pi^2/(3 T n) * ||g'|| + T/(6 n^3) * ||g'''||.
    Needs n >= 1, a finite T > 0, finite norms >= 0 and a finite u > 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if not 0 < period < math.inf:
        raise ValueError(f"period must be finite and > 0 (got {period})")
    if not all(0 <= v < math.inf for v in (g_norm, gp_norm, gppp_norm)) or not 0 < unit < math.inf:
        raise ValueError("norms must be finite and >= 0, and unit finite and > 0")
    K = (
        2.0 * zeta_at(3) / period**2 * g_norm
        + math.pi**2 / (3.0 * period * n) * gp_norm
        + period / (6.0 * n**3) * gppp_norm
    )
    return K * unit * n**2
