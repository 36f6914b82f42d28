"""Trapezoidal-type rules for finite-part integrals of periodic integrands.

The integrand model is f(x) = g(x)/(x - t)^m with f periodic of period
T = b - a and a single interior singular point t per period.  The plain
trapezoidal sum over one period, corrected by a short sum of derivative
terms at t, converges to the finite-part value faster than any power of n;
extrapolated combinations of the corrected rule trade derivative data for
extra function evaluations, down to fully derivative-free forms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import _kernels
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
    """

    m: int
    t: float
    a: float
    b: float
    g_eval: Callable
    g_derivs_at_t: Optional[tuple[float, ...]] = None

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
        # wrap_to_fundamental gives a float for a 0-d x; keep it an array
        xw = np.asarray(wrap_to_fundamental(x, self))
        vals = _eval_g(self, xw) / _kernels.int_power(xw - self.t, self.m)
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


def _call_g(integrand: PeriodicIntegrand, x: np.ndarray) -> np.ndarray:
    """g_eval(x) as floats of shape x.shape or (P, *x.shape); an evaluator
    that raises or returns another shape gives EvaluationError."""
    try:
        vals = np.asarray(integrand.g_eval(x), dtype=float)
    except Exception as exc:
        raise EvaluationError(f"integrand evaluator failed on {x.size} nodes: {exc}") from exc
    if vals.shape not in (x.shape, vals.shape[:1] + x.shape):
        raise EvaluationError(
            f"integrand evaluator returned shape {vals.shape} for nodes of shape {x.shape}"
        )
    return vals


def _eval_g(integrand: PeriodicIntegrand, x: np.ndarray) -> np.ndarray:
    """g at the nodes x: an array of x's shape, or (P, *x.shape) for a vector g.

    Besides ``_call_g``'s checks, a non-finite value gives EvaluationError
    carrying the index of the first offending node.  A vector g with
    ``g_derivs_at_t`` raises ValueError: the derivative corrections are
    scalars and would be applied to every row alike.
    """
    vals = _call_g(integrand, x)
    if vals.ndim > x.ndim and integrand.g_derivs_at_t is not None:
        raise ValueError("a vector-valued g carries no g derivatives")
    if not np.all(np.isfinite(vals)):
        # flat index into (P, *x.shape) modulo the node count is the node
        idx = int(np.flatnonzero(~np.isfinite(vals))[0]) % x.size
        xi = float(x.ravel()[idx])
        raise EvaluationError(
            f"integrand evaluator returned a non-finite value at node {idx} (x={xi!r})",
            node_index=idx,
            node_x=xi,
        )
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


@dataclass(frozen=True)
class RuleSpec:
    """Which rule to apply: order m, extrapolation level s, base count n."""

    m: int
    s: int
    n: int
    path: str = "generic"

    def __post_init__(self):
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
    t, b = integrand.t, integrand.b
    delta = (integrand.period / n) / 2**level
    total = 2**level * n
    k = np.arange(1, total, 2 if level else 1, dtype=np.int64)
    wrapped = np.where(t + k * delta < b, k, k - total)
    y = wrapped * delta
    x_hat = np.clip(t + y, integrand.a, b)
    return y, x_hat


def _family_sum(integrand: PeriodicIntegrand, n: int, level: int, weight: Fraction):
    """weight * h * sum of f over one node family (per row of a vector g)."""
    y, x_hat = _family_nodes(integrand, n, level)
    g_vals = _eval_g(integrand, x_hat)
    return float(weight) * (integrand.period / n) * _kernels.singular_sum(g_vals, y, integrand.m)


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
    r = m // 2 if m % 2 == 0 else (m - 1) // 2
    parity = 0 if m % 2 == 0 else 1
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


def _t_hat_compact(rule: CompactRule, integrand: PeriodicIntegrand, n: int):
    h, m = integrand.period / n, rule.m
    total = _fsum([_family_sum(integrand, n, level, w) for level, w in rule.families])
    total += math.fsum(
        float(coef) * math.pi ** (m - order) * integrand.deriv_at_t(order) * h ** (1 - m + order)
        for order, coef in rule.deriv_corrections
    )
    return total


def _t_hat_generic(integrand: PeriodicIntegrand, n: int, s: int) -> float:
    """fsum of alpha_k * (plain_trap_sum(2^k n) - correction_sum(2^k n)).

    The plain grids at n, 2n, ..., 2^s n nest: node j of the grid at 2^k n
    is node j*2^(s-k) of the finest grid, with the same offset double.  So
    g is evaluated once, on the finest grid, and each plain sum is the node
    sum over a strided view of it, equal to the per-grid sum bit for bit.
    """
    # corrections first: a missing derivative raises before g is evaluated
    corrections = [correction_sum(integrand, 2**k * n) for k in range(s + 1)]
    y, x_hat = _family_nodes(integrand, 2**s * n, 0)
    g_vals = _eval_g(integrand, x_hat)
    vals = []
    for k, w in enumerate(extrapolation_weights(s).alpha):
        stride = 2 ** (s - k)
        nodes = slice(stride - 1, None, stride)
        plain = (integrand.period / (2**k * n)) * _kernels.singular_sum(
            g_vals[nodes], y[nodes], integrand.m
        )
        vals.append(float(w) * (plain - corrections[k]))
    return math.fsum(vals)


def _rule_nodes(spec: RuleSpec, integrand: PeriodicIntegrand) -> list[np.ndarray]:
    """The wrapped node arrays on which ``t_hat(spec, integrand)`` evaluates g."""
    if spec.path == "compact":
        families = compact_rule(spec.m, spec.s).families
        return [_family_nodes(integrand, spec.n, level)[1] for level, _ in families]
    return [_family_nodes(integrand, 2**spec.s * spec.n, 0)[1]]


def _prefetch_g(integrand: PeriodicIntegrand, specs) -> PeriodicIntegrand:
    """``integrand`` with g served from one evaluation on every node array of ``specs``.

    g is called once, on the concatenation of the distinct arrays
    ``_rule_nodes`` gives for the specs, and the served g_eval returns the
    slice of an array with the same bytes.  So t_hat(spec, served) equals
    t_hat(spec, integrand) bit for bit when g is elementwise (a node's value
    does not depend on the other nodes of the call), as the evaluators of
    ``integrands`` are.  Nodes that were not prefetched raise HfpquadError.
    The non-finite check is left to each rule's own ``_eval_g``, so an error
    names the node and index a direct t_hat call would name.
    """
    arrays = {}
    for spec in specs:
        for x in _rule_nodes(spec, integrand):
            arrays.setdefault(x.tobytes(), x)
    vals = _call_g(integrand, np.concatenate(list(arrays.values())))
    bounds = np.cumsum([0] + [x.size for x in arrays.values()]).tolist()
    served = {key: vals[..., lo:hi] for key, lo, hi in zip(arrays, bounds, bounds[1:])}

    def g_eval(x):
        try:
            return served[np.asarray(x, dtype=float).tobytes()]
        except KeyError:
            raise HfpquadError(f"g was not prefetched at these {np.size(x)} nodes") from None

    return dataclasses.replace(integrand, g_eval=g_eval)


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
    """
    if min(g_norm, gp_norm, gppp_norm) < 0 or unit <= 0:
        raise ValueError("norms must be >= 0 and unit > 0")
    K = (
        2.0 * zeta_at(3) / period**2 * g_norm
        + math.pi**2 / (3.0 * period * n) * gp_norm
        + period / (6.0 * n**3) * gppp_norm
    )
    return K * unit * n**2
