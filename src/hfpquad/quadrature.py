"""Trapezoidal-type rules for finite-part integrals of periodic integrands.

The integrand model is f(x) = g(x)/(x - t)^m with f periodic of period
T = b - a and a single interior singular point t per period.  The plain
trapezoidal sum over one period, corrected by a short sum of derivative
terms at t, converges to the finite-part value faster than any power of n;
extrapolated combinations of the corrected rule trade derivative data for
extra function evaluations, down to fully derivative-free forms.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, wraps
from typing import Callable, Optional

import numpy as np

from .em_constants import zeta_at, zeta_even_rational
from .errors import DerivativesRequiredError, EvaluationError, HfpquadError

__all__ = [
    "PeriodicIntegrand",
    "SplitNumerator",
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
    instance memoizes S_N, the sum of the quotient f = g/(x - t)^m over each
    primitive lattice P(N) its rules have evaluated: ``t_hat`` calls g,
    builds nodes and divides at most once per node of an integrand (a rule
    that fails fills its lattices again to name the node), and a rule is a
    weighted sum of the memo's lattice sums.  g runs once per block of at
    most ``_G_BLOCK`` nodes, so it must give a node the same value whatever
    other nodes share the call.  The memo holds one double per lattice (one
    per row of a vector g), not one per node, and each S_N is a function of
    its lattice alone: rules on one integrand from several threads give the
    values they give serially.  ``dataclasses.replace`` starts a new
    instance with an empty memo.

    Every g is filled as a split g(x) = psi(x - t) u(x): f = psi(y) u/y^m
    on the exact offsets y of the nodes, with |y|^m and psi(|y|) read from a
    table shared by every integrand with the same psi, m and lattice.  A
    plain g is psi = 1 and u = g at the wrapped nodes x_hat, so f is bit for
    bit g(x_hat)/y^m.  A ``g_eval`` that is a ``SplitNumerator`` about this
    t declares its psi and u; ``g_eval(x)`` itself evaluates psi(x - t), so
    the two can differ in the last bits.  Replacing ``g_eval``
    (``dataclasses.replace(integ, g_eval=other)``) drops the split: the
    rules then fill the new g as a plain one.
    """

    m: int
    t: float
    a: float
    b: float
    g_eval: Callable
    g_derivs_at_t: Optional[tuple[float, ...]] = None
    # lattice size N -> S_N, the sum of f over the primitive lattice P(N)
    _f_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("singularity order m must be >= 1")
        _require_period(self.a, self.b)
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
        """Evaluate f at x (scalar or array), wrapping into [a, b) first.

        A point that wraps onto t raises EvaluationError naming it and its
        index, before g runs."""
        x = np.asarray(x, dtype=float)
        xw = _wrap(x, self.a, self.b)
        y = xw - self.t
        if not y.all():
            idx = int(np.flatnonzero(y == 0)[0])
            xi = float(x.ravel()[idx])
            raise EvaluationError(
                f"f is singular at point {idx} (x={xi!r}), which wraps onto t={self.t!r}", node_index=idx, node_x=xi
            )
        vals = _check_finite(_rule_g(self, xw), xw) / int_power(y, self.m)
        return vals if vals.shape else float(vals)

    def deriv_at_t(self, order: int) -> float:
        if self.g_derivs_at_t is None or len(self.g_derivs_at_t) <= order:
            raise DerivativesRequiredError(
                f"g derivative of order {order} at t required but not supplied"
            )
        return float(self.g_derivs_at_t[order])


@dataclass(frozen=True)
class SplitNumerator:
    """g(x) = psi(x - t) * u(x): a numerator g that declares its split.

    ``psi`` must be even and deterministic, a node's double not depending on
    the other offsets of the call, and ``u`` deterministic likewise; both
    take and return float arrays of one shape.  Calling the object evaluates
    g as written, psi(x - t) u(x), in one call.  The rules of a
    ``PeriodicIntegrand`` whose ``g_eval`` this is, about the integrand's
    own t, instead evaluate psi at the exact offsets y of their nodes, in
    the memo fill every g goes through (``_fill``; a plain g is psi = 1):
    psi(|y|) and |y|^m come from one entry per (psi, m, lattice) in the
    store of shared tables (``_lattice_table``), and u runs once per block
    of at most ``_G_BLOCK`` nodes.  u runs on the wrapped nodes
    x_hat = fl(t + y), unless it has a ``from_half_sine(S)`` method giving
    u(x) from S = sin(x/2) elementwise (``PoissonKernelU``): that method
    then runs on sin((t + y)/2), formed from the half-angle rows of the same
    entry without rounding x, so u is evaluated at t + y, not at x_hat.
    The store keys its entries on psi, so psi must be hashable: an
    unhashable psi raises ValueError naming it.
    ``integrand_norms`` and ``hfp_reference`` sample it the same way, psi(y)
    from a ``_psi_table`` on their offsets and u at x_hat (``_sample``).
    """

    psi: Callable
    u: Callable
    t: float

    def __post_init__(self):
        try:
            hash(self.psi)
        except TypeError as exc:
            raise ValueError(f"psi must be hashable, as the shared tables are keyed on it (got {self.psi!r})") from exc

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # [()] turns a 0-d result into a scalar and leaves arrays as they are
        return (self.psi(x - self.t) * np.asarray(self.u(x), dtype=float))[()]


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
    if vals.shape != shape and not (rows and vals.shape[1:] == shape) and vals.shape != np.broadcast(*args).shape:
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


def _require_period(a: float, b: float) -> None:
    """ValueError naming the bounds unless [a, b) is a period: a < b, with
    a, b and b - a finite."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b and math.isfinite(b - a)):
        raise ValueError(f"the period [a, b) must be finite and non-empty (got a={a!r}, b={b!r})")


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


#: blocks of the memo fill: g (psi and u of a split g) runs on at most this
#: many nodes per call, so that the temporaries stay in cache; a node's
#: double does not depend on the block, as g and u at x_hat are elementwise
#: and the half-angle sum of a u with ``from_half_sine`` is anchored on the
#: node's own k, and a lattice's sum does not either, as a lattice is cut
#: at multiples of this from its own start (``_blocks``)
_G_BLOCK = 8192

#: the largest N of a node lattice P(N) the memo fill takes: its node
#: indices k < N must fit a C ssize_t, as Python's range lengths do
_MAX_NODES = sys.maxsize

#: bound on the bytes the store of shared tables holds (``_table``)
_TABLE_BYTES = 8 * 2**20

# key -> (value, its bytes), least recently used first: the store of shared
# tables, which threads share under the lock
_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


def _table(key, build: Callable, *args):
    """The value of ``key`` in the store of shared tables, ``build(*args)``
    if the store lacks it.  Only ``_shared`` calls it, with the key
    (build, *args), so every entry is a function of what it is made from.

    The store is the one cache of arrays (lattice tables, psi tables, the
    norm sample's and the reference's offsets, lattice spectra, cardinal
    rows): a value is an array or a tuple holding arrays, which it marks
    read-only.  It keeps at most ``_TABLE_BYTES`` bytes of arrays and of
    bytes in keys, evicting the least recently used entries first; a value
    larger than that is returned but not kept.  ``build`` runs outside the
    lock, so two threads may build one key, and must give equal values.
    """
    with _TABLES_LOCK:
        if key in _TABLES:
            _TABLES[key] = entry = _TABLES.pop(key)
            return entry[0]
    value = build(*args)
    arrays = [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
    for array in arrays:
        array.flags.writeable = False
    nbytes = sum(a.nbytes for a in arrays) + sum(len(k) for k in key if isinstance(k, bytes))
    if nbytes <= _TABLE_BYTES:
        with _TABLES_LOCK:
            _TABLES.pop(key, None)
            held = sum(b for _, b in _TABLES.values())
            while held + nbytes > _TABLE_BYTES:
                held -= _TABLES.pop(next(iter(_TABLES)))[1]
            _TABLES[key] = (value, nbytes)
    return value


def _shared(fn: Callable) -> Callable:
    """fn with its values kept in the store of shared tables under the key
    (fn, *args), its positional arguments, which must be hashable and be
    all that the value depends on (``_table``)."""
    return wraps(fn)(lambda *args: _table((fn, *args), fn, *args))


@_shared
def _psi_table(psi: Callable, offsets: Callable, *key) -> np.ndarray:
    """psi on the offsets ``offsets(*key)``, one store entry per (psi,
    offsets, *key): the psi table of every caller but the memo fill, whose
    lattice entries hold psi(|y|) (``_lattice_table``).

    ``offsets`` is a function of the key alone, so the key is what the
    offsets are made from: the ends of the norm sample, the breakpoints and
    panel counts of the reference, or a ``psi`` kernel's offsets as bytes
    (``np.frombuffer``).  psi must be hashable and deterministic, a node's
    double not depending on the other offsets of the call.
    """
    return _call("psi", "offsets", psi, offsets(*key))


def _family(integrand: PeriodicIntegrand, n: int, level: int):
    """(ks, inside, delta) of a node family: node i has the offset
    ks[i]*delta for i < inside and (ks[i] - total)*delta after, with
    total = 2^level n = ks.stop.

    Level 0 is the nodes jh, j = 1..n-1, and level l >= 1 the odd multiples
    of h/2^l.  Offsets are kept as integers times the spacing for as long
    as possible: the wrapped offset is (k - total)*delta rather than a
    wrapped coordinate difference, which keeps the relative error of the
    singular denominator at the rounding unit instead of growing with n.
    For a power-of-two multiple of n the offsets of every coarser grid are
    the same doubles.
    """
    # Python floats, so the scalar wrap test below rounds as numpy's float64
    # arrays do whatever numeric types the integrand holds
    t, b = float(integrand.t), float(integrand.b)
    delta = float((integrand.period / n) / 2**level)
    ks = range(1, 2**level * n, 2 if level else 1)
    # t + k*delta rounds monotonically in k, so the k with t + k*delta < b
    # are a leading run; the rest wrap to k - total.  The run's length is
    # estimated from (b - t)/delta and moved to its end by the same test.
    inside = min(max(int((b - t) / delta / ks.step), 0), len(ks))
    while inside < len(ks) and t + ks[inside] * delta < b:
        inside += 1
    while inside and not t + ks[inside - 1] * delta < b:
        inside -= 1
    return ks, inside, delta


def _offsets(family, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """The offsets of the nodes lo:hi of a ``_family``."""
    ks, inside, delta = family
    r = ks[lo:hi]
    y = np.arange(r.start, r.stop, r.step, dtype=float)
    y[max(inside - lo, 0) :] -= ks.stop
    y *= delta
    return y


def _nodes(integrand: PeriodicIntegrand, y: np.ndarray) -> np.ndarray:
    """The wrapped nodes t + y, clipped into [a, b] against rounding."""
    x_hat = float(integrand.t) + y
    # np.clip's value, without its Python wrapper's cost per call
    np.minimum(np.maximum(x_hat, integrand.a, out=x_hat), float(integrand.b), out=x_hat)
    return x_hat


def _family_nodes(integrand: PeriodicIntegrand, n: int, level: int):
    """(y, x_hat): offsets y_j = x_j - t of a node family (see ``_family``)
    and its wrapped nodes."""
    y = _offsets(_family(integrand, n, level))
    return y, _nodes(integrand, y)


@lru_cache(maxsize=1024)
def _primitives(n: int, level: int) -> tuple[tuple[int, slice], ...]:
    """(N, indices) of each primitive lattice P(N) of the node family (n, level).

    P(N) is the nodes t + kT/N, 1 <= k < N, with k odd for an even N and any
    k for an odd N; its offsets are the same doubles in every family that
    holds it.  A level l >= 1 family is P(2^l n).  Level 0 at N is P(N),
    P(N/2), ... at the indices 2^e - 1 :: 2^(e+1), down to the odd part
    r = N/2^v of N at 2^v - 1 :: 2^v (P(1) has no nodes and is left out).
    Computed once per (n, level).
    """
    N = 2**level * n
    if level:
        return ((N, slice(None)),)
    out, e = [], 0
    while N % 2 == 0:
        out.append((N, slice(2**e - 1, None, 2 ** (e + 1))))
        N, e = N // 2, e + 1
    if N > 1:
        out.append((N, slice(2**e - 1, None, 2**e)))
    return tuple(out)


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


def _lattice(integrand: PeriodicIntegrand, N: int):
    """The ``_family`` that is P(N) alone, the level-1 family at N/2 (even N)
    or the level-0 family at N (odd N): the same doubles as in any family
    holding it."""
    return _family(integrand, N // 2, 1) if N % 2 == 0 else _family(integrand, N, 0)


def _split(integrand: PeriodicIntegrand) -> Optional[SplitNumerator]:
    """The integrand's g if it is split about the integrand's own t."""
    g = integrand.g_eval
    return g if isinstance(g, SplitNumerator) and g.t == integrand.t else None


def _sample(integrand: PeriodicIntegrand, offsets: Callable, *key):
    """(y, x, g): the offsets y = ``offsets(*key)``, the nodes x = t + y
    clipped into [a, b] (``_nodes``) and g there, in one call of u or g.

    ``offsets`` gives t-independent offsets from the store of shared tables
    (``_shared``), keyed on the scalars they are made from.  A g split about
    the integrand's t is psi(y) u(x), psi(y) read from its ``_psi_table``
    under the same key; any other g is psi = 1, g(x), of shape (P, *x.shape)
    for a vector g.  A non-finite value raises EvaluationError naming its
    node and x.
    """
    y = offsets(*key)
    x = _nodes(integrand, y)
    split = _split(integrand)
    if split is None:
        return y, x, _check_finite(_call("integrand evaluator", "nodes", integrand.g_eval, x, rows=True), x)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _psi_table(split.psi, offsets, *key) * _call("u", "nodes", split.u, x)
    return y, x, _check_finite(g, x)


def _blocks(sizes):
    """Arrays of these sizes cut into pieces at multiples of ``_G_BLOCK``
    from each array's own start, the pieces packed in order into blocks of
    at most ``_G_BLOCK`` elements: per block, its (array index, lo, hi)
    pieces.  An array of at most ``_G_BLOCK`` elements is one piece, so
    where an array is cut does not depend on the arrays before it."""
    block, room = [], _G_BLOCK
    for i, size in enumerate(sizes):
        for lo in range(0, size, _G_BLOCK):
            hi = min(size, lo + _G_BLOCK)
            if hi - lo > room:
                yield block
                block, room = [], _G_BLOCK
            block.append((i, lo, hi))
            room -= hi - lo
    if block:
        yield block


@_shared
def _lattice_table(psi: Optional[Callable], m: int, N: int, delta: float, size: int):
    """(psi(|y|), |y|^m, B, cos r theta, sin r theta, row angles) of the
    lattice P(N) of spacing delta: the one store entry per lattice that a
    fill reads.  psi(|y|) is None for psi None, a g that is not split.

    psi(|y|) and |y|^m are on the first ``size`` offsets k*delta of the
    lattice's nodes k = 1, 1 + step, ..., step 2 for an even N and 1 for an
    odd one; ``_fill`` passes size = max(inside, L - inside) of the
    lattice's ``_family``, its positive offsets and the magnitudes of its
    wrapped ones, which are the same doubles.  psi runs in blocks.  A table
    that numpy cannot or will not allocate raises EvaluationError naming
    the lattice, chained to numpy's MemoryError or ValueError.

    The half-angle rows give sin(x/2) at the nodes without forming x.  Node
    k of P(N) is x = t + j delta, j = k or, where it wraps, k - N, so
    x/2 = t/2 + j theta, theta = delta/2.  With k = qB + r, 0 <= r < B, and
    the row angle phi = t/2 + (qB - N) theta where the node wraps and
    t/2 + qB theta where it does not, sin(x/2) = sin(phi) cos(r theta) +
    cos(phi) sin(r theta).  B is a power of two near sqrt(N), so the rows
    hold O(sqrt N) values: the r of the lattice's parity (odd for an even
    N, whose k are odd), and the row angles qB theta, then (qB - N) theta,
    of q = 0 .. Q - 1, Q = ceil(N/B).
    """
    ks = range(1, N, 2 - N % 2)
    try:
        psi_abs, power = None if psi is None else np.empty(size), np.empty(size)
    except (MemoryError, ValueError) as exc:
        raise EvaluationError(f"the offset table of the lattice P({N}), {size} offsets, cannot be allocated") from exc
    for [(_, lo, hi)] in _blocks([size]):
        y = _offsets((ks, size, delta), lo, hi)
        if psi is not None:
            psi_abs[lo:hi] = _call("psi", "offsets", psi, y)
        power[lo:hi] = int_power(y, m)
    B = 2 ** max(1, N.bit_length() // 2)
    theta = 0.5 * delta
    r_theta = np.arange(ks.step - 1, B, ks.step) * theta
    qB = np.arange(0, N, B)
    angles = np.concatenate((qB * theta, (qB - N) * theta))
    return psi_abs, power, B, np.cos(r_theta), np.sin(r_theta), angles


def _half_angle_rows(integrand: PeriodicIntegrand, tables):
    """sin phi and cos phi of the rows of every lattice of a fill, from its
    ``_lattice_table`` entries, and per lattice (row, Q, B, cos r theta,
    sin r theta): node k = qB + r is in row row + q, or row + Q + q where
    it wraps.  np.sin and np.cos run once on the rows of all the lattices."""
    rows, start = [], 0
    for _, _, B, cos_r, sin_r, angles in tables:
        rows.append((start, angles.size // 2, B, cos_r, sin_r))
        start += angles.size
    phi = 0.5 * float(integrand.t) + np.concatenate([angles for *_, angles in tables])
    return np.sin(phi), np.cos(phi), rows


def _half_sines(family, half_angle_rows, j: int, lo: int, hi: int) -> np.ndarray:
    """sin(x/2) at the nodes lo:hi of the fill's lattice j (``family``),
    from the fill's ``_half_angle_rows``: a block that is one piece.

    The positive nodes of the piece, then its wrapped ones, are each a run
    of the lattice's row-major grid (row, r): sin(phi) cos(r theta) +
    cos(phi) sin(r theta) is formed on the rows the run spans and the run
    read from it.  Each value is that formula at the node's own k, as
    ``_gather`` forms it for a block of several pieces.
    """
    ks, inside, _ = family
    if lo < inside < hi:
        runs = (_half_sines(family, half_angle_rows, j, lo, inside), _half_sines(family, half_angle_rows, j, inside, hi))
        return np.concatenate(runs)
    sin_phi, cos_phi, rows = half_angle_rows
    row, Q, B, cos_r, sin_r = rows[j]
    row += Q if lo >= inside else 0
    first, last = row + ks[lo] // B, row + ks[hi - 1] // B + 1
    grid = sin_phi[first:last, None] * cos_r
    grid += cos_phi[first:last, None] * sin_r
    return grid.ravel()[ks[lo] % B // ks.step :][: hi - lo]


def _gather(integrand: PeriodicIntegrand, families, tables, half_angle_rows, block):
    """(u's argument, psi(|y|) or None, y^m) at the nodes of a block of several
    pieces, in its order, each node's doubles those of a one-piece block.

    Node i of a lattice wraps for i >= inside; its table row is i, or
    L-1-i where it wraps, in the block's ``_lattice_table`` entries joined,
    and for odd m a wrapped node's power is negated, so that g/y^m is its
    negated quotient.  u runs on the wrapped nodes x_hat = t + (k - N) delta
    or t + k delta, k = 1 + i*step, or, for a ``from_half_sine`` u
    (``half_angle_rows`` not None), on the half-angle sum at the node's row
    and column, k = qB + r (see ``_half_angle_rows``).  Every index comes
    from the pieces' per-lattice scalars in whole-block operations.
    """
    half = half_angle_rows is not None
    scalars, psi_abs, power, cos_r, sin_r, deltas = [], [], [], [], [], []
    start = first = column = 0
    for j, lo, hi in block:
        (ks, inside, delta), (psi_j, power_j, *_) = families[j], tables[j]
        psi_abs.append(psi_j)
        power.append(power_j)
        # i = position + lo - start; table row first + i, or first + L-1-i
        scalars += (lo - start, inside, first + len(ks) - 1, first)
        if half:
            row, Q, B, cos_j, sin_j = half_angle_rows[2][j]
            cos_r.append(cos_j)
            sin_r.append(sin_j)
            # k = step*i + 1 = qB + r: for step 1, q and r from i + 1 and B;
            # for step 2, from i and B/2, which cos_j's column r//2 spans
            scalars += (2 - ks.step, B.bit_length() - ks.step, cos_j.size - 1, row, row + Q, column)
            column += cos_j.size
        else:
            deltas.append(delta)
            scalars += (ks.step, ks.stop)
        start += hi - lo
        first += power_j.size
    runs = [hi - lo for _, lo, hi in block]
    c = np.array(scalars).reshape(len(block), -1).T.repeat(runs, axis=1)
    i = np.arange(start)
    i += c[0]
    wrapped = i >= c[1]
    row = np.where(wrapped, c[2] - i, i + c[3])
    psi_abs = None if psi_abs[0] is None else np.concatenate(psi_abs).take(row)
    power = np.concatenate(power).take(row)
    if integrand.m % 2:
        np.negative(power, out=power, where=wrapped)
    if not half:
        # y = (k - N) delta where the node wraps, else k delta, in floats
        # from exact integers, as ``_offsets`` forms them
        k = i * c[4]
        k += 1
        k -= wrapped * c[5]
        y = k.astype(float)
        y *= np.array(deltas).repeat(runs)
        return _nodes(integrand, y), psi_abs, power
    sin_phi, cos_phi, _ = half_angle_rows
    k = i + c[4]
    q = np.where(wrapped, c[8], c[7])
    q += k >> c[5]
    k &= c[6]
    k += c[9]
    S = sin_phi.take(q)
    S *= np.concatenate(cos_r).take(k)
    cos_sin = cos_phi.take(q)
    cos_sin *= np.concatenate(sin_r).take(k)
    S += cos_sin
    return S, psi_abs, power


def _fill(integrand: PeriodicIntegrand, lattices: list, arrays: bool = False) -> list:
    """S_N, the sum of f = psi(y) u/y^m over each primitive lattice P(N), N
    in ``lattices``, in order: a float, or one per row of a vector g; with
    ``arrays``, (g, f) on each lattice's nodes instead, g = psi u.

    A g split about the integrand's t gives its psi and u; any other g is
    psi = 1, u = g through ``_rule_g``, never through a ``from_half_sine``
    it may have.  u is u(x_hat) at the wrapped nodes, or, for a split u
    with ``from_half_sine``, that method on sin((t + y)/2) from the
    lattice's half-angle rows.  psi(|y|), |y|^m and those rows come from
    one ``_lattice_table`` entry per lattice, the positive offsets at their
    own rows and the wrapped ones, whose magnitudes are the same doubles,
    reversed; for odd m the wrapped quotient is negated, which is exact as
    IEEE division is sign-symmetric.  As psi is even, each f is bit for bit
    psi(y) u/y^m (a plain g's g(x_hat)/y^m), y^m = ``int_power(y, m)``.

    The lattices are cut and packed into blocks by ``_blocks``, and u runs
    once per block.  A block that is one piece reads the table as two view
    runs, positive and wrapped (``_half_sines``); a block of several pieces,
    the small lattices of a table, is one gathered pass (``_gather``).  f is
    formed in a block-sized buffer and each piece summed there while it is
    in cache, by numpy's pairwise sum.  S_N is the one piece's sum of a
    lattice of at most ``_G_BLOCK`` nodes, else the ``_fsum`` of its
    pieces' sums, so it depends on the lattice alone, not on the lattices
    that share its fill.  f is not checked here: a sum is finite only if
    every term is, which ``_family_sums`` tests.
    """
    families = [_lattice(integrand, N) for N in lattices]
    m, split, rows = integrand.m, _split(integrand), None
    psi = None if split is None else split.psi
    tables = [_lattice_table(psi, m, ks.stop, delta, max(inside, len(ks) - inside)) for ks, inside, delta in families]
    if split is None:
        u_of = partial(_rule_g, integrand)
    else:
        from_half_sine = getattr(split.u, "from_half_sine", None)
        u_of = partial(_call, "u", "nodes", split.u if from_half_sine is None else from_half_sine)
        rows = None if from_half_sine is None else _half_angle_rows(integrand, tables)
    sizes = [len(ks) for ks, _, _ in families]
    pieces: list = [[] for _ in lattices]
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(sizes):
            j, lo, hi = block[0]
            if len(block) > 1:
                arg, psi_abs, power = _gather(integrand, families, tables, rows, block)
                u = u_of(arg)
                g = u if psi_abs is None else np.multiply(psi_abs, u, out=psi_abs)
                f = np.divide(g, power, out=power if g.shape == power.shape else None)
            else:
                (ks, inside, _), (psi_abs, power, *_) = families[j], tables[j]
                if rows is None:
                    u = u_of(_nodes(integrand, _offsets(families[j], lo, hi)))
                else:
                    u = u_of(_half_sines(families[j], rows, j, lo, hi))
                # nodes lo:c have positive offsets, table rows lo:c; the
                # wrapped nodes c:hi have table rows L-1-c down to L-hi
                L, c = len(ks), min(max(inside, lo), hi)
                g, f, mid = u, np.empty(u.shape), c - lo
                if psi_abs is not None:
                    g = np.empty(u.shape)
                    np.multiply(psi_abs[lo:c], u[..., :mid], out=g[..., :mid])
                    np.multiply(psi_abs[L - hi : L - c][::-1], u[..., mid:], out=g[..., mid:])
                np.divide(g[..., :mid], power[lo:c], out=f[..., :mid])
                np.divide(g[..., mid:], power[L - hi : L - c][::-1], out=f[..., mid:])
                if m % 2:
                    f[..., mid:] *= -1.0
            start = 0
            for j, lo, hi in block:
                piece = slice(start, start + hi - lo)
                pieces[j].append((g[..., piece].copy(), f[..., piece].copy()) if arrays else _sum(f[..., piece]))
                start = piece.stop
    if arrays:
        return [tuple(np.concatenate(run, axis=-1) for run in zip(*p)) for p in pieces]
    return [p[0] if len(p) == 1 else _fsum(p) for p in pieces]


def _memoize(integrand: PeriodicIntegrand, lattices) -> None:
    """Store S_N (``_fill``) of each primitive lattice P(N), N in
    ``lattices``, that the memo lacks.

    The memo is written once the fill is done, so that a psi or u that
    raises leaves it as it was.  S_N is a function of the lattice alone, so
    two threads that fill one lattice store equal values.  A lattice P(N)
    with N above ``_MAX_NODES`` raises EvaluationError naming N before
    anything is filled.
    """
    memo = integrand._f_memo
    missing = [N for N in lattices if N not in memo]
    if missing:
        missing = list(dict.fromkeys(missing))
        N = max(missing)
        if N > _MAX_NODES:
            raise EvaluationError(f"the node lattice P({N}) of {N} points per period is too large (at most {_MAX_NODES})")
        memo.update(zip(missing, _fill(integrand, missing)))


def _memoize_rules(integrand: PeriodicIntegrand, specs) -> None:
    """Fill the memo on every lattice of the specs' rules in one pass of
    blocks, so that ``t_hat`` of each spec calls no g and builds no nodes."""
    families = [
        (2**k * spec.n, level) for spec in specs for k, level, _ in _rule_weights(spec.m, spec.s, spec.path)[0]
    ]
    _memoize(integrand, [N for family in families for N, _ in _primitives(*family)])


def _family_sums(integrand: PeriodicIntegrand, families) -> list:
    """The sum of f over each node family (n, level), in order: a float, or
    one per row of a vector g.

    A family's sum is the S_N of its one lattice, or the ``_fsum`` of the
    S_N of its lattices (a level-0 family of several), read from the memo
    once the lattices it lacks are filled.  In IEEE arithmetic a sum is
    finite only if every term is, so a finite sum is a finite f at every
    node; only a sum that is not finite has the family's lattices filled
    again (``_raise_non_finite``), to name the failure.
    """
    parts = [_primitives(n, level) for n, level in families]
    _memoize(integrand, [N for ps in parts for N, _ in ps])
    memo, sums = integrand._f_memo, []
    for (n, level), ps in zip(families, parts):
        total = memo[ps[0][0]] if len(ps) == 1 else _fsum([memo[N] for N, _ in ps])
        if not _finite(total):
            _raise_non_finite(integrand, n, level)
        sums.append(total)
    return sums


def _raise_non_finite(integrand: PeriodicIntegrand, n: int, level: int):
    """EvaluationError for the node family (n, level), whose sum is not finite.

    The family's lattices are filled again into arrays, with the memo
    fill's own values, and put in node order.  The first term that is not
    finite is named by its index and node in the family: as a non-finite
    value of the evaluator, or, where g is finite there, as a quotient that
    overflowed.  If every term is finite, their sum overflowed.
    """
    ps = _primitives(n, level)
    filled = _fill(integrand, [N for N, _ in ps], arrays=True)
    x = _family_nodes(integrand, n, level)[1]
    g, f = (np.empty(filled[0][0].shape[:-1] + x.shape) for _ in range(2))
    for (_, idx), (g_N, f_N) in zip(ps, filled):
        g[..., idx], f[..., idx] = g_N, f_N
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size and np.isfinite(g.ravel()[bad[0]]):
        _check_finite(f, x, "g/(x - t)^m overflowed at node {index} (x={x!r}) where g is finite")
    _check_finite(f, x)
    raise EvaluationError(f"the sum of g/(x - t)^m over {x.size} nodes overflowed")


def _sum(f: np.ndarray):
    """Pairwise sum of f over its last axis: a float, or one per row of a vector g."""
    sums = f.sum(axis=-1)
    return sums if sums.ndim else float(sums)


def _fsum(terms: list):
    """math.fsum of the terms; of each row's terms for a vector g's arrays.

    The sum is exactly rounded, so it is finite exactly when every term is
    and the exact sum does not overflow: it is NaN where ``math.fsum``
    raises (inf - inf, or finite terms whose sum overflows)."""
    if not terms or not isinstance(terms[0], np.ndarray):
        return _fsum_row(terms)
    return np.array([_fsum_row(row) for row in np.stack(terms, axis=-1).tolist()])


def _fsum_row(terms) -> float:
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def _finite(value) -> bool:
    """Whether a value, or each row's value of a vector g, is finite."""
    return bool(np.isfinite(value).all()) if isinstance(value, np.ndarray) else math.isfinite(value)


def _finite_value(value, terms: list, names, what: str):
    """value, a sum of the finite inputs of a rule, if it is finite.  Else
    EvaluationError naming the first of ``terms`` that is not finite by its
    entry in ``names``, or, where every term is finite, ``what``: with
    finite inputs, a term or sum that is not finite is one that overflowed."""
    if _finite(value):
        return value
    for name, term in zip(names, terms):
        if not _finite(term):
            raise EvaluationError(f"{name} overflowed")
    raise EvaluationError(f"{what} overflowed")


def plain_trap_sum(integrand: PeriodicIntegrand, n: int) -> float:
    """h * sum_{j=1}^{n-1} f(t + j h), h = T/n, nodes wrapped into [a, b)."""
    _require_integers(n=n)
    if n < 2:
        raise ValueError("plain trapezoidal sum needs n >= 2")
    return _rule_value(integrand, n, ((0, 0, 1.0),), (), ("the weighted node sum",))


def midpoint_sum(integrand: PeriodicIntegrand, n: int, level: int = 1) -> float:
    """Offset sums used by the extrapolated rules, level >= 1.

    level=1: h * sum_{j=1}^{n} f(t + jh - h/2)
    level=l: (h/2^(l-1)) * sum_{j=1}^{2^(l-1) n} f(t + jh/2^(l-1) - h/2^l)
    """
    _require_integers(n=n, level=level)
    if n < 1:
        raise ValueError("midpoint sum needs n >= 1")
    if level < 1:
        raise ValueError("level must be >= 1")
    return _rule_value(integrand, n, ((0, level, 2.0 ** (1 - level)),), (), ("the weighted node sum",))


def _zeta_coefs(m: int) -> tuple[tuple[int, float], ...]:
    """(order, 2 zeta(m - order)/order!) for the orders of g the base rule's
    correction reads, m % 2, m % 2 + 2, ..., m: the term of g^(order)(t) at
    spacing h is that coefficient times g^(order)(t) h^(1-m+order).  The
    floats come from ``zeta_at``, not from ``compact_rule``'s rationals."""
    return tuple((order, 2.0 / math.factorial(order) * zeta_at(m - order)) for order in range(m % 2, m + 1, 2))


def correction_sum(integrand: PeriodicIntegrand, n: int) -> float:
    """Finite derivative correction removed from the plain sum.

    For m = 2r the sum runs over even derivatives of g at t, for m = 2r+1
    over odd ones, each term ``_zeta_coefs(m)``'s coefficient times
    g^(order)(t) h^(1-m+order), h = T/n; the plain trapezoidal sum minus
    this value is the base (s = 0) rule.
    """
    _require_integers(n=n)
    if n < 1:
        raise ValueError("correction sum needs n >= 1")
    m = integrand.m
    h = integrand.period / n
    if integrand.g_derivs_at_t is None or len(integrand.g_derivs_at_t) <= m:
        raise DerivativesRequiredError(
            f"derivatives of g at t up to order {m} required for the s=0 rule"
        )
    coefs = _zeta_coefs(m)
    terms = [c * integrand.deriv_at_t(order) * h ** (1 - m + order) for order, c in coefs]
    names = (f"the g^({order})(t) correction term at n={n}" for order, _ in coefs)
    return _finite_value(_fsum(terms), terms, names, f"the derivative correction at n={n}")


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


@lru_cache(maxsize=None)
def _rule_weights(m: int, s: int, path: str):
    """The rule (m, s) of ``path`` as one float table (families,
    corrections, names), formed once per rule.

    A family (k, level, w) is the node family (2^k n, level) of the rule at
    n, each node weighing w h, h = T/n; a correction (order, c) is the term
    c g^(order)(t) h^(1-m+order); ``names`` names the corrections, then the
    families, for ``_finite_value``.  The compact rule is
    ``compact_rule(m, s)`` in floats, at k = 0, with c = coef pi^(m-order).
    The generic rule is sum_k alpha_k times the base rule at 2^k n, the
    plain sum less ``_zeta_coefs``' corrections at spacing h/2^k: the
    level-0 family (2^k n, 0) weighs alpha_k 2^-k, and the grid's term of
    g^(order) has c = -alpha_k 2^(-k(1-m+order)) 2 zeta(m - order)/order!,
    so it reads g^(order)(t) for every order up to m.
    """
    if path == "compact":
        rule = compact_rule(m, s)
        families = tuple((0, level, float(w)) for level, w in rule.families)
        corrections = tuple((order, float(coef) * math.pi ** (m - order)) for order, coef in rule.deriv_corrections)
        names = [f"the g^({order})(t) correction term" for order, _ in corrections]
        names += (f"the level-{level} node sum term" for _, level, _ in families)
        return families, corrections, tuple(names)
    alpha = extrapolation_weights(s).alpha
    families = tuple((k, 0, float(a / 2**k)) for k, a in enumerate(alpha))
    grids = [
        (k, order, -float(a * Fraction(2) ** (k * (m - 1 - order))) * c)
        for k, a in enumerate(alpha)
        for order, c in _zeta_coefs(m)
    ]
    names = [f"the g^({order})(t) correction term on the grid 2^{k} n" for k, order, _ in grids]
    names += (f"the node sum term on the grid 2^{k} n" for k, _, _ in families)
    return families, tuple((order, c) for _, order, c in grids), tuple(names)


def _rule_value(integrand: PeriodicIntegrand, n: int, families, corrections, names):
    """The rule of a ``_rule_weights`` table at n: the fsum of the weighted
    family sums w h S, plus the fsum of the derivative corrections.

    The compact rule's own grouping, by node family, gives its value; the
    generic rule is the same extrapolation grouped by grid, each family one
    grid's plain sum, and its grids nest: the level-0 family at 2^k n is
    the primitive lattices P(2^k n), P(2^(k-1) n), ..., a tail of the
    finest grid's, so the finest grid's fill serves every family.
    """
    h, m = integrand.period / n, integrand.m
    # corrections first: a missing derivative raises before g is evaluated
    correction_terms = [c * integrand.deriv_at_t(order) * h ** (1 - m + order) for order, c in corrections]
    sums = _family_sums(integrand, [(2**k * n, level) for k, level, _ in families])
    sum_terms = [w * h * total for total, (_, _, w) in zip(sums, families)]
    value = _fsum(sum_terms) + _fsum(correction_terms)
    return _finite_value(value, correction_terms + sum_terms, names, "the rule value")


def t_hat(spec: RuleSpec, integrand: PeriodicIntegrand):
    """Evaluate the rule described by ``spec`` on ``integrand``.

    The generic path combines base rules at n, 2n, ..., 2^s n with the
    extrapolation weights and therefore needs g derivatives up to order m;
    the compact path evaluates the same combination regrouped by node and is
    derivative-free at the top level s for each m.  Both are one float
    table (``_rule_weights``) read by one body (``_rule_value``).  For a
    vector-valued g (see PeriodicIntegrand) the result is an array, one
    value per row of g, each bit for bit the value of that row's own scalar
    integrand.
    """
    if spec.m != integrand.m:
        raise ValueError(
            f"rule order m={spec.m} does not match integrand m={integrand.m}"
        )
    return _rule_value(integrand, spec.n, *_rule_weights(spec.m, spec.s, spec.path))


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
    Needs n >= 1, a finite T > 0, finite norms >= 0 and a finite u > 0.  A
    term, or the floor, that overflows in doubles (1/T^2 does where T^2
    underflows) raises EvaluationError naming it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if not 0 < period < math.inf:
        raise ValueError(f"period must be finite and > 0 (got {period})")
    if not all(0 <= v < math.inf for v in (g_norm, gp_norm, gppp_norm)) or not 0 < unit < math.inf:
        raise ValueError("norms must be finite and >= 0, and unit finite and > 0")
    terms: list = []
    for name, term in (
        ("term 2 zeta(3)/T^2 ||g||", lambda: 2.0 * zeta_at(3) / period**2 * g_norm),
        ("term pi^2/(3 T n) ||g'||", lambda: math.pi**2 / (3.0 * period * n) * gp_norm),
        ("term T/(6 n^3) ||g'''||", lambda: period / (6.0 * n**3) * gppp_norm),
        ("value K(n) u n^2", lambda: (terms[0] + terms[1] + terms[2]) * unit * n**2),
    ):
        try:
            terms.append(term())
        except (ZeroDivisionError, OverflowError):
            terms.append(math.inf)
        if not math.isfinite(terms[-1]):
            raise EvaluationError(f"the roundoff floor's {name} overflowed at n={n}, T={period!r}")
    return terms[-1]
