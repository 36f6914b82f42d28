"""Collocation solvers for periodic supersingular integral equations.

lambda*phi(t) + FP-integral of K(t,x) phi(x) dx = w(t), with K(t,x) =
U(t,x)/(x-t)^3 extended T-periodically.  Two discretizations:

* "simple": the derivative-free compact rule (3, 2) on a grid of 4n points
  per period, the paper's weights epsilon_ij in {8, -2, 0} times T/(4n);
* "advanced": the n-point corrected rule (3, 0), with the unknown derivatives
  of phi expressed through derivatives of the trigonometric cardinal kernel
  D_n, so the system stays n-by-n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import DerivativesRequiredError, EvaluationError, ReferenceConvergenceError, SingularSystemError
from .integrands import _series_mul, kernel_factor_series, numerator_factor, numerator_factor_derivs
from .quadrature import (
    CompactRule, PeriodicIntegrand, RuleSpec, _call, _check_finite, _memoize_rules, _psi_table, _require_integers,
    _require_period, _rule_weights, _shared, _wrap, compact_rule, roundoff_floor, t_hat,
)

__all__ = [
    "PeriodicKernel",
    "CollocationSystem",
    "CollocationSolution",
    "build_simple_system",
    "cardinal_derivative_matrix",
    "dirichlet_kernel",
    "dirichlet_kernel_deriv",
    "ak_coefficients",
    "build_advanced_system",
    "solve_collocation",
    "manufactured_rhs",
    "supersingular_cotangent_kernel",
]

_Z_SWITCH = 1e-4  # |z| below this uses the series branch of D_n

#: terms of the even z-series of D_n that the series branch sums
_DIRICHLET_TERMS = 10


@dataclass(frozen=True, eq=False)
class PeriodicKernel:
    """K(t,x) on [a,b]^2, T-periodic in both arguments, with a pole of
    order 3 at x = t, given through its numerator in the offset y = x - t.

    Exactly one numerator is declared:

    * ``centered(t, y)`` = K_per(t, t+y) * y^3 for centered offsets
      |y| <= T/2, with K_per the periodic extension of K.  It is evaluated
      elementwise and broadcasts like numpy: the dense assembly passes t as
      a column against a row of offsets, and ``manufactured_rhs`` points
      against nodes.
    * ``psi(y)``, which declares the kernel translation invariant:
      K_per(t, t+y) * y^3 = psi(y) for every t, of y's shape.  Every
      collocation matrix of such a kernel is circulant, so the builders
      store its first column only, and ``solve_collocation`` solves it with
      the FFT.  ``manufactured_rhs`` applies its rule on a uniform periodic
      grid as one FFT convolution per rule, and elsewhere in batches.  psi
      must be deterministic: ``numerator_centered`` serves its values from
      a table shared by every call with the same psi and offsets
      (``quadrature._psi_table``).

    ``u_xderivs_diag``, when present, holds four callables t -> the k-th
    y-derivative of the numerator K_per(t, t+y) * y^3 at y = 0, k = 0..3;
    the advanced discretization requires them.  For a ``psi`` kernel they
    are the constants psi^(k)(0), and the advanced builder reads them at
    t = a, its first grid point; each returns one value.  A ``centered``
    (of t and y's broadcast shape, or y's), ``psi`` or U_k that raises or
    returns another shape gives EvaluationError naming it (``_call``).
    """

    a: float
    b: float
    centered: Optional[Callable] = None
    psi: Optional[Callable] = None
    u_xderivs_diag: Optional[tuple[Callable, ...]] = None

    def __post_init__(self):
        _require_period(self.a, self.b)
        if (self.centered is None) == (self.psi is None):
            raise ValueError("a periodic kernel takes exactly one of centered and psi")

    @property
    def period(self) -> float:
        return self.b - self.a

    def numerator_centered(self, t, y):
        """K_per(t, t+y) * y^3 for centered offsets, broadcast over t and y.

        A ``psi`` kernel's values are read-only arrays from its
        ``quadrature._psi_table``, keyed on the offsets' shape and bytes.
        """
        y = np.asarray(y, dtype=float)
        if self.psi is not None:
            return _psi_table(self.psi, _frombuffer, y.shape, y.tobytes())
        return _call("centered", "offsets", self.centered, t, y)

    def diag_derivs(self, t: float) -> tuple[float, float, float, float]:
        if self.u_xderivs_diag is None or len(self.u_xderivs_diag) < 4:
            raise DerivativesRequiredError(
                "advanced approach requires U_k(t,t) for k = 0..3"
            )
        return tuple(float(_call(f"U_{k}", "point", fn, t)) for k, fn in enumerate(self.u_xderivs_diag))


def _frombuffer(shape: tuple, data: bytes) -> np.ndarray:
    """The float64 offsets with this shape and these bytes: the key of a
    ``psi`` kernel's table (``quadrature._psi_table``)."""
    return np.frombuffer(data).reshape(shape)


def _circulant(rows: np.ndarray) -> np.ndarray:
    """Entry (i, j) = rows[i, (i - j) mod N], ``rows`` broadcast to N rows:
    a circulant matrix from its first column, any collocation matrix from
    one row per grid point.  With ext[i, q] = rows[i, (N - 1 - q) mod N],
    row i is the window ext[i, N - 1 - i :][:N], so every entry is a copy."""
    N = rows.shape[-1]
    ext = np.broadcast_to(np.concatenate((rows[..., ::-1], rows[..., :0:-1]), axis=-1), (N, 2 * N - 1))
    js = np.arange(N)
    return np.lib.stride_tricks.sliding_window_view(ext, N, axis=-1)[js, N - 1 - js]


class CollocationSystem:
    """Collocation system matrix @ phi_hat = rhs on ``grid``.

    The builders give a translation-invariant kernel (``PeriodicKernel.psi``)
    a circulant matrix, entry (i, j) = column[(i - j) mod N], and store only
    that first ``column``: O(N) memory.  ``matrix`` is then built from it on
    first access and cached.  Any other system is constructed with its dense
    ``matrix`` and has ``column`` None.  Exactly one of the two is given.
    """

    def __init__(
        self,
        *,
        grid: np.ndarray,
        rhs: np.ndarray,
        matrix: Optional[np.ndarray] = None,
        column: Optional[np.ndarray] = None,
    ):
        if (matrix is None) == (column is None):
            raise ValueError("a collocation system takes exactly one of matrix and column")
        self.grid = grid
        self.rhs = rhs
        self.column = column
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _circulant(self.column)
        return self._matrix


@dataclass
class CollocationSolution:
    """Solution values with the residual and the 2-norm condition number.

    ``structure`` names how the system was solved: "circulant" (with the
    FFT; the condition number exactly, from the moduli of the eigenvalues)
    or "dense" (LU; the condition number from the singular values).
    """

    values: np.ndarray
    residual: float
    condition: float
    structure: str


# ---------------------------------------------------------------------------
# simple approach
# ---------------------------------------------------------------------------


def _residue_weights(rule: CompactRule, N: int, h: float) -> np.ndarray:
    """Weights on the residues d = 0..N-1, the offsets d h/2^s: level l >= 1 on
    the odd multiples of 2^(s-l), level 0 on the nonzero multiples of 2^s."""
    weights = np.zeros(N)
    for _, level, w in _rule_weights(rule.m, rule.s, "compact")[0]:
        first = 2 ** (rule.s - level)
        weights[first :: 2 * first if level else first] = w * h
    return weights


def _assemble(
    kernel: PeriodicKernel, grid: Optional[np.ndarray], rule: CompactRule, n: int, lam: float
) -> dict:
    """``rule`` at n on N = 2^s n grid points as CollocationSystem's storage keyword.

    Entry (i, j) depends only on t_i = grid[i] and the residue (j - i) mod N,
    so the system is one table ``rows``, entry (i, (i - c) mod N) at rows[i, c],
    laid out by ``_circulant``.  Column 0 holds lam, plus A_0(t_i) for a rule
    with derivative corrections (the advanced approach).  The column of a live
    residue d, (N - d) mod N, holds weights[d] * K_per(t_i, t_i + dy_d), with
    ``_residue_weights`` and dy_d the centered integer offset of d times h/2^s
    (free of wrap cancellation and away from the wrap-around pole).  Each A_k,
    k >= 1, not all zero adds A_k(t_i) D_N^(k)(c T/N) (``_ak_rows``).

    A ``psi`` kernel has one row, read at t = a and stored as the first
    ``column``; the grid is not read and may be None.  A ``centered`` kernel
    has one row per grid point, laid out as the dense ``matrix``.  An offset
    whose cube underflows to 0 (a spacing below about 1e-108) or overflows
    (above about 5.6e102) raises EvaluationError naming its residue, without
    a warning and before any kernel value is read.
    """
    h = kernel.period / n
    N = 2**rule.s * n
    weights = _residue_weights(rule, N, h)
    live = np.flatnonzero(weights)
    dy = ((live + N // 2) % N - N // 2) * (h / 2**rule.s)
    circulant = kernel.psi is not None
    ts = np.array([kernel.a]) if circulant else grid
    with np.errstate(over="ignore"):
        cubes = dy**3
    bad = np.flatnonzero((cubes == 0) | ~np.isfinite(cubes))
    if bad.size:
        i = int(bad[0])
        how = "underflowed to 0" if cubes[i] == 0 else "overflowed"
        raise EvaluationError(f"the offset power dy**3 {how} at residue {live[i]} of {N} (dy={float(dy[i])!r})")
    kmat = kernel.numerator_centered(ts[:, None], dy) / cubes
    kmat *= weights[live]
    # without corrections A_0 = 0 alone
    amat = _ak_rows(kernel, ts, rule, h) if rule.deriv_corrections else np.zeros((ts.size, 1))
    rows = np.zeros((ts.size, N))
    rows[:, 0] = lam + amat[:, 0]
    rows[:, -live % N] = kmat
    # a column of zeros (A_2 of the t-dependent and cotangent kernels) adds nothing
    nonzero = amat.any(axis=0)
    for k in range(1, amat.shape[1]):
        if nonzero[k]:
            rows += amat[:, k, None] * _cardinal_row(k, N, kernel.period)
    return {"column": rows[0]} if circulant else {"matrix": _circulant(rows)}


def _require_finite_lam(lam) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite (got {lam!r})")


def _system(kernel, w_eval, grid, rule, n, lam) -> CollocationSystem:
    """The system of ``rule`` at n on ``grid``, w_eval(grid) one finite value
    per point (``_call``).  A non-finite lam raises ValueError before w_eval runs."""
    _require_finite_lam(lam)
    rhs = _call("rhs evaluator", "grid points", w_eval, grid)
    _check_finite(rhs, grid, "rhs is not finite at grid point {index} (x={x!r})")
    return CollocationSystem(grid=grid, rhs=rhs, **_assemble(kernel, grid, rule, n, lam))


def build_simple_system(
    kernel: PeriodicKernel, w_eval: Callable, lam: float, n: int
) -> CollocationSystem:
    """Collocation system of the derivative-free rule (3, 2) on 4n grid points.

    Grid x_j = a + j*hhat, hhat = T/(4n), j = 1..4n; entries
    eps_ij * hhat * K(x_i, x_j) + lam on the diagonal pattern.  A ``psi``
    kernel gives a circulant system stored as its first column.  A
    non-integral n or non-finite lam raises ValueError before w_eval runs.
    """
    _require_integers(n=n)
    if n < 2:
        raise ValueError("simple approach needs n >= 2")
    hh = (kernel.period / n) / 4.0
    grid = kernel.a + np.arange(1, 4 * n + 1, dtype=np.int64) * hh
    return _system(kernel, w_eval, grid, compact_rule(3, 2), n, lam)


# ---------------------------------------------------------------------------
# cardinal kernel D_n and derivatives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dirichlet_taylor(n: int) -> tuple[float, ...]:
    # even z-series of sin(n z) cot(z)/n about z = 0: sin(n z)/(n z) times
    # z cot z, which is kernel_factor_series(1)
    sinc_n = [Fraction((-n * n) ** q, math.factorial(2 * q + 1)) for q in range(_DIRICHLET_TERMS)]
    series = _series_mul(sinc_n, kernel_factor_series(1, _DIRICHLET_TERMS), _DIRICHLET_TERMS)
    return tuple(float(c) for c in series)


def _dirichlet_eval(order: int, n: int, y, period: float):
    if n < 2 or n % 2:
        raise ValueError(f"the cardinal kernel needs even n >= 2 (got n={n})")
    y = np.asarray(y, dtype=float)
    shape = y.shape
    yw = y - period * np.round(y / period)
    z = (math.pi / period) * np.atleast_1d(yw).ravel()
    taylor = np.array(_dirichlet_taylor(n))
    vals = _kernels.dirichlet_dz(z, n, order, taylor, _Z_SWITCH)
    vals = vals * (math.pi / period) ** order
    vals = vals.reshape(shape)
    return vals if shape else float(vals)


def dirichlet_kernel(n: int, y, period: float):
    """Trigonometric cardinal kernel sin(n pi y/T) cot(pi y/T)/n, n even.

    Equals 1 at y = 0 (mod T) and 0 at the other grid points jT/n.
    """
    return _dirichlet_eval(0, n, y, period)


def dirichlet_kernel_deriv(k: int, n: int, y, period: float):
    """k-th derivative of the cardinal kernel, k in 1..3.

    Removable singularities at multiples of T are evaluated from the series
    branch; elsewhere the closed form of the derivative is used.
    """
    if not 1 <= k <= 3:
        raise ValueError("derivative order must be 1, 2 or 3")
    return _dirichlet_eval(k, n, y, period)


@_shared
def _cardinal_row(k: int, n: int, period: float) -> np.ndarray:
    """D_n^(k)(j T/n) for j = 0..n-1: every n-point build reads it."""
    offs = np.arange(n, dtype=np.int64) * (period / n)
    return np.asarray(_dirichlet_eval(k, n, offs, period))


def cardinal_derivative_matrix(k: int, n: int, period: float) -> np.ndarray:
    """Spectral differentiation matrix on the uniform n-point grid, n even.

    Entry (i, j) is D_n^(k)((i-j) T/n); applied to samples of a smooth
    periodic function it returns spectrally accurate k-th derivative values
    at the grid points.  This is the opt-in way to supply derivative values
    to rules that need them when analytic derivatives are unavailable; note
    the approximation changes the rule's error expansion.
    """
    return _circulant(_cardinal_row(k, n, period))


# ---------------------------------------------------------------------------
# advanced approach
# ---------------------------------------------------------------------------


def _ak_rows(kernel: PeriodicKernel, ts, rule: CompactRule, h: float) -> np.ndarray:
    """Row i: A_0..A_3 at ts[i], m = 3.  By Leibniz the correction
    c (U phi)^(order)(t) h^(1-m+order) of the rule's float table
    (``_rule_weights``) puts binom(order, k) of itself on U_(order-k) phi^(k),
    A_k = sum_j C[k, j] U_j, summed in order of j."""
    table = np.zeros((4, 4))
    for order, c in _rule_weights(rule.m, rule.s, "compact")[1]:
        scale = c * h ** (1 - rule.m + order)
        for k in range(order + 1):
            table[k, order - k] = math.comb(order, k) * scale
    u = np.array([kernel.diag_derivs(float(t)) for t in ts])
    return (u[:, :, None] * table.T).sum(axis=1)


def ak_coefficients(kernel: PeriodicKernel, t: float, h: float):
    """Coefficients A_0..A_3 multiplying phi(t), phi'(t), phi''(t), phi'''(t)
    in the corrected rule, compact rule (3, 0), applied to K(t,.)phi."""
    return tuple(_ak_rows(kernel, [t], compact_rule(3, 0), h)[0].tolist())


def build_advanced_system(
    kernel: PeriodicKernel, w_eval: Callable, lam: float, n: int
) -> CollocationSystem:
    """n-point collocation system of the corrected rule (3, 0), n even >= 4.

    Grid x_j = a + j T/n, j = 0..n-1; matrix
    [lam + A_0(x_i)] delta_ij + h K(x_i,x_j)(1-delta_ij)
    + sum_k A_k(x_i) D_n^(k)(x_i - x_j).  For a ``psi`` kernel the A_k are
    constants and the system is stored as its first column.  A
    non-integral n or non-finite lam raises ValueError before w_eval runs.
    """
    _require_integers(n=n)
    if n < 4 or n % 2:
        raise ValueError(f"advanced approach needs even n >= 4 (got n={n})")
    h = kernel.period / n
    grid = kernel.a + np.arange(n, dtype=np.int64) * h
    return _system(kernel, w_eval, grid, compact_rule(3, 0), n, lam)


# ---------------------------------------------------------------------------
# solve + manufactured problems
# ---------------------------------------------------------------------------


def solve_collocation(system: CollocationSystem) -> CollocationSolution:
    """Solve with a residual and 2-norm condition report.

    The system's storage decides the path.  A system stored as its first
    column (a ``psi`` kernel, either approach) is circulant and is
    diagonalised by the FFT: its eigenvalues lambda are the FFT of the
    column, the solution is ifft(fft(rhs)/lambda) and the residual is formed
    with the same eigenvalues, all in O(N log N) and without the N x N
    matrix.  The matrix is normal, so its singular values are the moduli of
    lambda, and the condition number comes from those exactly.  A system
    given as a dense matrix takes ``np.linalg.cond`` and ``np.linalg.solve``.
    A non-finite entry or a condition number above 0.05/u raises
    SingularSystemError.
    """
    column, matrix = system.column, None
    if column is None:
        matrix = system.matrix
    if not np.all(np.isfinite(matrix if column is None else column)):
        raise SingularSystemError(
            "collocation matrix has non-finite entries", condition=math.nan
        )
    if column is not None:
        structure = "circulant"
        eigenvalues = np.fft.fft(column)
        moduli = np.abs(eigenvalues)
        lo, hi = float(moduli.min()), float(moduli.max())
        cond = hi / lo if lo > 0.0 else math.inf
    else:
        structure = "dense"
        cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond > 0.05 / np.finfo(float).eps:
        raise SingularSystemError(
            f"collocation matrix singular to working precision (cond ~ {cond:.3e})",
            condition=cond,
        )
    if column is not None:
        values = np.fft.ifft(np.fft.fft(system.rhs) / eigenvalues).real
        applied = np.fft.ifft(eigenvalues * np.fft.fft(values)).real
    else:
        values = np.linalg.solve(matrix, system.rhs)
        applied = matrix @ values
    residual = float(np.max(np.abs(applied - system.rhs)))
    return CollocationSolution(
        values=values, residual=residual, condition=cond, structure=structure
    )


def _kernel_slice_integrand(kernel: PeriodicKernel, phi: Callable, t) -> PeriodicIntegrand:
    """f(y) = K_per(t, t+y) phi(t+y) as a periodic integrand in the offset y.

    The singular point is y = 0 on [-T/2, T/2): the rule's nodes are then
    the centered offsets themselves, and g(y) = K_per(t, t+y) y^3 phi(x)
    evaluates phi at the wrapped representative x of t + y inside [a, b).
    t is first reduced into [a, b), so that x keeps the offsets' accuracy
    for a point any number of periods out.  A 1-D array ``t`` gives a
    vector-valued g (see PeriodicIntegrand), one row per point over the
    same 1-D offsets: a ``psi`` kernel's numerator is read once on the
    offsets, from its table, and only phi is evaluated per (point, node).
    """
    T = kernel.period
    a, b = kernel.a, kernel.b
    t_ab = _wrap(np.asarray(t, dtype=float), a, b)
    t_col = t_ab[:, None] if t_ab.ndim else float(t_ab)

    def g_eval(y):
        u = kernel.numerator_centered(t_col, y)
        return u * _call("phi", "nodes", phi, _wrap(t_col + y, a, b))

    return PeriodicIntegrand(m=3, t=0.0, a=-T / 2.0, b=T / 2.0, g_eval=g_eval)


#: base node count of the rhs's (3, 2) compact rule, checked against twice it
_RHS_N_HIGH = 96

#: tolerance of the rhs's doubling check, relative to 1 + |w|
_RHS_TOL = 1e-11

#: intervals per period of the equispaced offsets of the rhs's norm sample
_RHS_NORM_INTERVALS = 256

#: singular points per batch of the rhs; at _RHS_N_HIGH one batch's g values
#: are 64 x 864 doubles (0.45 MB), its offsets and psi values 864 doubles.
#: The grid path takes its norm sample in blocks of as many points
_RHS_BLOCK = 64

#: most lattice points the grid path of the rhs samples phi on (16 MB per
#: array); a grid that needs more takes the batched rule
_RHS_LATTICE_MAX = 2**21


def _grid_indices(ts: np.ndarray, a: float, period: float) -> Optional[np.ndarray]:
    """k with ts[i] = a + (k[0] + i) T/N for N = ts.size >= 2 points, or None.

    Each point may be off its grid value by 4 ulp of the largest of |a|,
    |b| and |ts|, so both builders' grids qualify whichever way they round.
    """
    N = ts.size
    if N < 2 or not np.all(np.isfinite(ts)):
        return None
    h = period / N
    k = np.rint((ts - a) / h)
    if not np.array_equal(k, k[0] + np.arange(N)):
        return None
    slack = 4.0 * np.spacing(max(abs(a), abs(a + period), float(np.max(np.abs(ts)))))
    if not np.all(np.abs(ts - (a + k * h)) <= slack):
        return None
    return k.astype(np.int64)


@_shared
def _lattice_spectrum(kernel: PeriodicKernel, n_rule: int, L: int) -> np.ndarray:
    """The rfft of the (3, 2) rule's column at n_rule on an L-point lattice.

    The column is the kernel part of the simple system at n_rule, the
    circulant column ``_assemble`` gives with lam = 0, with its 4 n_rule
    residues spread at stride L/(4 n_rule).  It depends on neither phi nor
    lam, so every rhs with one kernel and lattice reads it from the store of
    shared tables, which keeps a spectrum of (L/2 + 1) * 16 bytes up to its
    bound.
    """
    column = np.zeros(L)
    column[:: L // (4 * n_rule)] = _assemble(kernel, None, compact_rule(3, 2), n_rule, 0.0)["column"]
    return np.fft.rfft(column)


def _rule_on_lattice(kernel: PeriodicKernel, n_rule: int, spectrum: np.ndarray, L: int):
    """The (3, 2) compact rule at n_rule at every point of an L-point lattice.

    There the rule is the rule's lattice column (``_lattice_spectrum``)
    applied to phi's samples (criterion 07 checks this row by row): one
    convolution, done as one irfft of the product of the column's spectrum
    from its table and ``spectrum``, the rfft of phi on the lattice.
    """
    return np.fft.irfft(_lattice_spectrum(kernel, n_rule, L) * spectrum, L)


def _lattice_norms(psi_ys: np.ndarray, samples: np.ndarray, N: int) -> np.ndarray:
    """The norm sample at the N grid points a + i T/N, i < N: the largest
    |psi_ys[j] samples[(i L/N + j L/I - L/2) mod L]| over the I + 1 offsets
    ``ys``, I = _RHS_NORM_INTERVALS, with ``samples`` phi on the L-point
    lattice.

    |psi phi| = |psi| |phi| exactly in IEEE arithmetic, so |phi| is laid out
    once, half a period on either side of the lattice, and point i reads it
    at stride L/I from i L/N through a strided view: no index array and no
    modulo.
    """
    L = samples.size
    mags = np.abs(samples)
    wrapped = np.concatenate((mags[L // 2 :], mags, mags[: L // 2]))
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, L + 1)
    windows = windows[:: L // N, :: L // _RHS_NORM_INTERVALS]
    psi_mags = np.abs(psi_ys)
    norms = np.empty(N)
    for start in range(0, N, _RHS_BLOCK):
        block = slice(start, start + _RHS_BLOCK)
        norms[block] = np.max(psi_mags * windows[block], axis=-1)
    return norms


def manufactured_rhs(kernel: PeriodicKernel, phi: Callable, lam: float) -> Callable:
    """Right-hand side w(t) = lam*phi(t) + FP-integral of K(t,.)phi.

    The inner integral uses the derivative-free (3, 2) compact rule at
    n_high = _RHS_N_HIGH with a doubling self-check against 2 n_high within
    _RHS_TOL * (1 + |w|); failure of the check raises rather than returning
    an unconverged value.  Because the rule's own roundoff floor grows like
    u*(4n)^2 in double precision, the check allows that much noise on top
    (at _RHS_N_HIGH the rounding alone reaches up to 31 times _RHS_TOL):
    50 * roundoff_floor(||g||, 0, 0, T, 8 n_high), with ||g|| the largest
    |g| over _RHS_NORM_INTERVALS + 1 equispaced offsets.

    The returned w takes a scalar (giving a float) or an array of any shape
    (giving an array of that shape).  It takes one of two paths:

    * grid: a ``psi`` kernel and a 1-D array of N >= 2 points forming one
      period of a uniform grid, ts[i] = a + (k0 + i) T/N to within a few
      ulp (``_grid_indices``), as both builders' grids are.  Every rule node and norm
      sample point then lies on the lattice of L = lcm(N, 8 n_high,
      _RHS_NORM_INTERVALS) points: phi is sampled and transformed there once,
      and each rule is one inverse FFT (``_rule_on_lattice``) of phi's
      spectrum times the rule's, which a table keyed by (kernel, n_rule, L)
      holds (``_lattice_spectrum``).  The checks run on whole arrays, with
      the norm sample read from |phi| on the lattice (``_lattice_norms``).
      The first point is the anchor: its kernel slice as a scalar
      integrand, both rules from one fill of its memo through the
      module-level ``t_hat``, their doubling check on the grid's norm
      sample at that point; the grid value must agree with the anchor's
      within that point's noise allowance, else ReferenceConvergenceError
      names it.  A lattice above _RHS_LATTICE_MAX points takes the batched
      path instead.
    * batched: every other input.  The rules are applied, in the offset
      variable y = x - t, to a vector-valued g with one row for each of up
      to _RHS_BLOCK singular points, so ``phi`` must evaluate (points,
      nodes) arrays elementwise and a ``centered`` numerator must broadcast
      a (points, 1) column of t against the 1-D offsets; a ``psi`` kernel's
      numerator is read on the shared offsets from its table, so psi is
      evaluated once per kernel and offsets, not once per batch.  Each
      value is bit for bit the one the rule gives for its point alone.

    On both paths phi takes an array and returns one of its shape; a phi
    that raises or returns another shape (a scalar too) gives
    EvaluationError naming it, as a failing psi or ``centered`` does.  A
    non-finite lam raises ValueError here, before anything is evaluated.
    A non-finite value at a rule node, at a lattice point or in the norm
    sample raises EvaluationError; the first point failing the doubling
    check raises ReferenceConvergenceError naming it.
    """
    _require_finite_lam(lam)
    coarse = RuleSpec(3, 2, _RHS_N_HIGH, path="compact")
    fine = RuleSpec(3, 2, 2 * _RHS_N_HIGH, path="compact")
    T = kernel.period
    ys = np.linspace(-T / 2.0, T / 2.0, _RHS_NORM_INTERVALS + 1)
    # roundoff_floor is linear in the norm of g
    noise_per_norm = 50.0 * roundoff_floor(1.0, 0.0, 0.0, T, 8 * _RHS_N_HIGH)

    def check(ts, v1, v2, g_norm):
        _check_finite(g_norm, ts, "kernel slice at t={x!r} is not finite")
        # written so that a NaN on either side fails the check
        allowed = _RHS_TOL * (1.0 + np.abs(v2)) + noise_per_norm * g_norm
        diff = np.atleast_1d(v1 - v2)
        bad = np.flatnonzero(~(np.abs(diff) <= allowed))
        if bad.size:
            i = bad[0]
            raise ReferenceConvergenceError(
                f"inner quadrature doubling check failed at t={float(ts[i])!r}: "
                f"|{diff[i]:.3e}| above tolerance"
            )

    def rules(t):
        # the kernel slice at t, a scalar or 1-D points, and both rules on
        # it from one memo fill
        integrand = _kernel_slice_integrand(kernel, phi, t)
        _memoize_rules(integrand, (coarse, fine))
        return integrand, t_hat(coarse, integrand), t_hat(fine, integrand)

    def batch(ts):
        integrand, v1, v2 = rules(ts)
        check(ts, v1, v2, np.max(np.abs(integrand.g_eval(ys)), axis=-1))
        return lam * _call("phi", "points", phi, ts) + v2

    def on_grid(ts, k, L):
        N = ts.size
        x = kernel.a + np.arange(L) * (T / L)
        samples = _call("phi", "lattice points", phi, x)
        _check_finite(samples, x, "phi is not finite at lattice point x={x!r}")
        spectrum = np.fft.rfft(samples)
        i = k % N
        v1 = _rule_on_lattice(kernel, _RHS_N_HIGH, spectrum, L)[i * (L // N)]
        v2 = _rule_on_lattice(kernel, 2 * _RHS_N_HIGH, spectrum, L)[i * (L // N)]
        g_norm = _lattice_norms(kernel.numerator_centered(None, ys), samples, N)[i]
        check(ts, v1, v2, g_norm)
        lam_phi = lam * _call("phi", "points", phi, ts)
        out = lam_phi + v2
        _, a1, a2 = rules(float(ts[0]))
        check(ts[:1], a1, a2, g_norm[:1])
        anchor = lam_phi[0] + a2
        if not abs(out[0] - anchor) <= noise_per_norm * g_norm[0]:
            raise ReferenceConvergenceError(
                f"rhs on the grid disagrees with the per-point rule at t={float(ts[0])!r}: "
                f"|{out[0] - anchor:.3e}| above its noise allowance"
            )
        return out

    def w(tval):
        tval = np.asarray(tval, dtype=float)
        ts = tval.ravel()
        if kernel.psi is not None and tval.ndim == 1:
            k = _grid_indices(ts, kernel.a, T)
            L = math.lcm(ts.size, 8 * _RHS_N_HIGH, _RHS_NORM_INTERVALS)
            if k is not None and L <= _RHS_LATTICE_MAX:
                return on_grid(ts, k, L)
        out = np.empty(ts.shape)
        for start in range(0, ts.size, _RHS_BLOCK):
            out[start : start + _RHS_BLOCK] = batch(ts[start : start + _RHS_BLOCK])
        return out.reshape(tval.shape) if tval.shape else float(out[0])

    return w


def supersingular_cotangent_kernel(a: float = -math.pi, b: float = math.pi) -> PeriodicKernel:
    """The kernel K(t,x) = cos(pi(x-t)/T)/sin^3(pi(x-t)/T) as a PeriodicKernel.

    It is translation invariant with psi = psi_3, the exact centered
    numerator, whose derivatives at 0 are (T/pi)^3, 0, 0, 0.  Each (a, b)
    gives one shared instance, so every solve with it reads one psi table.
    """
    return _cotangent_kernel(float(a), float(b))


@lru_cache(maxsize=64)
def _cotangent_kernel(a: float, b: float) -> PeriodicKernel:
    T = b - a
    psi0 = numerator_factor_derivs(3, 3, T)

    def psi(y):
        return numerator_factor(3, y, T)

    diag = tuple((lambda v: (lambda t: v))(psi0[k]) for k in range(4))
    return PeriodicKernel(a, b, psi=psi, u_xderivs_diag=diag)
