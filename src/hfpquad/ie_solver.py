"""Collocation solvers for periodic supersingular integral equations.

lambda*phi(t) + FP-integral of K(t,x) phi(x) dx = w(t), with K(t,x) =
U(t,x)/(x-t)^3 extended T-periodically.  Two discretizations:

* "simple": the derivative-free rule on a grid of 4n points per period,
  encoded by the integer weight pattern epsilon_ij in {8, -2, 0};
* "advanced": the n-point corrected rule, with the unknown derivatives of
  phi expressed through derivatives of the trigonometric cardinal kernel
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
from .errors import (
    DerivativesRequiredError,
    EvaluationError,
    ReferenceConvergenceError,
    SingularSystemError,
)
from .integrands import _series_mul, kernel_factor_series, numerator_factor, numerator_factor_derivs
from .quadrature import PeriodicIntegrand, RuleSpec, _wrap, roundoff_floor, t_hat

__all__ = [
    "PeriodicKernel",
    "CollocationSystem",
    "CollocationSolution",
    "epsilon_weight",
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


@dataclass(frozen=True)
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
      K_per(t, t+y) * y^3 = psi(y) for every t, elementwise in y.  Every
      collocation matrix of such a kernel is circulant, so the builders
      store its first column only, and ``solve_collocation`` solves it with
      the FFT.  ``manufactured_rhs`` applies its rule on a uniform periodic
      grid as one FFT convolution per rule, and elsewhere in batches with
      psi evaluated once per batch.

    ``u_xderivs_diag``, when present, holds four callables t -> the k-th
    y-derivative of the numerator K_per(t, t+y) * y^3 at y = 0, k = 0..3;
    the advanced discretization requires them.  For a ``psi`` kernel they
    are the constants psi^(k)(0), and the advanced builder reads them at
    its first grid point.
    """

    a: float
    b: float
    centered: Optional[Callable] = None
    psi: Optional[Callable] = None
    u_xderivs_diag: Optional[tuple[Callable, ...]] = None

    def __post_init__(self):
        if (self.centered is None) == (self.psi is None):
            raise ValueError("a periodic kernel takes exactly one of centered and psi")

    @property
    def period(self) -> float:
        return self.b - self.a

    def numerator_centered(self, t, y):
        """K_per(t, t+y) * y^3 for centered offsets, broadcast over t and y."""
        if self.psi is not None:
            return np.asarray(self.psi(y), dtype=float)
        return np.asarray(self.centered(t, y), dtype=float)

    def diag_derivs(self, t: float) -> tuple[float, float, float, float]:
        if self.u_xderivs_diag is None or len(self.u_xderivs_diag) < 4:
            raise DerivativesRequiredError(
                "advanced approach requires U_k(t,t) for k = 0..3"
            )
        return tuple(float(fn(t)) for fn in self.u_xderivs_diag)


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant matrix with first column ``column``: entry (i, j) =
    column[(i - j) mod N]."""
    js = np.arange(column.size)
    return column[np.subtract.outer(js, js) % column.size]


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


def epsilon_weight(i: int, j: int) -> int:
    """Quadrature weight pattern: 8, -2 or 0 depending on i - j.

    8 when |i-j-2| is divisible by 4, -2 when |i-j-1| is divisible by 2,
    0 otherwise; in particular the diagonal weight is 0, so the kernel is
    never evaluated at its singular point.
    """
    if abs(i - j - 2) % 4 == 0:
        return 8
    if abs(i - j - 1) % 2 == 0:
        return -2
    return 0


def _epsilon_pattern(N: int) -> np.ndarray:
    """epsilon_weight(0, d) for the residues d = 0..N-1, as one array."""
    d = np.arange(N)
    return np.where(d % 4 == 2, 8, np.where(d % 2 == 1, -2, 0))


def _assemble(
    kernel: PeriodicKernel,
    grid: Optional[np.ndarray],
    step: float,
    weights: np.ndarray,
    lam: float,
    ak: Optional[Callable] = None,
) -> dict:
    """The collocation matrix as CollocationSystem's storage keyword.

    Row i has lam on its diagonal and weights[d] * K_per(t_i, t_i + dy_d)
    at column (i + d) mod N, t_i = grid[i], dy_d the centered integer offset
    of the residue d times ``step`` (free of wrap cancellation and away from
    the wrap-around pole).  weights[0] must be 0: residue 0 is the diagonal.
    ``ak`` (advanced approach) maps t to A_0..A_3; row i then gains A_0(t_i)
    on its diagonal and sum_k A_k(t_i) D_N^(k)((i - j) T/N), k = 1, 2, 3.

    A ``psi`` kernel is evaluated once on the live offsets, laid out as the
    first ``column`` (residue d at row (N - d) mod N), with its A_k read at
    grid[0]; without ``ak`` the grid is not read and may be None.  A
    ``centered`` kernel is evaluated with the grid as a column against the
    live offsets and scattered into the dense ``matrix``.  Both paths take
    the same float operations, so their matrices are equal bit for bit.
    """
    N = weights.size
    live = np.flatnonzero(weights)
    dy = ((live + N // 2) % N - N // 2) * step
    circulant = kernel.psi is not None
    # one row of residues for a psi kernel, one per grid point otherwise
    kmat = kernel.numerator_centered(None if circulant else grid[:, None], dy) / dy**3
    kmat *= weights[live]
    # without ak, the A_k table is A_0 = 0 alone
    if circulant:
        acoef = ak(float(grid[0])) if ak is not None else (0.0,)
        column = np.zeros(N)
        column[0] = lam + acoef[0]
        column[-live % N] = kmat
        for k in range(1, len(acoef)):
            column += acoef[k] * _cardinal_row(k, N, kernel.period)
        return {"column": column}
    amat = np.array([ak(float(t)) for t in grid]) if ak is not None else np.zeros((N, 1))
    matrix = np.diag(lam + amat[:, 0])
    rows = np.arange(N)[:, None]
    cols = rows + live
    cols[cols >= N] -= N
    matrix[rows, cols] = kmat
    for k in range(1, amat.shape[1]):
        matrix += amat[:, k][:, None] * cardinal_derivative_matrix(k, N, kernel.period)
    return {"matrix": matrix}


def build_simple_system(
    kernel: PeriodicKernel, w_eval: Callable, lam: float, n: int
) -> CollocationSystem:
    """Collocation system of the derivative-free rule on 4n grid points.

    Grid x_j = a + j*hhat, hhat = T/(4n), j = 1..4n; entries
    eps_ij * hhat * K(x_i, x_j) + lam on the diagonal pattern.  A ``psi``
    kernel gives a circulant system stored as its first column.
    """
    if n < 2:
        raise ValueError("simple approach needs n >= 2")
    N = 4 * n
    hh = (kernel.period / n) / 4.0
    grid = kernel.a + np.arange(1, N + 1, dtype=np.int64) * hh
    rhs = np.asarray(w_eval(grid), dtype=float)
    # eps_ij depends only on (j - i) mod 4, and 4 divides N
    storage = _assemble(kernel, grid, hh, _epsilon_pattern(N) * hh, lam)
    return CollocationSystem(grid=grid, rhs=rhs, **storage)


# ---------------------------------------------------------------------------
# cardinal kernel D_n and derivatives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dirichlet_taylor(n: int, n_terms: int = 10) -> tuple[float, ...]:
    # even z-series of sin(n z) cot(z)/n about z = 0: sin(n z)/(n z) times
    # z cot z, which is kernel_factor_series(1)
    sinc_n = [Fraction((-n * n) ** q, math.factorial(2 * q + 1)) for q in range(n_terms)]
    series = _series_mul(sinc_n, kernel_factor_series(1, n_terms), n_terms)
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


def _cardinal_row(k: int, n: int, period: float) -> np.ndarray:
    """D_n^(k)(j T/n) for j = 0..n-1."""
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


def ak_coefficients(kernel: PeriodicKernel, t: float, h: float):
    """Coefficients A_0..A_3 multiplying phi(t), phi'(t), phi''(t), phi'''(t)
    in the corrected rule applied to K(t,.)phi."""
    u0, u1, u2, u3 = kernel.diag_derivs(t)
    pi2_3 = math.pi**2 / 3.0
    a0 = -pi2_3 * u1 / h + u3 * h / 6.0
    a1 = -pi2_3 * u0 / h + u2 * h / 2.0
    a2 = u1 * h / 2.0
    a3 = u0 * h / 6.0
    return a0, a1, a2, a3


def build_advanced_system(
    kernel: PeriodicKernel, w_eval: Callable, lam: float, n: int
) -> CollocationSystem:
    """n-point collocation system of the corrected rule, n even >= 4.

    Grid x_j = a + j T/n, j = 0..n-1; matrix
    [lam + A_0(x_i)] delta_ij + h K(x_i,x_j)(1-delta_ij)
    + sum_k A_k(x_i) D_n^(k)(x_i - x_j).  For a ``psi`` kernel the A_k are
    constants and the system is stored as its first column.
    """
    if n < 4 or n % 2:
        raise ValueError(f"advanced approach needs even n >= 4 (got n={n})")
    h = kernel.period / n
    grid = kernel.a + np.arange(n, dtype=np.int64) * h
    weights = np.full(n, h)
    weights[0] = 0.0
    rhs = np.asarray(w_eval(grid), dtype=float)
    storage = _assemble(kernel, grid, h, weights, lam, ak=lambda t: ak_coefficients(kernel, t, h))
    return CollocationSystem(grid=grid, rhs=rhs, **storage)


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
    same 1-D offsets: a ``psi`` kernel's numerator is evaluated once on the
    offsets, and only phi per (point, node).
    """
    T = kernel.period
    a, b = kernel.a, kernel.b
    t_ab = _wrap(np.asarray(t, dtype=float), a, b)
    t_col = t_ab[:, None] if t_ab.ndim else float(t_ab)

    def g_eval(y):
        y = np.asarray(y, dtype=float)
        u = kernel.numerator_centered(t_col, y)
        return u * np.asarray(phi(_wrap(t_col + y, a, b)), dtype=float)

    return PeriodicIntegrand(m=3, t=0.0, a=-T / 2.0, b=T / 2.0, g_eval=g_eval)


#: singular points per batch of the rhs; at n_high = 96 one batch's g values
#: are 64 x 864 doubles (0.45 MB), its offsets and psi values 864 doubles.
#: The grid path gathers its norm sample in blocks of as many points
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


def _rule_on_lattice(kernel: PeriodicKernel, n_rule: int, spectrum: np.ndarray, L: int):
    """The (3, 2) compact rule at n_rule at every point of an L-point lattice.

    There the rule is the kernel part of the simple system at n_rule, the
    circulant column ``_assemble`` gives with lam = 0, applied to phi's
    samples (criterion 07 checks this row by row), with its 4 n_rule
    residues spread at stride L/(4 n_rule).  So it is one convolution, done with the real FFT;
    ``spectrum`` is the rfft of phi on the lattice.
    """
    M = 4 * n_rule
    hh = (kernel.period / n_rule) / 4.0
    column = np.zeros(L)
    column[:: L // M] = _assemble(kernel, None, hh, _epsilon_pattern(M) * hh, 0.0)["column"]
    return np.fft.irfft(np.fft.rfft(column) * spectrum, L)


def manufactured_rhs(
    kernel: PeriodicKernel,
    phi: Callable,
    lam: float,
    n_high: int = 96,
    tol: float = 1e-11,
) -> Callable:
    """Right-hand side w(t) = lam*phi(t) + FP-integral of K(t,.)phi.

    The inner integral uses the derivative-free (3, 2) compact rule at
    n_high with a doubling self-check against 2 n_high; failure of the check
    raises rather than returning an unconverged value.  Because the rule's
    own roundoff floor grows like u*(4n)^2 in double precision, the check
    allows that much noise on top of the stated tolerance (otherwise large
    n_high would fail spuriously while being as converged as the arithmetic
    permits): 50 * roundoff_floor(||g||, 0, 0, T, 8 n_high), with ||g|| the
    largest |g| over 257 equispaced offsets.

    The returned w takes a scalar (giving a float) or an array of any shape
    (giving an array of that shape).  It takes one of two paths:

    * grid: a ``psi`` kernel and a 1-D array of N >= 2 points forming one
      period of a uniform grid, ts[i] = a + (k0 + i) T/N to within a few
      ulp (``_grid_indices``), as both builders' grids are.  Every rule node and norm
      sample point then lies on the lattice of L = lcm(N, 8 n_high, 256)
      points: phi is sampled there once, and each rule is one FFT
      convolution (``_rule_on_lattice``) with psi evaluated on its live
      offsets.  The checks run on whole arrays.  The first point also goes
      through the batched rule as an anchor; the two values must agree
      within that point's noise allowance, else ReferenceConvergenceError
      names it.  A lattice above _RHS_LATTICE_MAX points takes the batched
      path instead.
    * batched: every other input.  The rules are applied, in the offset
      variable y = x - t, to a vector-valued g with one row for each of up
      to _RHS_BLOCK singular points, so ``phi`` must evaluate (points,
      nodes) arrays elementwise and a ``centered`` numerator must broadcast
      a (points, 1) column of t against the 1-D offsets; a ``psi`` kernel's
      numerator is evaluated once per batch on the shared offsets.  Each
      value is bit for bit the one the rule gives for its point alone.

    A non-finite value at a rule node, at a lattice point or in the norm
    sample raises EvaluationError; the first point failing the doubling
    check raises ReferenceConvergenceError naming it.
    """
    coarse = RuleSpec(3, 2, n_high, path="compact")
    fine = RuleSpec(3, 2, 2 * n_high, path="compact")
    T = kernel.period
    ys = np.linspace(-T / 2.0, T / 2.0, 257)
    # roundoff_floor is linear in the norm of g
    noise_per_norm = 50.0 * roundoff_floor(1.0, 0.0, 0.0, T, 8 * n_high)

    def check(ts, v1, v2, g_norm):
        bad = np.flatnonzero(~np.isfinite(g_norm))
        if bad.size:
            raise EvaluationError(f"kernel slice at t={float(ts[bad[0]])!r} is not finite")
        # written so that a NaN on either side fails the check
        allowed = tol * (1.0 + np.abs(v2)) + noise_per_norm * g_norm
        bad = np.flatnonzero(~(np.abs(v1 - v2) <= allowed))
        if bad.size:
            i = bad[0]
            raise ReferenceConvergenceError(
                f"inner quadrature doubling check failed at t={float(ts[i])!r}: "
                f"|{v1[i] - v2[i]:.3e}| above tolerance"
            )

    def batch(ts):
        integrand = _kernel_slice_integrand(kernel, phi, ts)
        v1 = t_hat(coarse, integrand)
        v2 = t_hat(fine, integrand)
        check(ts, v1, v2, np.max(np.abs(integrand.g_eval(ys)), axis=-1))
        return lam * np.asarray(phi(ts), dtype=float) + v2

    def on_grid(ts, k, L):
        N = ts.size
        x = kernel.a + np.arange(L) * (T / L)
        samples = np.asarray(phi(x), dtype=float)
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise EvaluationError(f"phi is not finite at lattice point x={float(x[bad[0]])!r}")
        spectrum = np.fft.rfft(samples)
        p = k % N * (L // N)
        v1 = _rule_on_lattice(kernel, n_high, spectrum, L)[p]
        v2 = _rule_on_lattice(kernel, 2 * n_high, spectrum, L)[p]
        psi_ys = np.asarray(kernel.psi(ys), dtype=float)
        offsets = np.arange(ys.size) * (L // 256) - L // 2
        g_norm = np.empty(N)
        for start in range(0, N, _RHS_BLOCK):
            rows = (p[start : start + _RHS_BLOCK, None] + offsets) % L
            g_norm[start : start + _RHS_BLOCK] = np.max(np.abs(psi_ys * samples[rows]), axis=-1)
        check(ts, v1, v2, g_norm)
        out = lam * np.asarray(phi(ts), dtype=float) + v2
        anchor = batch(ts[:1])[0]
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
            L = math.lcm(ts.size, 8 * n_high, 256)
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
    numerator, whose derivatives at 0 are (T/pi)^3, 0, 0, 0.
    """
    T = b - a
    psi0 = numerator_factor_derivs(3, 3, T)

    def psi(y):
        return numerator_factor(3, y, T)

    diag = tuple((lambda v: (lambda t: v))(psi0[k]) for k in range(4))
    return PeriodicKernel(a, b, psi=psi, u_xderivs_diag=diag)
